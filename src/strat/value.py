"""Frozen values. A subclass's fields are the annotated names of it and its bases,
in order, with class attributes as defaults; unless its body defines them, it gets
__init__ (by position or name, then __post_init__ if it has one), equality within
its class, the hash of the field tuple and a Cls(a=..., b=...) repr. They are
closures over the field names, not generated source; __match_args__ holds the names.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(dict.fromkeys(n for c in cls.__mro__[::-1] for n in vars(c).get("__annotations__", ())))
        missing = object()
        defaults = tuple(getattr(cls, n, missing) for n in names)
        get = attrgetter(*names) if names else lambda self: ()  # the value of one field, a tuple of others
        single, post = len(names) == 1, hasattr(cls, "__post_init__")
        put = object.__setattr__  # not through __dict__, which would slow every read of a field

        def __init__(self, *args, **named) -> None:
            if named or len(args) != len(names):  # the rest by name or by default; none twice
                given = len(args)
                args += tuple(map(named.pop, names[given:], defaults[given:]))
                if named or len(args) != len(names) or missing in args[given:]:
                    raise TypeError(f"{cls.__name__}() takes {', '.join(names)}, each once")
            for name, value in zip(names, args):
                put(self, name, value)
            if post:
                self.__post_init__()

        def __eq__(self, other) -> bool:
            return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self) -> int:
            return hash((get(self),) if single else get(self))

        def __repr__(self) -> str:
            return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

        cls.__match_args__ = names
        for method in (__init__, __eq__, __hash__, __repr__):
            if method.__name__ not in vars(cls):
                setattr(cls, method.__name__, method)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__
