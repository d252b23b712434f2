"""Frozen values against their dataclass twins: equality, hash, repr and the errors of misuse.

Each value class is compared with a `dataclasses.make_dataclass(..., frozen=True)`
class of the same name and fields, which is what the values were before, on
equal and unequal instances.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import helpers
from strat import And, Derivation, LenAtLeast, LenAtMost, Lasso, Or, SpecDocument, Step, TableEntry
from strat import rational, speclang
from strat.value import Value


def twin(cls: type, defaults: dict | None = None) -> type:
    """A frozen dataclass with the name, fields and defaults of cls."""
    defaults = defaults or {}
    fields = [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults else (name, object)
        for name in cls.__match_args__
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _cases():
    alc = helpers.alc()
    ab = alc.derivation("a", "phi1")
    loop = alc.derivation("a", "phi1", "phi3")
    step = alc.step("a", "phi1")
    universal, fail = speclang.SUniversal(), speclang.SFail()
    doc = speclang.parse("ars { objects: a, b; labels: l; steps: (a, l, b); }\nstrategy s = universal;\n")
    fields = [getattr(doc, name) for name in SpecDocument.__match_args__]
    return [
        # (class, defaults, argument tuples: some equal, some not, whether repr is the class's own)
        (Step, {}, [("a", "phi1", "b"), ("a", "phi1", "b"), ("a", "phi2", "c")], True),
        (Derivation, {}, [(alc, "a", ("phi1",)), (alc, "a", ("phi1",)), (alc, "b", ("phi3",))], False),
        (
            Lasso,
            {},
            [(alc.empty_derivation("a"), loop), (ab.parent, loop), (ab, alc.derivation("b", "phi3", "phi1"))],
            False,
        ),
        (
            TableEntry,
            {"word": (), "wildcard": True, "source": None},
            [
                ("a", frozenset({step})),
                ("a", frozenset({step}), (), True),
                ("a", frozenset({step}), ("phi3",), False, "b"),
            ],
            True,
        ),
        (speclang.SUnionC, {}, [(universal, fail), (universal, fail), (fail, universal)], True),
        (speclang.QCheck, {}, [("prefix", "s", 3), ("prefix", "s", 3), ("factor", "s", 3)], True),
        (SpecDocument, {}, [tuple(fields), tuple(fields), (*fields[:-1], (speclang.QWitness("s", 2),))], True),
        (rational.Star, {}, [(rational.Sym("l"),), (rational.Sym("l"),), (rational.Sym("m"),)], True),
        (speclang.SUniversal, {}, [(), ()], True),
    ]


CASES = _cases()


@pytest.mark.parametrize("cls, defaults, calls, own_repr", CASES, ids=[case[0].__name__ for case in CASES])
class TestAgainstDataclass:
    def test_equality_and_hash(self, cls, defaults, calls, own_repr):
        other = twin(cls, defaults)
        for x, y in itertools.product(calls, repeat=2):
            assert (cls(*x) == cls(*y)) == (other(*x) == other(*y))
            assert (cls(*x) != cls(*y)) == (other(*x) != other(*y))
        for x in calls:
            assert hash(cls(*x)) == hash(other(*x))

    def test_repr(self, cls, defaults, calls, own_repr):
        if own_repr:
            other = twin(cls, defaults)
            for x in calls:
                assert repr(cls(*x)) == repr(other(*x))

    def test_keyword_arguments(self, cls, defaults, calls, own_repr):
        for x in calls:
            assert cls(**dict(zip(cls.__match_args__, x))) == cls(*x)

    def test_bad_calls_raise_type_error(self, cls, defaults, calls, own_repr):
        other = twin(cls, defaults)
        names = cls.__match_args__
        full = calls[0] + tuple(defaults[n] for n in names[len(calls[0]) :])
        required = [n for n in names if n not in defaults]
        bad = [(full + (None,), {}), (full, {"unexpected": 1})]
        if required:
            bad.append((full[: len(required) - 1], {}))
        for args, named in bad:
            for made in (cls, other):
                with pytest.raises(TypeError):
                    made(*args, **named)

    def test_frozen(self, cls, defaults, calls, own_repr):
        other = twin(cls, defaults)
        for made in (cls(*calls[0]), other(*calls[0])):
            for name in (*cls.__match_args__, "not_a_field"):
                with pytest.raises(AttributeError):
                    setattr(made, name, None)


def test_a_field_given_twice_raises_type_error():
    with pytest.raises(TypeError):
        TableEntry("a", frozenset(), head="b")
    with pytest.raises(TypeError):
        twin(TableEntry, {"word": (), "wildcard": True, "source": None})("a", frozenset(), head="b")


def test_sibling_classes_with_equal_fields_differ():
    x = rational.Sym("l")
    part = (LenAtLeast(1),)
    left, right = speclang.SUniversal(), speclang.SFail()
    for one, two in [
        (rational.Star(x), rational.Plus(x)),
        (And(part), Or(part)),
        (speclang.SUnionP(left, right), speclang.SUnionC(left, right)),
        (LenAtLeast(2), LenAtMost(2)),
    ]:
        assert one != two and not one == two


def test_fields_come_from_annotations_of_the_class_and_its_bases():
    class Base(Value):
        a: int
        b: int = 2

    class Grown(Base):
        c: int = 3

    assert Grown.__match_args__ == ("a", "b", "c")
    assert Grown(1) == Grown(1, 2, 3) == Grown(a=1, c=3)
    assert repr(Grown(1)).endswith(".<locals>.Grown(a=1, b=2, c=3)")  # the qualified name, as dataclasses
    assert Grown(1) != Base(1)
