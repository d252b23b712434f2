"""Finite abstract reduction systems and their derivations.

An Ars is a triple of object symbols, label symbols and labelled steps where
the step relation is functional: a (source, label) pair determines at most one
target. Derivations are composable step sequences, and a derivation is also
the traced object a strategy reads: the history so far, ending at the current
object. Lassos encode eventually periodic infinite derivations as a finite
stem plus a repeated cycle.

All values here are immutable after construction and safe to share; an Ars
indexes an object's out-steps when they are first read, in a private cache
that only grows and changes no answer, so a query reads only the objects it
reaches. Symbols are interned with stable integer indices (declaration order)
and every set produced by the module is emitted sorted by (source index,
label indices) so identical inputs give byte-identical renderings. Derivations are grown from
a strategy, the universal one included, by intensional.generate; this module
keeps the graph searches, which read a StepFunction: a system's out_steps or
the sub-system a strategy induces on it (intensional.induced), never a copy.
shortest_steps and cycle_steps give paths and cycles as step tuples;
shortest_paths, shortest_path_to and simple_cycles build Derivations of an Ars.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cached_property
from itertools import chain, repeat
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    FunctionalityViolation,
    NotComposable,
    ObjectLabelOverlap,
    UndefinedStep,
    UnknownSymbol,
)
from .value import Value


class Step(NamedTuple):
    """One labelled reduction step."""

    source: str
    label: str
    target: str

    def render(self) -> str:
        return f"{self.source} -{self.label}-> {self.target}"


StepFunction = Callable[[str], "tuple[Step, ...]"]  # an object's out-steps, in label order
_SOURCE, _LABEL, _TARGET = itemgetter(0), itemgetter(1), itemgetter(2)


def _raise_first_fault(steps: list, obj_index: dict, lab_index: dict) -> None:
    """Raises for the first step, in order, with an unknown symbol or whose source
    and label an earlier step takes to another target."""
    targets: dict[tuple[str, str], str] = {}
    for step in steps:
        source, label, target = Step(*step)
        if not (source in obj_index and target in obj_index and label in lab_index):
            raise UnknownSymbol(next((n for n in (source, target) if n not in obj_index), label))
        prior = targets.setdefault((source, label), target)
        if prior != target:
            raise FunctionalityViolation(source, label, prior, target)


class _OutSteps(dict):
    """The out-steps of each object, in label order, sliced out of the sorted
    steps on the object's first read: their keys (source index x number of
    labels + label index) are sorted too, so one bisection finds the slice."""

    __slots__ = ("_steps", "_keys", "_index", "_width")

    def __init__(self, by_key: dict, obj_index: dict, width: int) -> None:
        self._keys = sorted(by_key)
        self._steps = tuple(map(by_key.__getitem__, self._keys))
        self._index, self._width = obj_index, width

    def __missing__(self, obj: str) -> tuple[Step, ...]:
        try:
            low = self._index[obj] * self._width
        except KeyError:
            raise UnknownSymbol(obj) from None
        start = bisect_left(self._keys, low)
        out = self[obj] = self._steps[start : bisect_left(self._keys, low + self._width, start)]
        return out


class Ars:
    """A finite abstract reduction system with a functional step relation."""

    __slots__ = ("objects", "labels", "steps", "_obj_index", "_lab_index", "_by_key", "_out")

    def __init__(
        self,
        objects: Iterable[str],
        labels: Iterable[str],
        steps: Iterable[Step | tuple[str, str, str]],
    ) -> None:
        objects = tuple(objects)
        labels = tuple(labels)
        object_set, label_set = set(objects), set(labels)
        if len(object_set) < len(objects) or len(label_set) < len(labels):
            for pool, kind in ((objects, "object"), (labels, "label")):
                seen: set[str] = set()
                for name in pool:
                    if name in seen:
                        raise ValueError(f"duplicate {kind} symbol {name!r}")
                    seen.add(name)
        overlap = sorted(object_set & label_set)
        if overlap:
            raise ObjectLabelOverlap(tuple(overlap))

        obj_index = {name: i for i, name in enumerate(objects)}
        lab_index = {name: i for i, name in enumerate(labels)}

        # checked and indexed in bulk; the ordered scan runs only to name the first fault.
        # Steps given as Step objects are kept, not copied: a sub-system built by
        # restrict then shares them, and set and dict lookups match them by identity.
        steps = list(steps)
        if not {Step}.issuperset(map(type, steps)):
            steps = list(map(tuple.__new__, repeat(Step), steps))
        # a step's key is source index x number of labels + label index; an unknown
        # source or label fails here, and of equal keys the first step is kept
        try:
            sources = map(mul, map(obj_index.__getitem__, map(_SOURCE, steps)), repeat(len(labels)))
            keys = list(map(add, sources, map(lab_index.__getitem__, map(_LABEL, steps))))
        except (KeyError, IndexError):
            _raise_first_fault(steps, obj_index, lab_index)
        by_key = dict(zip(reversed(keys), reversed(steps)))
        if not (
            set(map(len, steps)) <= {3}
            and object_set.issuperset(map(_TARGET, steps))
            and len(by_key) == len(set(steps))
        ):
            _raise_first_fault(steps, obj_index, lab_index)
        out = _OutSteps(by_key, obj_index, len(labels))

        self.objects = objects
        self.labels = labels
        self.steps = out._steps
        self._obj_index = obj_index
        self._lab_index = lab_index
        self._by_key = by_key
        self._out = out

    # -- symbol table -----------------------------------------------------

    def has_object(self, name: str) -> bool:
        return name in self._obj_index

    def object_index(self, name: str) -> int:
        try:
            return self._obj_index[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def label_index(self, name: str) -> int:
        try:
            return self._lab_index[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    # -- step relation ----------------------------------------------------

    def out_steps(self, obj: str) -> tuple[Step, ...]:
        """Steps leaving obj, ordered by label index."""
        return self._out[obj]

    def step(self, source: str, label: str) -> Step | None:
        try:
            return self._by_key.get(self._obj_index[source] * len(self.labels) + self._lab_index[label])
        except KeyError:
            return None

    def steps_from(self, obj: str, steps: Iterable[Step]) -> tuple[Step, ...]:
        """The steps of this system that leave obj among steps, once each, in label
        order: what a strategy that returns steps at a derivation ending in obj
        permits there. A step from another object, or not of this system, is dropped."""
        out = self._out[obj]
        if steps is out:
            return out
        chosen = set(steps)
        return tuple(s for s in out if s in chosen)

    def restrict(self, steps: Iterable[Step]) -> "Ars":
        """Sub-system over the same symbols with a subset of the steps."""
        kept = []
        for step in steps:
            if self.step(step.source, step.label) != step:
                raise ValueError(f"{step.render()} is not a step of this system")
            kept.append(step)
        return Ars(self.objects, self.labels, kept)

    # -- derivation constructors -------------------------------------------

    def derivation(self, source: str, *labels: str) -> "Derivation":
        return Derivation(self, source, tuple(labels))

    def empty_derivation(self, source: str) -> "Derivation":
        return Derivation(self, source, ())

    def __repr__(self) -> str:
        return f"Ars({len(self.objects)} objects, {len(self.labels)} labels, {len(self.steps)} steps)"


class Derivation(Value):
    """A composable sequence of steps, identified by source and label word.

    The target sequence is forced by functionality and cached, and target is
    its last object. The empty derivation at an object is a legal value
    (neutral for composition) but is never a strategy member.
    """

    ars: Ars
    source: str
    labels: tuple[str, ...]

    def __init__(self, ars: Ars, source: str, labels: tuple[str, ...]) -> None:
        self.__dict__.update(ars=ars, source=source, labels=labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        # walk once, eagerly, so invalid derivations never exist
        self.__dict__["target"] = self.targets[-1]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.source == other.source and self.ars is other.ars

    def __hash__(self) -> int:
        return hash((self.ars, self.source, self.labels))

    @cached_property
    def targets(self) -> tuple[str, ...]:
        """Visited objects t_0 .. t_n with t_0 the source."""
        self.ars.object_index(self.source)
        out = [self.source]
        cur = self.source
        for label in self.labels:
            step = self.ars.step(cur, label)
            if step is None:
                raise UndefinedStep(cur, label)
            cur = step.target
            out.append(cur)
        return tuple(out)

    @cached_property
    def parent(self) -> "Derivation":
        """One step shorter; extended() sets it, so prefix walks rebuild nothing."""
        if not self.labels:
            raise ValueError("the empty derivation has no parent")
        return Derivation(self.ars, self.source, self.labels[:-1])

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        return tuple(
            self.ars.step(self.targets[i], label)  # type: ignore[misc]
            for i, label in enumerate(self.labels)
        )

    @property
    def is_empty(self) -> bool:
        return not self.labels

    def __len__(self) -> int:
        return len(self.labels)

    def sort_key(self) -> tuple:
        return (
            len(self.labels),
            self.ars.object_index(self.source),
            tuple(self.ars.label_index(l) for l in self.labels),
        )

    # -- composition and subsequences ---------------------------------------

    def compose(self, other: "Derivation") -> "Derivation":
        """self then other; the empty derivation is neutral on both sides."""
        if other.ars is not self.ars:
            raise ValueError("cannot compose derivations of different systems")
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if self.target != other.source:
            raise NotComposable(self.target, other.source)
        return Derivation(self.ars, self.source, self.labels + other.labels)

    def _walked(
        self, source: str, labels: tuple[str, ...], targets: tuple[str, ...]
    ) -> "Derivation":
        """A derivation of this system whose targets are known, so not walked again."""
        d = object.__new__(Derivation)
        # in the constructor's order, so that instances share one key table
        d.__dict__.update(ars=self.ars, source=source, labels=labels, targets=targets)
        d.__post_init__()
        return d

    def extended(self, label: str) -> "Derivation":
        """self plus one step; walks only that step, and sets parent to self."""
        step = self.ars.step(self.target, label)
        if step is None:
            raise UndefinedStep(self.target, label)
        grown = self._walked(self.source, self.labels + (label,), self.targets + (step.target,))
        grown.__dict__["parent"] = self
        return grown

    def prefixes(self) -> list["Derivation"]:
        """All non-empty prefixes, shortest first, ending with self."""
        out = []
        d = self
        while d.labels:
            out.append(d)
            d = d.parent
        return out[::-1]

    def strict_prefixes(self) -> list["Derivation"]:
        return self.prefixes()[:-1]

    def factors(self) -> list["Derivation"]:
        """All non-empty contiguous subsequences, re-sourced, deduplicated."""
        seen = set()
        out = []
        targets, labels = self.targets, self.labels
        for i in range(len(labels)):
            for j in range(i + 1, len(labels) + 1):
                d = self._walked(targets[i], labels[i:j], targets[i : j + 1])
                if d not in seen:
                    seen.add(d)
                    out.append(d)
        out.sort(key=Derivation.sort_key)
        return out

    def is_prefix_of(self, other: "Derivation") -> bool:
        return (
            self.ars is other.ars
            and self.source == other.source
            and self.labels == other.labels[: len(self.labels)]
        )

    # -- views ---------------------------------------------------------------

    def render(self) -> str:
        parts = [self.source]
        for label, target in zip(self.labels, self.targets[1:]):
            parts.append(f"-{label}-> {target}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self.render()}>"


class Lasso(Value):
    """stem . cycle^omega: a finitely presented infinite derivation."""

    stem: Derivation
    cycle: Derivation

    def __init__(self, stem: Derivation, cycle: Derivation) -> None:
        if cycle.ars is not stem.ars:
            raise ValueError("stem and cycle belong to different systems")
        if cycle.is_empty:
            raise ValueError("lasso cycle must be non-empty")
        if stem.target != cycle.source:
            raise NotComposable(stem.target, cycle.source)
        if cycle.target != cycle.source:
            raise NotComposable(cycle.target, cycle.source)
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "cycle", cycle)

    @property
    def ars(self) -> Ars:
        return self.stem.ars

    @property
    def source(self) -> str:
        return self.stem.source

    def unroll(self, repeats: int) -> Derivation:
        """stem followed by `repeats` copies of the cycle."""
        out = self.stem
        for _ in range(repeats):
            out = out.compose(self.cycle)
        return out

    def omega_prefix(self, length: int) -> Derivation:
        """The first `length` steps of stem . cycle^omega."""
        need = length - len(self.stem)
        if need <= 0:
            return Derivation(self.ars, self.stem.source, self.stem.labels[:length])
        reps = (need + len(self.cycle) - 1) // len(self.cycle)
        full = self.unroll(reps)
        return Derivation(self.ars, full.source, full.labels[:length])

    def finite_prefixes(self, max_len: int) -> list[Derivation]:
        """Non-empty prefixes of the infinite word, lengths 1..max_len."""
        return [self.omega_prefix(k) for k in range(1, max_len + 1)]

    def sort_key(self) -> tuple:
        return (
            len(self.stem) + len(self.cycle),
            self.stem.sort_key(),
            self.cycle.sort_key(),
        )

    def render(self) -> str:
        loop = " ".join(f"-{s.label}-> {s.target}" for s in self.cycle.steps)
        return f"{self.stem.render()} ( {loop} )^w"

    def __repr__(self) -> str:
        return f"<{self.render()}>"


# -- graph searches -----------------------------------------------------------


def reachable_objects(ars: Ars, sources: Iterable[str]) -> list[str]:
    """Objects reachable from the sources (inclusive), in BFS order."""
    queue = deque()
    seen: set[str] = set()
    for s in sources:
        ars.object_index(s)
        if s not in seen:
            seen.add(s)
            queue.append(s)
    order = list(queue)
    while queue:
        cur = queue.popleft()
        for step in ars.out_steps(cur):
            if step.target not in seen:
                seen.add(step.target)
                order.append(step.target)
                queue.append(step.target)
    return order


def reaching_objects(objects: Iterable[str], out: StepFunction, targets: Iterable[str]) -> set[str]:
    """Objects from which out's steps reach a target (the targets included): one backward search."""
    into: dict[str, list[str]] = {}
    for step in chain.from_iterable(map(out, objects)):
        into.setdefault(step.target, []).append(step.source)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for source in into.get(stack.pop(), ()):
            if source not in seen:
                seen.add(source)
                stack.append(source)
    return seen


def shortest_steps(
    out: StepFunction, source: str, max_len: int | None = None
) -> Iterator[tuple[str, tuple[Step, ...]]]:
    """A shortest path from source to each object it reaches by out's steps, as
    (object, steps), in BFS discovery order; the empty path to source comes first.

    Ties are broken by step order; with max_len, only paths of that length or
    less are searched.
    """
    first = (source, ())
    yield first
    queue = deque([first])
    seen = {source}
    while queue:
        obj, steps = queue.popleft()
        if max_len is not None and len(steps) >= max_len:
            continue
        for step in out(obj):
            if step.target not in seen:
                seen.add(step.target)
                grown = (step.target, (*steps, step))
                yield grown
                queue.append(grown)


def shortest_paths(ars: Ars, source: str, max_len: int | None = None) -> Iterator[Derivation]:
    """shortest_steps' paths in ars as derivations."""
    for _, steps in shortest_steps(ars.out_steps, source, max_len):
        yield Derivation(ars, source, tuple(s.label for s in steps))


def shortest_path_to(ars: Ars, source: str, targets: set[str]) -> Derivation | None:
    """BFS path (ties broken by step order) in ars from source into targets."""
    for obj, steps in shortest_steps(ars.out_steps, source):
        if obj in targets:
            return Derivation(ars, source, tuple(s.label for s in steps))
    return None


def reaches_cycle(out: StepFunction, source: str) -> bool:
    """Whether a cycle of out's steps is reachable from source: one depth-first search."""
    done: set[str] = set()
    path = [source]
    on_path = {source}
    stack = [iter(out(source))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            on_path.remove(path[-1])
            done.add(path.pop())
        elif step.target in on_path:
            return True
        elif step.target not in done:
            on_path.add(step.target)
            path.append(step.target)
            stack.append(iter(out(step.target)))
    return False


def cycle_steps(ars: Ars, out: StepFunction, max_len: int | None = None) -> Iterator[tuple[str, tuple]]:
    """All vertex-simple cycles of out's steps on ars, as (root, steps), root first, depth first.

    Each cycle appears once, rooted at its minimum-index object. Parallel
    steps count as distinct cycles (two self-loops give two cycles). With
    max_len, only the cycles of that length or less. A path from the root
    to v is extended only while the least number of steps from v back to
    the root, through objects above the root, fits in the steps left (one
    backward search per root, after Johnson's circuit search), so every
    extended path closes into a cycle within the bound. The search keeps an
    explicit stack, so a cycle may be longer than the recursion limit.
    """
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be at least 1")
    bound = len(ars.objects) if max_len is None else max_len
    into: dict[str, list[str]] = {}
    for step in chain.from_iterable(map(out, ars.objects)):
        into.setdefault(step.target, []).append(step.source)
    for root in ars.objects:
        floor = ars._obj_index[root]
        back = {root: 0}  # object -> least steps to root through objects above it
        frontier = [root]
        for dist in range(1, bound):
            grown = []
            for obj in frontier:
                for source in into.get(obj, ()):
                    if source not in back and ars._obj_index[source] > floor:
                        back[source] = dist
                        grown.append(source)
            frontier = grown
        steps: list[Step] = []  # the path from root
        on_path = {root}
        stack = [iter(out(root))]  # the out-steps still to try at each object of the path
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if steps:
                    on_path.remove(steps.pop().target)
            elif step.target == root:
                yield root, (*steps, step)
            elif back.get(step.target, bound) < bound - len(steps) and step.target not in on_path:
                on_path.add(step.target)
                steps.append(step)
                stack.append(iter(out(step.target)))


def simple_cycles(ars: Ars, max_len: int | None = None) -> list[Derivation]:
    """All vertex-simple cycles, as derivations with source == target, in
    Derivation.sort_key order: cycle_steps' cycles. With max_len, the search
    extends a path only while it can still close within max_len steps (the
    least distance back to the root, from one backward search per root)."""
    cycles = cycle_steps(ars, ars.out_steps, max_len)
    found = [Derivation(ars, root, tuple(s.label for s in steps)) for root, steps in cycles]
    found.sort(key=Derivation.sort_key)
    return found


def rotate_cycle(cycle: Derivation, start: str) -> Derivation:
    """The same cyclic step sequence, started at `start` (must lie on it)."""
    steps = cycle.steps
    for i, step in enumerate(steps):
        if step.source == start:
            labels = tuple(s.label for s in steps[i:] + steps[:i])
            return Derivation(cycle.ars, start, labels)
    raise ValueError(f"{start} does not lie on the cycle")
