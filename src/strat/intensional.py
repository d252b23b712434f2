"""Strategies as step-choosing functions over traced objects.

A traced object is a history plus the current object; with a functional step
relation that is exactly a Derivation, whose target is the current object. A
Strategy gives the steps it permits next, with a definedness flag: Fail is
undefined everywhere, which is not the same as being defined with no permitted
steps. A strategy reads as an automaton over steps: a memory advanced by each
step taken, and the steps permitted at an object under it (at). Each builtin
keeps a small memory, so none replays the history; a memoryless strategy
keeps one memory, so it reads only the current object. The characteristic
predicates of logic are strategies of the same kind, defined here beside the
builtins they mirror.

transitions is the one reader of at: the moves at a memory and an object are
the permitted steps that leave the object, in label order, each with the
memory after it. fold_paths walks paths with their memories along those moves
in Derivation.sort_key order, each carrying a value folded from its steps
(the CLI's printed line); generate folds Derivations, and finite_support and
enumerate_derivations (every derivation) read it. induced, the sub-system of
a memoryless strategy, is its moves at each object, the step function that
the searches of ars read, so no second Ars is built; lassos_of_memoryless
witnesses its infinite derivations. Its candidates (lasso_candidates) are
tuples of steps under an integer sort key, so a search that tries them
(logic.nonclosed_witness) builds no Derivation or Lasso for one it rejects.

memoryless_from and memoried_from invert generation: they rebuild a strategy
(as an explicit table) from a derivation set, provided the set has the
closure properties that make this possible (factor+composition closure for a
memoryless table, prefix closure for a memoried one).
"""

from __future__ import annotations

import abc
import itertools
from functools import cache, cached_property
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, TypeVar

from .ars import Ars, Derivation, Lasso, Step, StepFunction, cycle_steps, shortest_steps
from .errors import (
    CyclicOrder,
    MemoryRequired,
    NotCompositionClosed,
    NotFactorClosed,
    NotPrefixClosed,
)
from .extensional import (
    AbstractStrategy,
    is_composition_closed,
    is_factor_closed,
    is_prefix_closed,
)
from .value import Value

V = TypeVar("V")  # the value fold_paths carries along a path


class EvalResult(NamedTuple):
    defined: bool
    steps: tuple[Step, ...]


UNDEFINED = EvalResult(False, ())


class Strategy(abc.ABC):
    """Interface of intensional strategies.

    start, advance and at read a strategy as an automaton over steps: the
    memory (hashable) starts at the source, advance updates it by each step
    taken, and at gives the out-steps of an object permitted next, once each
    and in label order. eval(d) reads the whole derivation. A strategy that
    defines only eval keeps the memory () when it is memoryless and the
    derivation otherwise, and its at drops eval's other steps (steps_from).
    """

    @abc.abstractmethod
    def eval(self, d: Derivation) -> EvalResult:
        """Permitted next steps after the derivation d, from its target."""

    @property
    @abc.abstractmethod
    def memoryless(self) -> bool:
        """True when the memory never changes: the current object decides alone."""

    def start(self, ars: Ars, obj: str) -> Hashable:
        return () if self.memoryless else ars.empty_derivation(obj)

    def advance(self, ars: Ars, memory, step: Step) -> Hashable:
        return memory if self.memoryless else memory.extended(step.label)

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        defined, steps = self.eval(ars.empty_derivation(obj) if self.memoryless else memory)
        return EvalResult(defined, ars.steps_from(obj, steps))


class _Stepwise(Strategy, Value):
    """A strategy defined by start, advance and at; eval folds them over the
    derivation. A memoryless one keeps the default memory ()."""

    @abc.abstractmethod
    def at(self, ars: Ars, memory, obj: str) -> EvalResult: ...

    def eval(self, d: Derivation) -> EvalResult:
        memory = self.start(d.ars, d.source)
        for step in d.steps:
            memory = self.advance(d.ars, memory, step)
        return self.at(d.ars, memory, d.target)

    memoryless = True


class LabelOrder(Value):
    """A strict partial order on labels, stored transitively closed."""

    relation: frozenset[tuple[str, str]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "LabelOrder":
        closure = set(pairs)
        names = {x for pair in closure for x in pair}
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c in names:
                    if (b, c) in closure and (a, c) not in closure:
                        closure.add((a, c))
                        changed = True
        for name in names:
            if (name, name) in closure:
                raise CyclicOrder(name)
        return cls(frozenset(closure))

    def less(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def is_total_on(self, labels: Iterable[str]) -> bool:
        labels = tuple(labels)
        return all(
            a == b or self.less(a, b) or self.less(b, a)
            for a, b in itertools.product(labels, labels)
        )


class Universal(_Stepwise):
    """Permits every out-step; defined on every object."""

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        return EvalResult(True, ars.out_steps(obj))


class Fail(_Stepwise):
    """Undefined everywhere; generates nothing."""

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        return UNDEFINED


class Greatmost(_Stepwise):
    """Permits the steps whose labels are maximal among the out-labels.

    Defined exactly on objects with at least one out-step. With a total order
    the choice is a single step; a partial order keeps all maximal ones.
    """

    order: LabelOrder

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        outs = ars.out_steps(obj)
        if not outs:
            return UNDEFINED
        keep = (s for s in outs if not any(self.order.less(s.label, o.label) for o in outs))
        return EvalResult(True, tuple(keep))


class MaxLen(_Stepwise):
    """Cuts off extension once the history reaches bound - 1 steps, as the memory counts."""

    bound: int

    def start(self, ars: Ars, obj: str) -> int:
        return 0

    def advance(self, ars: Ars, memory: int, step: Step) -> int:
        return memory + (memory < self.bound - 1)

    def at(self, ars: Ars, memory: int, obj: str) -> EvalResult:
        return EvalResult(True, ars.out_steps(obj) if memory < self.bound - 1 else ())

    memoryless = False


class RestrictLabels(_Stepwise):
    """Permits only out-steps whose label lies in the allowed set."""

    allowed: frozenset[str]

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        return EvalResult(True, tuple(s for s in ars.out_steps(obj) if s.label in self.allowed))


class Alternate(_Stepwise):
    """Alternates between two step sets, starting in the first.

    Empty history: steps from `first`. A history whose last step lies in
    `second` continues with `first` and vice versa; a last step in both allows
    both; a last step in neither leaves the strategy undefined there. The
    memory says which sets the next step may come from: (first, second).
    """

    first: frozenset[Step]
    second: frozenset[Step]

    def start(self, ars: Ars, obj: str) -> tuple[bool, bool]:
        return True, False

    def advance(self, ars: Ars, memory, step: Step) -> tuple[bool, bool]:
        return step in self.second, step in self.first

    def at(self, ars: Ars, memory: tuple[bool, bool], obj: str) -> EvalResult:
        from_first, from_second = memory
        if not (from_first or from_second):
            return UNDEFINED
        allowed = (self.first if from_first else set()) | (self.second if from_second else set())
        return EvalResult(True, tuple(s for s in ars.out_steps(obj) if s in allowed))

    memoryless = False


class ColorAlternate(_Stepwise):
    """Alternates label colours: after a white-labelled step, only black.

    Any coloured first step is permitted on an empty history. A last step with
    an uncoloured label leaves the strategy undefined after it. The memory is
    the set of labels the next step may carry, None where undefined.
    """

    white: frozenset[str]
    black: frozenset[str]

    def __post_init__(self) -> None:
        if self.white & self.black:
            raise ValueError("a label cannot be both white and black")

    def start(self, ars: Ars, obj: str) -> frozenset[str]:
        return self.white | self.black

    def advance(self, ars: Ars, memory, step: Step) -> frozenset[str] | None:
        return self.black if step.label in self.white else self.white if step.label in self.black else None

    def at(self, ars: Ars, memory: frozenset[str] | None, obj: str) -> EvalResult:
        if memory is None:
            return UNDEFINED
        return EvalResult(True, tuple(s for s in ars.out_steps(obj) if s.label in memory))

    memoryless = False


class Predicate(_Stepwise):
    """A characteristic predicate, read as the strategy it describes: at keeps
    the out-steps of an object whose labels it permits, and is defined
    everywhere. Universal, MaxLen and Greatmost are predicates too (logic)."""


class FalsePredicate(Predicate):
    """Permits no label: defined everywhere, with no steps."""

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        return EvalResult(True, ())


class AlternatePredicate(Predicate):
    """Label-set alternation, starting in the first set; the memory is the last
    label. A label of the first set may follow one of the second, and the other
    way round."""

    first: frozenset[str]
    second: frozenset[str]

    def start(self, ars: Ars, obj: str) -> None:
        return None

    def advance(self, ars: Ars, memory: str | None, step: Step) -> str:
        return step.label

    def at(self, ars: Ars, memory: str | None, obj: str) -> EvalResult:
        if memory is None:
            allowed = self.first
        else:
            allowed = (self.first if memory in self.second else frozenset()) | (
                self.second if memory in self.first else frozenset()
            )
        return EvalResult(True, tuple(s for s in ars.out_steps(obj) if s.label in allowed))

    memoryless = False


class CustomPredicate(Predicate):
    """Wraps a callable over (label word, target object, candidate label); the
    memory is the label word, or () when trace_free says the callable ignores it."""

    fn: Callable[[tuple[str, ...], str, str], bool]
    trace_free: bool = False

    def start(self, ars: Ars, obj: str) -> tuple[str, ...]:
        return ()

    def advance(self, ars: Ars, memory: tuple[str, ...], step: Step) -> tuple[str, ...]:
        return memory if self.trace_free else memory + (step.label,)

    def at(self, ars: Ars, memory: tuple[str, ...], obj: str) -> EvalResult:
        return EvalResult(True, tuple(s for s in ars.out_steps(obj) if self.fn(memory, obj, s.label)))

    @property
    def memoryless(self) -> bool:
        return self.trace_free


class _Combination(_Stepwise):
    """A combinator over children; the memory is the tuple of their memories."""

    children: tuple[Strategy, ...]

    def start(self, ars: Ars, obj: str) -> tuple:
        return tuple(c.start(ars, obj) for c in self.children)

    def advance(self, ars: Ars, memory: tuple, step: Step) -> tuple:
        return tuple(c.advance(ars, m, step) for c, m in zip(self.children, memory))

    @property
    def memoryless(self) -> bool:
        return all(c.memoryless for c in self.children)


class Intersect(_Combination):
    """Pointwise intersection; defined where all children are."""

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("intersection needs at least one child")

    def at(self, ars: Ars, memory: tuple, obj: str) -> EvalResult:
        results = [c.at(ars, m, obj) for c, m in zip(self.children, memory)]
        if not all(r.defined for r in results):
            return UNDEFINED
        return EvalResult(True, ars.steps_from(obj, set.intersection(*(set(r.steps) for r in results))))


class UnionPointwise(_Combination):
    """Pointwise union; defined where some child is.

    Its extension can be strictly larger than the union of the children's
    extensions: a derivation may swap between children mid-flight.
    """

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("union needs at least two children")

    def at(self, ars: Ars, memory: tuple, obj: str) -> EvalResult:
        # without the children that a committed union has left
        results = [c.at(ars, m, obj) for c, m in zip(self.children, memory) if m is not _LEFT]
        if not any(r.defined for r in results):
            return UNDEFINED
        return EvalResult(True, ars.steps_from(obj, (s for r in results for s in r.steps)))


_LEFT = object()  # the memory of a child that the history left


class UnionCommitted(UnionPointwise):
    """Union that commits: once the history leaves a child, that child is out.

    Each child only contributes after derivations whose every step it
    permitted, so the generated set is exactly the union of the children's
    generated sets. The memory holds each child's memory, or a marker for a
    child that did not permit some step taken.
    """

    def advance(self, ars: Ars, memory: tuple, step: Step) -> tuple:
        return tuple(
            c.advance(ars, m, step) if m is not _LEFT and step in c.at(ars, m, step.source).steps else _LEFT
            for c, m in zip(self.children, memory)
        )

    memoryless = False


class TableEntry(Value):
    """One row of an explicit strategy table.

    Exact rows match derivations with precisely this label word (and source,
    when given); wildcard rows match any derivation whose word extends the
    stored prefix. The head must be the derivation's target either way.
    """

    head: str
    steps: frozenset[Step]
    word: tuple[str, ...] = ()
    wildcard: bool = True
    source: str | None = None

    def __post_init__(self) -> None:
        for s in self.steps:
            if s.source != self.head:
                raise ValueError(f"table step {s.render()} does not leave {self.head}")

    def matches(self, word: tuple[str, ...]) -> bool:
        """Whether the row's word is the label word (for a wildcard row, its start)."""
        return (word[: len(self.word)] if self.wildcard else word) == self.word


class FromTable(_Stepwise):
    """Finite mapping from derivation patterns to permitted step sets.

    Exact rows win over wildcard rows; among wildcard rows the longest stored
    prefix wins. Undefined where no row matches. The memory of a memoried
    table is the source and the label word.
    """

    entries: tuple[TableEntry, ...]

    @cached_property
    def _rows(self) -> dict[str, list[TableEntry]]:
        rows: dict[str, list[TableEntry]] = {}
        for entry in self.entries:
            rows.setdefault(entry.head, []).append(entry)
        return rows

    def start(self, ars: Ars, obj: str) -> Hashable:
        return () if self.memoryless else (obj, ())

    def advance(self, ars: Ars, memory, step: Step) -> Hashable:
        return memory if self.memoryless else (memory[0], memory[1] + (step.label,))

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        source, word = memory or (None, ())
        rows = [e for e in self._rows.get(obj, ()) if e.source in (None, source) and e.matches(word)]
        # exact rows win, then the longest prefix; max keeps the first of equal rows
        best = max(rows, key=lambda e: (not e.wildcard, len(e.word)), default=None)
        return UNDEFINED if best is None else EvalResult(True, ars.steps_from(obj, best.steps))

    @cached_property
    def memoryless(self) -> bool:
        return all(e.wildcard and not e.word and e.source is None for e in self.entries)


class AcceptFiltered(_Stepwise):
    """A strategy plus an accepting condition over completed derivations.

    The condition does not constrain stepping, and the memory is the child's;
    it selects which generated derivations count as accepted. Only the chain of
    accepts at the top of a strategy is folded so (as_logical): inside a
    combinator, an AcceptFiltered steps as its child and its condition is never read.
    """

    child: Strategy
    condition: object

    def start(self, ars: Ars, obj: str) -> Hashable:
        return self.child.start(ars, obj)

    def advance(self, ars: Ars, memory, step: Step) -> Hashable:
        return self.child.advance(ars, memory, step)

    def at(self, ars: Ars, memory, obj: str) -> EvalResult:
        return self.child.at(ars, memory, obj)

    @property
    def memoryless(self) -> bool:
        return self.child.memoryless


# -- combinator builders -------------------------------------------------------


def intersect(*children: Strategy) -> Intersect:
    return Intersect(tuple(children))


def union_pointwise(left: Strategy, right: Strategy) -> UnionPointwise:
    return UnionPointwise((left, right))


def union_committed(left: Strategy, right: Strategy) -> UnionCommitted:
    return UnionCommitted((left, right))


# -- generation ----------------------------------------------------------------


def transitions(xi: Strategy, ars: Ars) -> Callable[[Hashable, str], dict[Step, Hashable]]:
    """The moves of xi: at a memory and an object, the steps xi permits there
    (at, which gives out-steps of the object in label order), each mapped to
    the memory after it. This is the one reading of at. Each (memory, object)
    pair is evaluated once per call of transitions; a memoryless strategy
    keeps its memory, so advance is not asked."""
    memoryless = xi.memoryless

    @cache
    def moves(memory: Hashable, obj: str) -> dict[Step, Hashable]:
        permitted = xi.at(ars, memory, obj).steps
        if memoryless:
            return dict.fromkeys(permitted, memory)
        return {s: xi.advance(ars, memory, s) for s in permitted}

    return moves


def fold_paths(
    xi: Strategy, ars: Ars, depth: int, sources: Iterable[str] | None, accept,
    begin: Callable[[str], V], extend: Callable[[V, Step], V],
) -> Iterator[list[V]]:
    """The paths of length 1 to depth that xi generates, a list per length, each as the
    value folded from its source (begin) and each step taken (extend). A path is
    generated when xi permits each step after the prefix before it. A layer extends
    the one before, in order, by the moves of xi at each path's memory and end, so
    from sources in object-index order it comes out in Derivation.sort_key order. With
    an accepting condition (start, advance, final), only the paths it accepts."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    starts = ars.objects if sources is None else sorted(set(sources), key=ars.object_index)
    moves = transitions(xi, ars)
    layer = [
        (begin(obj), obj, xi.start(ars, obj), None if accept is None else accept.start(ars, obj))
        for obj in starts
    ]
    for _ in range(depth):
        layer = [
            (extend(value, s), s.target, after, None if accept is None else accept.advance(state, s))
            for value, obj, memory, state in layer
            for s, after in moves(memory, obj).items()
        ]
        yield [value for value, _, _, state in layer if accept is None or accept.final(state)]


def generate(
    xi: Strategy, ars: Ars, depth: int, sources: Iterable[str] | None = None, accept=None
) -> Iterator[Derivation]:
    """The derivations of length <= depth that xi generates, in Derivation.sort_key
    order: fold_paths's paths, each grown from the empty derivation at its source.
    With an accepting condition, only the derivations it accepts."""
    grow = lambda d, s: d.extended(s.label)
    for layer in fold_paths(xi, ars, depth, sources, accept, ars.empty_derivation, grow):
        yield from layer


def finite_support(
    xi: Strategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> AbstractStrategy:
    """generate's members as a set; it is prefix-closed and carries no lassos."""
    return AbstractStrategy(ars, frozenset(generate(xi, ars, depth, sources)))


def enumerate_derivations(ars: Ars, max_len: int, source: str | None = None) -> list[Derivation]:
    """Every non-empty derivation of length <= max_len (from source, if given), in order."""
    return list(generate(Universal(), ars, max_len, None if source is None else (source,)))


def induced(xi: Strategy, ars: Ars) -> StepFunction:
    """The sub-system a memoryless strategy induces, one object at a time: its
    moves there (transitions) from the memory it starts with, kept per call."""
    if not xi.memoryless:
        raise MemoryRequired("induced sub-system needs a memoryless strategy")
    moves = transitions(xi, ars)
    return cache(lambda obj: tuple(moves(xi.start(ars, obj), obj)))


def induced_steps(xi: Strategy, ars: Ars) -> tuple[Step, ...]:
    """Steps a memoryless strategy permits anywhere: induced's steps at each object."""
    return tuple(itertools.chain.from_iterable(map(induced(xi, ars), ars.objects)))


def lasso_candidates(
    ars: Ars, out: StepFunction, sources: Iterable[str] | None = None, max_len: int | None = None
) -> list[tuple[tuple, str, tuple[Step, ...], tuple[Step, ...]]]:
    """The lassos of out's steps on ars as (sort key, source, stem steps, cycle steps), sorted.

    One lasso per (source object, simple cycle) pair, with a shortest stem from
    the source to the cycle. One BFS per source gives the stems: a cycle is
    entered, and rotated to start, at the object of it that the BFS discovers
    first. The sort key orders as Lasso.sort_key: (|stem| + |cycle|, (|stem|,
    source index, stem label indices), (|cycle|, entry index, cycle label
    indices)). With max_len, only the lassos with |stem| + |cycle| <= max_len,
    and cycles and stems are searched up to that length. Nothing is built but
    tuples.
    """
    # object -> length -> cycle -> (its key, the cycle started at the object)
    through: dict[str, dict[int, dict[int, tuple]]] = {obj: {} for obj in ars.objects}
    for k, (_, steps) in enumerate(cycle_steps(ars, out, max_len)):
        for i, step in enumerate(steps):
            loop = steps[i:] + steps[:i]
            key = (len(loop), ars.object_index(step.source), tuple(ars.label_index(s.label) for s in loop))
            through[step.source].setdefault(len(loop), {})[k] = key, loop
    found = []
    for src in sorted(set(ars.objects if sources is None else sources), key=ars.object_index):
        src_index = ars.object_index(src)
        met: set[int] = set()
        for entry, stem in shortest_steps(out, src, None if max_len is None else max_len - 1):
            stem_key = (len(stem), src_index, tuple(ars.label_index(s.label) for s in stem))
            # a cycle too long for this stem is too long for every later one, so
            # leaving it unmet changes nothing
            room = len(ars.objects) if max_len is None else max_len - len(stem)
            for length, loops in through[entry].items():
                if length <= room:
                    for k in loops.keys() - met:
                        met.add(k)
                        loop_key, loop = loops[k]
                        found.append(((len(stem) + length, stem_key, loop_key), src, stem, loop))
    found.sort()
    return found


def lassos_of_memoryless(
    xi: Strategy, ars: Ars, sources: Iterable[str] | None = None, max_len: int | None = None
) -> list[Lasso]:
    """Witnesses for the infinite derivations a memoryless strategy generates:
    the lassos of its induced sub-system (lasso_candidates), built over ars.
    Raises MemoryRequired for memoried strategies, which induce no sub-system."""
    return [
        Lasso(
            Derivation(ars, src, tuple(s.label for s in stem)),
            Derivation(ars, loop[0].source, tuple(s.label for s in loop)),
        )
        for _, src, stem, loop in lasso_candidates(ars, induced(xi, ars), sources, max_len)
    ]


# -- rebuilding strategies from derivation sets ---------------------------------


def memoryless_from(z: AbstractStrategy) -> Strategy:
    """A memoryless strategy generating exactly z (up to z's member lengths).

    Requires z to be factor-closed and composition-closed; the empty set
    yields Fail. The result is a wildcard table: object -> one-step members.
    """
    if z.lasso_part:
        raise ValueError("only finite derivation sets can be rebuilt")
    if not z.finite_part:
        return Fail()
    verdict = is_factor_closed(z)
    if not verdict:
        raise NotFactorClosed(verdict.missing)
    verdict = is_composition_closed(z)
    if not verdict:
        raise NotCompositionClosed(verdict.missing)
    per_object: dict[str, set[Step]] = {}
    for d in z.members():
        if len(d) == 1:
            per_object.setdefault(d.source, set()).add(d.steps[0])
    entries = tuple(
        TableEntry(head=obj, steps=frozenset(steps))
        for obj, steps in sorted(per_object.items(), key=lambda kv: z.ars.object_index(kv[0]))
    )
    return FromTable(entries)


def memoried_from(z: AbstractStrategy) -> Strategy:
    """A memoried strategy generating exactly z.

    Requires z to be prefix-closed; the empty set yields Fail. The table maps
    the empty derivation at each object to z's one-step members there, and
    each member to the steps extending it inside z.
    """
    if z.lasso_part:
        raise ValueError("only finite derivation sets can be rebuilt")
    if not z.finite_part:
        return Fail()
    verdict = is_prefix_closed(z)
    if not verdict:
        raise NotPrefixClosed(verdict.missing)
    ars = z.ars
    entries: list[TableEntry] = []
    seeds: dict[str, set[Step]] = {}
    for d in z.members():
        if len(d) == 1:
            seeds.setdefault(d.source, set()).add(d.steps[0])
    for obj, steps in sorted(seeds.items(), key=lambda kv: ars.object_index(kv[0])):
        entries.append(TableEntry(head=obj, steps=frozenset(steps), word=(), wildcard=False))
    for d in z.members():
        nxt = {
            step for step in ars.out_steps(d.target) if d.extended(step.label) in z.finite_part
        }
        entries.append(
            TableEntry(
                head=d.target,
                steps=frozenset(nxt),
                word=d.labels,
                wildcard=False,
                source=d.source,
            )
        )
    return FromTable(tuple(entries))
