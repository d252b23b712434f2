"""Strategies as step-choosing functions over traced objects.

A traced object is a history plus the current object; with a functional step
relation that is exactly a Derivation, whose target is the current object. A
Strategy maps the derivation so far to the set of steps it permits next,
together with a definedness flag: Fail is undefined everywhere, which is not
the same as being defined with no permitted steps. Strategies that read only
the target are memoryless. generate yields the derivations a strategy
generates up to a depth, in Derivation.sort_key order; finite_support (the
set) and enumerate_derivations (every derivation, the universal strategy's)
read it. lassos_of_memoryless witnesses the infinite derivations.

memoryless_from and memoried_from invert generation: they rebuild a strategy
(as an explicit table) from a derivation set, provided the set has the
closure properties that make this possible (factor+composition closure for a
memoryless table, prefix closure for a memoried one).
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .ars import Ars, Derivation, Lasso, Step, shortest_paths, simple_cycles
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


class EvalResult(NamedTuple):
    defined: bool
    steps: tuple[Step, ...]


UNDEFINED = EvalResult(False, ())


class Strategy(abc.ABC):
    """Interface of intensional strategies."""

    @abc.abstractmethod
    def eval(self, d: Derivation) -> EvalResult:
        """Permitted next steps after the derivation d, from its target."""

    @property
    @abc.abstractmethod
    def memoryless(self) -> bool:
        """True when eval reads only the target of the derivation."""


@dataclass(frozen=True)
class LabelOrder:
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


@dataclass(frozen=True)
class Universal(Strategy):
    """Permits every out-step; defined on every object."""

    def eval(self, d: Derivation) -> EvalResult:
        return EvalResult(True, d.ars.out_steps(d.target))

    @property
    def memoryless(self) -> bool:
        return True


@dataclass(frozen=True)
class Fail(Strategy):
    """Undefined everywhere; generates nothing."""

    def eval(self, d: Derivation) -> EvalResult:
        return UNDEFINED

    @property
    def memoryless(self) -> bool:
        return True


@dataclass(frozen=True)
class Greatmost(Strategy):
    """Permits the steps whose labels are maximal among the out-labels.

    Defined exactly on objects with at least one out-step. With a total order
    the choice is a single step; a partial order keeps all maximal ones.
    """

    order: LabelOrder

    def eval(self, d: Derivation) -> EvalResult:
        outs = d.ars.out_steps(d.target)
        if not outs:
            return UNDEFINED
        keep = tuple(
            s for s in outs if not any(self.order.less(s.label, o.label) for o in outs)
        )
        return EvalResult(True, keep)

    @property
    def memoryless(self) -> bool:
        return True


@dataclass(frozen=True)
class MaxLen(Strategy):
    """Cuts off extension once the history reaches bound - 1 steps."""

    bound: int

    def eval(self, d: Derivation) -> EvalResult:
        if len(d) < self.bound - 1:
            return EvalResult(True, d.ars.out_steps(d.target))
        return EvalResult(True, ())

    @property
    def memoryless(self) -> bool:
        return False


@dataclass(frozen=True)
class RestrictLabels(Strategy):
    """Permits only out-steps whose label lies in the allowed set."""

    allowed: frozenset[str]

    def eval(self, d: Derivation) -> EvalResult:
        keep = tuple(s for s in d.ars.out_steps(d.target) if s.label in self.allowed)
        return EvalResult(True, keep)

    @property
    def memoryless(self) -> bool:
        return True


@dataclass(frozen=True)
class Alternate(Strategy):
    """Alternates between two step sets, starting in the first.

    Empty history: steps from `first`. A history whose last step lies in
    `second` continues with `first` and vice versa; a last step in both allows
    both; a last step in neither leaves the strategy undefined there.
    """

    first: frozenset[Step]
    second: frozenset[Step]

    def eval(self, d: Derivation) -> EvalResult:
        outs = d.ars.out_steps(d.target)
        if not d.labels:
            return EvalResult(True, tuple(s for s in outs if s in self.first))
        last = d.ars.step(d.targets[-2], d.labels[-1])
        allowed: set[Step] = set()
        defined = False
        if last in self.second:
            defined = True
            allowed.update(s for s in outs if s in self.first)
        if last in self.first:
            defined = True
            allowed.update(s for s in outs if s in self.second)
        if not defined:
            return UNDEFINED
        return EvalResult(True, d.ars.sorted_steps(allowed))

    @property
    def memoryless(self) -> bool:
        return False


@dataclass(frozen=True)
class ColorAlternate(Strategy):
    """Alternates label colours: after a white-labelled step, only black.

    Any coloured first step is permitted on an empty history. A last step with
    an uncoloured label leaves the strategy undefined after it.
    """

    white: frozenset[str]
    black: frozenset[str]

    def __post_init__(self) -> None:
        if self.white & self.black:
            raise ValueError("a label cannot be both white and black")

    def eval(self, d: Derivation) -> EvalResult:
        outs = d.ars.out_steps(d.target)
        if not d.labels:
            coloured = self.white | self.black
            return EvalResult(True, tuple(s for s in outs if s.label in coloured))
        last_label = d.labels[-1]
        if last_label in self.white:
            want = self.black
        elif last_label in self.black:
            want = self.white
        else:
            return UNDEFINED
        return EvalResult(True, tuple(s for s in outs if s.label in want))

    @property
    def memoryless(self) -> bool:
        return False


@dataclass(frozen=True)
class Intersect(Strategy):
    """Pointwise intersection; defined where all children are."""

    children: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("intersection needs at least one child")

    def eval(self, d: Derivation) -> EvalResult:
        results = [c.eval(d) for c in self.children]
        if not all(r.defined for r in results):
            return UNDEFINED
        common = set(results[0].steps)
        for r in results[1:]:
            common &= set(r.steps)
        return EvalResult(True, d.ars.sorted_steps(common))

    @property
    def memoryless(self) -> bool:
        return all(c.memoryless for c in self.children)


@dataclass(frozen=True)
class UnionPointwise(Strategy):
    """Pointwise union; defined where some child is.

    Its extension can be strictly larger than the union of the children's
    extensions: a derivation may swap between children mid-flight.
    """

    children: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("union needs at least two children")

    def eval(self, d: Derivation) -> EvalResult:
        results = [c.eval(d) for c in self.children]
        if not any(r.defined for r in results):
            return UNDEFINED
        merged: set[Step] = set()
        for r in results:
            merged.update(r.steps)
        return EvalResult(True, d.ars.sorted_steps(merged))

    @property
    def memoryless(self) -> bool:
        return all(c.memoryless for c in self.children)


def _obeys(child: Strategy, d: Derivation) -> bool:
    """Whether child permitted each step of d after the prefix before it."""
    before = [d]  # d and its prefixes, longest first
    while before[-1].labels:
        before.append(before[-1].parent)
    for step in d.steps:
        if step not in child.eval(before.pop()).steps:
            return False
    return True


@dataclass(frozen=True)
class UnionCommitted(Strategy):
    """Union that commits: once the history leaves a child, that child is out.

    Each child only contributes after derivations whose every step it
    permitted, so the generated set is exactly the union of the children's
    generated sets.
    """

    children: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("union needs at least two children")

    def eval(self, d: Derivation) -> EvalResult:
        merged: set[Step] = set()
        defined = False
        for child in self.children:
            if not _obeys(child, d):
                continue
            r = child.eval(d)
            if r.defined:
                defined = True
                merged.update(r.steps)
        if not defined:
            return UNDEFINED
        return EvalResult(True, d.ars.sorted_steps(merged))

    @property
    def memoryless(self) -> bool:
        return False


@dataclass(frozen=True)
class TableEntry:
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

    def matches(self, d: Derivation) -> bool:
        if d.target != self.head:
            return False
        if self.source is not None and d.source != self.source:
            return False
        word = d.labels
        if self.wildcard:
            return word[: len(self.word)] == self.word
        return word == self.word


@dataclass(frozen=True)
class FromTable(Strategy):
    """Finite mapping from derivation patterns to permitted step sets.

    Exact rows win over wildcard rows; among wildcard rows the longest stored
    prefix wins. Undefined where no row matches.
    """

    entries: tuple[TableEntry, ...]

    def eval(self, d: Derivation) -> EvalResult:
        best: TableEntry | None = None
        for entry in self.entries:
            if not entry.matches(d):
                continue
            if not entry.wildcard:
                return EvalResult(True, d.ars.sorted_steps(entry.steps))
            if best is None or len(entry.word) > len(best.word):
                best = entry
        if best is None:
            return UNDEFINED
        return EvalResult(True, d.ars.sorted_steps(best.steps))

    @property
    def memoryless(self) -> bool:
        return all(
            e.wildcard and not e.word and e.source is None for e in self.entries
        )


@dataclass(frozen=True)
class AcceptFiltered(Strategy):
    """A strategy plus an accepting condition over completed derivations.

    The condition does not constrain stepping; it selects which generated
    derivations count as accepted when the strategy is materialised.
    """

    child: Strategy
    condition: object

    def eval(self, d: Derivation) -> EvalResult:
        return self.child.eval(d)

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


def generate(
    xi: Strategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> Iterator[Derivation]:
    """The derivations of length <= depth that xi generates, in Derivation.sort_key order.

    A derivation is generated when xi permits each of its steps after the
    prefix before it. Each layer extends the one before, in order, by the
    steps xi permits among the out-steps of each target, in label order
    (Ars.steps_from); from sources in object-index order every layer comes
    out sorted, so nothing else is sorted.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    starts = ars.objects if sources is None else sorted(set(sources), key=ars.object_index)
    layer = [ars.empty_derivation(obj) for obj in starts]
    for _ in range(depth):
        layer = [d.extended(s.label) for d in layer for s in ars.steps_from(d.target, xi.eval(d).steps)]
        yield from layer


def finite_support(
    xi: Strategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> AbstractStrategy:
    """generate's members as a set; it is prefix-closed and carries no lassos."""
    return AbstractStrategy(ars, frozenset(generate(xi, ars, depth, sources)))


def enumerate_derivations(ars: Ars, max_len: int, source: str | None = None) -> list[Derivation]:
    """Every non-empty derivation of length <= max_len (from source, if given), in order."""
    return list(generate(Universal(), ars, max_len, None if source is None else (source,)))


def induced_steps(xi: Strategy, ars: Ars) -> tuple[Step, ...]:
    """Steps a memoryless strategy permits anywhere (its sub-system)."""
    if not xi.memoryless:
        raise MemoryRequired("induced sub-system needs a memoryless strategy")
    chosen: set[Step] = set()
    for obj in ars.objects:
        chosen.update(xi.eval(ars.empty_derivation(obj)).steps)
    return ars.sorted_steps(chosen)


def lassos_of_memoryless(
    xi: Strategy, ars: Ars, sources: Iterable[str] | None = None, max_len: int | None = None
) -> list[Lasso]:
    """Witnesses for the infinite derivations a memoryless strategy generates.

    One lasso per (source object, simple cycle) pair of the induced
    sub-system, with a shortest stem from the source to the cycle. One BFS
    per source gives the stems: a cycle is entered at the object of it that
    the BFS discovers first. With max_len, only the lassos with |stem| +
    |cycle| <= max_len, and cycles and stems are searched up to that length.
    Raises MemoryRequired for memoried strategies, where the sub-system view
    is not available.
    """
    sub = ars.restrict(induced_steps(xi, ars))
    cycles = simple_cycles(sub, max_len)
    through: dict[str, list[int]] = {}  # object -> the cycles through it
    for k, cycle in enumerate(cycles):
        for obj in cycle.targets[1:]:
            through.setdefault(obj, []).append(k)
    loops: dict[tuple[int, str], Derivation] = {}  # (cycle, object on it) -> cycle started there
    out: list[Lasso] = []
    for src in sorted(set(ars.objects if sources is None else sources), key=ars.object_index):
        met: set[int] = set()
        for stem in shortest_paths(sub, src, None if max_len is None else max_len - 1):
            entry = stem.target
            fresh = [k for k in through.get(entry, ()) if k not in met]
            if not fresh:
                continue
            met.update(fresh)
            home = Derivation(ars, src, stem.labels)
            for k in fresh:
                cycle = cycles[k]
                if max_len is not None and len(stem) + len(cycle) > max_len:
                    continue
                if (k, entry) not in loops:
                    i = cycle.targets.index(entry)
                    loops[k, entry] = Derivation(ars, entry, cycle.labels[i:] + cycle.labels[:i])
                out.append(Lasso(home, loops[k, entry]))
    out.sort(key=Lasso.sort_key)
    return out


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
