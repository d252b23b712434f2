"""Strategies described by logic: step predicates and accepting conditions.

Both read a derivation, the paper's traced object. A characteristic predicate
decides, per derivation so far and candidate label, whether the step is
permitted; it is itself the intensional strategy it describes. An accepting
condition selects which completed derivations count, so a logical strategy
(base strategy plus condition) generates a set that need not be prefix-closed.
nonclosed_witness searches, up to a horizon, for a lasso whose finite
truncations always remain extendable to accepted derivations without ever
being accepted themselves: a finitely presented limit point outside the
accepted set.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable

from . import rational
from .ars import Ars, Derivation, Lasso
from .errors import MemoryRequired
from .extensional import AbstractStrategy
from .intensional import (
    AcceptFiltered,
    EvalResult,
    Greatmost,
    MaxLen,
    Strategy,
    Universal,
    finite_support,
    lassos_of_memoryless,
)

# -- characteristic predicates ---------------------------------------------------


class Predicate(Strategy):
    """A characteristic predicate, read as the strategy it describes.

    holds decides whether a candidate label is permitted after a derivation;
    eval keeps the out-steps of its target whose labels it permits, and is
    defined everywhere.
    """

    @abc.abstractmethod
    def holds(self, d: Derivation, label: str) -> bool: ...

    def eval(self, d: Derivation) -> EvalResult:
        keep = tuple(s for s in d.ars.out_steps(d.target) if self.holds(d, s.label))
        return EvalResult(True, keep)


# Permitting every label is Universal; permitting extension while the history
# is shorter than bound - 1 is MaxLen(bound); permitting the labels that no
# out-label of the target is above is Greatmost(order).
TruePredicate = Universal
LenLess = MaxLen
GreatmostPredicate = Greatmost


@dataclass(frozen=True)
class FalsePredicate(Predicate):
    def holds(self, d: Derivation, label: str) -> bool:
        return False

    @property
    def memoryless(self) -> bool:
        return True


@dataclass(frozen=True)
class AlternatePredicate(Predicate):
    """Label-set alternation, starting in the first set."""

    first: frozenset[str]
    second: frozenset[str]

    def holds(self, d: Derivation, label: str) -> bool:
        if not d.labels:
            return label in self.first
        last = d.labels[-1]
        return (last in self.second and label in self.first) or (
            last in self.first and label in self.second
        )

    @property
    def memoryless(self) -> bool:
        return False


@dataclass(frozen=True)
class CustomPredicate(Predicate):
    """Wraps a callable over (label word, target object, candidate label)."""

    fn: Callable[[tuple[str, ...], str, str], bool]
    trace_free: bool = False

    def holds(self, d: Derivation, label: str) -> bool:
        return self.fn(d.labels, d.target, label)

    @property
    def memoryless(self) -> bool:
        return self.trace_free


def strategy_from_predicate(pred: Strategy) -> Strategy:
    """The strategy a predicate describes: the predicate itself."""
    return pred


# -- accepting conditions ----------------------------------------------------------


class AcceptCondition(abc.ABC):
    """Decides whether a completed derivation is accepted."""

    @abc.abstractmethod
    def accepts(self, d: Derivation) -> bool: ...


@dataclass(frozen=True)
class LabelWordIn(AcceptCondition):
    """The derivation's label word lies in a rational language."""

    expr: object

    def accepts(self, d: Derivation) -> bool:
        return rational.matches(self.expr, d.labels)


@dataclass(frozen=True)
class LenAtLeast(AcceptCondition):
    bound: int

    def accepts(self, d: Derivation) -> bool:
        return len(d) >= self.bound


@dataclass(frozen=True)
class LenAtMost(AcceptCondition):
    bound: int

    def accepts(self, d: Derivation) -> bool:
        return len(d) <= self.bound


@dataclass(frozen=True)
class LenEq(AcceptCondition):
    bound: int

    def accepts(self, d: Derivation) -> bool:
        return len(d) == self.bound


@dataclass(frozen=True)
class AtObject(AcceptCondition):
    """The derivation ends at the given object."""

    obj: str

    def accepts(self, d: Derivation) -> bool:
        return d.target == self.obj


@dataclass(frozen=True)
class ExplicitTraceSet(AcceptCondition):
    traces: frozenset[Derivation]

    def accepts(self, d: Derivation) -> bool:
        return d in self.traces


@dataclass(frozen=True)
class And(AcceptCondition):
    parts: tuple[AcceptCondition, ...]

    def accepts(self, d: Derivation) -> bool:
        return all(p.accepts(d) for p in self.parts)


@dataclass(frozen=True)
class Or(AcceptCondition):
    parts: tuple[AcceptCondition, ...]

    def accepts(self, d: Derivation) -> bool:
        return any(p.accepts(d) for p in self.parts)


@dataclass(frozen=True)
class Not(AcceptCondition):
    part: AcceptCondition

    def accepts(self, d: Derivation) -> bool:
        return not self.part.accepts(d)


ACCEPT_ALL: AcceptCondition = LenAtLeast(0)


# -- logical strategies -------------------------------------------------------------


@dataclass(frozen=True)
class LogicalStrategy:
    base: Strategy
    accept: AcceptCondition


def as_logical(xi: Strategy) -> LogicalStrategy:
    """View any strategy as a logical one, folding accept wrappers into one.

    A chain of accept wrappers conjoins its conditions; a bare strategy gets
    the always-true condition (its generated set is then its support).
    """
    conditions: list[AcceptCondition] = []
    node = xi
    while isinstance(node, AcceptFiltered):
        conditions.append(node.condition)  # type: ignore[arg-type]
        node = node.child
    if not conditions:
        return LogicalStrategy(node, ACCEPT_ALL)
    if len(conditions) == 1:
        return LogicalStrategy(node, conditions[0])
    return LogicalStrategy(node, And(tuple(conditions)))


def accepted(
    ls: LogicalStrategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> AbstractStrategy:
    """Members of the base's support (up to depth) that the condition accepts."""
    support = finite_support(ls.base, ars, depth, sources)
    kept = frozenset(d for d in support.finite_part if ls.accept.accepts(d))
    return AbstractStrategy(ars, kept)


def nonclosed_witness(
    ls: LogicalStrategy, ars: Ars, horizon: int, sources: Iterable[str] | None = None
) -> Lasso | None:
    """Bounded search for a lasso witnessing non-closedness of the accepted set.

    A candidate lasso (|stem| + |cycle| <= horizon, from the base's induced
    sub-system) is a witness when every pumped truncation stem . cycle^i for
    i = 1..horizon//|cycle| is a prefix of some accepted derivation within
    depth horizon + |stem| + |cycle| and is never itself accepted: along the
    loop, acceptance stays reachable but is never attained. Returns the first
    witness in deterministic order, or None (a semi-decision: no witness up to
    the horizon is not a closedness proof).
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if not ls.base.memoryless:
        raise MemoryRequired("witness search needs a memoryless base strategy")
    candidates = [
        l
        for l in lassos_of_memoryless(ls.base, ars, sources)
        if len(l.stem) + len(l.cycle) <= horizon
    ]
    member_cache: dict[tuple[int, str], tuple[Derivation, ...]] = {}
    for lasso in candidates:
        depth = horizon + len(lasso.stem) + len(lasso.cycle)
        key = (depth, lasso.source)
        if key not in member_cache:
            member_cache[key] = accepted(ls, ars, depth, sources={lasso.source}).members()
        members = member_cache[key]
        member_set = set(members)
        pumps = max(1, horizon // len(lasso.cycle))
        good = True
        for i in range(1, pumps + 1):
            pumped = lasso.unroll(i)
            if pumped in member_set:
                good = False
                break
            if not any(pumped.is_prefix_of(m) for m in members):
                good = False
                break
        if good:
            return lasso
    return None
