"""Strategies described by logic: step predicates and accepting conditions.

A characteristic predicate decides, per traced object and candidate label,
whether the step is permitted; it is itself the intensional strategy it
describes, so the predicates are strategies of intensional, defined by at
alone, and imported here by name. An accepting condition selects which
completed derivations count, so a logical strategy (base strategy plus
condition) generates a set that need not be prefix-closed. A condition reads
as an automaton over steps, as a strategy does, so one product of objects,
strategy memories and condition states is walked: accepted collects its
members, accepted_targets the objects they end at, and layered_check,
factor_check and composition_check count them and decide prefix, factor and
composition closure there, building only the derivations they report.
nonclosed_witness searches, up to a horizon, for a lasso whose finite
truncations always remain extendable to accepted derivations without ever
being accepted themselves: a finitely presented limit point outside the
accepted set. It answers None from the product when no state could end a
witness's first pumped truncation, else draws its candidates one length
class at a time (intensional.ordered_lassos) and keeps each pump verdict per
(cycle, entry state); it advances the condition over step tuples and builds
the Lasso only for the witness it returns.
"""

from __future__ import annotations

import abc
from functools import cached_property
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator

from . import rational
from .ars import Ars, Derivation, Lasso, Step, StepFunction, expand
from .errors import MemoryRequired
from .extensional import AbstractStrategy, ClosureVerdict
from .intensional import (  # noqa: F401 (the predicates are importable from here too)
    AcceptFiltered,
    AlternatePredicate,
    CustomPredicate,
    FalsePredicate,
    Greatmost,
    MaxLen,
    Predicate,
    Strategy,
    Universal,
    generate,
    induced,
    ordered_lassos,
    transitions,
)
from .value import Value

# -- characteristic predicates ---------------------------------------------------

# Permitting every label is Universal; permitting extension while the history
# is shorter than bound - 1 is MaxLen(bound); permitting the labels that no
# out-label of the target is above is Greatmost(order).
TruePredicate = Universal
LenLess = MaxLen
GreatmostPredicate = Greatmost


def strategy_from_predicate(pred: Strategy) -> Strategy:
    """The strategy a predicate describes: the predicate itself."""
    return pred


# -- accepting conditions ----------------------------------------------------------


class AcceptCondition(abc.ABC):
    """Decides whether a completed derivation is accepted.

    start, advance and final read the condition as an automaton over steps,
    with hashable states; accepts folds advance over a derivation's steps
    from start at its source and asks final of the state it ends in.
    """

    @abc.abstractmethod
    def start(self, ars: Ars, obj: str) -> Hashable: ...

    @abc.abstractmethod
    def advance(self, state, step: Step) -> Hashable: ...

    @abc.abstractmethod
    def final(self, state) -> bool: ...

    def accepts(self, d: Derivation) -> bool:
        state = self.start(d.ars, d.source)
        for step in d.steps:
            state = self.advance(state, step)
        return self.final(state)


class LabelWordIn(AcceptCondition, Value):
    """The derivation's label word lies in a rational language; the state is the automaton's state set."""

    expr: object

    @cached_property
    def nfa(self) -> rational.Nfa:
        return rational.compile_expr(self.expr)

    def start(self, ars: Ars, obj: str) -> frozenset[int]:
        return rational.START

    def advance(self, state: frozenset[int], step: Step) -> frozenset[int]:
        return self.nfa.step(state, step.label)

    def final(self, state: frozenset[int]) -> bool:
        return self.nfa.accepts(state)


class _LenCondition(AcceptCondition, Value):
    """A condition on the length alone; the state counts steps up to bound + 1."""

    bound: int

    def start(self, ars: Ars, obj: str) -> int:
        return 0

    def advance(self, state: int, step: Step) -> int:
        return min(state + 1, self.bound + 1)


class LenAtLeast(_LenCondition):
    def final(self, state: int) -> bool:
        return state >= self.bound


class LenAtMost(_LenCondition):
    def final(self, state: int) -> bool:
        return state <= self.bound


class LenEq(_LenCondition):
    def final(self, state: int) -> bool:
        return state == self.bound


class AtObject(AcceptCondition, Value):
    """The derivation ends at the given object; the state is the current object."""

    obj: str

    def start(self, ars: Ars, obj: str) -> str:
        return obj

    def advance(self, state: str, step: Step) -> str:
        return step.target

    def final(self, state: str) -> bool:
        return state == self.obj


class ExplicitTraceSet(AcceptCondition, Value):
    """The derivation is one of the given ones; the state is the derivation so far."""

    traces: frozenset[Derivation]

    def start(self, ars: Ars, obj: str) -> Derivation:
        return ars.empty_derivation(obj)

    def advance(self, state: Derivation, step: Step) -> Derivation:
        return state.then(step)

    def final(self, state: Derivation) -> bool:
        return state in self.traces


class _Junction(AcceptCondition, Value):
    """And and Or; the state is the tuple of the parts' states."""

    parts: tuple[AcceptCondition, ...]

    def start(self, ars: Ars, obj: str) -> tuple:
        return tuple(p.start(ars, obj) for p in self.parts)

    def advance(self, state: tuple, step: Step) -> tuple:
        return tuple(p.advance(q, step) for p, q in zip(self.parts, state))


class And(_Junction):
    def final(self, state: tuple) -> bool:
        return all(p.final(q) for p, q in zip(self.parts, state))


class Or(_Junction):
    def final(self, state: tuple) -> bool:
        return any(p.final(q) for p, q in zip(self.parts, state))


class Not(AcceptCondition, Value):
    """The complement; the state is the part's state."""

    part: AcceptCondition

    def start(self, ars: Ars, obj: str) -> Hashable:
        return self.part.start(ars, obj)

    def advance(self, state, step: Step) -> Hashable:
        return self.part.advance(state, step)

    def final(self, state) -> bool:
        return not self.part.final(state)


ACCEPT_ALL: AcceptCondition = LenAtLeast(0)


# -- logical strategies -------------------------------------------------------------


class LogicalStrategy(Value):
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
    return AbstractStrategy(ars, frozenset(generate(ls.base, ars, depth, sources, ls.accept)))


def layered_check(
    ls: LogicalStrategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> tuple[int, Derivation | None]:
    """The size of accepted(ls, ars, depth, sources) and the missing prefix that
    is_prefix_closed reports for it (None when it is prefix-closed), found
    without building the set.

    A forward search over layers 1..depth of the product nodes (object, the
    base's memory, condition state, gap, track), moving by the base's
    transitions; gap says whether some non-empty strict prefix was not
    accepted, and the track is kept by factor_check and composition_check
    alone. A memoryless base keeps one memory, so its nodes are shared per
    object. Each node keeps its number of paths and its first arrival. Layers
    are expanded in first-arrival order with out-steps in label order, so a
    node's first arrival is its least path in Derivation.sort_key order, and
    the first accepted node with a gap in the first layer that has one is the
    first member with a missing prefix.
    """
    walk = _Walk(ls, ars, depth, sources)
    layers, count, found = walk.run(walk.roots(False, None))
    if found is None:
        return count, None
    path = _first_arrival(layers, *found)
    shortest = next(j for j in range(1, len(path)) if not path[j][2])
    return count, _derivation(ars, path[: shortest + 1])


def accepted_targets(
    ls: LogicalStrategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> set[str]:
    """The targets of the members of accepted(ls, ars, depth, sources), found
    without building them: the objects of the accepted nodes in layers
    1..depth of layered_check's walk, where each node's paths end."""
    walk = _Walk(ls, ars, depth, sources)
    layers = walk.run(walk.roots(None, None))[0]
    return {node[0] for layer in layers[1:] for node, entry in layer.items() if entry[2]}


def factor_check(
    ls: LogicalStrategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> tuple[int, ClosureVerdict]:
    """The size of accepted(ls, ars, depth, sources) and the verdict that
    is_factor_closed gives for it, found without building the set.

    The least member with a missing strict factor is the least member whose
    one-step-shorter prefix or suffix is not a member (see extensional). The
    walk of layered_check finds it: the gap says the prefix is missing, and
    the track, started after the first step, follows the suffix with its own
    memory and condition state until the base stops permitting it. Only that
    member is built, and its factors, to name the first one that is not a
    member.
    """
    walk = _Walk(ls, ars, depth, sources)
    final = walk.cond.final
    layers, count, found = walk.run(
        walk.roots(False, _FRESH), lambda node, k: k > 1 and not (node[4] and final(node[4][1]))
    )
    if found is None:
        return count, ClosureVerdict(True, (), None)
    d = _derivation(ars, _first_arrival(layers, *found))
    return count, ClosureVerdict(False, (d,), next(f for f in d.factors() if not walk.member(f)))


def composition_check(
    ls: LogicalStrategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> tuple[int, ClosureVerdict]:
    """The size of accepted(ls, ars, depth, sources) and the verdict that
    is_composition_closed gives for it, found without building the set.

    Whether a member d1 has a partner d2 whose composition is not a member
    depends only on d1's node (target, memory and condition state after it)
    and |d1|, so the partners are searched once per such class: a walk from
    d1's target over the members d2, whose track follows d1 . d2 under d1's
    memory and condition state. A partner fails when the track dies, ends
    unaccepted or runs past depth - |d1| steps. The least d1, in the walk's
    first-arrival order, and its least failing partner are the pair that
    scanning the members in order finds; only they and their composition are
    built.
    """
    walk = _Walk(ls, ars, depth, sources)
    final = walk.cond.final
    partners: dict[tuple, tuple | None] = {}  # (node of d1, |d1|) -> its partner walk, if one fails

    def fails(node: tuple, k: int) -> bool:
        if (node, k) not in partners:
            partners[node, k] = None
            obj, memory, state = node[:3]
            if obj in walk.sourced:  # else obj starts no member
                roots = walk.roots(None, (memory, state), (obj,))
                lost = lambda n, j: j > depth - k or not (n[4] and final(n[4][1]))
                layers, _, found = walk.run(roots, lost, counting=False)
                if found is not None:
                    partners[node, k] = layers, *found
        return partners[node, k] is not None

    layers, count, found = walk.run(walk.roots(None, None), fails)
    if found is None:
        return count, ClosureVerdict(True, (), None)
    d1 = _derivation(ars, _first_arrival(layers, *found))
    d2 = _derivation(ars, _first_arrival(*partners[found[1], found[0]]))
    return count, ClosureVerdict(False, (d1, d2), d1.compose(d2))


_FRESH, _DEAD = True, False  # a track that starts after the next step; one the base stopped permitting


class _Walk:
    """The product walk of a logical strategy's base and condition, up to depth.

    A node is (object, memory, condition state, gap, track). gap is None when
    it is not kept. A track is None when it is not kept, else the base's
    memory and the condition's state on another derivation along the same
    steps: _FRESH starts it at the object after the next step, and it turns
    _DEAD once the base does not permit a step from its memory.
    """

    def __init__(self, ls: LogicalStrategy, ars: Ars, depth: int, sources: Iterable[str] | None):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.ars, self.depth, self.base, self.cond = ars, depth, ls.base, ls.accept
        self.starts = ars.objects if sources is None else sorted(set(sources), key=ars.object_index)
        self.sourced = frozenset(self.starts)
        self.moves = transitions(self.base, ars)

    def roots(self, gap: bool | None, track, starts: Iterable[str] | None = None) -> dict:
        """Layer 0: node -> [paths, first arrival (the source), accepted]."""
        base, cond, ars = self.base, self.cond, self.ars
        return {
            (obj, base.start(ars, obj), cond.start(ars, obj), gap, track): [1, obj, False]
            for obj in (self.starts if starts is None else starts)
        }

    def begin(self, obj: str):
        """A track of the empty derivation at obj: _DEAD unless obj is a source."""
        if obj not in self.sourced:
            return _DEAD
        return self.base.start(self.ars, obj), self.cond.start(self.ars, obj)

    def follow(self, track, step: Step):
        """The track moved along step."""
        if track is _FRESH:
            return self.begin(step.target)
        memory, state = track
        after = self.moves(memory, step.source).get(step)
        return _DEAD if after is None else (after, self.cond.advance(state, step))

    def member(self, d: Derivation) -> bool:
        """Whether d, no longer than depth, is a member of the accepted set."""
        track = self.begin(d.source)
        for step in d.steps:
            track = track and self.follow(track, step)
        return bool(track) and self.cond.final(track[1])

    def run(self, roots: dict, lost: Callable[[tuple, int], bool] | None = None, counting: bool = True):
        """The layers 0..depth from roots, the number of accepted paths in layers
        1..depth, and (layer, node) of the first accepted node, in the least
        layer that has one, whose gap is set or that lost says fails (None if
        there is none). From the layer after it, gaps and tracks are dropped, so
        nodes merge and the walk only counts; unless counting, it ends there.
        """
        moves, advance, final, follow = self.moves, self.cond.advance, self.cond.final, self.follow
        layers = [roots]
        count, found = 0, None
        while layers[-1] and len(layers) <= self.depth and (counting or found is None):
            k = len(layers)
            grown: dict[tuple, list] = {}
            for node, (paths, _, accepted_here) in layers[-1].items():
                obj, memory, state, gap, track = node
                if found is not None:
                    gap = track = None
                elif gap is not None:
                    gap = gap or (k > 1 and not accepted_here)
                for step, after in moves(memory, obj).items():
                    nxt = (step.target, after, advance(state, step), gap, track and follow(track, step))
                    if nxt in grown:
                        grown[nxt][0] += paths
                    else:
                        grown[nxt] = [paths, (node, step.label), False]
            for node, entry in grown.items():
                if final(node[2]):
                    entry[2] = True
                    count += entry[0]
                    if found is None and (node[3] or (lost is not None and lost(node, k))):
                        found = k, node
            layers.append(grown)
        return layers, count, found


def _first_arrival(layers: list[dict], k: int, node: tuple) -> list[list]:
    """The entries along the first arrival at node in layer k, from layer 0."""
    path = [layers[k][node]]
    for layer in reversed(layers[:k]):
        path.append(layer[path[-1][1][0]])
    path.reverse()
    return path


def _derivation(ars: Ars, path: list[list]) -> Derivation:
    return ars.derivation(path[0][1], *(entry[1][1] for entry in path[1:]))


def nonclosed_witness(
    ls: LogicalStrategy, ars: Ars, horizon: int, sources: Iterable[str] | None = None
) -> Lasso | None:
    """Bounded search for a lasso witnessing non-closedness of the accepted set.

    A candidate lasso (|stem| + |cycle| <= horizon, from the base's induced
    sub-system, intensional.induced) is a witness when every pumped
    truncation stem . cycle^i for i = 1..horizon//|cycle| is a prefix of some
    accepted derivation within depth D = horizon + |stem| + |cycle| and is
    never itself accepted: along the loop, acceptance stays reachable but is
    never attained. Returns the first witness in deterministic order, or None
    (a semi-decision: no witness up to the horizon is not a closedness proof).

    "A prefix of an accepted derivation within depth D" is read on the
    product of the induced sub-system with the condition's states: the
    truncation p qualifies exactly when a state the condition accepts is
    reachable from (p's target, p's condition state) in 1..D-|p| product
    steps. D-|p| never exceeds the horizon, so one breadth-first search per
    product state finds its least distance to acceptance, up to the horizon,
    when the search first asks for it (_distances), and the distance is kept
    for the rest of the call. The distances also give the certificate of
    None: the first truncation of a witness ends, 1..horizon steps from its
    source, in a state that is not accepted, is at most horizon steps from
    acceptance, and whose object lies on a cycle of at most horizon steps
    (_on_cycle); when no state is all three, no candidate is built.

    Otherwise the candidates are intensional.ordered_lassos' step tuples, one
    |stem| + |cycle| class at a time in Lasso.sort_key order, so cycles and
    stems are searched only as long as the class tried needs. A candidate's
    verdict depends only on its cycle, as rotated, and the condition state it
    enters it in: after i passes the budget is horizon + |cycle| - i|cycle|.
    So each (cycle, state) verdict is kept for the call. Everything reads one
    table of product steps (_successors), so the condition advances once per
    (state, step), and only the returned witness is built as a Lasso.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if not ls.base.memoryless:
        raise MemoryRequired("witness search needs a memoryless base strategy")
    out = induced(ls.base, ars)
    cond = ls.accept
    successors = _successors(out, cond)
    distance = _distances(successors, horizon)
    on_cycle: dict[str, bool] = {}  # object -> whether it lies on a cycle of at most horizon steps
    starts = sorted(set(ars.objects if sources is None else sources), key=ars.object_index)
    for obj, state in _unaccepted(successors, [(obj, cond.start(ars, obj)) for obj in starts], horizon):
        if distance((obj, state)) <= horizon:
            if obj not in on_cycle:
                on_cycle[obj] = _on_cycle(out, obj, horizon)
            if on_cycle[obj]:
                break
    else:
        return None
    entered: dict[tuple, Hashable] = {}  # (source, entry) -> the condition state after the stem
    verdicts: dict[tuple, bool] = {}  # (cycle, entry state) -> whether every pass keeps it pumping

    def pumps(loop: tuple[Step, ...], state: Hashable) -> bool:
        entry = loop[0].source
        for i in range(1, max(1, horizon // len(loop)) + 1):
            for step in loop:
                (_, state), accepted_here = successors((step.source, state))[step.label]
            if accepted_here or distance((entry, state)) > horizon - (i - 1) * len(loop):
                return False
        return True

    for src, stem, loop in ordered_lassos(ars, out, sources, horizon):
        entry = loop[0].source
        if (src, entry) not in entered:
            state = cond.start(ars, src)
            for step in stem:
                state = successors((step.source, state))[step.label][0][1]
            entered[src, entry] = state
        key = (loop, entered[src, entry])
        if key not in verdicts:
            verdicts[key] = pumps(*key)
        if verdicts[key]:
            return Lasso(
                Derivation(ars, src, tuple(s.label for s in stem)),
                Derivation(ars, entry, tuple(s.label for s in loop)),
            )
    return None


def _successors(out: StepFunction, cond: AcceptCondition) -> Callable[[tuple], dict]:
    """The product of out's steps and cond's states, read one state at a time:
    at (object, condition state), each label of a step that out gives at the
    object mapped to ((its target, the state after it), whether cond accepts that
    state). A state's successors are computed on its first read and kept, so
    the condition is advanced once per (state, step) for the caller's lifetime."""
    table: dict[tuple, dict] = {}
    advance, final = cond.advance, cond.final

    def successors(node: tuple) -> dict[str, tuple]:
        moves = table.get(node)
        if moves is None:
            obj, state = node
            moves = table[node] = {}
            for step in out(obj):
                after = advance(state, step)
                moves[step.label] = (step.target, after), final(after)
        return moves

    return successors


def _unaccepted(
    successors: Callable[[tuple], dict], starts: list[tuple], horizon: int
) -> Iterator[tuple]:
    """The product states 1..horizon steps from starts that the condition does not
    accept, each once, as a breadth-first search over successors meets them. A
    start counts only when a step leads back to it. Not a layer at a time
    (ars.expand): the caller stops at the first state that qualifies, often
    before the condition has advanced from every start."""
    seen: set[tuple] = set()
    frontier = starts
    for _ in range(horizon):
        grown = []
        for node in frontier:
            for nxt, final in successors(node).values():
                if nxt not in seen:
                    seen.add(nxt)
                    grown.append(nxt)
                    if not final:
                        yield nxt
        frontier = grown


def _on_cycle(out: StepFunction, obj: str, bound: int) -> bool:
    """Whether obj lies on a cycle of out's steps of at most bound steps. A shortest
    closed walk through obj is a simple cycle, so one breadth-first search from
    obj, bound steps deep, decides it."""
    seen: set[str] = set()  # obj is left out, so a step back to it puts it in a layer
    layer, target = [obj], attrgetter("target")
    for _ in range(bound):
        layer = expand(layer, seen, out, target)
        if obj in layer:
            return True
    return False


def _distances(successors: Callable[[tuple], dict], horizon: int) -> Callable[[tuple], int]:
    """The least number of steps, 1..horizon, from a product state to one that the
    condition accepts, or horizon + 1 when none is that near, kept per state.

    A breadth-first search over successors from the state asked for. It does
    not search on from a state whose distance is kept: a path through a state
    first met at depth d is at best d plus that state's distance. It stops at
    the first depth that cannot improve on what it has.
    """
    known: dict[tuple, int] = {}

    def distance(node: tuple) -> int:
        best = known.get(node)
        if best is not None:
            return best
        best = horizon + 1
        frontier, seen = [node], {node}
        for depth in range(1, horizon + 1):
            if depth >= best:
                break
            grown = []
            for here in frontier:
                for nxt, final in successors(here).values():
                    if final:
                        known[node] = depth
                        return depth
                    if nxt not in seen:
                        seen.add(nxt)
                        if nxt in known:
                            best = min(best, depth + known[nxt])
                        else:
                            grown.append(nxt)
            frontier = grown
        known[node] = best
        return best

    return distance
