"""Shared fixtures-in-code: corpus systems, strategy pools, brute oracles.

The oracles here are deliberately independent of the implementations they
check: support by filtering a raw enumeration (raw_derivations, which does
not go through intensional.generate) step by step, with each strategy read
off the whole derivation (replayed_eval) rather than through its memory, the
predicates included, acceptance by each condition's reading of the whole
derivation (brute_accepts), regex matching by word derivatives, closedness
by a limit-point scan over an ambient enumeration, factor and composition
closure by building every factor and every composition, simple cycles by
filtering a raw enumeration (brute_cycles), a memoryless strategy's
sub-system by reading replayed_eval at each object (brute_induced), not
through intensional.transitions, and the witness search by materialising
every accepted derivation. The lasso candidates are also checked against
the Derivation-built search they replace (derivation_lassos), both over
brute_induced's sub-system, and the witness search's least distance to
acceptance against one search per budget (reaches_final). The document
parser's steps reader is checked against the token loop it stands in for
(parse_by_tokens).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterable, Iterator

from strat import (
    AbstractStrategy,
    AcceptCondition,
    AcceptFiltered,
    Alternate,
    AlternatePredicate,
    And,
    Ars,
    AtObject,
    ClosureVerdict,
    ColorAlternate,
    CustomPredicate,
    Derivation,
    EvalResult,
    ExplicitTraceSet,
    Fail,
    FalsePredicate,
    FunctionalityViolation,
    FromTable,
    Greatmost,
    GreatmostPredicate,
    Intersect,
    LabelOrder,
    LabelWordIn,
    Lasso,
    LenAtLeast,
    LenAtMost,
    LenEq,
    LogicalStrategy,
    MaxLen,
    MemoryRequired,
    Not,
    Or,
    RestrictLabels,
    Step,
    Strategy,
    TableEntry,
    TruePredicate,
    UnionCommitted,
    UnionPointwise,
    Universal,
    UnknownSymbol,
    accepted,
    rotate_cycle,
    shortest_path_to,
    shortest_paths,
    simple_cycles,
    strategy_from_predicate,
)
from strat import rational, speclang
from strat.traffic import TrafficState, good_starts

# -- corpus systems ---------------------------------------------------------------


def alc() -> Ars:
    return Ars(
        ("a", "b", "c", "d"),
        ("phi1", "phi2", "phi3", "phi4"),
        [("a", "phi1", "b"), ("a", "phi2", "c"), ("b", "phi3", "a"), ("b", "phi4", "d")],
    )


def ac() -> Ars:
    return Ars(("a",), ("phi1", "phi2"), [("a", "phi1", "a"), ("a", "phi2", "a")])


def aloop() -> Ars:
    return Ars(("a", "b"), ("phi1", "phi2"), [("a", "phi1", "b"), ("b", "phi2", "a")])


def union_ars() -> Ars:
    return Ars(
        ("a", "b1", "b2"),
        ("phi1", "phi2", "beta1", "beta2"),
        [("a", "phi1", "b1"), ("a", "phi2", "b2"), ("b1", "beta1", "a"), ("b2", "beta2", "a")],
    )


def eventual_ars() -> Ars:
    return Ars(("a", "b"), ("loop", "exit"), [("a", "loop", "a"), ("a", "exit", "b")])


def loop_with_exit(ring: int) -> Ars:
    """A ring of `ring` objects with one exit to a sink, after a trap of cycles
    (object t_i steps to t_2i and t_2i+1, mod 4) from which the sink cannot be
    reached; the trap comes first, so its lassos are tried first."""
    trap = [f"t{i}" for i in range(4)]
    ring_objects = [f"c{i}" for i in range(ring)]
    steps = [(c, "step", ring_objects[(i + 1) % ring]) for i, c in enumerate(ring_objects)]
    steps.append(("c0", "out", "sink"))
    steps += [(t, "side", trap[2 * i % 4]) for i, t in enumerate(trap)]
    steps += [(t, "back", trap[(2 * i + 1) % 4]) for i, t in enumerate(trap)]
    return Ars(trap + ring_objects + ["sink"], ("step", "side", "back", "out"), steps)


def chain_order(labels: Iterable[str]) -> LabelOrder:
    labels = tuple(labels)
    return LabelOrder.from_pairs(zip(labels, labels[1:]))


def strategy_pool(ars: Ars) -> list[tuple[str, Strategy]]:
    """A diverse pool of built-ins and combinators over one system."""
    labels = ars.labels
    k = max(1, len(labels) // 2)
    low, high = labels[:k], labels[k:]
    asc = chain_order(labels)
    desc = chain_order(reversed(labels))
    low_steps = frozenset(s for s in ars.steps if s.label in low)
    high_steps = frozenset(s for s in ars.steps if s.label in high)
    table = FromTable(
        tuple(
            TableEntry(head=obj, steps=frozenset(ars.out_steps(obj)[:1]))
            for obj in ars.objects
        )
    )
    pool: list[tuple[str, Strategy]] = [
        ("universal", Universal()),
        ("fail", Fail()),
        ("greatmost_asc", Greatmost(asc)),
        ("greatmost_desc", Greatmost(desc)),
        ("maxlen1", MaxLen(1)),
        ("maxlen3", MaxLen(3)),
        ("restrict_low", RestrictLabels(frozenset(low))),
        ("alternate", Alternate(low_steps, high_steps)),
        ("intersect", Intersect((Universal(), RestrictLabels(frozenset(low))))),
        ("union_pointwise", UnionPointwise((RestrictLabels(frozenset(low)), table))),
        ("union_committed", UnionCommitted((RestrictLabels(frozenset(low)), table))),
        ("first_step_table", table),
        ("accept_wrapped", AcceptFiltered(Universal(), LenAtMost(2))),
        ("pred_true", strategy_from_predicate(TruePredicate())),
        ("pred_greatmost", strategy_from_predicate(GreatmostPredicate(asc))),
    ]
    if high:
        pool.append(("color_alternate", ColorAlternate(frozenset(low), frozenset(high))))
    return pool


# -- oracle: support by stepwise filtering -----------------------------------------


def raw_derivations(ars: Ars, max_len: int) -> list[Derivation]:
    """Every non-empty derivation of length <= max_len, grown breadth first
    from every object without a strategy, then sorted by Derivation.sort_key."""
    out: list[Derivation] = []
    frontier = [ars.empty_derivation(obj) for obj in ars.objects]
    for _ in range(max_len):
        frontier = [d.extended(step.label) for d in frontier for step in ars.out_steps(d.target)]
        out.extend(frontier)
    out.sort(key=Derivation.sort_key)
    return out


def _obeys(child: Strategy, d: Derivation) -> bool:
    """Whether child permitted each step of d after the prefix before it."""
    return all(
        d.steps[j] in replayed_eval(child, Derivation(d.ars, d.source, d.labels[:j])).steps
        for j in range(len(d))
    )


def _in_order(ars: Ars, steps: Iterable[Step]) -> tuple[Step, ...]:
    """The steps once each, by source index and then label index."""
    return tuple(sorted(set(steps), key=lambda s: (ars.object_index(s.source), ars.label_index(s.label))))


def replayed_eval(xi: Strategy, d: Derivation) -> EvalResult:
    """The steps xi permits after d, read off the whole derivation: its length
    for maxlen, the last step or label for the alternations (the predicate's
    too), the label word for a custom predicate, a replay of the history
    through each child for unionC and a scan of the rows on d for tables.
    Recurses through the combinators; any other strategy (universal, fail,
    greatmost, restrict, and the test wrappers) answers by its own eval."""
    ars, outs = d.ars, d.ars.out_steps(d.target)
    undefined = EvalResult(False, ())
    if isinstance(xi, FalsePredicate):
        return EvalResult(True, ())
    if isinstance(xi, AlternatePredicate):
        last = d.labels[-1] if d.labels else None
        return EvalResult(
            True,
            tuple(
                s
                for s in outs
                if (last is None and s.label in xi.first)
                or (last in xi.second and s.label in xi.first)
                or (last in xi.first and s.label in xi.second)
            ),
        )
    if isinstance(xi, CustomPredicate):
        return EvalResult(True, tuple(s for s in outs if xi.fn(d.labels, d.target, s.label)))
    if isinstance(xi, MaxLen):
        return EvalResult(True, outs if len(d) < xi.bound - 1 else ())
    if isinstance(xi, Alternate):
        if not d.labels:
            return EvalResult(True, tuple(s for s in outs if s in xi.first))
        last = d.steps[-1]
        if last not in xi.first and last not in xi.second:
            return undefined
        allowed = {s for s in outs if (last in xi.second and s in xi.first) or (last in xi.first and s in xi.second)}
        return EvalResult(True, _in_order(ars, allowed))
    if isinstance(xi, ColorAlternate):
        if not d.labels:
            want = xi.white | xi.black
        elif d.labels[-1] in xi.white:
            want = xi.black
        elif d.labels[-1] in xi.black:
            want = xi.white
        else:
            return undefined
        return EvalResult(True, tuple(s for s in outs if s.label in want))
    if isinstance(xi, AcceptFiltered):
        return replayed_eval(xi.child, d)
    if isinstance(xi, Intersect):
        results = [replayed_eval(c, d) for c in xi.children]
        if not all(r.defined for r in results):
            return undefined
        common = set(results[0].steps)
        for r in results[1:]:
            common &= set(r.steps)
        return EvalResult(True, _in_order(ars, common))
    if isinstance(xi, (UnionPointwise, UnionCommitted)):
        committed = isinstance(xi, UnionCommitted)
        results = [replayed_eval(c, d) for c in xi.children if not committed or _obeys(c, d)]
        if not any(r.defined for r in results):
            return undefined
        return EvalResult(True, _in_order(ars, (s for r in results for s in r.steps)))
    if isinstance(xi, FromTable):
        best = None
        for entry in xi.entries:
            if entry.head != d.target or entry.source not in (None, d.source):
                continue
            if not entry.wildcard:
                if d.labels == entry.word:
                    return EvalResult(True, _in_order(ars, entry.steps))
            elif d.labels[: len(entry.word)] == entry.word and (best is None or len(entry.word) > len(best.word)):
                best = entry
        return undefined if best is None else EvalResult(True, _in_order(ars, best.steps))
    return xi.eval(d)


def stepwise_support(
    xi: Strategy, ars: Ars, depth: int, sources: Iterable[str] | None = None
) -> frozenset[Derivation]:
    """Filter a raw enumeration by evaluating the strategy (replayed_eval) at every prefix."""
    allowed = set(ars.objects if sources is None else sources)
    kept = []
    for d in raw_derivations(ars, depth):
        if d.source not in allowed:
            continue
        if all(
            d.steps[j] in replayed_eval(xi, Derivation(ars, d.source, d.labels[:j])).steps
            for j in range(len(d))
        ):
            kept.append(d)
    return frozenset(kept)


def folded_memory(xi: Strategy, d: Derivation):
    """xi's memory after d: advance folded over d's steps from start at its source."""
    memory = xi.start(d.ars, d.source)
    for step in d.steps:
        memory = xi.advance(d.ars, memory, step)
    return memory


def brute_accepts(cond: AcceptCondition, d: Derivation) -> bool:
    """Whether cond accepts d, read off the whole derivation by each kind of
    condition; words are matched by brute_match."""
    if isinstance(cond, LabelWordIn):
        return brute_match(cond.expr, d.labels)
    if isinstance(cond, LenAtLeast):
        return len(d) >= cond.bound
    if isinstance(cond, LenAtMost):
        return len(d) <= cond.bound
    if isinstance(cond, LenEq):
        return len(d) == cond.bound
    if isinstance(cond, AtObject):
        return d.target == cond.obj
    if isinstance(cond, ExplicitTraceSet):
        return d in cond.traces
    if isinstance(cond, And):
        return all(brute_accepts(p, d) for p in cond.parts)
    if isinstance(cond, Or):
        return any(brute_accepts(p, d) for p in cond.parts)
    if isinstance(cond, Not):
        return not brute_accepts(cond.part, d)
    raise TypeError(cond)


def walks(ars: Ars, max_len: int, sources: Iterable[str] | None = None) -> int:
    """Derivations of length 1..max_len (from the sources, or from any object),
    counted without building them."""
    starting = {obj: 1 for obj in ars.objects}  # walks of the current length from each object
    total = 0
    for _ in range(max_len):
        starting = {obj: sum(starting[s.target] for s in ars.out_steps(obj)) for obj in ars.objects}
        total += sum(starting[obj] for obj in (ars.objects if sources is None else sources))
    return total


@contextmanager
def counting_builds() -> Iterator[list[Derivation]]:
    """Collects every Derivation constructed inside the block.

    Counts calls of Derivation.__post_init__, as the benchmark's tracer does
    for `ars.derivations_built`.
    """
    built: list[Derivation] = []
    original = Derivation.__post_init__

    def counted(d: Derivation) -> None:
        built.append(d)
        original(d)

    Derivation.__post_init__ = counted
    try:
        yield built
    finally:
        Derivation.__post_init__ = original


# -- oracle: regex matching by word derivatives -------------------------------------

_EMPTY = ("no-words",)
_EPS = ("empty-word",)


def _nullable(n) -> bool:
    if n is _EMPTY:
        return False
    if n is _EPS:
        return True
    if isinstance(n, rational.Sym):
        return False
    if isinstance(n, rational.Alt):
        return any(_nullable(p) for p in n.parts)
    if isinstance(n, rational.Concat):
        return all(_nullable(p) for p in n.parts)
    if isinstance(n, (rational.Star, rational.Opt)):
        return True
    if isinstance(n, rational.Plus):
        return _nullable(n.item)
    raise TypeError(n)


def _cat2(x, y):
    if x is _EMPTY or y is _EMPTY:
        return _EMPTY
    if x is _EPS:
        return y
    if y is _EPS:
        return x
    return rational.Concat((x, y))


def _alt2(x, y):
    if x is _EMPTY:
        return y
    if y is _EMPTY:
        return x
    return rational.Alt((x, y))


def _deriv(n, c: str):
    if n is _EMPTY or n is _EPS:
        return _EMPTY
    if isinstance(n, rational.Sym):
        return _EPS if n.label == c else _EMPTY
    if isinstance(n, rational.Alt):
        out = _EMPTY
        for p in n.parts:
            out = _alt2(out, _deriv(p, c))
        return out
    if isinstance(n, rational.Concat):
        head = n.parts[0]
        rest = n.parts[1] if len(n.parts) == 2 else rational.Concat(n.parts[1:])
        out = _cat2(_deriv(head, c), rest)
        if _nullable(head):
            out = _alt2(out, _deriv(rest, c))
        return out
    if isinstance(n, rational.Star):
        return _cat2(_deriv(n.item, c), n)
    if isinstance(n, rational.Plus):
        return _cat2(_deriv(n.item, c), rational.Star(n.item))
    if isinstance(n, rational.Opt):
        return _deriv(n.item, c)
    raise TypeError(n)


def brute_match(node, word: Iterable[str]) -> bool:
    """Membership by successive derivatives; no automaton involved."""
    cur = node
    for sym in word:
        cur = _deriv(cur, sym)
        if cur is _EMPTY:
            return False
    return _nullable(cur)


def all_words(alphabet: tuple[str, ...], max_len: int) -> list[tuple[str, ...]]:
    words: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(max_len):
        frontier = [w + (c,) for w in frontier for c in alphabet]
        words.extend(frontier)
    return words


# -- oracle: closedness as a limit-point scan ---------------------------------------


def brute_is_closed(z: AbstractStrategy, ambient_depth: int) -> bool:
    """No missing limit points: any derivation whose prefixes all extend into
    the set must already belong to it. Finite members only."""
    members = z.members()
    for d in raw_derivations(z.ars, ambient_depth):
        if d in z.finite_part:
            continue
        if all(any(p.is_prefix_of(m) for m in members) for p in d.prefixes()):
            return False
    return True


# -- oracle: factor and composition closure by building them all ------------------


def brute_factor_closed(z: AbstractStrategy) -> ClosureVerdict:
    """The first member, in order, with a factor that is not a member, and its
    first such factor."""
    for d in z.members():
        for f in d.factors():
            if f != d and f not in z.finite_part:
                return ClosureVerdict(False, (d,), f)
    return ClosureVerdict(True)


def brute_composition_closed(z: AbstractStrategy) -> ClosureVerdict:
    """The first pair of composable members, in order, whose composition is
    not a member, and that composition."""
    members = z.members()
    for d1 in members:
        for d2 in members:
            if d1.target != d2.source:
                continue
            both = d1.compose(d2)
            if both not in z.finite_part:
                return ClosureVerdict(False, (d1, d2), both)
    return ClosureVerdict(True)


# -- oracle: cycles by filtering a raw enumeration -------------------------------------


def brute_cycles(ars: Ars, max_len: int | None = None) -> list[Derivation]:
    """The vertex-simple cycles of length <= max_len (any length when None), each
    rooted at its least-index object, in Derivation.sort_key order: the closed,
    simple derivations among raw_derivations."""
    return [
        d
        for d in raw_derivations(ars, len(ars.objects) if max_len is None else max_len)
        if d.target == d.source
        and len(set(d.targets)) == len(d)
        and ars.object_index(d.source) == min(map(ars.object_index, d.targets))
    ]


# -- oracle: the witness search over materialised accepted sets ----------------------


def brute_induced(xi: Strategy, ars: Ars) -> tuple[Step, ...]:
    """The steps a memoryless strategy permits anywhere: at each object, the
    steps replayed_eval gives at the empty derivation there that leave it, in
    (object, label) order. Raises MemoryRequired for a memoried strategy."""
    if not xi.memoryless:
        raise MemoryRequired("induced sub-system needs a memoryless strategy")
    return tuple(
        s
        for obj in ars.objects
        for s in _in_order(ars, replayed_eval(xi, ars.empty_derivation(obj)).steps)
        if s in ars.out_steps(obj)
    )


def brute_lassos(xi: Strategy, ars: Ars, sources: Iterable[str] | None = None) -> list[Lasso]:
    """One lasso per (source, simple cycle of the whole induced sub-system,
    brute_induced), by a shortest path to the cycle and a rotation of it."""
    sub = ars.restrict(brute_induced(xi, ars))
    out = []
    for src in sorted(set(ars.objects if sources is None else sources), key=ars.object_index):
        for cycle in simple_cycles(sub):
            stem = shortest_path_to(sub, src, set(cycle.targets))
            if stem is not None:
                loop = rotate_cycle(cycle, stem.target)
                out.append(
                    Lasso(Derivation(ars, src, stem.labels), Derivation(ars, loop.source, loop.labels))
                )
    out.sort(key=Lasso.sort_key)
    return out


def derivation_lassos(
    xi: Strategy, ars: Ars, sources: Iterable[str] | None = None, max_len: int | None = None
) -> list[Lasso]:
    """lassos_of_memoryless as it was before it kept candidates as step tuples:
    every lasso built from Derivations, then sorted by Lasso.sort_key, over the
    sub-system of brute_induced."""
    sub = ars.restrict(brute_induced(xi, ars))
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


def reaches_final(sub: Ars, cond: AcceptCondition, obj: str, state, budget: int) -> bool:
    """Whether a product state that cond accepts lies 1..budget steps from (obj, state):
    one breadth-first search per question."""
    frontier = [(obj, state)]
    seen = set(frontier)
    for _ in range(budget):
        grown = []
        for o, q in frontier:
            for step in sub.out_steps(o):
                nxt = (step.target, cond.advance(q, step))
                if cond.final(nxt[1]):
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    grown.append(nxt)
        frontier = grown
    return False


def brute_nonclosed_witness(
    ls: LogicalStrategy, ars: Ars, horizon: int, sources: Iterable[str] | None = None
) -> Lasso | None:
    """The first lasso (|stem| + |cycle| <= horizon) whose every pumped truncation
    is not accepted but is a proper prefix of an accepted derivation, found by
    scanning all accepted derivations from its source up to the depth."""
    members: dict[tuple[int, str], tuple[Derivation, ...]] = {}
    for lasso in brute_lassos(ls.base, ars, sources):
        if len(lasso.stem) + len(lasso.cycle) > horizon:
            continue
        depth = horizon + len(lasso.stem) + len(lasso.cycle)
        key = (depth, lasso.source)
        if key not in members:
            members[key] = accepted(ls, ars, depth, sources={lasso.source}).members()
        if all(
            pumped not in members[key] and any(pumped.is_prefix_of(m) for m in members[key])
            for pumped in (lasso.unroll(i) for i in range(1, max(1, horizon // len(lasso.cycle)) + 1))
        ):
            return lasso
    return None


# -- oracle: the safety search as one BFS per good start ------------------------------


def loop_safety_violation(ars: Ars, strategy: Strategy) -> Derivation | None:
    """Shortest reach of a both-green state from the first good start that has
    one, found by a breadth-first search from every good start in turn, over
    the sub-system of brute_induced."""
    sub = ars.restrict(brute_induced(strategy, ars))
    bad = {s for s in ars.objects if TrafficState.from_symbol(s).both_green}
    for start in good_starts(ars):
        path = shortest_path_to(sub, start, bad)
        if path is not None and not path.is_empty:
            return Derivation(ars, path.source, path.labels)
    return None


# -- random systems and closed sets --------------------------------------------------


def random_dag_ars(rng: random.Random, n_objects: int = 5, n_labels: int = 3) -> Ars:
    """A random acyclic system: steps only go from lower to higher index."""
    objects = tuple(f"o{i}" for i in range(n_objects))
    labels = tuple(f"l{i}" for i in range(n_labels))
    steps = []
    for i in range(n_objects - 1):
        for lab in labels:
            if rng.random() < 0.55:
                steps.append((objects[i], lab, objects[rng.randrange(i + 1, n_objects)]))
    return Ars(objects, labels, steps)


def transplant(ars: Ars, derivations: Iterable[Derivation]) -> frozenset[Derivation]:
    return frozenset(Derivation(ars, d.source, d.labels) for d in derivations)


def random_subsystem_set(rng: random.Random, ars: Ars) -> AbstractStrategy:
    """All derivations of a random sub-system: factor- and composition-closed."""
    kept = [s for s in ars.steps if rng.random() < 0.7]
    sub = ars.restrict(kept)
    if not kept:
        return AbstractStrategy(ars)
    members = transplant(ars, raw_derivations(sub, len(ars.objects)))
    return AbstractStrategy(ars, members)


def stepwise_index(objects: tuple[str, ...], labels: tuple[str, ...], steps) -> tuple[tuple, dict, dict]:
    """(steps, out steps by object, step by source and label) of an Ars over these
    symbols, built by checking and indexing one step at a time, keeping the
    first of equal steps; raises what Ars raises for the first bad step."""
    obj_index = {name: i for i, name in enumerate(objects)}
    lab_index = {name: i for i, name in enumerate(labels)}
    lookup: dict[tuple[str, str], Step] = {}
    out: dict[str, list[Step]] = {name: [] for name in objects}
    for raw in steps:
        step = raw if isinstance(raw, Step) else Step(*raw)
        source, label, target = step.source, step.label, step.target
        if not (source in obj_index and target in obj_index and label in lab_index):
            raise UnknownSymbol(next((n for n in (source, target) if n not in obj_index), label))
        prior = lookup.get((source, label))
        if prior is None:
            lookup[source, label] = step
            out[source].append(step)
        elif prior.target != target:
            raise FunctionalityViolation(source, label, prior.target, target)
    for ss in out.values():
        ss.sort(key=lambda s: lab_index[s.label])
    return tuple(s for ss in out.values() for s in ss), {o: tuple(ss) for o, ss in out.items()}, lookup


def parse_by_tokens(text: str) -> speclang.SpecDocument:
    """speclang.parse's token-by-token read, which reads every name and step on
    its own: the reading a failed fast read falls back on."""
    return speclang._read(text)


def parse_outcome(parse, text: str) -> object:
    """A parse's document with its positions, or its diagnostics as (rendering, expected)."""
    try:
        doc = parse(text)
    except speclang.SpecLangError as err:
        return [(d.render(), d.expected) for d in err.diagnostics]
    return doc, doc.positions
