"""Paper laws of generation on random small systems and random strategy trees.

Each example draws a system (5 objects or fewer, 3 labels or fewer), two
strategy trees over every kind the library builds (combinators nested inside
combinators, predicates, explicit and memoried tables) and a depth of 4 or
less, then checks:

- the support is what filtering every derivation step by step keeps;
- a support is prefix-closed;
- the support of an intersection is the intersection of the supports;
- a committed union generates exactly the union of its children;
- memoried_from rebuilds a strategy whose support is the set it was given;
- a memoryless strategy's memory, folded over any derivation up to depth 4,
  is one and the same.

A second family draws a system (6 objects or fewer, 3 labels or fewer), a
horizon from 2 to 6, a `universal` or `restrict` base and a condition tree
over word, len, at, and, or, not and explicit derivation sets, then checks:

- the witness search on the product graph returns what the search over
  materialised accepted sets returns, and its horizon-bounded lassos are the
  short ones of the unbounded search;
- folding a condition's start, advance and final over a derivation, and
  accepts, agree with each condition's reading of the whole derivation
  (helpers.brute_accepts).

A third family draws a system (6 objects or fewer), a strategy tree of every
kind, in half of the examples wrapped so that its eval also returns the steps
of other objects, a condition tree and optional sources, then checks at every
depth from 1 to 5, for the condition and for its complement, that the layered
search counts the accepted set and finds its first missing prefix as
materialising the set and checking prefix closure do, and at every depth
from 1 to 4 that the factor and composition walks give the count and the
verdict (culprits and missing derivation) that is_factor_closed and
is_composition_closed give on the materialised set, also with a condition
that takes up to two short members out of the support, and at every depth
from 1 to 4, for the condition and for its complement, that the objects of
the walk's accepted nodes are the targets of the members that filtering every
derivation step by step and reading the condition off the whole derivation
keep, and at every depth from 1 to 5, for the condition, its complement and
the all-accepting condition, that the text listing prints generate's members,
rendered, and layered_check's count.

A fourth family draws a system (6 objects or fewer, 3 labels or fewer, with
cycles or acyclic) and a set of derivations of length 4 or less: a random
subset of all of them, or the support of `universal` or `restrict` with up
to two members removed. The factor and composition checks return the verdict,
culprits and missing derivation that building every factor and every
composition gives.

A fifth family draws an acyclic system (every step goes from o_i to o_j with
i < j) and a memoryless leaf (`universal`, `restrict`, `greatmost` or a
wildcard table). At a depth no smaller than the number of objects its support
is factor- and composition-closed, and memoryless_from rebuilds a strategy
whose support is that set.

A sixth family draws a system, a strategy tree and sources that may repeat
and come in any order, and checks that generate yields the support in
Derivation.sort_key order, once each, also for a strategy whose eval returns
its steps reversed and repeated, and for one whose eval also returns the steps
of other objects: a step that does not leave the target is never taken.

An eighth family draws a system (6 objects or fewer), a memoryless strategy
tree of up to one level, in half of the examples wrapped so that its eval also
returns the steps of other objects, optional sources, a length bound and a
condition, then checks that the induced sub-system, its lassos, the witness
search and whether a cycle is reachable from a drawn object (apply's
indeterminate verdict) answer as reading each object's steps off the whole
derivation does (helpers.brute_induced): the steps of other objects are never
induced.

A seventh family draws a system (6 objects or fewer), a strategy tree of up to
one level, optional sources, a length bound (none, or 2 to 6) and a condition,
then checks that:

- the lassos built from the step-tuple candidates are those of the
  Derivation-built search they replace and the short ones of the unbounded
  search, and the witness search answers as the materialised one (a memoried
  base raises MemoryRequired in all three);
- the pruned cycle search finds exactly the vertex-simple cycles among the raw
  derivations, at every bound from 1 to 6 and without one;
- the least distance to acceptance answers every budget up to the horizon as
  one search per budget does.

A ninth family draws a system (6 objects or fewer), sources, targets and a
label set, and checks that reachable_objects, reaching_objects and
shortest_steps (with and without a length bound), on the system and on the
sub-system of the label set, answer as the loops they kept before they shared
ars.expand (helpers.reachable_by_queue, reaching_by_stack and
shortest_steps_by_queue), and that an unknown source still raises
UnknownSymbol.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from strat import (
    ACCEPT_ALL,
    AbstractStrategy,
    AcceptFiltered,
    Alternate,
    AlternatePredicate,
    And,
    Ars,
    AtObject,
    ColorAlternate,
    CustomPredicate,
    Derivation,
    EvalResult,
    ExplicitTraceSet,
    Fail,
    FalsePredicate,
    FromTable,
    Greatmost,
    Intersect,
    LabelWordIn,
    LenAtLeast,
    LenAtMost,
    LenEq,
    LogicalStrategy,
    MaxLen,
    MemoryRequired,
    Not,
    Or,
    RestrictLabels,
    Strategy,
    TableEntry,
    UnionCommitted,
    UnionPointwise,
    Universal,
    UnknownSymbol,
    accepted,
    accepted_targets,
    cli,
    composition_check,
    enumerate_derivations,
    factor_check,
    finite_support,
    generate,
    induced_steps,
    intensional,
    is_composition_closed,
    is_factor_closed,
    is_prefix_closed,
    lassos_of_memoryless,
    layered_check,
    logic,
    memoried_from,
    memoryless_from,
    nonclosed_witness,
    rational,
    reachable_objects,
    reaches_cycle,
    simple_cycles,
)
from strat.ars import reaching_objects, shortest_steps

# the leaves that generate on most systems come three times as often, so
# that most trees generate something to compare
LEAVES = ("universal", "restrict", "table") * 3 + (
    "fail", "greatmost", "maxlen", "alternate", "color", "memoried", "alt_pred",
    "false_pred", "parity_pred",
)
NODES = ("intersect", "union_pointwise", "union_committed", "accept")
# depth 1 has no member of two steps; drawn as integers, it came up in most examples
DEPTHS = st.sampled_from((3, 4, 2, 1))


@st.composite
def systems(draw, max_objects: int = 5) -> Ars:
    objects = tuple(f"o{i}" for i in range(draw(st.integers(1, max_objects))))
    labels = tuple(f"l{i}" for i in range(draw(st.integers(1, 3))))
    steps = [
        (obj, label, draw(st.sampled_from(objects)))
        for obj in objects
        for label in labels
        if draw(st.booleans())
    ]
    return Ars(objects, labels, steps)


def _tree(draw, ars: Ars, levels: int):
    kind = draw(st.sampled_from(LEAVES + (NODES if levels else ())))
    label_set = st.frozensets(st.sampled_from(ars.labels))
    step_set = st.frozensets(st.sampled_from(ars.steps)) if ars.steps else st.just(frozenset())
    if kind == "universal":
        return Universal()
    if kind == "fail":
        return Fail()
    if kind == "greatmost":
        return Greatmost(helpers.chain_order(draw(st.permutations(ars.labels))))
    if kind == "maxlen":
        return MaxLen(draw(st.integers(1, 4)))
    if kind == "restrict":
        return RestrictLabels(draw(st.frozensets(st.sampled_from(ars.labels), min_size=1)))
    if kind == "alternate":
        return Alternate(draw(step_set), draw(step_set))
    if kind == "color":
        colour = {label: draw(st.sampled_from("wbn")) for label in ars.labels}
        return ColorAlternate(
            frozenset(l for l, c in colour.items() if c == "w"),
            frozenset(l for l, c in colour.items() if c == "b"),
        )
    if kind == "table":
        # a row on every object that has a step: the rows of the objects a
        # derivation reaches decide whether it grows
        rows = []
        for obj in ars.objects:
            outs = ars.out_steps(obj)
            if outs:
                chosen = draw(st.frozensets(st.sampled_from(outs), min_size=1))
                word = tuple(draw(st.lists(st.sampled_from(ars.labels), max_size=2)))
                rows.append(TableEntry(obj, chosen, word, draw(st.booleans())))
        return FromTable(tuple(rows))
    if kind == "memoried":
        base = _tree(draw, ars, 0)
        return memoried_from(finite_support(base, ars, draw(st.integers(1, 3))))
    if kind == "alt_pred":
        return AlternatePredicate(draw(label_set), draw(label_set))
    if kind == "false_pred":
        return FalsePredicate()
    if kind == "parity_pred":
        return CustomPredicate(lambda word, head, label: (len(word) + int(label[1:])) % 2 == 0)
    if kind == "accept":
        return AcceptFiltered(_tree(draw, ars, levels - 1), LenAtLeast(2))
    children = tuple(_tree(draw, ars, levels - 1) for _ in range(draw(st.integers(2, 3))))
    combine = {"intersect": Intersect, "union_pointwise": UnionPointwise}
    return combine.get(kind, UnionCommitted)(children)


@st.composite
def cases(draw):
    ars = draw(systems())
    x1 = _tree(draw, ars, draw(st.integers(0, 3)))
    x2 = _tree(draw, ars, draw(st.integers(0, 2)))
    sources = draw(st.none() | st.frozensets(st.sampled_from(ars.objects), min_size=1))
    return ars, x1, x2, draw(DEPTHS), sources


class TestGenerationLaws:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def test_laws(self, case):
        ars, x1, x2, depth, sources = case
        z1 = finite_support(x1, ars, depth, sources)
        s1, s2 = z1.finite_part, finite_support(x2, ars, depth, sources).finite_part
        committed = UnionCommitted((x1, x2))
        union = finite_support(committed, ars, depth, sources)
        assert s1 == helpers.stepwise_support(x1, ars, depth, sources)
        assert union.finite_part == helpers.stepwise_support(committed, ars, depth, sources)
        assert is_prefix_closed(z1) and is_prefix_closed(union)
        assert finite_support(Intersect((x1, x2)), ars, depth, sources).finite_part == s1 & s2
        assert union.finite_part == s1 | s2
        assert finite_support(memoried_from(z1), ars, depth, sources).finite_part == s1

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def test_memoryless_strategies_keep_one_memory(self, case):
        ars, x1, x2, _, _ = case
        derivations = [ars.empty_derivation(obj) for obj in ars.objects] + helpers.raw_derivations(ars, 4)
        for xi in (x1, x2, Intersect((x1, x2)), UnionPointwise((x1, x2))):
            if xi.memoryless:
                assert len({helpers.folded_memory(xi, d) for d in derivations}) == 1


def _expr(draw, labels: tuple[str, ...], levels: int):
    kind = draw(st.sampled_from(("sym",) + (("cat", "alt", "star", "plus", "opt") if levels else ())))
    if kind == "sym":
        return rational.Sym(draw(st.sampled_from(labels)))
    if kind in ("cat", "alt"):
        parts = tuple(_expr(draw, labels, levels - 1) for _ in range(draw(st.integers(2, 3))))
        return rational.Concat(parts) if kind == "cat" else rational.Alt(parts)
    return {"star": rational.Star, "plus": rational.Plus, "opt": rational.Opt}[kind](
        _expr(draw, labels, levels - 1)
    )


def _condition(draw, ars: Ars, levels: int):
    kind = draw(st.sampled_from(("word", "len", "at", "explicit") + (("and", "or", "not") if levels else ())))
    if kind == "word":
        return LabelWordIn(_expr(draw, ars.labels, 3))
    if kind == "len":
        return draw(st.sampled_from((LenAtLeast, LenAtMost, LenEq)))(draw(st.integers(0, 5)))
    if kind == "at":
        return AtObject(draw(st.sampled_from(ars.objects)))
    if kind == "explicit":
        short = enumerate_derivations(ars, 3) if ars.steps else []
        return ExplicitTraceSet(
            draw(st.frozensets(st.sampled_from(short), max_size=4)) if short else frozenset()
        )
    if kind == "not":
        return Not(_condition(draw, ars, levels - 1))
    parts = tuple(_condition(draw, ars, levels - 1) for _ in range(draw(st.integers(2, 3))))
    return (And if kind == "and" else Or)(parts)


@st.composite
def witness_cases(draw):
    ars = draw(systems(max_objects=6))
    horizon = draw(st.integers(2, 6))
    # the oracle materialises every derivation up to twice the horizon
    while horizon > 2 and helpers.walks(ars, 2 * horizon) > 20_000:
        horizon -= 1
    base = draw(st.sampled_from((Universal(), RestrictLabels(draw(st.frozensets(st.sampled_from(ars.labels)))))))
    sources = draw(st.none() | st.frozensets(st.sampled_from(ars.objects), min_size=1))
    return ars, LogicalStrategy(base, _condition(draw, ars, 2)), horizon, sources


class TestWitnessSearch:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(witness_cases())
    def test_product_search_agrees_with_materialised_search(self, case):
        ars, ls, horizon, sources = case
        assert nonclosed_witness(ls, ars, horizon, sources) == helpers.brute_nonclosed_witness(
            ls, ars, horizon, sources
        )
        assert lassos_of_memoryless(ls.base, ars, sources, horizon) == [
            l
            for l in helpers.brute_lassos(ls.base, ars, sources)
            if len(l.stem) + len(l.cycle) <= horizon
        ]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(witness_cases())
    def test_search_agrees_with_the_sorted_candidate_search(self, case):
        ars, ls, horizon, sources = case
        assert nonclosed_witness(ls, ars, horizon, sources) == helpers.candidate_witness(ls, ars, horizon, sources)
        out = intensional.induced(ls.base, ars)
        assert list(intensional.ordered_lassos(ars, out, sources, horizon)) == [
            (src, stem, loop) for _, src, stem, loop in helpers.sorted_candidates(ars, out, sources, horizon)
        ]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(witness_cases())
    def test_condition_state_folds_to_accepts(self, case):
        ars, ls, _, _ = case
        cond = ls.accept
        for d in [ars.empty_derivation(obj) for obj in ars.objects] + enumerate_derivations(ars, 4):
            state = cond.start(ars, d.source)
            for step in d.steps:
                state = cond.advance(state, step)
            assert cond.final(state) == cond.accepts(d) == helpers.brute_accepts(cond, d)


@st.composite
def candidate_cases(draw):
    ars = draw(systems(max_objects=6))
    base = _tree(draw, ars, draw(st.integers(0, 1)))
    sources = draw(st.none() | st.frozensets(st.sampled_from(ars.objects), min_size=1))
    max_len = draw(st.none() | st.integers(2, 6))
    horizon = max_len or draw(st.integers(2, 6))
    # the witness oracle materialises every derivation up to twice the horizon
    while horizon > 2 and helpers.walks(ars, 2 * horizon) > 20_000:
        horizon -= 1
    return ars, LogicalStrategy(base, _condition(draw, ars, 2)), sources, max_len, horizon


class TestLassoCandidates:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(candidate_cases())
    def test_tuple_candidates_agree_with_derivation_search(self, case):
        ars, ls, sources, max_len, horizon = case
        if not ls.base.memoryless:
            for search in (lassos_of_memoryless, helpers.derivation_lassos):
                with pytest.raises(MemoryRequired):
                    search(ls.base, ars, sources, max_len)
            with pytest.raises(MemoryRequired):
                nonclosed_witness(ls, ars, horizon, sources)
            return
        lassos = lassos_of_memoryless(ls.base, ars, sources, max_len)
        assert lassos == helpers.derivation_lassos(ls.base, ars, sources, max_len)
        assert lassos == [
            l
            for l in helpers.brute_lassos(ls.base, ars, sources)
            if max_len is None or len(l.stem) + len(l.cycle) <= max_len
        ]
        assert nonclosed_witness(ls, ars, horizon, sources) == helpers.brute_nonclosed_witness(
            ls, ars, horizon, sources
        ) == helpers.candidate_witness(ls, ars, horizon, sources)
        out = intensional.induced(ls.base, ars)
        assert list(intensional.ordered_lassos(ars, out, sources, max_len)) == [
            (src, stem, loop) for _, src, stem, loop in helpers.sorted_candidates(ars, out, sources, max_len)
        ]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(systems(max_objects=6))
    def test_pruned_cycle_search_finds_every_simple_cycle(self, ars):
        for bound in range(1, 7):
            assert simple_cycles(ars, bound) == helpers.brute_cycles(ars, bound)
        assert simple_cycles(ars) == helpers.brute_cycles(ars)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(witness_cases())
    def test_least_distance_agrees_with_a_search_per_budget(self, case):
        # the one pass of the witness search against one search per question:
        # from each start, the states 1..horizon steps away that are not
        # accepted, and the distance to acceptance of the start and of each of them
        ars, ls, horizon, _ = case
        sub = ars.restrict(induced_steps(ls.base, ars))
        cond = ls.accept
        successors = logic._successors(sub.out_steps, cond)
        for d in [ars.empty_derivation(obj) for obj in ars.objects] + enumerate_derivations(ars, 1):
            state = cond.start(ars, d.source)
            for step in d.steps:
                state = cond.advance(state, step)
            start = (d.target, state)
            near = list(logic._unaccepted(successors, [start], horizon))
            distance = logic._distances(successors, horizon)
            reached, layer = set(), {start}
            for _ in range(horizon):
                layer = {(s.target, cond.advance(q, s)) for o, q in layer for s in sub.out_steps(o)}
                reached |= layer
            assert len(near) == len(set(near))
            assert set(near) == {(o, q) for o, q in reached if not cond.final(q)}
            for node in [start, *near]:
                steps = distance(node)
                assert 1 <= steps <= horizon + 1
                budgets = range(horizon + 1) if node == start else (horizon,)
                for budget in budgets:
                    assert (steps <= budget) == helpers.reaches_final(sub, cond, *node, budget)


@st.composite
def layered_cases(draw):
    ars = draw(systems(max_objects=6))
    base = _tree(draw, ars, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        base = Foreign(base)
    ls = LogicalStrategy(base, _condition(draw, ars, 2))
    sources = draw(st.none() | st.frozensets(st.sampled_from(ars.objects), min_size=1))
    return ars, ls, sources


@st.composite
def closure_walk_cases(draw):
    ars, ls, sources = draw(layered_cases())
    # up to two members of length 2 or 3 taken out of the base's support: the
    # least member with one of them as a factor fails with a missing factor of
    # two steps or more, which condition trees seldom give
    short = [d for d in generate(ls.base, ars, 3, sources) if len(d) >= 2]
    removed = draw(st.frozensets(st.sampled_from(short), max_size=2)) if short else frozenset()
    return ars, ls, sources, Not(ExplicitTraceSet(removed))


class TestLayeredCheck:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layered_cases())
    def test_agrees_with_the_materialised_set(self, case):
        # the condition and its complement at every depth: most conditions
        # drawn accept prefix-closed sets, their complements often do not
        ars, ls, sources = case
        for logical in (ls, LogicalStrategy(ls.base, Not(ls.accept))):
            for depth in range(1, 6):
                z = accepted(logical, ars, depth, sources)
                assert layered_check(logical, ars, depth, sources) == (
                    z.size(),
                    is_prefix_closed(z).missing,
                )

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layered_cases())
    def test_accepted_targets_agree_with_the_stepwise_support(self, case):
        ars, ls, sources = case
        for depth in range(1, 5):
            support = helpers.stepwise_support(ls.base, ars, depth, sources)
            for accept in (ls.accept, Not(ls.accept)):
                want = {d.target for d in support if helpers.brute_accepts(accept, d)}
                assert accepted_targets(LogicalStrategy(ls.base, accept), ars, depth, sources) == want

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layered_cases())
    def test_listing_prints_the_generated_members(self, case):
        # the text listing folds each member's line along the walk; generate's
        # derivations, rendered, are the oracle, and layered_check the count
        ars, ls, sources = case
        starts = None if sources is None else tuple(sources)
        for accept in (ls.accept, Not(ls.accept), ACCEPT_ALL):
            logical = LogicalStrategy(ls.base, accept)
            for depth in range(1, 6):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    cli._print_listing(logical, ars, depth, starts)
                *lines, count = out.getvalue().splitlines()
                assert lines == [d.render() for d in generate(ls.base, ars, depth, sources, accept)]
                assert count == f"COUNT={layered_check(logical, ars, depth, sources)[0]}"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(closure_walk_cases())
    def test_factor_and_composition_agree_with_the_materialised_set(self, case):
        ars, ls, sources, removal = case
        for accept in (ls.accept, Not(ls.accept), removal):
            logical = LogicalStrategy(ls.base, accept)
            for depth in range(1, 5):
                z = accepted(logical, ars, depth, sources)
                assert factor_check(logical, ars, depth, sources) == (z.size(), is_factor_closed(z))
                assert composition_check(logical, ars, depth, sources) == (z.size(), is_composition_closed(z))


@st.composite
def acyclic_systems(draw, max_objects: int = 6) -> Ars:
    objects = tuple(f"o{i}" for i in range(draw(st.integers(1, max_objects))))
    labels = tuple(f"l{i}" for i in range(draw(st.integers(1, 3))))
    steps = [
        (objects[i], label, draw(st.sampled_from(objects[i + 1 :])))
        for i in range(len(objects) - 1)
        for label in labels
        if draw(st.booleans())
    ]
    return Ars(objects, labels, steps)


@st.composite
def closure_cases(draw) -> AbstractStrategy:
    # at least three steps, two steps deep and three members drawn: smaller
    # draws are mostly single steps, whose factors and compositions are trivial
    ars = draw((systems(max_objects=6) | acyclic_systems()).filter(lambda a: len(a.steps) >= 3))
    depth = draw(st.integers(2, 4))
    if draw(st.booleans()):
        pool = enumerate_derivations(ars, depth)
        return AbstractStrategy(ars, draw(st.frozensets(st.sampled_from(pool), min_size=3, max_size=10)))
    labels = draw(st.frozensets(st.sampled_from(ars.labels), min_size=1))
    kept = list(finite_support(draw(st.sampled_from((Universal(), RestrictLabels(labels)))), ars, depth).members())
    for _ in range(draw(st.integers(0, 2))):
        if kept:
            kept.pop(draw(st.integers(0, len(kept) - 1)))
    return AbstractStrategy(ars, frozenset(kept))


class TestClosureChecks:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(closure_cases())
    def test_agree_with_building_every_factor_and_composition(self, z):
        assert is_factor_closed(z) == helpers.brute_factor_closed(z)
        assert is_composition_closed(z) == helpers.brute_composition_closed(z)


@st.composite
def memoryless_cases(draw):
    ars = draw(acyclic_systems().filter(lambda a: len(a.steps) >= 3))
    kind = draw(st.sampled_from(("universal", "restrict", "greatmost", "table")))
    if kind == "universal":
        leaf = Universal()
    elif kind == "restrict":
        leaf = RestrictLabels(draw(st.frozensets(st.sampled_from(ars.labels), min_size=1)))
    elif kind == "greatmost":
        leaf = Greatmost(helpers.chain_order(draw(st.permutations(ars.labels))))
    else:
        leaf = FromTable(
            tuple(
                TableEntry(obj, draw(st.frozensets(st.sampled_from(ars.out_steps(obj)), min_size=1)))
                for obj in ars.objects
                if ars.out_steps(obj) and draw(st.booleans())
            )
        )
    return ars, leaf, draw(st.integers(len(ars.objects), len(ars.objects) + 2))


class TestMemorylessRoundTrip:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(memoryless_cases())
    def test_closed_supports_rebuild_exactly(self, case):
        ars, leaf, depth = case
        z = finite_support(leaf, ars, depth)
        assert is_factor_closed(z) and is_composition_closed(z)
        assert finite_support(memoryless_from(z), ars, depth).finite_part == z.finite_part


@dataclass(frozen=True)
class Scrambled(Strategy):
    """Another strategy's steps, reversed and each given twice: out of order and repeated."""

    inner: Strategy

    def eval(self, d):
        result = self.inner.eval(d)
        return EvalResult(result.defined, result.steps[::-1] * 2)

    @property
    def memoryless(self) -> bool:
        return self.inner.memoryless


@dataclass(frozen=True)
class Foreign(Strategy):
    """Another strategy's steps, then every step of the system that leaves another object."""

    inner: Strategy

    def eval(self, d):
        result = self.inner.eval(d)
        foreign = tuple(s for s in d.ars.steps if s.source != d.target)
        return EvalResult(result.defined, result.steps + foreign)

    @property
    def memoryless(self) -> bool:
        return self.inner.memoryless


@st.composite
def generation_cases(draw):
    ars = draw(systems())
    xi = _tree(draw, ars, draw(st.integers(0, 2)))
    sources = draw(st.none() | st.lists(st.sampled_from(ars.objects), min_size=1, max_size=8))
    return ars, xi, draw(DEPTHS), sources


class TestGenerate:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(generation_cases())
    def test_yields_the_support_in_order(self, case):
        ars, xi, depth, sources = case
        for strategy in (xi, Scrambled(xi), Foreign(xi)):
            support = helpers.stepwise_support(strategy, ars, depth, sources)
            assert list(generate(strategy, ars, depth, sources)) == sorted(support, key=Derivation.sort_key)


@st.composite
def induced_cases(draw):
    ars = draw(systems(max_objects=6))
    base = _tree(draw, ars, draw(st.integers(0, 1)))
    assume(base.memoryless)
    if draw(st.booleans()):
        base = Foreign(base)
    sources = draw(st.none() | st.frozensets(st.sampled_from(ars.objects), min_size=1))
    max_len = draw(st.none() | st.integers(2, 6))
    horizon = max_len or draw(st.integers(2, 6))
    # the witness oracle materialises every derivation up to twice the horizon
    while horizon > 2 and helpers.walks(ars, 2 * horizon) > 20_000:
        horizon -= 1
    return ars, LogicalStrategy(base, _condition(draw, ars, 2)), sources, max_len, horizon


class TestInducedSubsystem:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(induced_cases())
    def test_agrees_with_the_replayed_reading(self, case):
        ars, ls, sources, max_len, horizon = case
        assert induced_steps(ls.base, ars) == helpers.brute_induced(ls.base, ars)
        assert lassos_of_memoryless(ls.base, ars, sources, max_len) == [
            l
            for l in helpers.brute_lassos(ls.base, ars, sources)
            if max_len is None or len(l.stem) + len(l.cycle) <= max_len
        ]
        assert nonclosed_witness(ls, ars, horizon, sources) == helpers.brute_nonclosed_witness(
            ls, ars, horizon, sources
        )

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(induced_cases(), st.data())
    def test_a_cycle_is_reached_as_the_replayed_reading_has_one(self, case, data):
        # apply's indeterminate verdict: some simple cycle of the sub-system
        # meets the objects that a search of it from the source reaches
        ars, ls = case[:2]
        src = data.draw(st.sampled_from(ars.objects))
        sub = ars.restrict(helpers.brute_induced(ls.base, ars))
        reached, queue = {src}, [src]
        for obj in queue:
            for step in sub.out_steps(obj):
                if step.target not in reached:
                    reached.add(step.target)
                    queue.append(step.target)
        cyclic = any(reached.intersection(cycle.targets) for cycle in helpers.brute_cycles(sub))
        assert reaches_cycle(intensional.induced(ls.base, ars), src) == cyclic

    def test_steps_of_other_objects_are_not_induced(self):
        # generate takes only a -phi2-> c; the steps leaving b and the other
        # steps leaving a, which eval also returns, are not the strategy's
        ars = helpers.alc()
        xi = Foreign(RestrictLabels(frozenset({"phi2"})))
        only = (ars.step("a", "phi2"),)
        assert [d.steps for d in generate(xi, ars, 3)] == [only]
        assert induced_steps(xi, ars) == only == helpers.brute_induced(xi, ars)
        assert lassos_of_memoryless(xi, ars) == []


class TestFirstArrivalSearches:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(systems(max_objects=6), st.data())
    def test_searches_agree_with_their_own_loops(self, ars, data):
        # the searches on ars.expand against the loops they kept before, on the
        # whole system and on the sub-system of a drawn label set
        sources = data.draw(st.lists(st.sampled_from(ars.objects), min_size=1, max_size=4))
        assert reachable_objects(ars, sources) == helpers.reachable_by_queue(ars, sources)
        labels = data.draw(st.frozensets(st.sampled_from(ars.labels)))
        for out in (ars.out_steps, lambda obj: tuple(s for s in ars.out_steps(obj) if s.label in labels)):
            targets = data.draw(st.frozensets(st.sampled_from(ars.objects)))
            assert reaching_objects(ars.objects, out, targets) == helpers.reaching_by_stack(ars.objects, out, targets)
            for src in ars.objects:
                for max_len in (None, 0, 1, 2, 3):
                    assert list(shortest_steps(out, src, max_len)) == list(
                        helpers.shortest_steps_by_queue(out, src, max_len)
                    )
        with pytest.raises(UnknownSymbol):
            reachable_objects(ars, [*sources, "zz"])
        with pytest.raises(UnknownSymbol):
            list(shortest_steps(ars.out_steps, "zz"))
