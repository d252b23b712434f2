"""Step-choosing strategies: eval semantics, materialisation, rebuilds."""

from __future__ import annotations

import pytest

import helpers
from strat import (
    ACCEPT_ALL,
    AbstractStrategy,
    Ars,
    AcceptFiltered,
    Alternate,
    ColorAlternate,
    Fail,
    FromTable,
    Greatmost,
    Intersect,
    LabelOrder,
    Lasso,
    LenAtMost,
    MaxLen,
    MemoryRequired,
    NotCompositionClosed,
    NotFactorClosed,
    NotPrefixClosed,
    CyclicOrder,
    EvalResult,
    ExplicitTraceSet,
    LogicalStrategy,
    RestrictLabels,
    Strategy,
    TableEntry,
    UnionCommitted,
    UnionPointwise,
    Universal,
    accepted,
    enumerate_derivations,
    finite_support,
    generate,
    induced_steps,
    layered_check,
    lassos_of_memoryless,
    memoried_from,
    memoryless_from,
)


class TestLabelOrder:
    def test_transitive_closure_and_cycles(self):
        order = helpers.chain_order(("x", "y", "z"))
        assert order.less("x", "z") and not order.less("z", "x")
        assert order.is_total_on(("x", "y", "z"))
        assert not LabelOrder.from_pairs([("x", "y")]).is_total_on(("x", "y", "z"))
        with pytest.raises(CyclicOrder):
            LabelOrder.from_pairs([("x", "y"), ("y", "x")])


class TestBuiltinEval:
    def test_universal_defined_even_on_sinks(self, alc):
        res = Universal().eval(alc.empty_derivation("c"))
        assert res.defined and res.steps == ()
        assert Universal().eval(alc.empty_derivation("a")).steps == alc.out_steps("a")

    def test_fail_undefined_everywhere(self, alc):
        for obj in alc.objects:
            assert not Fail().eval(alc.empty_derivation(obj)).defined

    def test_greatmost_total_and_partial(self, alc):
        asc = helpers.chain_order(("phi1", "phi2", "phi3", "phi4"))
        res = Greatmost(asc).eval(alc.empty_derivation("a"))
        assert [s.label for s in res.steps] == ["phi2"]
        # incomparable labels are all maximal
        partial = LabelOrder.from_pairs([("phi3", "phi4")])
        res = Greatmost(partial).eval(alc.empty_derivation("a"))
        assert [s.label for s in res.steps] == ["phi1", "phi2"]
        assert not Greatmost(asc).eval(alc.empty_derivation("c")).defined

    def test_maxlen_cutoff(self, ac):
        xi = MaxLen(3)
        assert xi.eval(ac.derivation("a")).steps == ac.out_steps("a")
        assert xi.eval(ac.derivation("a", "phi1")).steps == ac.out_steps("a")
        capped = xi.eval(ac.derivation("a", "phi1", "phi2"))
        assert capped.defined and capped.steps == ()
        assert {len(d) for d in finite_support(xi, ac, 6).finite_part} == {1, 2}
        assert not finite_support(MaxLen(1), ac, 4).finite_part

    def test_restrict_labels(self, alc):
        res = RestrictLabels(frozenset({"phi2", "phi3"})).eval(alc.empty_derivation("a"))
        assert [s.label for s in res.steps] == ["phi2"]

    def test_alternate_clauses(self, ac):
        phi1 = frozenset({ac.step("a", "phi1")})
        phi2 = frozenset({ac.step("a", "phi2")})
        xi = Alternate(phi1, phi2)
        assert xi.eval(ac.derivation("a")).steps == tuple(phi1)
        assert xi.eval(ac.derivation("a", "phi1")).steps == tuple(phi2)
        assert xi.eval(ac.derivation("a", "phi1", "phi2")).steps == tuple(phi1)
        words = {d.labels for d in finite_support(xi, ac, 4).finite_part}
        assert words == {
            ("phi1",),
            ("phi1", "phi2"),
            ("phi1", "phi2", "phi1"),
            ("phi1", "phi2", "phi1", "phi2"),
        }
        # a last step in both sets permits both continuations
        both = Alternate(phi1 | phi2, phi2)
        assert set(both.eval(ac.derivation("a", "phi2")).steps) == phi1 | phi2
        # a last step in neither leaves it undefined
        assert not Alternate(phi1, phi1).eval(ac.derivation("a", "phi2")).defined

    def test_color_alternate(self, alc):
        xi = ColorAlternate(frozenset({"phi1"}), frozenset({"phi3"}))
        assert [s.label for s in xi.eval(alc.empty_derivation("a")).steps] == ["phi1"]
        assert [s.label for s in xi.eval(alc.derivation("a", "phi1")).steps] == ["phi3"]
        assert [s.label for s in xi.eval(alc.derivation("b", "phi3")).steps] == ["phi1"]
        stray = alc.derivation("a", "phi2")
        assert not xi.eval(stray).defined
        with pytest.raises(ValueError):
            ColorAlternate(frozenset({"phi1"}), frozenset({"phi1", "phi3"}))


class TestCombinators:
    def test_intersect_needs_all_defined(self, alc):
        xi = Intersect((Universal(), Fail()))
        assert not xi.eval(alc.empty_derivation("a")).defined
        assert not finite_support(xi, alc, 3).finite_part
        with pytest.raises(ValueError):
            Intersect(())

    def test_union_pointwise_needs_some_defined(self, alc):
        xi = UnionPointwise((Fail(), RestrictLabels(frozenset({"phi1"}))))
        assert [s.label for s in xi.eval(alc.empty_derivation("a")).steps] == ["phi1"]
        assert not UnionPointwise((Fail(), Fail())).eval(alc.empty_derivation("a")).defined
        with pytest.raises(ValueError):
            UnionPointwise((Universal(),))
        with pytest.raises(ValueError):
            UnionCommitted((Universal(),))

    def test_union_committed_drops_disobeyed_children(self, ac):
        c1 = RestrictLabels(frozenset({"phi1"}))
        c2 = RestrictLabels(frozenset({"phi2"}))
        after_phi1 = ac.derivation("a", "phi1")
        pointwise = UnionPointwise((c1, c2)).eval(after_phi1)
        committed = UnionCommitted((c1, c2)).eval(after_phi1)
        assert {s.label for s in pointwise.steps} == {"phi1", "phi2"}
        assert {s.label for s in committed.steps} == {"phi1"}
        assert not UnionCommitted((c1, c2)).eval(ac.derivation("a", "phi1", "phi2")).defined

    def test_union_committed_of_tables_builds_only_its_members(self, union_sys):
        halves = [
            memoried_from(finite_support(RestrictLabels(frozenset(labels)), union_sys, 4))
            for labels in (("phi1", "beta1"), ("phi2", "beta2"))
        ]
        with helpers.counting_builds() as built:
            z = finite_support(UnionCommitted(tuple(halves)), union_sys, 4)
        assert len(z.finite_part) == 16
        # one empty derivation per start object, then one per member
        assert len(built) == len(z.finite_part) + len(union_sys.objects)

    def test_accept_filter_is_transparent_for_stepping(self, alc):
        plain = Universal()
        wrapped = AcceptFiltered(plain, LenAtMost(1))
        t = alc.derivation("a", "phi1")
        assert wrapped.eval(t) == plain.eval(t)
        assert wrapped.memoryless
        assert (
            finite_support(wrapped, alc, 4).finite_part
            == finite_support(plain, alc, 4).finite_part
        )


class CountedRestrict(Strategy):
    """Permits the out-steps with allowed labels, counting its evaluations."""

    memoryless = True

    def __init__(self, allowed: frozenset[str], calls: list[int]) -> None:
        self.allowed, self.calls = allowed, calls

    def eval(self, d):
        self.calls[0] += 1
        return EvalResult(True, tuple(s for s in d.ars.out_steps(d.target) if s.label in self.allowed))


class TestMemory:
    @pytest.mark.parametrize("system", ["alc", "ac", "aloop", "union_ars", "eventual_ars"])
    def test_memoryless_strategies_keep_one_memory(self, system):
        ars = getattr(helpers, system)()
        derivations = [ars.empty_derivation(obj) for obj in ars.objects] + enumerate_derivations(ars, 4)
        for name, xi in helpers.strategy_pool(ars):
            if xi.memoryless:
                assert len({helpers.folded_memory(xi, d) for d in derivations}) == 1, name

    def test_nested_committed_unions_evaluate_their_leaves_at_most_quadratically(self):
        # a committed union no longer replays the history through each child at
        # every prefix: doubling the nesting at most quadruples the leaf
        # evaluations (the replay gave about x6 from 16 to 32 levels)
        ars = Ars(
            ("a", "b", "c"),
            ("x", "y", "z"),
            [("a", "x", "b"), ("a", "y", "c"), ("b", "y", "a"), ("b", "z", "c"), ("c", "x", "a"), ("c", "z", "c")],
        )
        label_sets = [frozenset(s) for s in ({"x"}, {"y", "z"}, {"x", "y"}, {"z"})]

        def leaf_evaluations(levels: int) -> int:
            calls = [0]
            xi = UnionCommitted((CountedRestrict(label_sets[0], calls), CountedRestrict(label_sets[1], calls)))
            for i in range(levels - 1):
                xi = UnionCommitted((CountedRestrict(label_sets[i % len(label_sets)], calls), xi))
            members = list(generate(xi, ars, 3))
            assert layered_check(LogicalStrategy(xi, ACCEPT_ALL), ars, 3) == (len(members), None)
            return calls[0]

        assert leaf_evaluations(32) <= 4 * leaf_evaluations(16)


class TestFromTable:
    def test_precedence(self, ac):
        phi1 = frozenset({ac.step("a", "phi1")})
        phi2 = frozenset({ac.step("a", "phi2")})
        xi = FromTable(
            (
                TableEntry(head="a", steps=phi1),
                TableEntry(head="a", steps=phi2, word=("phi1",)),
                TableEntry(head="a", steps=frozenset(), word=("phi1", "phi1"), wildcard=False),
            )
        )
        assert xi.eval(ac.derivation("a")).steps == tuple(phi1)
        assert xi.eval(ac.derivation("a", "phi2")).steps == tuple(phi1)
        # longest matching wildcard prefix wins
        assert xi.eval(ac.derivation("a", "phi1")).steps == tuple(phi2)
        assert xi.eval(ac.derivation("a", "phi1", "phi2")).steps == tuple(phi2)
        # the exact row beats both wildcards
        exact = xi.eval(ac.derivation("a", "phi1", "phi1"))
        assert exact.defined and exact.steps == ()

    def test_source_pinning_and_memorylessness(self, aloop):
        step_b = frozenset({aloop.step("b", "phi2")})
        pinned = TableEntry(head="b", steps=step_b, word=("phi1",), wildcard=False, source="a")
        xi = FromTable((pinned,))
        assert xi.eval(aloop.derivation("a", "phi1")).steps == tuple(step_b)
        foreign = aloop.derivation("b", "phi2", "phi1")
        assert not xi.eval(foreign).defined
        assert not xi.memoryless
        assert FromTable((TableEntry(head="a", steps=frozenset()),)).memoryless

    def test_steps_must_leave_the_head(self, aloop):
        with pytest.raises(ValueError):
            TableEntry(head="a", steps=frozenset({aloop.step("b", "phi2")}))


class TestFiniteSupport:
    def test_depth_validation(self, alc):
        with pytest.raises(ValueError):
            finite_support(Universal(), alc, 0)

    def test_sources_restrict_starts(self, alc):
        z = finite_support(Universal(), alc, 2, sources=("b",))
        assert {d.source for d in z.finite_part} == {"b"}
        assert len(z.finite_part) == 4
        dup = finite_support(Universal(), alc, 2, sources=("b", "b"))
        assert dup.finite_part == z.finite_part

    def test_supports_grow_consistently_with_depth(self, aloop):
        shallow = finite_support(Universal(), aloop, 2).finite_part
        deep = finite_support(Universal(), aloop, 4).finite_part
        assert shallow < deep
        assert {d for d in deep if len(d) <= 2} == shallow


class TestInducedAndLassos:
    def test_induced_steps(self, alc):
        asc = helpers.chain_order(("phi1", "phi2", "phi3", "phi4"))
        assert induced_steps(Greatmost(asc), alc) == (
            alc.step("a", "phi2"),
            alc.step("b", "phi4"),
        )
        with pytest.raises(MemoryRequired):
            induced_steps(MaxLen(2), alc)

    def test_lassos_on_selfloops(self, ac):
        assert lassos_of_memoryless(Universal(), ac) == [
            Lasso(ac.empty_derivation("a"), ac.derivation("a", "phi1")),
            Lasso(ac.empty_derivation("a"), ac.derivation("a", "phi2")),
        ]

    def test_lassos_rotate_per_source(self, aloop):
        assert lassos_of_memoryless(Universal(), aloop) == [
            Lasso(aloop.empty_derivation("a"), aloop.derivation("a", "phi1", "phi2")),
            Lasso(aloop.empty_derivation("b"), aloop.derivation("b", "phi2", "phi1")),
        ]
        only_b = lassos_of_memoryless(Universal(), aloop, sources=("b",))
        assert [l.source for l in only_b] == ["b"]

    def test_acyclic_strategy_has_no_lassos(self, alc):
        asc = helpers.chain_order(("phi1", "phi2", "phi3", "phi4"))
        assert lassos_of_memoryless(Greatmost(asc), alc) == []

    def test_stems_reach_remote_cycles(self):
        ars = Ars(
            ("s", "a", "b"),
            ("l0", "l1", "l2"),
            [("s", "l0", "a"), ("a", "l1", "b"), ("b", "l2", "a")],
        )
        lassos = lassos_of_memoryless(Universal(), ars)
        cycle_at_a = ars.derivation("a", "l1", "l2")
        assert lassos == [
            Lasso(ars.empty_derivation("a"), cycle_at_a),
            Lasso(ars.empty_derivation("b"), ars.derivation("b", "l2", "l1")),
            Lasso(ars.derivation("s", "l0"), cycle_at_a),
        ]
        # lassos live over the ambient system, usable as strategy members
        AbstractStrategy(ars, lasso_part=frozenset(lassos))


class TestRebuilds:
    def test_memoryless_round_trip(self, alc):
        members = frozenset(
            {
                alc.derivation("a", "phi1"),
                alc.derivation("b", "phi4"),
                alc.derivation("a", "phi1", "phi4"),
            }
        )
        z = AbstractStrategy(alc, members)
        xi = memoryless_from(z)
        assert xi.memoryless
        assert finite_support(xi, alc, 3).finite_part == members

    def test_memoryless_requires_factor_closure(self, alc):
        z = AbstractStrategy(alc, frozenset({alc.derivation("a", "phi1", "phi3")}))
        with pytest.raises(NotFactorClosed):
            memoryless_from(z)

    def test_memoryless_requires_composition_closure(self, alc):
        z = AbstractStrategy(
            alc,
            frozenset(
                {
                    alc.derivation("a", "phi1"),
                    alc.derivation("b", "phi3"),
                    alc.derivation("a", "phi1", "phi3"),
                }
            ),
        )
        with pytest.raises(NotCompositionClosed):
            memoryless_from(z)

    def test_memoried_round_trip(self, alc):
        z = AbstractStrategy(
            alc,
            frozenset(
                {
                    alc.derivation("a", "phi1"),
                    alc.derivation("a", "phi1", "phi4"),
                    alc.derivation("b", "phi3"),
                }
            ),
        )
        xi = memoried_from(z)
        assert not xi.memoryless
        assert finite_support(xi, alc, 3).finite_part == z.finite_part

    def test_memoried_requires_prefix_closure(self, alc):
        z = AbstractStrategy(alc, frozenset({alc.derivation("a", "phi1", "phi4")}))
        with pytest.raises(NotPrefixClosed):
            memoried_from(z)

    def test_empty_sets_rebuild_to_fail(self, alc):
        assert memoryless_from(AbstractStrategy(alc)) == Fail()
        assert memoried_from(AbstractStrategy(alc)) == Fail()

    def test_lasso_sets_are_rejected(self, aloop):
        lasso = Lasso(aloop.empty_derivation("a"), aloop.derivation("a", "phi1", "phi2"))
        z = AbstractStrategy(aloop, lasso_part=frozenset({lasso}))
        with pytest.raises(ValueError):
            memoryless_from(z)
        with pytest.raises(ValueError):
            memoried_from(z)


class TestGrowth:
    def test_finite_support_looks_no_step_up_per_member(self, alc, monkeypatch):
        # generate grows each member by the Step the walk took
        calls = []
        lookup = Ars.step
        monkeypatch.setattr(Ars, "step", lambda self, *args: calls.append(args) or lookup(self, *args))
        support = finite_support(Universal(), alc, 4)
        assert support.finite_part and calls == []
        assert support.finite_part == frozenset(helpers.raw_derivations(alc, 4))

    def test_memories_and_traces_look_no_step_up_per_step(self, alc, monkeypatch):
        # a memoried eval-only strategy's memory and an explicit trace set's
        # state grow by the Step taken, like the members
        traces = frozenset({alc.derivation("a", "phi1", "phi3", "phi2"), alc.derivation("b", "phi4")})
        memoried = MemoriedRestrict(frozenset({"phi1", "phi2", "phi3"}))
        expected = helpers.stepwise_support(memoried, alc, 4)
        calls = []
        lookup = Ars.step
        monkeypatch.setattr(Ars, "step", lambda self, *args: calls.append(args) or lookup(self, *args))
        assert finite_support(memoried, alc, 4).finite_part == expected
        assert accepted(LogicalStrategy(Universal(), ExplicitTraceSet(traces)), alc, 4).finite_part == traces
        assert calls == []


class MemoriedRestrict(Strategy):
    """Permits the out-steps with allowed labels; keeps the derivation as its memory."""

    memoryless = False

    def __init__(self, allowed: frozenset[str]) -> None:
        self.allowed = allowed

    def eval(self, d):
        return EvalResult(True, tuple(s for s in d.ars.out_steps(d.target) if s.label in self.allowed))
