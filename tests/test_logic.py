"""Predicates, accepting conditions, and the non-closedness witness search."""

from __future__ import annotations

import pytest

import helpers
from strat import (
    ACCEPT_ALL,
    AcceptCondition,
    AcceptFiltered,
    Alternate,
    AlternatePredicate,
    And,
    Ars,
    AtObject,
    CustomPredicate,
    Derivation,
    ExplicitTraceSet,
    FalsePredicate,
    Greatmost,
    GreatmostPredicate,
    Intersect,
    LabelWordIn,
    Lasso,
    LenAtLeast,
    LenAtMost,
    LenEq,
    LenLess,
    LogicalStrategy,
    MaxLen,
    MemoryRequired,
    Not,
    Or,
    TruePredicate,
    RestrictLabels,
    UnionCommitted,
    Universal,
    accepted,
    as_logical,
    finite_support,
    generate,
    is_prefix_closed,
    layered_check,
    memoried_from,
    nonclosed_witness,
    rational,
    speclang,
    strategy_from_predicate,
)
from strat.traffic import STARVATION_START, build_traffic_ars, fairness_nonclosed_witness


def _support(xi, ars, depth=6):
    return finite_support(xi, ars, depth).finite_part


class _CountedCondition(AcceptCondition):
    """Another condition, recording each (state, step) it is advanced over."""

    def __init__(self, inner):
        self.inner, self.advanced = inner, []

    def start(self, ars, obj):
        return self.inner.start(ars, obj)

    def advance(self, state, step):
        self.advanced.append((state, step))
        return self.inner.advance(state, step)

    def final(self, state):
        return self.inner.final(state)


class TestPredicateLifting:
    def test_true_predicate_is_universal(self):
        for ars in (helpers.alc(), helpers.ac(), helpers.aloop()):
            assert _support(strategy_from_predicate(TruePredicate()), ars) == _support(
                Universal(), ars
            )

    def test_false_predicate_generates_nothing_but_is_defined(self, alc):
        lifted = strategy_from_predicate(FalsePredicate())
        res = lifted.eval(alc.empty_derivation("a"))
        assert res.defined and res.steps == ()
        assert not _support(lifted, alc)

    def test_greatmost_predicate_matches_builtin(self, alc):
        for labels in (
            ("phi1", "phi2", "phi3", "phi4"),
            ("phi4", "phi3", "phi2", "phi1"),
            ("phi3", "phi4"),
        ):
            order = helpers.chain_order(labels)
            lifted = strategy_from_predicate(GreatmostPredicate(order))
            assert _support(lifted, alc) == _support(Greatmost(order), alc)

    def test_len_less_matches_maxlen(self, ac):
        for bound in range(1, 6):
            assert _support(strategy_from_predicate(LenLess(bound)), ac) == _support(
                MaxLen(bound), ac
            )

    def test_alternate_predicate_matches_builtin(self, ac):
        pred = AlternatePredicate(frozenset({"phi1"}), frozenset({"phi2"}))
        builtin = Alternate(
            frozenset({ac.step("a", "phi1")}), frozenset({ac.step("a", "phi2")})
        )
        assert _support(strategy_from_predicate(pred), ac) == _support(builtin, ac)

    def test_alternate_predicate_builds_each_derivation_once(self, alc):
        # the memory is the last label, so generation builds no second derivation beside its own
        pred = AlternatePredicate(frozenset({"phi1", "phi2"}), frozenset({"phi3", "phi4"}))
        with helpers.counting_builds() as built:
            z = finite_support(pred, alc, 6)
        assert len(z.finite_part) == 12
        assert len(built) <= 16
        assert list(generate(pred, alc, 6)) == sorted(helpers.stepwise_support(pred, alc, 6), key=Derivation.sort_key)

    def test_custom_predicate(self, alc):
        only_phi1 = CustomPredicate(lambda word, head, label: label == "phi1", trace_free=True)
        lifted = strategy_from_predicate(only_phi1)
        assert lifted.memoryless
        assert {d.labels for d in _support(lifted, alc)} == {("phi1",)}
        parity = CustomPredicate(lambda word, head, label: len(word) % 2 == 0)
        assert not strategy_from_predicate(parity).memoryless

    def test_custom_predicate_builds_each_derivation_once(self, alc):
        # the memory is the label word, so generation builds no derivation
        # beyond the members and the empty one at each source, as universal does
        anything = CustomPredicate(lambda word, head, label: True)
        for xi in (anything, Universal()):
            with helpers.counting_builds() as built:
                z = finite_support(xi, alc, 6)
            assert (len(z.finite_part), len(built)) == (24, 28)
        parity = CustomPredicate(lambda word, head, label: (len(word) + int(label[-1])) % 2 == 0)
        assert list(generate(parity, alc, 6)) == sorted(helpers.stepwise_support(parity, alc, 6), key=Derivation.sort_key)


class TestAcceptConditions:
    def test_length_bounds(self, alc):
        t2 = alc.derivation("a", "phi1", "phi3")
        assert LenAtLeast(2).accepts(t2) and not LenAtLeast(3).accepts(t2)
        assert LenAtMost(2).accepts(t2) and not LenAtMost(1).accepts(t2)
        assert LenEq(2).accepts(t2) and not LenEq(1).accepts(t2)
        assert ACCEPT_ALL.accepts(alc.empty_derivation("a"))

    def test_word_object_and_explicit(self, alc):
        t = alc.derivation("a", "phi1", "phi3", "phi2")
        assert LabelWordIn(rational.parse("phi1 phi3 phi2")).accepts(t)
        assert not LabelWordIn(rational.parse("phi1*")).accepts(t)
        assert AtObject("c").accepts(t) and not AtObject("a").accepts(t)
        explicit = ExplicitTraceSet(frozenset({t}))
        assert explicit.accepts(t)
        assert not explicit.accepts(alc.derivation("a", "phi1"))

    def test_boolean_connectives(self, alc):
        t = alc.derivation("a", "phi1")
        yes, no = LenAtLeast(0), LenAtLeast(99)
        assert And((yes, yes)).accepts(t) and not And((yes, no)).accepts(t)
        assert Or((no, yes)).accepts(t) and not Or((no, no)).accepts(t)
        assert Not(no).accepts(t) and not Not(yes).accepts(t)


class TestAsLogical:
    def test_bare_strategy_gets_accept_all(self):
        ls = as_logical(Universal())
        assert ls == LogicalStrategy(Universal(), ACCEPT_ALL)

    def test_wrappers_fold_and_conjoin(self):
        inner, outer = LenAtMost(3), AtObject("c")
        ls = as_logical(AcceptFiltered(AcceptFiltered(Universal(), inner), outer))
        assert ls.base == Universal()
        assert ls.accept == And((outer, inner))
        single = as_logical(AcceptFiltered(Universal(), inner))
        assert single.accept == inner

    def test_an_accept_inside_a_combinator_is_not_read(self, samples_dir):
        # only the chain of accepts at the top folds; below a combinator an
        # accept steps as its child, so the intersection counts what universal does
        text = (samples_dir / "a_lc.ars").read_text()
        text += "strategy inner = intersect(accept(universal, to_c), universal);\n"
        doc = speclang.parse(text)
        inner = speclang.build_strategy(doc, "inner")
        assert inner == Intersect((AcceptFiltered(Universal(), speclang.build_accept(doc, "to_c")), Universal()))
        assert as_logical(inner) == LogicalStrategy(inner, ACCEPT_ALL)
        counts = {
            name: layered_check(as_logical(speclang.build_strategy(doc, name)), doc.ars, 3)[0]
            for name in ("inner", "eventually_c", "all")
        }
        assert counts == {"inner": 12, "eventually_c": 2, "all": 12}

    def test_accepted_equals_support_under_accept_all(self, alc):
        for depth in (1, 3, 5):
            ls = as_logical(Universal())
            assert accepted(ls, alc, depth).finite_part == _support(Universal(), alc, depth)


class TestAccepted:
    def test_accepted_is_a_subset_of_support(self, aloop):
        ls = LogicalStrategy(Universal(), LenEq(3))
        acc = accepted(ls, aloop, 5)
        assert acc.finite_part <= _support(Universal(), aloop, 5)
        assert {len(d) for d in acc.finite_part} == {3}

    def test_sources_pin_the_start(self, aloop):
        ls = LogicalStrategy(Universal(), ACCEPT_ALL)
        acc = accepted(ls, aloop, 3, sources=("b",))
        assert {d.source for d in acc.finite_part} == {"b"}

    def test_accepted_sets_need_not_be_prefix_closed(self, eventual):
        ls = LogicalStrategy(Universal(), LabelWordIn(rational.parse("loop loop exit")))
        acc = accepted(ls, eventual, 3)
        assert len(acc.finite_part) == 1
        assert not is_prefix_closed(acc).holds


class TestLayeredCheck:
    @pytest.mark.parametrize("kind", ["maxlen", "alternate", "union_of_restricts", "union_of_tables"])
    def test_builds_no_derivation_on_memoried_bases(self, alc, kind):
        # a builtin keeps a finite memory: the search builds only the missing
        # prefix it returns, where the set is not prefix-closed
        restricts = (RestrictLabels(frozenset({"phi1", "phi3"})), RestrictLabels(frozenset({"phi2", "phi4"})))
        base = {
            "maxlen": MaxLen(3),
            "alternate": Alternate(frozenset(alc.steps[:2]), frozenset(alc.steps[2:])),
            "union_of_restricts": UnionCommitted(restricts),
            "union_of_tables": UnionCommitted(tuple(memoried_from(finite_support(r, alc, 4)) for r in restricts)),
        }[kind]
        for cond in (ACCEPT_ALL, Not(LenEq(2))):
            ls = LogicalStrategy(base, cond)
            with helpers.counting_builds() as built:
                count, missing = layered_check(ls, alc, 4)
            assert built == ([] if missing is None else [missing])
            z = accepted(ls, alc, 4)
            assert (count, missing) == (z.size(), is_prefix_closed(z).missing)


class TestNonclosedWitness:
    def test_horizon_validation(self, eventual):
        ls = LogicalStrategy(Universal(), ACCEPT_ALL)
        with pytest.raises(ValueError):
            nonclosed_witness(ls, eventual, 1)

    def test_memoried_base_rejected(self, eventual):
        ls = LogicalStrategy(MaxLen(3), ACCEPT_ALL)
        with pytest.raises(MemoryRequired):
            nonclosed_witness(ls, eventual, 4)

    def test_accept_all_sets_are_closed(self, aloop):
        ls = LogicalStrategy(Universal(), ACCEPT_ALL)
        assert nonclosed_witness(ls, aloop, 6) is None

    def test_bounded_length_sets_give_no_witness(self, ac):
        ls = LogicalStrategy(Universal(), LenAtMost(2))
        assert nonclosed_witness(ls, ac, 4) is None

    def test_starvation_loop_found(self, aloop):
        ls = LogicalStrategy(
            Universal(), LabelWordIn(rational.parse("(phi1 phi2)* phi1"))
        )
        expected = Lasso(aloop.empty_derivation("a"), aloop.derivation("a", "phi1", "phi2"))
        for horizon in (2, 4, 6):
            assert nonclosed_witness(ls, aloop, horizon) == expected

    def test_extension_depth_is_horizon_plus_lasso_length(self, ac):
        # stem . cycle^1 needs horizon more steps to reach length horizon + 1
        for horizon in (2, 3, 5):
            at_depth = LogicalStrategy(Universal(), LenEq(horizon + 1))
            beyond = LogicalStrategy(Universal(), LenEq(horizon + 2))
            expected = Lasso(ac.empty_derivation("a"), ac.derivation("a", "phi1"))
            assert nonclosed_witness(at_depth, ac, horizon) == expected
            assert nonclosed_witness(beyond, ac, horizon) is None

    def test_sources_pin_the_search(self, aloop):
        ls = LogicalStrategy(
            Universal(), LabelWordIn(rational.parse("(phi1 phi2)* phi1"))
        )
        # no accepted derivation starts at b, so nothing stays extendable there
        assert nonclosed_witness(ls, aloop, 4, sources=("b",)) is None

    def test_witness_is_sound(self, eventual):
        ls = LogicalStrategy(Universal(), LabelWordIn(rational.parse("loop* exit")))
        horizon = 4
        witness = nonclosed_witness(ls, eventual, horizon)
        assert witness is not None
        depth = horizon + len(witness.stem) + len(witness.cycle)
        members = accepted(ls, eventual, depth, sources={witness.source}).members()
        for i in range(1, max(1, horizon // len(witness.cycle)) + 1):
            pumped = witness.unroll(i)
            assert pumped not in members
            assert any(pumped.is_prefix_of(m) for m in members)

    def test_condition_advances_once_per_state_and_step(self):
        # a prefix-closed set on a shift graph (object i steps to 2i and 2i+1,
        # mod 6): no witness, so every candidate is tried, and the candidates
        # and the distance searches read one table of product steps
        objects = tuple(f"o{i}" for i in range(6))
        steps = [(f"o{i}", "l0", f"o{2 * i % 6}") for i in range(6)]
        steps += [(f"o{i}", "l1", f"o{(2 * i + 1) % 6}") for i in range(6)]
        steps += [(f"o{i}", "l2", f"o{(i + 3) % 6}") for i in range(0, 6, 2)]
        ars = Ars(objects, ("l0", "l1", "l2"), steps)
        avoid = Not(LabelWordIn(rational.parse("(l0 | l1 | l2)* l1 (l0 | l1 | l2)*")))
        cond = _CountedCondition(And((avoid, LenAtMost(5))))
        assert nonclosed_witness(LogicalStrategy(Universal(), cond), ars, 3) is None
        assert cond.advanced
        assert len(cond.advanced) == len(set(cond.advanced))

    def test_builds_no_derivation_without_a_witness(self):
        # every trap and ring lasso is tried, and each fails a pump on tuples
        ars = helpers.loop_with_exit(5)
        for cond, horizon in ((AtObject("sink"), 4), (ACCEPT_ALL, 6), (LenEq(1), 6)):
            ls = LogicalStrategy(Universal(), cond)
            with helpers.counting_builds() as built:
                assert nonclosed_witness(ls, ars, horizon) is None
            assert built == []

    def test_builds_only_the_returned_lasso(self):
        ring = helpers.loop_with_exit(3)
        ls = LogicalStrategy(Universal(), LabelWordIn(rational.parse("(step | side | back)* out")))
        with helpers.counting_builds() as built:
            witness = nonclosed_witness(ls, ring, 4)
        assert witness == Lasso(ring.empty_derivation("c0"), ring.derivation("c0", "step", "step", "step"))
        assert built == [witness.stem, witness.cycle]
        traffic = build_traffic_ars(1)
        with helpers.counting_builds() as built:
            witness = fairness_nonclosed_witness(traffic, 4)
        assert witness.source == STARVATION_START
        assert built == [witness.stem, witness.cycle]
