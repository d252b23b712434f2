"""Explicit derivation sets: application and the closure-property checks."""

from __future__ import annotations

import random

import pytest

import helpers
from strat import (
    AbstractStrategy,
    ApplicationStatus,
    Lasso,
    UnknownObject,
    Universal,
    enumerate_derivations,
    finite_support,
    is_closed,
    is_composition_closed,
    is_factor_closed,
    is_prefix_closed,
    prefix_closure,
)


class TestConstruction:
    def test_empty_member_rejected(self, alc):
        with pytest.raises(ValueError, match="empty derivation"):
            AbstractStrategy(alc, frozenset({alc.empty_derivation("a")}))

    def test_foreign_members_rejected(self, alc):
        other = helpers.alc()
        with pytest.raises(ValueError, match="different system"):
            AbstractStrategy(alc, frozenset({other.derivation("a", "phi1")}))
        lasso = Lasso(other.empty_derivation("a"), other.derivation("a", "phi1", "phi3"))
        with pytest.raises(ValueError, match="different system"):
            AbstractStrategy(alc, lasso_part=frozenset({lasso}))

    def test_views_are_deterministic(self, alc):
        z = AbstractStrategy(
            alc,
            frozenset(
                {
                    alc.derivation("b", "phi3"),
                    alc.derivation("a", "phi1"),
                    alc.derivation("a", "phi1", "phi3"),
                }
            ),
        )
        assert [d.render() for d in z.members()] == [
            "a -phi1-> b",
            "b -phi3-> a",
            "a -phi1-> b -phi3-> a",
        ]
        assert z.domain() == ("a", "b")
        assert z.size() == 3
        assert alc.derivation("a", "phi1") in z
        assert alc.derivation("a", "phi2") not in z


class TestApplication:
    def test_targets_deduplicated_and_sorted(self, alc):
        z = AbstractStrategy(
            alc,
            frozenset(
                {
                    alc.derivation("a", "phi1"),
                    alc.derivation("a", "phi1", "phi3", "phi1"),
                    alc.derivation("a", "phi2"),
                }
            ),
        )
        res = z.apply("a")
        assert res.status is ApplicationStatus.APPLIES
        assert res.targets == ("b", "c")
        assert len(res.witnesses) == 3

    def test_fails_and_indeterminate(self, alc):
        lasso = Lasso(alc.empty_derivation("a"), alc.derivation("a", "phi1", "phi3"))
        z = AbstractStrategy(alc, lasso_part=frozenset({lasso}))
        assert z.apply("a").status is ApplicationStatus.INDETERMINATE
        assert z.apply("b").status is ApplicationStatus.FAILS
        with pytest.raises(UnknownObject):
            z.apply("zz")

    def test_finite_members_beat_lassos(self, alc):
        lasso = Lasso(alc.empty_derivation("a"), alc.derivation("a", "phi1", "phi3"))
        z = AbstractStrategy(
            alc, frozenset({alc.derivation("a", "phi2")}), frozenset({lasso})
        )
        res = z.apply("a")
        assert res.status is ApplicationStatus.APPLIES and res.targets == ("c",)


class TestClosureChecks:
    def test_prefix_closed_reports_shortest_missing(self, alc):
        d = alc.derivation("a", "phi1", "phi3", "phi2")
        verdict = is_prefix_closed(AbstractStrategy(alc, frozenset({d})))
        assert not verdict
        assert verdict.culprits == (d,)
        assert verdict.missing == alc.derivation("a", "phi1")

    def test_prefix_checks_rebuild_no_prefix_of_a_support(self, alc):
        z = finite_support(Universal(), alc, 4)
        with helpers.counting_builds() as built:
            assert is_prefix_closed(z).holds
            assert prefix_closure(z).finite_part == z.finite_part
        assert built == []

    def test_factor_closure(self, alc):
        two = alc.derivation("a", "phi1", "phi3")
        z = AbstractStrategy(alc, frozenset({two, alc.derivation("a", "phi1")}))
        verdict = is_factor_closed(z)
        assert not verdict and verdict.missing == alc.derivation("b", "phi3")
        full = AbstractStrategy(
            alc,
            frozenset({two, alc.derivation("a", "phi1"), alc.derivation("b", "phi3")}),
        )
        assert is_factor_closed(full).holds

    def test_composition_closure(self, alc):
        z = AbstractStrategy(
            alc, frozenset({alc.derivation("a", "phi1"), alc.derivation("b", "phi3")})
        )
        verdict = is_composition_closed(z)
        assert not verdict
        assert verdict.missing == alc.derivation("a", "phi1", "phi3")
        assert verdict.culprits == (alc.derivation("a", "phi1"), alc.derivation("b", "phi3"))

    def test_lasso_prefixes_count_for_prefix_closure(self, aloop):
        lasso = Lasso(aloop.empty_derivation("a"), aloop.derivation("a", "phi1", "phi2"))
        bare = AbstractStrategy(aloop, lasso_part=frozenset({lasso}))
        verdict = is_prefix_closed(bare)
        assert not verdict
        assert verdict.culprits == (lasso,)
        assert verdict.missing == aloop.derivation("a", "phi1")
        closed = prefix_closure(bare)
        assert is_prefix_closed(closed).holds
        # stem + two turns of the cycle
        assert len(closed.finite_part) == 4

    def test_prefix_closure_is_idempotent_and_minimal(self, alc):
        rng = random.Random(11)
        pool = enumerate_derivations(alc, 4)
        for _ in range(25):
            z = AbstractStrategy(alc, frozenset(d for d in pool if rng.random() < 0.2))
            grown = prefix_closure(z)
            assert is_prefix_closed(grown).holds
            assert prefix_closure(grown).finite_part == grown.finite_part
            expected = set(z.finite_part)
            for d in z.finite_part:
                expected.update(d.strict_prefixes())
            assert grown.finite_part == frozenset(expected)

    def test_closed_agrees_with_limit_point_oracle(self, alc):
        rng = random.Random(13)
        pool = enumerate_derivations(alc, 3)
        for _ in range(60):
            z = AbstractStrategy(alc, frozenset(d for d in pool if rng.random() < 0.25))
            assert is_closed(z).holds == helpers.brute_is_closed(z, 3)

    def test_verdict_truthiness(self, alc):
        z = AbstractStrategy(alc, frozenset({alc.derivation("a", "phi1")}))
        assert is_prefix_closed(z)
        assert bool(is_closed(z)) is True
