"""The two-signal intersection scenario: system shape, controller, fairness."""

from __future__ import annotations

import json
import random

import pytest

import helpers
from strat import (
    ACCEPT_ALL,
    FromTable,
    Lasso,
    LogicalStrategy,
    NoWitnessUpToHorizon,
    TableEntry,
    Universal,
    nonclosed_witness,
)
from strat import traffic
from strat.cli import main
from strat.speclang import (
    QWitness,
    build_accept,
    build_ars,
    build_strategy,
    parse,
    serialize,
)
from strat.traffic import (
    LABELS,
    STARVATION_START,
    TrafficState,
    build_traffic_ars,
    fairness_condition,
    fairness_nonclosed_witness,
    good_starts,
    never_both_green,
    safety_violation,
    traffic_document,
)


class TestSystemShape:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_state_count(self, bound):
        ars = build_traffic_ars(bound)
        assert len(ars.objects) == 4 * (bound + 1) ** 2
        assert ars.labels == LABELS

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            build_traffic_ars(0)

    @pytest.mark.parametrize("bound", [1, 2])
    def test_step_schemas(self, bound):
        ars = build_traffic_ars(bound)
        for obj in ars.objects:
            st = TrafficState.from_symbol(obj)
            labels = [s.label for s in ars.out_steps(obj)]
            assert len(labels) <= 6
            assert "signal1" in labels and "signal2" in labels
            assert ("car1" in labels) == (st.q1 < bound)
            assert ("car2" in labels) == (st.q2 < bound)
            assert ("cross1" in labels) == (st.l1 == 1 and st.q1 >= 1)
            assert ("cross2" in labels) == (st.l2 == 1 and st.q2 >= 1)

    def test_steps_update_the_right_component(self):
        ars = build_traffic_ars(2)
        for step in ars.steps:
            src = TrafficState.from_symbol(step.source)
            tgt = TrafficState.from_symbol(step.target)
            expected = {
                "car1": TrafficState(src.q1 + 1, src.l1, src.q2, src.l2),
                "car2": TrafficState(src.q1, src.l1, src.q2 + 1, src.l2),
                "signal1": TrafficState(src.q1, 1 - src.l1, src.q2, src.l2),
                "signal2": TrafficState(src.q1, src.l1, src.q2, 1 - src.l2),
                "cross1": TrafficState(src.q1 - 1, src.l1, src.q2, src.l2),
                "cross2": TrafficState(src.q1, src.l1, src.q2 - 1, src.l2),
            }[step.label]
            assert tgt == expected

    def test_state_symbol_round_trip(self):
        st = TrafficState(2, 1, 0, 1)
        assert st.symbol == "s_2_1_0_1"
        assert TrafficState.from_symbol(st.symbol) == st
        for bad in ("t_1_1_1_1", "s_1_1_1", "s_1_1_1_1_1", "s_a_1_1_1"):
            with pytest.raises(ValueError):
                TrafficState.from_symbol(bad)

    def test_good_starts(self):
        ars = build_traffic_ars(1)
        starts = good_starts(ars)
        assert len(starts) == 12
        assert all(not TrafficState.from_symbol(s).both_green for s in starts)


class TestSafetyController:
    def test_controller_blocks_only_bad_toggles(self):
        ars = build_traffic_ars(1)
        controller = never_both_green(ars)
        for obj in ars.objects:
            permitted = controller.eval(ars.empty_derivation(obj)).steps
            dropped = set(ars.out_steps(obj)) - set(permitted)
            for step in dropped:
                assert step.label in ("signal1", "signal2")
                assert TrafficState.from_symbol(step.target).both_green

    @pytest.mark.parametrize("bound", [1, 2])
    def test_no_violation_under_controller(self, bound):
        ars = build_traffic_ars(bound)
        assert safety_violation(ars, never_both_green(ars)) is None

    def test_violation_without_controller(self):
        ars = build_traffic_ars(1)
        violation = safety_violation(ars, Universal())
        assert violation == ars.derivation("s_0_0_0_0", "signal1", "signal2")
        assert TrafficState.from_symbol(violation.target).both_green

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_backward_search_agrees_with_one_search_per_start(self, bound):
        ars = build_traffic_ars(bound)
        rng = random.Random(bound)
        tables = [
            FromTable(
                tuple(
                    TableEntry(obj, frozenset(s for s in ars.out_steps(obj) if rng.random() < keep))
                    for obj in ars.objects
                )
            )
            for keep in (0.2, 0.4, 0.6, 0.8) * 5
        ]
        found = 0
        for strategy in [never_both_green(ars), Universal(), *tables]:
            violation = safety_violation(ars, strategy)
            assert violation == helpers.loop_safety_violation(ars, strategy)
            found += violation is not None
        assert 0 < found < len(tables) + 2

    def test_safety_scenario_reads_each_flag_once(self, monkeypatch, capsys):
        # the scenario's support, controller, starts and violation search share
        # one reading of each state's both-green flag
        parse = TrafficState.from_symbol
        parsed = []
        monkeypatch.setattr(TrafficState, "from_symbol", lambda name: parsed.append(name) or parse(name))
        traffic._both_green.cache_clear()
        argv = ["--machine", "scenario", "traffic", "--queue-bound", "3", "--depth", "4", "--check", "safety"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "ok"
        assert sorted(parsed) == sorted(build_traffic_ars(3).objects)

    def test_controller_closed_under_all_accepting(self):
        ars = build_traffic_ars(1)
        ls = LogicalStrategy(never_both_green(ars), ACCEPT_ALL)
        sources = (STARVATION_START, "s_0_0_0_0", "s_1_1_0_0")
        assert nonclosed_witness(ls, ars, 4, sources=sources) is None


class TestFairness:
    def test_condition_distinguishes_serviced_from_starved(self):
        ars = build_traffic_ars(1)
        cond = fairness_condition()
        serviced = ars.derivation("s_0_0_0_1", "car2", "cross2")
        starved = ars.derivation(STARVATION_START, "cross2", "car2")
        assert cond.accepts(serviced)
        assert not cond.accepts(starved)
        assert cond.accepts(ars.empty_derivation("s_0_0_0_0"))

    @pytest.mark.parametrize("horizon", [2, 4, 6])
    def test_starvation_lasso(self, horizon):
        ars = build_traffic_ars(1)
        witness = fairness_nonclosed_witness(ars, horizon)
        assert witness == Lasso(
            ars.empty_derivation(STARVATION_START),
            ars.derivation(STARVATION_START, "cross2", "car2"),
        )
        assert witness.render() == "s_1_0_1_1 ( -cross2-> s_1_0_0_1 -car2-> s_1_0_1_1 )^w"

    def test_small_horizon_rejected(self):
        ars = build_traffic_ars(1)
        with pytest.raises(NoWitnessUpToHorizon):
            fairness_nonclosed_witness(ars, 1)


class TestDocument:
    def test_document_round_trips_and_rebuilds(self):
        doc = parse(traffic_document(1))
        ars = build_traffic_ars(1)
        built = build_ars(doc)
        assert built.objects == ars.objects
        assert [(s.source, s.label, s.target) for s in built.steps] == [
            (s.source, s.label, s.target) for s in ars.steps
        ]
        assert build_accept(doc, "fair") == fairness_condition()
        assert doc.queries == (QWitness("fair_runs", 6),)

    def test_document_strategy_reproduces_the_witness(self):
        doc = parse(traffic_document(1))
        ars = build_ars(doc)
        strategy = build_strategy(doc, "fair_runs", ars)
        ls = LogicalStrategy(Universal(), build_accept(doc, "fair"))
        witness = nonclosed_witness(ls, ars, 6, sources=(STARVATION_START,))
        assert witness.render() == "s_1_0_1_1 ( -cross2-> s_1_0_0_1 -car2-> s_1_0_1_1 )^w"
        assert strategy.eval(ars.empty_derivation(STARVATION_START)).defined

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_document_is_canonical(self, bound):
        text = traffic_document(bound)
        assert serialize(parse(text)) == text
