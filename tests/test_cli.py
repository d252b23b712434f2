"""The strat command line: output goldens, exit codes, machine records."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import strat
from strat import induced_steps, speclang
from strat.cli import build_parser, main
from strat.traffic import build_traffic_ars, good_starts, never_both_green, traffic_document


@pytest.fixture()
def run(capsys):
    def invoke(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        # main turns a crash into exit 2; no test here expects one
        assert "strat: error: internal error:" not in captured.err, captured.err
        return code, captured.out, captured.err

    return invoke


def sample(samples_dir, name: str) -> str:
    return str(samples_dir / name)


# memoried strategies (alternate, maxlen) inside committed union and intersection
MEMORIED_COMBINATORS = """ars {
  objects: a, b, c;
  labels: x, y;
  steps: (a, x, b), (a, y, c), (b, y, a), (c, x, a), (c, y, c);
}
order up { x < y; }
strategy committed = unionC(alternate({x}; {y}), maxlen(2));
strategy meet = intersect(greatmost(up), alternate({x, y}; {y}));
"""


class TestEnumerate:
    def test_plain_listing(self, run, samples_dir):
        code, out, err = run(
            "enumerate", "-f", sample(samples_dir, "a_loop.ars"), "--from", "a", "--depth", "2"
        )
        assert (code, err) == (0, "")
        assert out == "a -phi1-> b\na -phi1-> b -phi2-> a\nCOUNT=2\n"

    def test_under_strategy(self, run, samples_dir):
        code, out, _ = run(
            "enumerate", "-f", sample(samples_dir, "a_lc.ars"), "-s", "gm", "--depth", "4"
        )
        assert code == 0
        assert out == "a -phi2-> c\nb -phi4-> d\nCOUNT=2\n"

    def test_machine_record(self, run, samples_dir):
        code, out, _ = run(
            "--machine",
            "enumerate",
            "-f",
            sample(samples_dir, "a_loop.ars"),
            "--from",
            "a",
            "--depth",
            "2",
        )
        assert code == 0
        assert out == '{"kind": "enumerate", "verdict": "ok", "witness": null, "count": 2}\n'
        assert list(json.loads(out)) == ["kind", "verdict", "witness", "count"]


    @pytest.mark.parametrize(
        "text, strategy, source",
        [
            (traffic_document(1), "fair_runs", None),
            (traffic_document(1), "all", "s_0_0_0_0"),
            (MEMORIED_COMBINATORS, "committed", None),
            (MEMORIED_COMBINATORS, "meet", "a"),
        ],
        ids=["traffic-fair_runs", "traffic-all-from", "memoried-committed", "memoried-meet-from"],
    )
    def test_text_listing_builds_no_derivation(self, run, tmp_path, text, strategy, source):
        # each member's line is folded along the walk: no member is built
        doc = tmp_path / "doc.ars"
        doc.write_text(text)
        spec = speclang.parse(text)
        ars = speclang.build_ars(spec)
        ls = strat.as_logical(speclang.build_strategy(spec, strategy, ars))
        sources = None if source is None else [source]
        lines = [d.render() for d in strat.generate(ls.base, ars, 4, sources, ls.accept)]
        start = [] if source is None else ["--from", source]
        with helpers.counting_builds() as built:
            code, out, err = run("enumerate", "-f", str(doc), "-s", strategy, *start, "--depth", "4")
        assert (code, err, built) == (0, "", [])
        assert out == "".join(line + "\n" for line in lines) + f"COUNT={len(lines)}\n"
        assert lines


class TestApply:
    def test_applies(self, run, samples_dir):
        code, out, _ = run(
            "apply", "-f", sample(samples_dir, "a_lc.ars"), "-s", "all", "--from", "a",
            "--depth", "3",
        )
        assert (code, out) == (0, "{a, b, c, d}\n")

    def test_fails(self, run, samples_dir):
        code, out, _ = run(
            "apply", "-f", sample(samples_dir, "a_lc.ars"), "-s", "eventually_c",
            "--from", "d", "--depth", "3",
        )
        assert (code, out) == (0, "FAILS\n")

    def test_machine_flag_after_subcommand(self, run, samples_dir):
        code, out, _ = run(
            "apply", "-f", sample(samples_dir, "a_c.ars"), "-s", "flip", "--from", "a",
            "--depth", "3", "--machine",
        )
        assert code == 0
        assert out == '{"kind": "apply", "verdict": "applies", "witness": "{a}", "count": 1}\n'

    def test_long_ring_applies(self, run, tmp_path):
        n = 1200
        objects = ", ".join(f"o{i}" for i in range(n))
        steps = ", ".join(f"(o{i}, next, o{(i + 1) % n})" for i in range(n))
        ring = tmp_path / "ring.ars"
        ring.write_text(
            f"ars {{ objects: {objects}; labels: next; steps: {steps}; }}\n"
            "strategy all = universal;\n"
        )
        code, out, err = run(
            "--machine", "apply", "-f", str(ring), "-s", "all", "--from", "o0", "--depth", "2"
        )
        assert (code, err) == (0, "")
        assert out == '{"kind": "apply", "verdict": "applies", "witness": "{o1, o2}", "count": 2}\n'

    @pytest.mark.parametrize("strategy", ["all", "fair_runs"])
    def test_apply_builds_no_derivation(self, run, tmp_path, strategy):
        # the targets are the objects of the walk's accepted nodes: no member
        # is built, text or --machine
        text = traffic_document(1)
        doc = tmp_path / "t1.ars"
        doc.write_text(text)
        spec = speclang.parse(text)
        ars = speclang.build_ars(spec)
        ls = strat.as_logical(speclang.build_strategy(spec, strategy, ars))
        reached = {d.target for d in strat.generate(ls.base, ars, 4, ["s_0_0_0_0"], ls.accept)}
        want = "{" + ", ".join(sorted(reached, key=ars.object_index)) + "}"
        argv = ("apply", "-f", str(doc), "-s", strategy, "--from", "s_0_0_0_0", "--depth", "4")
        with helpers.counting_builds() as built:
            code, out, err = run("--machine", *argv)
            assert json.loads(out) == {"kind": "apply", "verdict": "applies", "witness": want, "count": len(reached)}
            assert run(*argv) == (0, want + "\n", "")
        assert (code, err, built) == (0, "", [])

    def test_nothing_finite_applies_on_a_cyclic_system(self, run, tmp_path):
        # one search for a reachable cycle, not a lasso per simple cycle of the system
        doc = tmp_path / "t2.ars"
        doc.write_text(traffic_document(2) + "strategy long = accept(universal, len >= 5);\n")
        code, out, err = run(
            "--machine", "apply", "-f", str(doc), "-s", "long", "--from", "s_0_0_0_0",
            "--depth", "2",
        )
        assert (code, err) == (0, "")
        assert out == '{"kind": "apply", "verdict": "indeterminate", "witness": null, "count": 0}\n'


class TestCheck:
    def test_failing_property_exits_three(self, run, samples_dir):
        code, out, _ = run(
            "check", "-f", sample(samples_dir, "a_lc.ars"), "-s", "eventually_c",
            "--prop", "prefix", "--depth", "3",
        )
        assert code == 3
        assert out == "PROPERTY=false\nWITNESS=a -phi1-> b\n"

    def test_holding_property_exits_zero(self, run, samples_dir):
        code, out, _ = run(
            "check", "-f", sample(samples_dir, "a_loop.ars"), "-s", "all",
            "--prop", "prefix", "--depth", "4",
        )
        assert code == 0
        assert out == "PROPERTY=true\n"

    def test_machine_record(self, run, samples_dir):
        code, out, _ = run(
            "--machine", "check", "-f", sample(samples_dir, "a_lc.ars"), "-s", "eventually_c",
            "--prop", "prefix", "--depth", "3",
        )
        assert code == 3
        assert out == '{"kind": "check", "verdict": "false", "witness": "a -phi1-> b", "count": 2}\n'


class TestFactorAndCompositionRecords:
    """Records of the factor and composition checks, as the checks that built
    every factor and every composition printed them."""

    def test_factor_fails_on_fair_traffic_runs(self, run, tmp_path):
        doc = tmp_path / "t1.ars"
        doc.write_text(traffic_document(1))
        argv = ("check", "-f", str(doc), "-s", "fair_runs", "--prop", "factor", "--depth", "3")
        code, out, err = run("--machine", *argv)
        assert (code, err) == (3, "")
        assert out == (
            '{"kind": "check", "verdict": "false", "witness": "s_0_0_0_1 -car2-> s_0_0_1_1", '
            '"count": 444}\n'
        )
        assert run(*argv) == (3, "PROPERTY=false\nWITNESS=s_0_0_0_1 -car2-> s_0_0_1_1\n", "")

    def test_factor_holds_on_a_sample(self, run, samples_dir):
        code, out, err = run(
            "--machine", "check", "-f", sample(samples_dir, "a_c.ars"), "-s", "all",
            "--prop", "factor", "--depth", "3",
        )
        assert (code, err) == (0, "")
        assert out == '{"kind": "check", "verdict": "true", "witness": null, "count": 14}\n'

    def test_composition_fails_on_a_sample(self, run, samples_dir):
        code, out, err = run(
            "--machine", "check", "-f", sample(samples_dir, "a_lc.ars"), "-s", "all",
            "--prop", "composition", "--depth", "3",
        )
        assert (code, err) == (3, "")
        assert out == (
            '{"kind": "check", "verdict": "false", '
            '"witness": "a -phi1-> b -phi3-> a -phi1-> b -phi3-> a", "count": 12}\n'
        )


    @pytest.mark.parametrize("strategy", ["all", "fair_runs"])
    def test_checks_build_only_what_they_report(self, run, tmp_path, strategy):
        # at depth 6 the set has 39,250 members under `all` and 12,042 under
        # `fair_runs`; a factor check builds the least failing member and its
        # factors, a composition check its two parts and their composition
        text = traffic_document(1)
        doc = tmp_path / "t1.ars"
        doc.write_text(text)
        spec = speclang.parse(text)
        ars = speclang.build_ars(spec)
        ls = strat.as_logical(speclang.build_strategy(spec, strategy, ars))
        for prop, check in (("factor", strat.factor_check), ("composition", strat.composition_check)):
            verdict = check(ls, ars, 6)[1]
            if verdict.holds:
                reported = []
            elif prop == "factor":
                reported = [verdict.culprits[0], *verdict.culprits[0].factors()]
            else:
                reported = [*verdict.culprits, verdict.missing]
            with helpers.counting_builds() as built:
                code, out, _ = run("--machine", "check", "-f", str(doc), "-s", strategy, "--prop", prop, "--depth", "6")
            assert code == (0 if verdict.holds else 3)
            assert json.loads(out)["witness"] == (None if verdict.holds else verdict.missing.render())
            assert sorted((d.source, d.labels) for d in built) == sorted((d.source, d.labels) for d in reported)


class TestWitness:
    def test_found(self, run, samples_dir):
        code, out, _ = run(
            "witness", "-f", sample(samples_dir, "eventual.ars"), "-s", "eventually_exit",
            "--horizon", "4",
        )
        assert (code, out) == (3, "WITNESS=a ( -loop-> a )^w\n")

    def test_none(self, run, samples_dir):
        code, out, _ = run(
            "witness", "-f", sample(samples_dir, "a_loop.ars"), "-s", "all", "--horizon", "3"
        )
        assert (code, out) == (0, "NO_WITNESS_UP_TO_HORIZON\n")

    def test_witness_on_a_ring_longer_than_the_recursion_limit(self, run, tmp_path):
        n = sys.getrecursionlimit() + 200
        objects = ", ".join(f"o{i}" for i in range(n))
        steps = ", ".join(f"(o{i}, next, o{(i + 1) % n})" for i in range(n))
        ring = tmp_path / "ring.ars"
        ring.write_text(
            f"ars {{ objects: {objects}; labels: next; steps: {steps}; }}\n"
            "strategy all = universal;\n"
        )
        code, out, err = run("--machine", "witness", "-f", str(ring), "-s", "all", "--horizon", "4")
        assert (code, err) == (0, "")
        assert out == '{"kind": "witness", "verdict": "none", "witness": null, "count": 0}\n'

    def test_traffic_queue_bound_two(self, run, tmp_path):
        # cycles longer than the horizon are never enumerated
        doc = tmp_path / "t2.ars"
        doc.write_text(traffic_document(2))
        code, out, err = run("--machine", "witness", "-f", str(doc), "-s", "all", "--horizon", "2")
        assert (code, err) == (0, "")
        assert out == '{"kind": "witness", "verdict": "none", "witness": null, "count": 0}\n'


class TestScenario:
    def test_fairness_witness(self, run):
        code, out, _ = run(
            "scenario", "traffic", "--queue-bound", "1", "--depth", "6", "--check", "fairness"
        )
        assert code == 3
        assert out == (
            "OBJECTS=16\nSTEPS=56\nSUPPORT=4886\n"
            "WITNESS=s_1_0_1_1 ( -cross2-> s_1_0_0_1 -car2-> s_1_0_1_1 )^w\n"
        )

    def test_fairness_witness_at_queue_bound_two(self, run):
        code, out, _ = run(
            "--machine", "scenario", "traffic", "--queue-bound", "2", "--depth", "4",
            "--check", "fairness",
        )
        assert code == 3
        assert out == (
            '{"kind": "scenario", "verdict": "found", "witness": '
            '"s_1_0_1_1 ( -cross2-> s_1_0_0_1 -car2-> s_1_0_1_1 )^w", "count": 3584}\n'
        )

    def test_safety_holds_under_default_controller(self, run):
        code, out, _ = run(
            "scenario", "traffic", "--queue-bound", "1", "--depth", "2", "--check", "safety"
        )
        assert code == 0
        assert out == "OBJECTS=16\nSTEPS=56\nSUPPORT=114\nSAFETY=ok\n"

    def test_safety_violation_without_controller(self, run):
        code, out, _ = run(
            "scenario", "traffic", "--queue-bound", "1", "--depth", "2",
            "--strategy", "universal", "--check", "safety",
        )
        assert code == 3
        assert out == (
            "OBJECTS=16\nSTEPS=56\nSUPPORT=174\nSAFETY=violation\n"
            "WITNESS=s_0_0_0_0 -signal1-> s_0_1_0_0 -signal2-> s_0_1_0_1\n"
        )

    def test_fairness_below_horizon_reports_none(self, run):
        code, out, _ = run(
            "scenario", "traffic", "--queue-bound", "1", "--depth", "1", "--check", "fairness"
        )
        assert code == 0
        assert out.endswith("NO_WITNESS_UP_TO_HORIZON\n")

    def test_machine_record(self, run):
        code, out, _ = run(
            "scenario", "traffic", "--queue-bound", "1", "--depth", "2", "--machine"
        )
        assert code == 0
        assert out == '{"kind": "scenario", "verdict": "ok", "witness": null, "count": 114}\n'


def _controlled_walks(bound: int, depth: int) -> int:
    """Walks of the controller's sub-system from the good starts, counted by a DP."""
    ars = build_traffic_ars(bound)
    sub = ars.restrict(induced_steps(never_both_green(ars), ars))
    return helpers.walks(sub, depth, good_starts(ars))


class TestCountsOnTheProduct:
    """Records whose counts run to hundreds of thousands of derivations."""

    def test_fairness_scenario_at_queue_bound_two_depth_eight(self, run):
        code, out, err = run(
            "--machine", "scenario", "traffic", "--queue-bound", "2", "--depth", "8",
            "--check", "fairness",
        )
        assert (code, err) == (3, "")
        assert out == (
            '{"kind": "scenario", "verdict": "found", "witness": '
            '"s_1_0_1_1 ( -cross2-> s_1_0_0_1 -car2-> s_1_0_1_1 )^w", "count": 275616}\n'
        )
        assert _controlled_walks(2, 8) == 275616

    def test_safety_scenario_at_queue_bound_three_depth_eight(self, run):
        code, out, err = run(
            "--machine", "scenario", "traffic", "--queue-bound", "3", "--depth", "8",
            "--check", "safety",
        )
        assert (code, err) == (0, "")
        assert out == '{"kind": "scenario", "verdict": "ok", "witness": null, "count": 994466}\n'
        assert _controlled_walks(3, 8) == 994466

    def test_enumerate_every_derivation_at_depth_eight(self, run, tmp_path):
        doc = tmp_path / "t1.ars"
        doc.write_text(traffic_document(1))
        code, out, err = run("--machine", "enumerate", "-f", str(doc), "-s", "all", "--depth", "8")
        assert (code, err) == (0, "")
        assert out == '{"kind": "enumerate", "verdict": "ok", "witness": null, "count": 471250}\n'
        assert helpers.walks(build_traffic_ars(1), 8) == 471250


class TestErrors:
    def test_bad_depth_is_a_usage_error(self, run, samples_dir):
        code, out, err = run(
            "enumerate", "-f", sample(samples_dir, "a_lc.ars"), "--depth", "0"
        )
        assert (code, out) == (2, "")
        assert "strat enumerate: error: argument --depth: depth must be at least 1" in err

    def test_missing_file(self, run):
        code, _, err = run("enumerate", "-f", "no/such/file.ars", "--depth", "2")
        assert code == 2
        assert err.startswith("strat: error: ")

    def test_file_that_is_not_utf8(self, run, tmp_path):
        path = tmp_path / "bin.ars"
        path.write_bytes(b"ars {\xff\xfe")
        code, out, err = run("enumerate", "-f", str(path), "--depth", "2")
        assert (code, out) == (2, "")
        assert err == f"strat: error: {path}: not UTF-8 text (byte 5)\n"

    def test_unknown_strategy_and_object(self, run, samples_dir):
        code, _, err = run(
            "enumerate", "-f", sample(samples_dir, "a_lc.ars"), "-s", "missing", "--depth", "2"
        )
        assert (code, err) == (2, "strat: error: unknown symbol 'missing'\n")
        code, _, err = run(
            "enumerate", "-f", sample(samples_dir, "a_lc.ars"), "--from", "zz", "--depth", "2"
        )
        assert (code, err) == (2, "strat: error: unknown symbol 'zz'\n")

    def test_crlf_and_lone_cr_line_ends(self, run, tmp_path):
        # a document is read with universal newlines: every line end gives the same
        # record, and a diagnostic the same line and column
        valid = "ars {\n  objects: a, b;\n  labels: l;\n  steps: (a, l, b),\n    (b, l, a);\n}\nstrategy s = universal;\n"
        invalid = valid.replace("(b, l, a)", "(b, l, zz)")
        seen = set()
        for end in ("\n", "\r\n", "\r"):
            good, bad = tmp_path / "good.ars", tmp_path / "bad.ars"
            good.write_bytes(valid.replace("\n", end).encode())
            bad.write_bytes(invalid.replace("\n", end).encode())
            record = run("--machine", "enumerate", "-f", str(good), "-s", "s", "--depth", "3")
            diagnostic = run("--machine", "enumerate", "-f", str(bad), "-s", "s", "--depth", "3")
            seen.add((record, diagnostic))
        assert seen == {
            (
                (0, '{"kind": "enumerate", "verdict": "ok", "witness": null, "count": 6}\n', ""),
                (2, "", f"{bad}:5:12: error: unknown object 'zz'\n"),
            )
        }

    def test_document_diagnostics_carry_file_and_position(self, run, tmp_path):
        bad = tmp_path / "bad.ars"
        bad.write_text("ars { objects: a; labels: l; steps: (a, zz, a); }\n")
        code, out, err = run("enumerate", "-f", str(bad), "--depth", "2")
        assert (code, out) == (2, "")
        assert err == f"{bad}:1:41: error: unknown label 'zz'\n"

    def test_deep_nesting_is_reported_at_its_section(self, run, tmp_path):
        deep = tmp_path / "deep.ars"
        deep.write_text(
            "ars { objects: a; labels: l; steps: (a, l, a); }\n"
            "strategy s = accept(universal, word(" + "(" * 3000 + "l" + ")" * 3000 + "));\n"
        )
        code, out, err = run("--machine", "enumerate", "-f", str(deep), "-s", "s", "--depth", "2")
        assert (code, out) == (2, "")
        assert err == f"{deep}:2:1: error: expression nesting too deep\n"

    def test_deeply_repeated_word_is_reported_at_its_section(self, run, tmp_path):
        stars = tmp_path / "stars.ars"
        stars.write_text(
            "ars { objects: a; labels: l; steps: (a, l, a); }\n"
            "\n"
            "  accept w = word(l" + "*" * 3000 + ");\n"
            "strategy s = accept(universal, w);\n"
        )
        code, out, err = run("--machine", "enumerate", "-f", str(stars), "-s", "s", "--depth", "2")
        assert (code, out) == (2, "")
        assert err == f"{stars}:3:3: error: expression nesting too deep\n"


def nested_document(kind: str, levels: int) -> str:
    """A document whose strategy s nests `levels` strategy and condition levels."""
    text = "ars { objects: a, b; labels: l, m; steps: (a, l, b), (b, m, a), (b, l, b); }\n"
    inner = levels - 1
    if kind in ("unionP", "unionC", "intersect"):
        body = f"{kind}(" * inner + "universal" + ", restrict({l}))" * inner
    elif kind == "accept":
        body = "accept(" * inner + "universal" + ", len < 5)" * inner
    elif kind in ("and", "or"):
        body = f"accept(universal, {f'{kind}(' * (inner - 1)}len < 4{', at(a))' * (inner - 1)})"
    else:  # a chain of accepts, each naming the one before it
        text += "accept c1 = at(a);\n"
        text += "".join(f"accept c{k} = not(c{k - 1});\n" for k in range(2, levels))
        body = f"accept(universal, c{inner})"
    return text + f"strategy s = {body};\n"


class TestNestingLimit:
    KINDS = ["unionP", "unionC", "intersect", "accept", "and", "or", "chain"]
    # depth 2: at depth 3, `enumerate` on 100 nested unionC takes about 10 s
    COMMANDS = [
        ("enumerate", "--depth", "2"),
        ("check", "--prop", "prefix", "--depth", "2"),
        ("witness", "--horizon", "3"),
    ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_document_at_the_limit_answers(self, run, tmp_path, kind):
        path = tmp_path / "deep.ars"
        path.write_text(nested_document(kind, speclang.MAX_NESTING))
        for verb, *options in self.COMMANDS:
            code, _, err = run(verb, "-f", str(path), "-s", "s", *options)
            if kind == "unionC" and verb == "witness":
                assert code == 2
                assert err == "strat: error: witness search needs a memoryless base strategy\n"
            else:
                assert (code, err) in ((0, ""), (3, ""))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_level_more_is_reported_at_its_section(self, run, tmp_path, kind):
        path = tmp_path / "deep.ars"
        text = nested_document(kind, speclang.MAX_NESTING + 1)
        path.write_text(text)
        line = text.count("\n")  # the strategy section comes last
        code, out, err = run("--machine", "enumerate", "-f", str(path), "-s", "s", "--depth", "2")
        assert (code, out) == (2, "")
        assert err == f"{path}:{line}:1: error: expression nesting too deep\n"


class TestExitCodeContract:
    SAMPLE_STRATEGIES = [
        ("a_c.ars", "gm"),
        ("a_lc.ars", "eventually_c"),
        ("a_loop.ars", "all"),
        ("eventual.ars", "eventually_exit"),
        ("union_pair.ars", "both_c"),
    ]
    COMMANDS = [
        ("enumerate", "--depth", "3"),
        ("check", "--prop", "prefix", "--depth", "3"),
        ("witness", "--horizon", "3"),
    ]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(SAMPLE_STRATEGIES),
        st.sampled_from(COMMANDS),
        st.integers(min_value=0),
        st.sampled_from([None, *"ab(),;:=<>{}|*+?#\t\n 1_é"]),
    )
    def test_one_character_edits_of_samples(
        self, run, samples_dir, tmp_path, sample_strategy, command, where, insert
    ):
        name, strategy = sample_strategy
        text = (samples_dir / name).read_text()
        if insert is None:
            where %= len(text)
            edited = text[:where] + text[where + 1 :]
        else:
            where %= len(text) + 1
            edited = text[:where] + insert + text[where:]
        doc = tmp_path / name
        doc.write_text(edited, encoding="utf-8")
        verb, *options = command
        code, _, _ = run(verb, "-f", str(doc), "-s", strategy, *options)
        assert code in (0, 2, 3)


class TestSubprocess:
    def test_module_entry_is_deterministic(self, samples_dir):
        cmd = [
            sys.executable, "-m", "strat.cli", "--machine",
            "enumerate", "-f", sample(samples_dir, "a_lc.ars"), "--depth", "4",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["kind"] == "enumerate"

    def test_witness_exit_code_through_subprocess(self, samples_dir):
        cmd = [
            sys.executable, "-m", "strat.cli",
            "witness", "-f", sample(samples_dir, "eventual.ars"),
            "-s", "eventually_exit", "--horizon", "4",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == "WITNESS=a ( -loop-> a )^w\n"

    def test_internal_error_is_one_line_and_exit_two(self, samples_dir):
        # a command that fails inside strat itself, not on its input
        script = (
            "import sys, strat.cli as cli\n"
            "def broken(args):\n"
            "    raise KeyError('inner')\n"
            "cli._COMMANDS['enumerate'] = broken\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = ["enumerate", "-f", sample(samples_dir, "a_c.ars"), "--depth", "1"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "strat: error: internal error: KeyError('inner')\n"

    def test_import_loads_no_code_generation(self):
        # a fresh call pays for every module strat imports: dataclasses, with the
        # inspect module it loads, generates and compiles methods for each class
        script = "import sys; sys.path.insert(0, sys.argv[1]); import strat.cli; print(*sys.modules)"
        src = os.path.dirname(os.path.dirname(strat.__file__))
        proc = subprocess.run([sys.executable, "-I", "-c", script, src], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "strat.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_set_up_loads_no_json(self):
        # only a --machine record needs json; it is imported when the first one is written
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import strat.cli; "
            "strat.cli.build_parser(); print(*sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(strat.__file__))
        proc = subprocess.run([sys.executable, "-I", "-c", script, src], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "json" not in proc.stdout.split()

    def test_set_up_compiles_no_document_pattern(self):
        # the document lexers' patterns are compiled (through re's cache) when the
        # first document is read, so a call that reads none does not pay for them
        script = (
            "import re, sys; sys.path.insert(0, sys.argv[1]); compiled = []; compile = re.compile\n"
            "re.compile = lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)\n"
            "import strat.cli; from strat import speclang; strat.cli.build_parser()\n"
            "lexers = (speclang._FAST, speclang._PATTERN); print(sum(p in lexers for p in compiled))\n"
            "try: speclang.parse('ars { objects: a; labels: l; steps: ; } strategy s = x;')\n"
            "except speclang.SpecLangError: print(sum(p in lexers for p in compiled))"
        )
        src = os.path.dirname(os.path.dirname(strat.__file__))
        proc = subprocess.run([sys.executable, "-I", "-c", script, src], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "2"]


class TestCachedParser:
    """The parser is built once per process; no call may see what an earlier one parsed."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_machine_does_not_leak_into_the_next_call(self, run, samples_dir):
        argv = ("enumerate", "-f", sample(samples_dir, "a_loop.ars"), "--from", "a", "--depth", "2")
        text = run(*argv)
        assert run("--machine", *argv)[1].startswith('{"kind": "enumerate"')
        assert run(*argv, "--machine")[1].startswith('{"kind": "enumerate"')
        assert run(*argv) == text == (0, "a -phi1-> b\na -phi1-> b -phi2-> a\nCOUNT=2\n", "")

    def test_a_usage_error_then_a_valid_call(self, run, samples_dir):
        argv = ("check", "-f", sample(samples_dir, "a_lc.ars"), "-s", "gm", "--depth", "2")
        code, out, err = run(*argv, "--prop", "nope")
        assert (code, out) == (2, "") and "invalid choice: 'nope'" in err
        assert run(*argv, "--prop", "prefix") == (0, "PROPERTY=true\n", "")

    def test_help_twice_prints_the_same(self, run):
        for argv in (("--help",), ("witness", "--help")):
            first, second = run(*argv), run(*argv)
            assert first == second and first[0] == 0 and first[1].startswith("usage: strat")


COMPARISONS = ["<", "<=", "=", ">=", ">"]


@st.composite
def generated_documents(draw):
    """(text, strategy names) of a valid document over every keyword of the language."""
    objects = [f"o{i}" for i in range(draw(st.integers(1, 4)))]
    labels = [f"l{i}" for i in range(draw(st.integers(2, 3)))]
    steps = [
        (a, lab, draw(st.sampled_from(objects)))
        for a in objects
        for lab in labels
        if draw(st.booleans())
    ]
    body = ", ".join(f"({a}, {lab}, {b})" for a, lab, b in draw(st.permutations(steps)))
    lines = [f"ars {{ objects: {', '.join(objects)}; labels: {', '.join(labels)};"]
    lines.append(f"  steps: {body}; }}")
    ranked = draw(st.permutations(labels))
    lines.append(f"order o {{ {ranked[0]} < {ranked[1]}; }}")

    def several(make, depth):
        return ", ".join(make(depth - 1) for _ in range(draw(st.integers(2, 3))))

    def label_set():
        return "{" + ", ".join(draw(st.lists(st.sampled_from(labels), max_size=4))) + "}"

    def word():
        a, b = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        return draw(st.sampled_from([a, f"{a}*", f"({a} | {b}) {b}?", f"({a} {b})+ {a}*"]))

    accepts: list[str] = []

    def condition(depth):
        leaves = [
            lambda: f"word({word()})",
            lambda: f"len {draw(st.sampled_from(COMPARISONS))} {draw(st.integers(0, 4))}",
            lambda: f"at({draw(st.sampled_from(objects))})",
        ]
        if accepts:
            leaves.append(lambda: draw(st.sampled_from(accepts)))
        inner = [
            lambda: f"and({several(condition, depth)})",
            lambda: f"or({condition(depth - 1)}, {condition(depth - 1)})",
            lambda: f"not({condition(depth - 1)})",
        ]
        return draw(st.sampled_from(leaves + inner if depth > 1 else leaves))()

    def strategy(depth):
        leaves = [
            lambda: "universal",
            lambda: "fail",
            lambda: "greatmost(o)",
            lambda: f"maxlen({draw(st.integers(0, 4))})",
            lambda: f"restrict({label_set()})",
            lambda: f"alternate({label_set()}; {label_set()})",
        ]
        inner = [
            lambda: f"intersect({several(strategy, depth)})",
            lambda: f"unionP({strategy(depth - 1)}, {strategy(depth - 1)})",
            lambda: f"unionC({strategy(depth - 1)}, {strategy(depth - 1)})",
            lambda: f"accept({strategy(depth - 1)}, {condition(depth - 1)})",
        ]
        return draw(st.sampled_from(leaves + inner if depth > 1 else leaves))()

    for i in range(draw(st.integers(0, 3))):
        lines.append(f"accept c{i} = {condition(draw(st.integers(1, 3)))};")
        accepts.append(f"c{i}")
    names = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    for name in draw(st.permutations(names)):
        lines.append(f"strategy {name} = {strategy(draw(st.integers(1, 3)))};")
    s, a = draw(st.sampled_from(names)), draw(st.sampled_from(objects))
    queries = [
        f"enumerate depth {draw(st.integers(1, 3))}",
        f"enumerate {s} depth 2 from {a}",
        f"apply {s} from {a} depth 3",
        f"check {draw(st.sampled_from(['prefix', 'factor', 'composition', 'closed']))} {s} depth 2",
        f"witness {s} horizon {draw(st.integers(2, 4))}",
    ]
    lines.extend(f"query {q};" for q in draw(st.permutations(queries)))
    return "\n".join(lines) + "\n", names


class TestGeneratedDocuments:
    COMMANDS = TestExitCodeContract.COMMANDS

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(generated_documents(), st.data())
    def test_round_trip_and_exit_codes(self, run, tmp_path, document, data):
        text, names = document
        doc = speclang.parse(text)
        out = speclang.serialize(doc)
        assert speclang.parse(out) == doc
        assert speclang.serialize(speclang.parse(out)) == out
        path = tmp_path / "generated.ars"
        path.write_text(text)
        strategy = data.draw(st.sampled_from(names))
        for verb, *options in self.COMMANDS:
            code, _, _ = run(verb, "-f", str(path), "-s", strategy, *options)
            assert code in (0, 2, 3)
