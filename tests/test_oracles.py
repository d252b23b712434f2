"""The front end against the benchmark's independent renderer and oracles.

stratbench/oracles.py keeps its own step table, strategy semantics and `.ars`
renderer and imports nothing from strat; stratbench/workloads.py turns its
answers into checks of CLI records. Both are imported here read-only. A
drawn system and strategy tuple are rendered as a workload renders them, and
strat's reading of the text is checked against the description it came from;
its `--machine enumerate` record and its text listing at depth 2 are judged by
enumerate_check and listing_check, and for a memoryless base its `--machine
witness` record at a drawn horizon (2 to 4) by witness_check, whose verdict
must also be brute_nonclosed_witness's. Its `--machine apply` record from a
drawn object and its `--machine check` record of a drawn property (prefix or
factor), both at depth 2, are judged by apply_check and check_check, for the
drawn tree and for two committed unions of it and a second drawn tree, with
a drawn condition over the union or over the first tree.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from strat import speclang
from strat.logic import as_logical
from strat.cli import main

sys.path.insert(0, str(Path(__file__).parent.parent / "stratbench"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def _rexps(labels):
    return st.recursive(
        st.sampled_from(labels).map(lambda label: ("sym", label)),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["cat", "alt"]), st.lists(inner, min_size=2, max_size=3).map(tuple)),
            st.tuples(st.sampled_from(["star", "plus", "opt"]), inner),
        ),
        max_leaves=4,
    )


def _conditions(objects, labels):
    return st.recursive(
        st.one_of(
            _rexps(labels).map(lambda rexp: ("word", rexp)),
            st.tuples(st.just("len"), st.sampled_from(["<", "<=", "=", ">=", ">"]), st.integers(0, 3)),
            st.sampled_from(objects).map(lambda obj: ("at", obj)),
        ),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["and", "or"]), st.lists(inner, min_size=2, max_size=3).map(tuple)),
            inner.map(lambda part: ("not", part)),
        ),
        max_leaves=3,
    )


def _strategies(labels, conditions):
    label_sets = st.lists(st.sampled_from(labels), max_size=3, unique=True).map(tuple)
    return st.recursive(
        st.one_of(
            st.sampled_from([("universal",), ("fail",), ("greatmost", "ord")]),
            st.integers(1, 4).map(lambda n: ("maxlen", n)),
            label_sets.map(lambda names: ("restrict", names)),
            st.tuples(st.just("alternate"), label_sets, label_sets),
        ),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda children: ("intersect", tuple(children))),
            st.tuples(st.sampled_from(["unionP", "unionC"]), inner, inner),
            st.tuples(st.just("accept"), inner, conditions),
        ),
        max_leaves=3,
    )


@st.composite
def _cases(draw):
    """(oracle system, label order, strategy tuple, two more): a functional
    system of up to 6 objects and 3 labels, each (object, label) with a step or
    not. The two more join the drawn tuple and a second drawn one by a
    committed union, with a drawn condition over the union or over the first:
    few drawn trees are a committed union or accept a set that is not
    prefix-closed at depth 2, and a fault in the union's memory or in the
    prefix check's gap shows only on those."""
    objects = [f"o{i}" for i in range(draw(st.integers(1, 6)))]
    labels = [f"l{i}" for i in range(draw(st.integers(2, 3)))]
    targets = st.none() | st.sampled_from(objects)
    steps = [(obj, label, target) for obj in objects for label in labels if (target := draw(targets))]
    ranked = draw(st.permutations(labels))
    order = list(zip(ranked, ranked[1 : draw(st.integers(2, len(labels)))]))
    conditions = _conditions(objects, labels)
    trees = _strategies(labels, conditions)
    node, other, cond = draw(trees), draw(trees), draw(conditions)
    joined = [("accept", ("unionC", node, other), cond), ("unionC", ("accept", node, cond), other)]
    return oracles.System(objects, labels, steps), order, node, joined


@settings(max_examples=150, deadline=None)
@given(_cases(), st.integers(2, 4), st.data())
def test_documents_rendered_by_the_oracles(case, horizon, data):
    system, order, node, joined = case
    source = data.draw(st.sampled_from(system.objects))
    prop = data.draw(st.sampled_from(["prefix", "factor"]))
    trees = dict(zip(("s", "t", "u"), (node, *joined)))
    with tempfile.TemporaryDirectory() as work_dir:
        workload = workloads.Workload(work_dir)
        path, orders = workload.doc("drawn.ars", system, trees, order)
        text = workload.files["drawn.ars"]
        Path(path).write_text(text)

        doc = speclang.parse(text)
        assert (doc.objects, doc.labels) == (system.objects, system.labels)
        for obj in system.objects:
            assert [(s.label, s.target) for s in doc.ars.out_steps(obj)] == system.out[obj]
        assert speclang.parse(speclang.serialize(doc)) == doc
        assert helpers.parse_outcome(speclang.parse, text) == helpers.parse_outcome(helpers.parse_by_tokens, text)

        out, listing, lasso = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--machine", "enumerate", "-f", path, "-s", "s", "--depth", "2"])
        with contextlib.redirect_stdout(listing):
            listed = main(["enumerate", "-f", path, "-s", "s", "--depth", "2"])
        judged = []  # (the command, its exit code, its output, the check that judges it)
        for name, tree in trees.items():
            for command, check in (
                (["apply", "--from", source], workloads.apply_check(system, orders, tree, source, 2)),
                (["check", "--prop", prop], workloads.check_check(system, orders, tree, prop, 2)),
            ):
                argv = ["--machine", command[0], "-f", path, "-s", name, *command[1:], "--depth", "2"]
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    judged.append((argv, main(argv), printed.getvalue(), check))
        ls = as_logical(speclang.build_strategy(doc, "s", doc.ars))
        horizon = horizon if ls.base.memoryless else 0
        # the brute oracle materialises every derivation up to twice the horizon
        while horizon > 2 and helpers.walks(doc.ars, 2 * horizon) > 2_000:
            horizon -= 1
        if horizon:
            with contextlib.redirect_stdout(lasso):
                found = main(["--machine", "witness", "-f", path, "-s", "s", "--horizon", str(horizon)])
    check = workloads.enumerate_check(system, orders, node, system.objects, 2)
    assert check(code, out.getvalue()) is None, (text, out.getvalue())
    check = workloads.listing_check(system, orders, node, 2)
    assert check(listed, listing.getvalue()) is None, (text, listing.getvalue())
    for argv, exit_code, printed, check in judged:
        assert check(exit_code, printed) is None, (text, argv, printed)
    if horizon:
        brute = helpers.brute_nonclosed_witness(ls, doc.ars, horizon)
        check = workloads.witness_check(system, orders, node, horizon, brute is not None)
        assert check(found, lasso.getvalue()) is None, (text, horizon, lasso.getvalue())
