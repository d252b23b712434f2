"""The front end against the benchmark's independent renderer and oracles.

stratbench/oracles.py keeps its own step table, strategy semantics and `.ars`
renderer and imports nothing from strat; stratbench/workloads.py turns its
answers into checks of CLI records. Both are imported here read-only. A
drawn system and strategy tuple are rendered as a workload renders them, and
strat's reading of the text is checked against the description it came from;
its `--machine enumerate` record and its text listing at depth 2 are judged by
enumerate_check and listing_check.
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


def _strategies(objects, labels):
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
            st.tuples(st.just("accept"), inner, _conditions(objects, labels)),
        ),
        max_leaves=3,
    )


@st.composite
def _cases(draw):
    """(oracle system, label order, strategy tuple): a functional system of up to
    6 objects and 3 labels, each (object, label) with a step or not."""
    objects = [f"o{i}" for i in range(draw(st.integers(1, 6)))]
    labels = [f"l{i}" for i in range(draw(st.integers(2, 3)))]
    targets = st.none() | st.sampled_from(objects)
    steps = [(obj, label, target) for obj in objects for label in labels if (target := draw(targets))]
    ranked = draw(st.permutations(labels))
    order = list(zip(ranked, ranked[1 : draw(st.integers(2, len(labels)))]))
    return oracles.System(objects, labels, steps), order, draw(_strategies(objects, labels))


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_documents_rendered_by_the_oracles(case):
    system, order, node = case
    with tempfile.TemporaryDirectory() as work_dir:
        workload = workloads.Workload(work_dir)
        path, orders = workload.doc("drawn.ars", system, {"s": node}, order)
        text = workload.files["drawn.ars"]
        Path(path).write_text(text)

        doc = speclang.parse(text)
        assert (doc.objects, doc.labels) == (system.objects, system.labels)
        for obj in system.objects:
            assert [(s.label, s.target) for s in doc.ars.out_steps(obj)] == system.out[obj]
        assert speclang.parse(speclang.serialize(doc)) == doc
        assert helpers.parse_outcome(speclang.parse, text) == helpers.parse_outcome(helpers.parse_by_tokens, text)

        out, listing = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--machine", "enumerate", "-f", path, "-s", "s", "--depth", "2"])
        with contextlib.redirect_stdout(listing):
            listed = main(["enumerate", "-f", path, "-s", "s", "--depth", "2"])
    check = workloads.enumerate_check(system, orders, node, system.objects, 2)
    assert check(code, out.getvalue()) is None, (text, out.getvalue())
    check = workloads.listing_check(system, orders, node, 2)
    assert check(listed, listing.getvalue()) is None, (text, listing.getvalue())
