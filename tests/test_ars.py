"""Core system, derivation and lasso behaviour."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from strat import (
    Ars,
    Derivation,
    FunctionalityViolation,
    Lasso,
    NotComposable,
    ObjectLabelOverlap,
    Step,
    UndefinedStep,
    UnknownSymbol,
    enumerate_derivations,
    reachable_objects,
    reaches_cycle,
    rotate_cycle,
    shortest_path_to,
    shortest_paths,
    simple_cycles,
)


OBJECTS, LABELS = ("a", "b", "c", "d"), ("l", "m", "n")


@st.composite
def step_lists(draw):
    """Steps of a functional relation over OBJECTS and LABELS, repeated both as
    equal tuples and as the same Step objects, with a few steps that name an
    unknown symbol ("z", "y") or clash with the relation mixed in."""
    objs, labs = st.sampled_from(OBJECTS), st.sampled_from(LABELS)
    table = draw(st.dictionaries(st.tuples(objs, labs), objs, max_size=12))
    keys = draw(st.lists(st.sampled_from(sorted(table)), max_size=14)) if table else []
    steps = [Step(*key, table[key]) for key in keys]
    steps += draw(st.lists(st.sampled_from(steps), max_size=4)) if steps else []
    steps = [s if draw(st.booleans()) else tuple(s) for s in steps]
    fault = st.tuples(st.sampled_from((*OBJECTS, "z")), st.sampled_from((*LABELS, "y")), objs)
    faults = draw(st.lists(fault, max_size=2))
    for fault in faults:
        steps.insert(draw(st.integers(0, len(steps))), fault)
    return steps


class TestConstruction:
    def test_symbols_keep_declaration_order(self, alc):
        assert alc.objects == ("a", "b", "c", "d")
        assert alc.labels == ("phi1", "phi2", "phi3", "phi4")
        assert [alc.object_index(o) for o in alc.objects] == [0, 1, 2, 3]

    def test_steps_sorted_by_source_then_label(self):
        ars = Ars(("y", "x"), ("m", "k"), [("x", "k", "y"), ("y", "m", "x"), ("y", "k", "y")])
        assert [(s.source, s.label) for s in ars.steps] == [("y", "m"), ("y", "k"), ("x", "k")]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_steps_in_any_order_build_the_same_system(self, data):
        objects = tuple(f"o{i}" for i in range(data.draw(st.integers(1, 5))))
        labels = tuple(f"l{i}" for i in range(data.draw(st.integers(1, 3))))
        canonical = [
            (o, l, data.draw(st.sampled_from(objects)))
            for o in objects
            for l in labels
            if data.draw(st.booleans())
        ]
        given_steps = [Step(*s) for s in canonical]
        # repeats as equal tuples and as the very same Step objects
        repeated = data.draw(st.lists(st.sampled_from(canonical + given_steps))) if canonical else []
        ars = Ars(objects, labels, data.draw(st.permutations(given_steps + repeated)))
        assert ars.steps == tuple(given_steps)
        for obj in objects:
            assert ars.out_steps(obj) == tuple(s for s in ars.steps if s.source == obj)
        again = data.draw(st.lists(st.sampled_from(ars.steps))) if canonical else []
        sub = ars.restrict(data.draw(st.permutations(list(ars.steps) + again)))
        assert sub.steps == ars.steps
        assert all(sub.out_steps(obj) == ars.out_steps(obj) for obj in objects)

    def test_steps_from_keeps_the_out_steps_among_the_given(self, alc):
        a1, a2, b4 = alc.step("a", "phi1"), alc.step("a", "phi2"), alc.step("b", "phi4")
        assert alc.steps_from("a", [b4, a2, Step("a", "phi1", "d"), a2, a1]) == (a1, a2)
        assert alc.steps_from("a", alc.out_steps("a")) is alc.out_steps("a")
        assert alc.steps_from("b", [a1]) == ()

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="duplicate object"):
            Ars(("a", "a"), ("l",), [])
        with pytest.raises(ValueError, match="duplicate label"):
            Ars(("a",), ("l", "l"), [])

    def test_object_label_overlap_rejected(self):
        with pytest.raises(ObjectLabelOverlap):
            Ars(("a", "b"), ("b",), [])

    def test_step_symbols_must_be_declared(self):
        with pytest.raises(UnknownSymbol):
            Ars(("a",), ("l",), [("a", "l", "z")])
        with pytest.raises(UnknownSymbol):
            Ars(("a",), ("l",), [("a", "zz", "a")])

    @pytest.mark.parametrize("bad", [("a", "l"), ("a", "l", "a", "a")])
    def test_steps_must_be_triples(self, bad):
        with pytest.raises(TypeError):
            Ars(("a",), ("l",), [("a", "l", "a"), bad])

    def test_functionality_enforced(self):
        with pytest.raises(FunctionalityViolation):
            Ars(("a", "b", "c"), ("l",), [("a", "l", "b"), ("a", "l", "c")])
        # an exact duplicate is merely redundant
        ars = Ars(("a", "b"), ("l",), [("a", "l", "b"), ("a", "l", "b")])
        assert len(ars.steps) == 1

    @settings(max_examples=300, deadline=None)
    @given(step_lists(), st.data())
    def test_bulk_index_agrees_with_the_stepwise_one(self, steps, data):
        try:
            want_steps, want_out, want_lookup = helpers.stepwise_index(OBJECTS, LABELS, steps)
        except Exception as err:
            with pytest.raises(type(err)) as got:
                Ars(OBJECTS, LABELS, iter(steps))
            assert got.value.args == err.args
            return
        ars = Ars(OBJECTS, LABELS, iter(steps))
        assert ars.steps == want_steps
        # reads in a drawn order, so some objects are read twice and some never;
        # an object's out-steps are indexed when it is first read, and no other's
        names = st.sampled_from((*OBJECTS, "z"))
        pairs = st.tuples(names, st.sampled_from((*LABELS, "y")))
        subsets = st.lists(st.sampled_from(want_steps)) if want_steps else st.just([])
        read: set[str] = set()
        for kind in data.draw(st.lists(st.sampled_from(("out", "step", "from", "restrict")), max_size=12)):
            if kind == "step":
                pair = data.draw(pairs)
                assert ars.step(*pair) == want_lookup.get(pair)
            elif kind == "restrict":
                chosen = data.draw(subsets)
                sub = ars.restrict(chosen)
                assert sub.steps == tuple(s for s in want_steps if s in chosen)
                assert {o: sub.out_steps(o) for o in OBJECTS} == {
                    o: tuple(s for s in out if s in chosen) for o, out in want_out.items()
                }
            else:
                obj = data.draw(names)
                chosen = data.draw(subsets) if kind == "from" else None
                if obj not in want_out:
                    with pytest.raises(UnknownSymbol):
                        ars.out_steps(obj) if chosen is None else ars.steps_from(obj, chosen)
                elif chosen is None:
                    assert ars.out_steps(obj) == want_out[obj]
                else:
                    assert ars.steps_from(obj, chosen) == tuple(s for s in want_out[obj] if s in chosen)
                read.add(obj)
            assert set(ars._out) == read & set(OBJECTS)
        assert {o: ars.out_steps(o) for o in OBJECTS} == want_out
        pairs = [(o, lab) for o in (*OBJECTS, "z") for lab in (*LABELS, "y")]
        assert [ars.step(o, lab) for o, lab in pairs] == [want_lookup.get(pair) for pair in pairs]
        with pytest.raises(ValueError):
            ars.restrict([Step("z", "l", "a")])

    def test_reading_one_object_indexes_no_other(self, alc):
        assert alc.out_steps("b") == (alc.step("b", "phi3"), alc.step("b", "phi4"))
        assert list(alc._out) == ["b"]
        assert alc.steps_from("b", alc.steps) == alc.out_steps("b")
        assert list(alc._out) == ["b"]

    def test_restrict_checks_membership(self, alc):
        sub = alc.restrict([alc.step("a", "phi1")])
        assert sub.steps == (alc.step("a", "phi1"),)
        assert sub.objects == alc.objects
        with pytest.raises(ValueError):
            alc.restrict([Step("a", "phi1", "c")])

    def test_unknown_object_queries(self, alc):
        with pytest.raises(UnknownSymbol):
            alc.object_index("zz")
        with pytest.raises(UnknownSymbol):
            alc.out_steps("zz")
        assert alc.step("a", "phi3") is None


class TestDerivation:
    def test_targets_forced_by_functionality(self, alc):
        d = alc.derivation("a", "phi1", "phi3", "phi2")
        assert d.targets == ("a", "b", "a", "c")
        assert d.target == "c"
        assert len(d) == 3

    def test_invalid_step_sequences_cannot_exist(self, alc):
        with pytest.raises(UndefinedStep):
            alc.derivation("a", "phi3")
        with pytest.raises(UnknownSymbol):
            alc.derivation("zz", "phi1")

    def test_extended_walks_one_step(self, alc, monkeypatch):
        d = alc.derivation("a", "phi1", "phi3")
        lookups = []
        original = Ars.step
        monkeypatch.setattr(Ars, "step", lambda ars, *key: lookups.append(key) or original(ars, *key))
        grown = d.extended("phi1")
        assert lookups == [("a", "phi1")]
        assert grown == alc.derivation("a", "phi1", "phi3", "phi1")
        assert (grown.targets, grown.target, grown.parent) == (("a", "b", "a", "b"), "b", d)
        with pytest.raises(UndefinedStep) as err:
            d.extended("phi4")
        assert (err.value.source, err.value.label) == ("a", "phi4")

    def test_compose_and_neutral_empty(self, alc):
        left = alc.derivation("a", "phi1")
        right = alc.derivation("b", "phi3")
        assert left.compose(right) == alc.derivation("a", "phi1", "phi3")
        empty = alc.empty_derivation("a")
        assert empty.compose(left) == left
        assert left.compose(alc.empty_derivation("b")) == left
        with pytest.raises(NotComposable):
            left.compose(alc.derivation("a", "phi2"))

    def test_compose_rejects_foreign_system(self, alc):
        other = helpers.alc()
        with pytest.raises(ValueError):
            alc.derivation("a", "phi1").compose(other.derivation("b", "phi3"))

    def test_prefixes_and_factors(self, alc):
        d = alc.derivation("a", "phi1", "phi3", "phi2")
        assert d.prefixes() == [
            alc.derivation("a", "phi1"),
            alc.derivation("a", "phi1", "phi3"),
            d,
        ]
        assert d.strict_prefixes() == d.prefixes()[:-1]
        assert set(d.factors()) == {
            alc.derivation("a", "phi1"),
            alc.derivation("b", "phi3"),
            alc.derivation("a", "phi2"),
            alc.derivation("a", "phi1", "phi3"),
            alc.derivation("b", "phi3", "phi2"),
            d,
        }

    def test_every_way_of_building_is_counted(self, alc):
        # the benchmark's tracer counts builds by replacing Derivation.__post_init__
        d = alc.derivation("a", "phi1", "phi3")  # built without a parent link
        for build, count in [
            (lambda: [Derivation(alc, "a", ("phi1",))], 1),
            (lambda: [d.extended("phi2")], 1),
            (lambda: [d.parent], 1),
            (lambda: d.factors(), 3),
        ]:
            with helpers.counting_builds() as built:
                made = build()
            assert len(built) == count
            assert sorted(built, key=Derivation.sort_key) == made

    def test_prefixes_follow_parent_links(self, alc):
        d = alc.empty_derivation("b").extended("phi3").extended("phi1").extended("phi4")
        assert d.parent.parent == alc.derivation("b", "phi3")
        with helpers.counting_builds() as built:
            prefixes = d.prefixes()
            strict = d.strict_prefixes()
        assert built == []
        assert prefixes == alc.derivation("b", "phi3", "phi1", "phi4").prefixes()
        assert [len(p) for p in prefixes] == [1, 2, 3]
        assert strict == prefixes[:-1]
        assert alc.empty_derivation("a").prefixes() == []
        with pytest.raises(ValueError, match="no parent"):
            alc.empty_derivation("a").parent

    def test_is_prefix_of_requires_same_system(self, alc):
        d = alc.derivation("a", "phi1")
        longer = alc.derivation("a", "phi1", "phi3")
        assert d.is_prefix_of(longer) and d.is_prefix_of(d)
        assert not longer.is_prefix_of(d)
        assert not d.is_prefix_of(helpers.alc().derivation("a", "phi1", "phi3"))

    def test_render(self, alc):
        assert alc.derivation("a", "phi1", "phi4").render() == "a -phi1-> b -phi4-> d"
        assert alc.empty_derivation("c").render() == "c"


class TestLasso:
    def test_validation(self, alc, aloop):
        with pytest.raises(ValueError, match="non-empty"):
            Lasso(alc.empty_derivation("a"), alc.empty_derivation("a"))
        with pytest.raises(NotComposable):
            Lasso(alc.derivation("a", "phi1"), alc.derivation("a", "phi1", "phi3"))
        with pytest.raises(NotComposable):
            Lasso(alc.empty_derivation("a"), alc.derivation("a", "phi1"))
        with pytest.raises(ValueError, match="different systems"):
            Lasso(aloop.empty_derivation("a"), helpers.aloop().derivation("a", "phi1", "phi2"))

    def test_unroll_and_prefixes(self, aloop):
        lasso = Lasso(aloop.empty_derivation("a"), aloop.derivation("a", "phi1", "phi2"))
        assert lasso.unroll(0) == aloop.empty_derivation("a")
        assert lasso.unroll(2) == aloop.derivation("a", "phi1", "phi2", "phi1", "phi2")
        assert lasso.omega_prefix(3) == aloop.derivation("a", "phi1", "phi2", "phi1")
        assert lasso.finite_prefixes(2) == [
            aloop.derivation("a", "phi1"),
            aloop.derivation("a", "phi1", "phi2"),
        ]

    def test_stemmed_prefixes(self, alc):
        lasso = Lasso(alc.derivation("a", "phi1"), alc.derivation("b", "phi3", "phi1"))
        assert lasso.source == "a"
        assert lasso.omega_prefix(1) == alc.derivation("a", "phi1")
        assert lasso.omega_prefix(4) == alc.derivation("a", "phi1", "phi3", "phi1", "phi3")
        assert lasso.render() == "a -phi1-> b ( -phi3-> a -phi1-> b )^w"


class TestEnumeration:
    def test_counts_on_two_selfloop_system(self, ac):
        for k in range(1, 7):
            assert len(enumerate_derivations(ac, k)) == 2 ** (k + 1) - 2

    def test_order_is_deterministic_and_sorted(self, alc):
        ds = enumerate_derivations(alc, 4)
        assert ds == sorted(ds, key=Derivation.sort_key)
        assert len(ds) == len(set(ds))
        assert ds == enumerate_derivations(alc, 4)

    def test_source_filter_and_validation(self, alc):
        from_a = enumerate_derivations(alc, 3, source="a")
        assert all(d.source == "a" for d in from_a)
        assert len(from_a) == 6
        with pytest.raises(ValueError):
            enumerate_derivations(alc, 0)
        with pytest.raises(UnknownSymbol):
            enumerate_derivations(alc, 2, source="zz")

    def test_prefix_completeness(self):
        rng = random.Random(7)
        for _ in range(10):
            ars = helpers.random_dag_ars(rng)
            all_ds = set(enumerate_derivations(ars, len(ars.objects)))
            for d in all_ds:
                assert set(d.strict_prefixes()) <= all_ds

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_enumeration_matches_recursive_count(self, seed, depth):
        ars = helpers.random_dag_ars(random.Random(seed))

        def count(obj: str, budget: int) -> int:
            if budget == 0:
                return 0
            return sum(1 + count(s.target, budget - 1) for s in ars.out_steps(obj))

        expected = sum(count(obj, depth) for obj in ars.objects)
        assert len(enumerate_derivations(ars, depth)) == expected


class TestGraphSearches:
    def test_reachable_objects_bfs_order(self, alc):
        assert reachable_objects(alc, ["a"]) == ["a", "b", "c", "d"]
        assert reachable_objects(alc, ["c"]) == ["c"]
        with pytest.raises(UnknownSymbol):
            reachable_objects(alc, ["zz"])

    def test_shortest_path(self, alc):
        assert shortest_path_to(alc, "a", {"d"}) == alc.derivation("a", "phi1", "phi4")
        assert shortest_path_to(alc, "a", {"a"}) == alc.empty_derivation("a")
        assert shortest_path_to(alc, "c", {"d"}) is None

    def test_simple_cycles(self, alc, ac, aloop, union_sys):
        assert simple_cycles(alc) == [alc.derivation("a", "phi1", "phi3")]
        assert simple_cycles(ac) == [ac.derivation("a", "phi1"), ac.derivation("a", "phi2")]
        assert simple_cycles(aloop) == [aloop.derivation("a", "phi1", "phi2")]
        assert simple_cycles(union_sys) == [
            union_sys.derivation("a", "phi1", "beta1"),
            union_sys.derivation("a", "phi2", "beta2"),
        ]

    def test_shortest_paths_in_discovery_order(self, alc):
        assert list(shortest_paths(alc, "a")) == [
            alc.empty_derivation("a"),
            alc.derivation("a", "phi1"),
            alc.derivation("a", "phi2"),
            alc.derivation("a", "phi1", "phi4"),
        ]
        assert [d.target for d in shortest_paths(alc, "a", 1)] == ["a", "b", "c"]
        assert list(shortest_paths(alc, "c", 0)) == [alc.empty_derivation("c")]

    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_simple_cycles_are_the_short_ones(self, seed):
        rng = random.Random(seed)
        objects = tuple(f"o{i}" for i in range(6))
        ars = Ars(
            objects,
            ("x", "y"),
            [(o, l, rng.choice(objects)) for o in objects for l in ("x", "y") if rng.random() < 0.7],
        )
        every = simple_cycles(ars)
        for bound in range(1, 7):
            assert simple_cycles(ars, bound) == [c for c in every if len(c) <= bound]
        with pytest.raises(ValueError):
            simple_cycles(ars, 0)

    def test_reaches_cycle(self, alc, aloop):
        assert reaches_cycle(alc.out_steps, "a") and reaches_cycle(alc.out_steps, "b")
        assert not reaches_cycle(alc.out_steps, "c") and not reaches_cycle(alc.out_steps, "d")
        assert reaches_cycle(aloop.out_steps, "b")
        assert not reaches_cycle(helpers.random_dag_ars(random.Random(3)).out_steps, "o0")
        with pytest.raises(UnknownSymbol):
            reaches_cycle(alc.out_steps, "zz")

    def test_rotate_cycle(self, alc):
        cycle = alc.derivation("a", "phi1", "phi3")
        assert rotate_cycle(cycle, "b") == alc.derivation("b", "phi3", "phi1")
        assert rotate_cycle(cycle, "a") == cycle
        with pytest.raises(ValueError):
            rotate_cycle(cycle, "c")
