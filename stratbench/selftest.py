"""Checks of the oracles against the documented answers of the sample documents.

The step tables below are the benchmark's own copies of samples/*.ars; the
expected answers are the ones the repository README and CLI tests document.
Run with `python3 stratbench/selftest.py`; run.py also calls selftest()
before every measurement.
"""

from __future__ import annotations

import random

import oracles as o

A_LC = o.System(
    "abcd", ("phi1", "phi2", "phi3", "phi4"),
    [("a", "phi1", "b"), ("a", "phi2", "c"), ("b", "phi3", "a"), ("b", "phi4", "d")],
)
A_LOOP = o.System("ab", ("phi1", "phi2"), [("a", "phi1", "b"), ("b", "phi2", "a")])
A_C = o.System("a", ("phi1", "phi2"), [("a", "phi1", "a"), ("a", "phi2", "a")])
EVENTUAL = o.System("ab", ("loop", "exit"), [("a", "loop", "a"), ("a", "exit", "b")])
UNION_PAIR = o.System(
    ("a", "b1", "b2"), ("phi1", "phi2", "beta1", "beta2"),
    [("a", "phi1", "b1"), ("a", "phi2", "b2"), ("b1", "beta1", "a"), ("b2", "beta2", "a")],
)

ORDERS = {"asc": o.order_closure([("phi1", "phi2"), ("phi2", "phi3"), ("phi3", "phi4")])}
TO_C = ("word", ("cat", (("star", ("cat", (("sym", "phi1"), ("sym", "phi3")))), ("sym", "phi2"))))
EVENTUALLY_C = ("accept", ("universal",), TO_C)
EVENTUALLY_EXIT = ("accept", ("universal",), ("word", ("cat", (("star", ("sym", "loop")), ("sym", "exit")))))
UNIVERSAL = ("universal",)


def _expect(what, got, want):
    if got != want:
        raise AssertionError(f"oracle self-test: {what}: got {got!r}, want {want!r}")


def _apply_targets(system, node, source, depth):
    z = o.accepted_set(system, ORDERS, node, [source], depth)
    return sorted(set(z.values()), key=system.oi.get)


def selftest():
    # enumerate -f a_loop.ars --from a --depth 2 -> 2 derivations
    _expect("a_loop enumerate", o.count_walks(A_LOOP, ["a"], 2), 2)
    # enumerate -f a_lc.ars -s gm --depth 4 -> a -phi2-> c, b -phi4-> d
    gm = o.accepted_set(A_LC, ORDERS, ("greatmost", "asc"), A_LC.objects, 4)
    _expect("a_lc gm", sorted(gm), [("a", ("phi2",)), ("b", ("phi4",))])
    # apply -s all --from a --depth 3 -> {a, b, c, d}; eventually_c from d -> FAILS
    _expect("a_lc apply all", _apply_targets(A_LC, UNIVERSAL, "a", 3), list("abcd"))
    _expect("a_lc apply eventually_c", _apply_targets(A_LC, EVENTUALLY_C, "d", 3), [])
    _expect("a_lc cycle from d", o.cycle_reachable(A_LC, o.induced(A_LC, ORDERS, UNIVERSAL), "d"), False)
    # apply -f a_c.ars -s flip --from a --depth 3 -> applies {a}
    flip = ("alternate", ("phi1",), ("phi2",))
    _expect("a_c flip", _apply_targets(A_C, flip, "a", 3), ["a"])
    _expect("a_c flip count", len(o.accepted_set(A_C, ORDERS, flip, ["a"], 3)), 3)
    # check -s eventually_c --prop prefix --depth 3 -> false, a -phi1-> b, count 2
    z = set(o.accepted_set(A_LC, ORDERS, EVENTUALLY_C, A_LC.objects, 3))
    _expect("a_lc eventually_c count", len(z), 2)
    _expect("a_lc eventually_c prefix", o.missing_prefix(z) is None, False)
    _expect("a_lc witness missing", ("a", ("phi1",)) in z, False)
    _expect("a_lc witness is prefix", o.is_prefix_of_member(z, "a", ("phi1",)), True)
    # check -f a_loop.ars -s all --prop prefix --depth 4 -> true
    _expect("a_loop prefix", o.missing_prefix(set(o.accepted_set(A_LOOP, ORDERS, UNIVERSAL, "ab", 4))), None)
    # witness -f eventual.ars -s eventually_exit --horizon 4 -> a ( -loop-> a )^w
    _expect("eventual lasso", o.verify_lasso(EVENTUAL, ORDERS, EVENTUALLY_EXIT, 4, "a ( -loop-> a )^w"), None)
    bad = o.verify_lasso(EVENTUAL, ORDERS, UNIVERSAL, 4, "a ( -loop-> a )^w")
    _expect("universal lasso is no witness", bad is None, False)
    # scenario traffic --queue-bound 1: support 4886 at depth 6, 114 at depth 2;
    # 174 without the controller, which reaches both-green
    t1 = o.traffic_system(1)
    safe = o.safe_controller(t1)
    _expect("traffic states and steps", (len(t1.objects), len(t1.steps())), (16, 56))
    _expect("traffic support 6", o.count_walks(t1, o.good_starts(t1), 6, safe), 4886)
    _expect("traffic support 2", o.count_walks(t1, o.good_starts(t1), 2, safe), 114)
    _expect("traffic universal 2", o.count_walks(t1, o.good_starts(t1), 2), 174)
    _expect("traffic safe", o.bad_state_reachable(t1, safe), False)
    _expect("traffic unsafe", o.bad_state_reachable(t1, {s: frozenset(t1.labels) for s in t1.objects}), True)
    starve = "s_1_0_1_1 ( -cross2-> s_1_0_0_1 -car2-> s_1_0_1_1 )^w"
    fair_ls = ("accept", UNIVERSAL, o.FAIRNESS)
    _expect("starvation lasso", o.verify_lasso(t1, {}, fair_ls, 6, starve, accept_fn=o.fair_by_scan), None)
    # union_pair: unionC generates exactly the union, unionP strictly more
    left, right = ("restrict", ("phi1", "beta1")), ("restrict", ("phi2", "beta2"))
    sets = {
        k: set(o.accepted_set(UNION_PAIR, ORDERS, n, ["a"], 4))
        for k, n in (("l", left), ("r", right), ("c", ("unionC", left, right)), ("p", ("unionP", left, right)))
    }
    _expect("unionC is the union", sets["c"], sets["l"] | sets["r"])
    _expect("unionP is larger", sets["p"] > sets["c"], True)
    # the support enumeration and the walk count agree; re and the scan agree
    _expect("count vs support", len(o.support(t1, {}, UNIVERSAL, t1.objects, 4)), o.count_walks(t1, t1.objects, 4))
    rng = random.Random(1)
    for _ in range(300):
        word = tuple(rng.choice(o.TRAFFIC_LABELS) for _ in range(rng.randrange(9)))
        _expect(f"fairness of {word}", o.accepts(t1, o.FAIRNESS, word, None), o.fair_by_scan(word))


if __name__ == "__main__":
    selftest()
    print("oracle self-test passed")
