"""Seeded workloads: generated `.ars` documents, CLI operations and their checks.

A workload is a fixed list of operations. The seed chooses the random
systems and the sources, never the number or the kind of the operations or
the strategies, so every seed attempts the same operations in the same order.
Each operation carries a check built from the oracles; a check returns None
when the CLI's exit code and output are right, else the reason they are not.
Laws are checks over the printed derivation sets of several operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles as o

UNIVERSAL = ("universal",)
RECORD_KEYS = ["kind", "verdict", "witness", "count"]


class Wrong(Exception):
    """An output that contradicts its oracle."""


@dataclass
class Op:
    argv: list
    check: Callable[[int, str], str | None]


@dataclass
class Law:
    what: str
    ops: list
    check: Callable[[list], str | None]


@dataclass
class Workload:
    work_dir: str
    files: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)
    laws: list = field(default_factory=list)

    def add(self, argv, check):
        self.ops.append(Op(argv, check))
        return len(self.ops) - 1

    def file(self, name, text):
        """Register a document; returns the path the operations name it by."""
        self.files[name] = text
        return f"{self.work_dir}/{name}"

    def doc(self, name, system, strategies, order):
        """A document with one label order `ord`; returns its path and the oracles' orders."""
        text = o.document(system, [("ord", order)], strategies=[(k, o.strat_text(v)) for k, v in strategies.items()])
        return self.file(name, text), {"ord": o.order_closure(order)}


def record(out):
    lines = out.splitlines()
    if len(lines) != 1:
        raise Wrong(f"expected one JSON record, got {len(lines)} lines")
    rec = json.loads(lines[0])
    if list(rec) != RECORD_KEYS:
        raise Wrong(f"record keys {list(rec)}")
    return rec


def _guard(fn):
    def check(*args):
        try:
            return fn(*args)
        except (Wrong, ValueError, KeyError) as err:
            return f"{type(err).__name__}: {err}"

    return check


def _exact(want, code):
    @_guard
    def check(exit_code, out):
        rec = record(out)
        if (exit_code, rec) != (code, want):
            return f"exit {exit_code} record {rec}, want exit {code} record {want}"
        return None

    return check


# -- checks ---------------------------------------------------------------------


def enumerate_check(system, orders, node, sources, depth):
    if node is None:
        count = o.count_walks(system, sources, depth)
    elif o.memoryless(node) and node[0] != "accept":
        count = o.count_walks(system, sources, depth, o.induced(system, orders, node))
    else:
        count = len(o.accepted_set(system, orders, node, sources, depth))
    return _exact({"kind": "enumerate", "verdict": "ok", "witness": None, "count": count}, 0)


def listing_check(system, orders, node, depth):
    @_guard
    def check(code, out):
        members, count = o.parse_listing(out)
        want = set(o.accepted_set(system, orders, node, system.objects, depth))
        if code != 0 or count != len(members) or members != want:
            return f"exit {code}, {len(members)} members listed, COUNT={count}, oracle has {len(want)}"
        return None

    return check


def apply_check(system, orders, node, source, depth):
    z = o.accepted_set(system, orders, node, [source], depth)
    if z:
        targets = sorted(set(z.values()), key=system.oi.get)
        want = {"kind": "apply", "verdict": "applies", "witness": "{" + ", ".join(targets) + "}", "count": len(targets)}
    else:
        base, _ = o.split_accept(node)
        cyclic = o.memoryless(base) and o.cycle_reachable(system, o.induced(system, orders, base), source)
        want = {"kind": "apply", "verdict": "indeterminate" if cyclic else "fails", "witness": None, "count": 0}
    return _exact(want, 0)


def check_check(system, orders, node, prop, depth):
    @_guard
    def check(code, out):
        z = set(o.accepted_set(system, orders, node, system.objects, depth))
        missing = o.missing_factor(system, z) if prop == "factor" else o.missing_prefix(z)
        holds = missing is None
        rec = record(out)
        want = ["check", "true" if holds else "false", len(z)]
        if [rec["kind"], rec["verdict"], rec["count"]] != want or code != (0 if holds else 3):
            return f"exit {code} record {rec}, oracle says {want}"
        if holds:
            return None if rec["witness"] is None else "witness printed for a holding property"
        src, labels, visited = o.parse_derivation(rec["witness"])
        if system.walk(src, labels) != visited:
            return f"witness {rec['witness']} is not a derivation of the system"
        if (src, labels) in z:
            return f"witness {rec['witness']} is a member"
        inside = o.is_factor_of_member(system, z, src, labels) if prop == "factor" else o.is_prefix_of_member(z, src, labels)
        return None if inside else f"witness {rec['witness']} is no {prop} of a member"

    return check


def witness_check(system, orders, node, horizon, found, sources=None, accept_fn=None, kind="witness", count=0):
    @_guard
    def check(code, out):
        rec = record(out)
        if not found:
            want = {"kind": kind, "verdict": "none", "witness": None, "count": count}
            return None if (code, rec) == (0, want) else f"exit {code} record {rec}, want {want}"
        if [rec["kind"], rec["verdict"], rec["count"], code] != [kind, "found", count, 3]:
            return f"exit {code} record {rec}, want a found {kind} with count {count}"
        reason = o.verify_lasso(system, orders, node, horizon, rec["witness"], sources, accept_fn)
        return None if reason is None else f"{rec['witness']}: {reason}"

    return check


def scenario_check(bound, depth, check):
    system = o.traffic_system(bound)
    allowed = o.safe_controller(system)
    count = o.count_walks(system, o.good_starts(system), depth, allowed)
    if check == "safety":
        if o.bad_state_reachable(system, allowed):
            raise AssertionError("the safety oracle reaches a both-green state")
        return _exact({"kind": "scenario", "verdict": "ok", "witness": None, "count": count}, 0)
    return witness_check(
        system, {}, ("accept", UNIVERSAL, o.FAIRNESS), depth, depth >= 2,
        sources={o.STARVATION_START}, accept_fn=o.fair_by_scan, kind="scenario", count=count,
    )


def _listed(out):
    return o.parse_listing(out)[0]


def intersect_law(outs):
    whole, *parts = (_listed(x) for x in outs)
    return None if whole == set.intersection(*parts) else "intersect is not the intersection of its children"


def union_law(outs):
    whole, *parts = (_listed(x) for x in outs)
    return None if whole == set.union(*parts) else "unionC is not the union of its children"


def prefix_law(outs):
    missing = o.missing_prefix(_listed(outs[0]))
    return None if missing is None else f"support misses the prefix {missing}"


# -- random documents -------------------------------------------------------------


def random_system(rng, n, labels, degree):
    """n objects, each with `degree` steps under distinct labels to random targets.

    A fixed out-degree keeps the number of derivations, and so the cost of
    each operation, from swinging with the seed. So does spreading the labels
    evenly: object i carries labels k_i, k_i + 1, ... (cyclically), with the
    k_i shuffled but evenly spread, so a strategy that restricts or orders
    labels meets about as many steps of each label whatever the seed.
    """
    objects = [f"o{i}" for i in range(n)]
    firsts = [i % len(labels) for i in range(n)]
    rng.shuffle(firsts)
    steps = [(s, labels[(k + j) % len(labels)], rng.choice(objects)) for s, k in zip(objects, firsts) for j in range(degree)]
    return o.System(objects, labels, steps)


ORDER = [("l0", "l1"), ("l1", "l2")]
WORD = ("cat", (("star", ("sym", "l0")), ("sym", "l1"), ("star", ("alt", (("sym", "l0"), ("sym", "l2"))))))
MIXED = ("or", (("and", (("len", ">=", 2), ("not", ("at", "o0")))), ("len", "<", 2)))
L01, L12 = ("restrict", ("l0", "l1")), ("restrict", ("l1", "l2"))

# two strategies of each kind over labels l0..l2, the same for every seed, so
# that the seed changes the systems they run on but not what is asked
STRATEGIES = [
    ("universal",), ("universal",),
    ("greatmost", "ord"), ("intersect", (("greatmost", "ord"), L12)),
    L01, L12,
    ("maxlen", 3), ("maxlen", 4),
    ("alternate", ("l0",), ("l1", "l2")), ("alternate", ("l0", "l1"), ("l2",)),
    ("intersect", (L01, ("maxlen", 4))), ("intersect", (("greatmost", "ord"), ("alternate", ("l0", "l2"), ("l1",)))),
    ("unionP", ("restrict", ("l0",)), ("restrict", ("l1",))), ("unionP", ("greatmost", "ord"), ("maxlen", 3)),
    ("unionC", L01, L12), ("unionC", ("alternate", ("l0",), ("l1",)), ("maxlen", 3)),
    ("accept", ("universal",), ("word", WORD)), ("accept", ("restrict", ("l0", "l2")), MIXED),
]
LAW_PAIRS = [
    (L01, ("maxlen", 4)),
    (("alternate", ("l0",), ("l1", "l2")), ("universal",)),
    (("greatmost", "ord"), L12),
    (("maxlen", 3), ("alternate", ("l0", "l1"), ("l2",))),
]
MEMORIED = [("alternate", ("l0", "l2"), ("l1",)), ("unionC", L01, ("maxlen", 3)), ("maxlen", 3)]


LOOP_DOCS = 16
CLOSED_DOCS = 4


# -- the three workloads ------------------------------------------------------------


def shuffled_names(rng, prefix, n):
    """Object names prefix0..prefix{n-1}, declared in order but wired by a seeded permutation."""
    names = [f"{prefix}{i}" for i in range(n)]
    wired = names[:]
    rng.shuffle(wired)
    return names, wired


def trap_blob(wired, first, second):
    """A shift graph: object i steps to 2i and 2i+1 (mod n), so it has many cycles."""
    n = len(wired)
    return [(wired[i], first, wired[2 * i % n]) for i in range(n)] + [
        (wired[i], second, wired[(2 * i + 1) % n]) for i in range(n)
    ]


def loop_with_exit(rng, ring, trap):
    """A ring of `ring` objects with one exit to a sink, after a `trap` of cycles.

    The trap objects come first, so their lassos are tried first, but the
    sink cannot be reached from them, so none of them is a witness. Only
    derivations ending in the sink are accepted, and from anywhere on the
    ring the sink is at most `ring` steps away, so the ring's own lasso is a
    witness exactly when the ring fits the horizon.
    """
    names, wired = shuffled_names(rng, "t", trap)
    objects = names + [f"c{i}" for i in range(ring)] + ["sink"]
    steps = [(f"c{i}", "step", f"c{(i + 1) % ring}") for i in range(ring)]
    steps.append((f"c{rng.randrange(ring)}", "out", "sink"))
    return o.System(objects, ["step", "side", "back", "out"], steps + trap_blob(wired, "side", "back"))


def witness_workload(seed, work_dir):
    rng = random.Random(seed)
    w = Workload(work_dir)
    # the witness search on the traffic system of queue bound 1 (the system of
    # traffic_document(1)) from its starvation start; `witness` on the document
    # itself tries all 16 sources and takes 2 s a call, too long for its
    # shortest repetition to escape interference from outside the machine
    w.add(["--machine", "scenario", "traffic", "--queue-bound", "1", "--depth", "4", "--check", "fairness"],
          scenario_check(1, 4, "fairness"))
    exit_at = ("at", "sink")
    exit_word = ("word", ("cat", (("star", ("alt", (("sym", "step"), ("sym", "side"), ("sym", "back")))), ("sym", "out"))))
    # loop-with-exit documents: a ring of 3 gives a witness, a ring of 5 none
    for i in range(LOOP_DOCS):
        ring, node = (3, ("accept", UNIVERSAL, exit_word)) if i % 4 else (5, ("accept", UNIVERSAL, exit_at))
        system = loop_with_exit(rng, ring, 4)
        path, _ = w.doc(f"loop{i}.ars", system, {"eventually_out": node}, [("step", "out")])
        w.add(["--machine", "witness", "-f", path, "-s", "eventually_out", "--horizon", "4"],
              witness_check(system, {}, node, 4, ring <= 4))
    # prefix-closed accepted sets: no witness exists, so every candidate is tried
    labels = ("l0", "l1", "l2")
    anywhere = ("star", ("alt", tuple(("sym", l) for l in labels)))
    for i in range(CLOSED_DOCS):
        names, wired = shuffled_names(rng, "o", 6)
        steps = trap_blob(wired, "l0", "l1") + [(wired[j], "l2", wired[(j + 3) % 6]) for j in range(0, 6, 2)]
        system = o.System(names, labels, steps)
        avoid = ("not", ("word", ("cat", (anywhere, ("sym", rng.choice(labels)), anywhere))))
        cond = [("len", "<=", 6), avoid, ("or", (avoid, ("len", "<", 3))), ("and", (avoid, ("len", "<=", 5)))][i % 4]
        node = ("accept", UNIVERSAL, cond)
        path, orders = w.doc(f"closed{i}.ars", system, {"prefix_closed": node}, ORDER)
        w.add(["--machine", "witness", "-f", path, "-s", "prefix_closed", "--horizon", "3"],
              witness_check(system, orders, node, 3, False))
    return w


def support_workload(seed, work_dir):
    rng = random.Random(seed)
    w = Workload(work_dir)
    traffic = w.file("traffic1.ars", o.traffic_document(1))
    t1 = o.traffic_system(1)
    fair_runs = ("accept", UNIVERSAL, o.FAIRNESS)
    for prop in ("prefix", "factor", "closed"):
        w.add(["--machine", "check", "-f", traffic, "-s", "fair_runs", "--prop", prop, "--depth", "3"],
              check_check(t1, {}, fair_runs, prop, 3))
    w.add(["--machine", "check", "-f", traffic, "-s", "all", "--prop", "prefix", "--depth", "4"],
          check_check(t1, {}, UNIVERSAL, "prefix", 4))
    for bound, depth in ((1, 7), (2, 5), (3, 4)):
        w.add(["--machine", "scenario", "traffic", "--queue-bound", str(bound), "--depth", str(depth), "--check", "safety"],
              scenario_check(bound, depth, "safety"))
    labels = ("l0", "l1", "l2")
    # one random system per strategy, each checked for all three properties
    for i, node in enumerate(STRATEGIES):
        system = random_system(rng, 7, labels, 2)
        path, orders = w.doc(f"check{i}.ars", system, {"s": node}, ORDER)
        for prop in ("prefix", "factor", "closed"):
            w.add(["--machine", "check", "-f", path, "-s", "s", "--prop", prop, "--depth", "5"],
                  check_check(system, orders, node, prop, 5))
    # paper laws on printed supports: intersect and unionC against their children
    for i, (left, right) in enumerate(LAW_PAIRS):
        system = random_system(rng, 6, labels, 2)
        named = {"left": left, "right": right, "meet": ("intersect", (left, right)), "join": ("unionC", left, right)}
        path, orders = w.doc(f"law{i}.ars", system, named, ORDER)
        idx = {
            name: w.add(["enumerate", "-f", path, "-s", name, "--depth", "5"], listing_check(system, orders, node, 5))
            for name, node in named.items()
        }
        w.laws.append(Law("intersect law", [idx["meet"], idx["left"], idx["right"]], intersect_law))
        w.laws.append(Law("unionC law", [idx["join"], idx["left"], idx["right"]], union_law))
        w.laws.append(Law("support prefix-closed", [idx["join"]], prefix_law))
    return w


def ring_document(n):
    system = o.System([f"o{i}" for i in range(n)], ["next"], [(f"o{i}", "next", f"o{(i + 1) % n}") for i in range(n)])
    return system, o.document(system, strategies=[("all", "universal")])


def queries_workload(seed, work_dir):
    rng = random.Random(seed)
    w = Workload(work_dir)
    # many small documents: one enumerate, apply and check each at depth <= 3
    labels = ("l0", "l1", "l2")
    for i in range(36):
        system = random_system(rng, 4 + i % 5, labels, 1 + i % 3)
        node = STRATEGIES[i % len(STRATEGIES)]
        path, orders = w.doc(f"small{i}.ars", system, {"s": node}, ORDER)
        src = rng.choice(system.objects)
        depth = 2 + i % 2
        prop = ("prefix", "factor", "closed")[i % 3]
        w.add(["--machine", "enumerate", "-f", path, "-s", "s", "--depth", str(depth)],
              enumerate_check(system, orders, node, system.objects, depth))
        w.add(["--machine", "apply", "-f", path, "-s", "s", "--from", src, "--depth", "3"],
              apply_check(system, orders, node, src, 3))
        w.add(["--machine", "check", "-f", path, "-s", "s", "--prop", prop, "--depth", str(depth)],
              check_check(system, orders, node, prop, depth))
    # mid-sized documents: queries from one source; `short` keeps apply off cycle search
    labels = ("l0", "l1", "l2", "l3")
    for i in range(8):
        system = random_system(rng, 40 + 10 * (i % 3), labels, 2)
        named = {"short": ("maxlen", 4), "pick": MEMORIED[i % 3]}
        path, orders = w.doc(f"mid{i}.ars", system, named, ORDER)
        src = rng.choice(system.objects)
        w.add(["--machine", "enumerate", "-f", path, "--from", src, "--depth", "3"],
              enumerate_check(system, orders, None, [src], 3))
        w.add(["--machine", "enumerate", "-f", path, "-s", "pick", "--from", src, "--depth", "3"],
              enumerate_check(system, orders, named["pick"], [src], 3))
        w.add(["--machine", "apply", "-f", path, "-s", "short", "--from", src, "--depth", "3"],
              apply_check(system, orders, named["short"], src, 3))
        w.add(["--machine", "check", "-f", path, "-s", "pick", "--prop", "prefix", "--depth", "2"],
              check_check(system, orders, named["pick"], "prefix", 2))
    # large documents, where parsing and building the system dominate
    labels = ("l0", "l1", "l2")
    for i, n in enumerate((1000, 1200, 1500)):
        system = random_system(rng, n, labels, 2)
        named = {"short": ("maxlen", 4), "all": UNIVERSAL}
        path, orders = w.doc(f"large{i}.ars", system, named, ORDER)
        src = rng.choice(system.objects)
        w.add(["--machine", "enumerate", "-f", path, "-s", "all", "--from", src, "--depth", "3"],
              enumerate_check(system, orders, UNIVERSAL, [src], 3))
        w.add(["--machine", "apply", "-f", path, "-s", "short", "--from", src, "--depth", "3"],
              apply_check(system, orders, named["short"], src, 3))
    # a valid 1,200-object ring: the answer is {o1, o2}, but the cycle search
    # recurses once per object and raises RecursionError, so this op fails today
    ring, text = ring_document(1200)
    w.add(["--machine", "apply", "-f", w.file("ring.ars", text), "-s", "all", "--from", "o0", "--depth", "2"],
          apply_check(ring, {}, UNIVERSAL, "o0", 2))
    return w


WORKLOADS = {"witness": witness_workload, "support": support_workload, "queries": queries_workload}
