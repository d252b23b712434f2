"""A two-signal traffic intersection as a finite reduction system.

States track the queue length and signal state of two crossing directions
and render as `s_q1_l1_q2_l2`. Six step schemas: car1/car2 join a queue
(blocked at the bound), signal1/signal2 toggle a signal, cross1/cross2 let a
waiting car cross on green. The safety controller never_both_green blocks
exactly the signal toggles that would turn both signals green; the fairness
condition accepts the traces in which every arrival is eventually followed by
a matching crossing, and fairness_nonclosed_witness exhibits a lasso that
starves the waiting car while staying extendable to fair traces forever.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import rational, speclang
from .ars import Ars, Derivation, Lasso, reaching_objects, shortest_steps
from .errors import NoWitnessUpToHorizon
from .intensional import FromTable, Strategy, TableEntry, Universal, induced
from .logic import AcceptCondition, And, LabelWordIn, LogicalStrategy, nonclosed_witness
from .value import Value

LABELS = ("car1", "car2", "signal1", "signal2", "cross1", "cross2")
_SIGNALS = ("signal1", "signal2")
_symbol = "s_{}_{}_{}_{}".format  # TrafficState.symbol of (q1, l1, q2, l2)


class TrafficState(Value):
    """Queue lengths and signal states of the two directions."""

    q1: int
    l1: int
    q2: int
    l2: int

    @property
    def symbol(self) -> str:
        return f"s_{self.q1}_{self.l1}_{self.q2}_{self.l2}"

    @classmethod
    def from_symbol(cls, name: str) -> "TrafficState":
        head, *parts = name.split("_")
        if head != "s" or len(parts) != 4:
            raise ValueError(f"not a traffic state symbol: {name!r}")
        q1, l1, q2, l2 = (int(p) for p in parts)
        return cls(q1, l1, q2, l2)

    @property
    def both_green(self) -> bool:
        return self.l1 == 1 and self.l2 == 1


def build_traffic_ars(queue_bound: int) -> Ars:
    """The intersection system with queues bounded by queue_bound >= 1."""
    if queue_bound < 1:
        raise ValueError("queue_bound must be at least 1")
    states = list(product(range(queue_bound + 1), (0, 1), range(queue_bound + 1), (0, 1)))
    steps: list[tuple[str, str, str]] = []
    for q1, l1, q2, l2 in states:
        moves = (
            ("car1", q1 < queue_bound, (q1 + 1, l1, q2, l2)),
            ("car2", q2 < queue_bound, (q1, l1, q2 + 1, l2)),
            ("signal1", True, (q1, 1 - l1, q2, l2)),
            ("signal2", True, (q1, l1, q2, 1 - l2)),
            ("cross1", l1 == 1 and q1 >= 1, (q1 - 1, l1, q2, l2)),
            ("cross2", l2 == 1 and q2 >= 1, (q1, l1, q2 - 1, l2)),
        )
        here = _symbol(q1, l1, q2, l2)
        steps.extend((here, label, _symbol(*after)) for label, enabled, after in moves if enabled)
    return Ars(tuple(_symbol(*st) for st in states), LABELS, steps)


@lru_cache(maxsize=1)
def _both_green(objects: tuple[str, ...]) -> frozenset[str]:
    """The both-green states among objects, kept for the last system asked: one read per flag."""
    return frozenset(s for s in objects if TrafficState.from_symbol(s).both_green)


def good_starts(ars: Ars) -> tuple[str, ...]:
    """States legal as starts for safety claims: not both signals green."""
    bad = _both_green(ars.objects)
    return tuple(s for s in ars.objects if s not in bad)


def never_both_green(ars: Ars) -> Strategy:
    """Memoryless controller permitting everything but toggles into both-green."""
    bad = _both_green(ars.objects)
    entries = []
    for obj in ars.objects:
        keep = frozenset(s for s in ars.out_steps(obj) if not (s.label in _SIGNALS and s.target in bad))
        entries.append(TableEntry(head=obj, steps=keep))
    return FromTable(tuple(entries))


def _eventually_released(trigger: str, release: str) -> object:
    """Words in which every `trigger` is followed later by a `release`."""
    not_trigger = rational.alternation([rational.Sym(x) for x in LABELS if x != trigger])
    not_release = rational.alternation([rational.Sym(x) for x in LABELS if x != release])
    block = rational.concat(
        [
            rational.Star(not_trigger),
            rational.Sym(trigger),
            rational.Star(not_release),
            rational.Sym(release),
        ]
    )
    return rational.concat([rational.Star(block), rational.Star(not_trigger)])


def fairness_condition() -> AcceptCondition:
    """Accepts traces in which every arrival gets a later matching crossing."""
    return And(
        (
            LabelWordIn(_eventually_released("car1", "cross1")),
            LabelWordIn(_eventually_released("car2", "cross2")),
        )
    )


STARVATION_START = "s_1_0_1_1"


def fairness_nonclosed_witness(ars: Ars, horizon: int) -> Lasso:
    """The starvation lasso at the exemplar start, or NoWitnessUpToHorizon.

    The search is pinned to the state with one car waiting on red while the
    other direction holds green; its cross2.car2 loop keeps direction 2
    flowing forever while the queued car in direction 1 never crosses.
    """
    if horizon < 2:
        raise NoWitnessUpToHorizon(horizon)
    ls = LogicalStrategy(Universal(), fairness_condition())
    witness = nonclosed_witness(ls, ars, horizon, sources=(STARVATION_START,))
    if witness is None:
        raise NoWitnessUpToHorizon(horizon)
    return witness


def safety_violation(ars: Ars, strategy: Strategy) -> Derivation | None:
    """Shortest reach of a both-green state from a good start, if any.

    Searches the sub-system the (memoryless) strategy induces: one backward
    search from the both-green states finds the good starts that reach one,
    and the path is searched from the first of them only. None means no
    both-green state is reachable from any good start under the strategy.
    """
    out = induced(strategy, ars)
    bad = _both_green(ars.objects)
    reaching = reaching_objects(ars.objects, out, bad)
    start = next((s for s in good_starts(ars) if s in reaching), None)
    if start is None:
        return None
    path = next(steps for obj, steps in shortest_steps(out, start) if obj in bad)
    return Derivation(ars, start, tuple(s.label for s in path))


def traffic_document(queue_bound: int) -> str:
    """A .ars document for the intersection: system, fairness, queries."""
    ars = build_traffic_ars(queue_bound)
    fair = speclang.AAnd(
        (
            speclang.AWord(_eventually_released("car1", "cross1")),
            speclang.AWord(_eventually_released("car2", "cross2")),
        )
    )
    doc = speclang.SpecDocument(
        objects=ars.objects,
        labels=ars.labels,
        steps=tuple((s.source, s.label, s.target) for s in ars.steps),
        orders=(),
        accepts=(("fair", fair),),
        strategies=(
            ("all", speclang.SUniversal()),
            ("fair_runs", speclang.SAccept(speclang.SUniversal(), speclang.ARef("fair"))),
        ),
        queries=(speclang.QWitness("fair_runs", 6),),
    )
    return speclang.serialize(doc)
