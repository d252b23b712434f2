"""Strategies as explicit sets of derivations.

An AbstractStrategy holds a finite set of non-empty finite derivations plus a
finite set of lassos standing for its eventually periodic infinite members.
Application and the closure checkers (prefix, factor, composition, closed)
operate on this representation.

The closedness check is representation-relative. A missing prefix of a member
is always a genuine limit point outside the set, so the prefix side is checked
directly (lasso prefixes up to |stem| + 2|cycle| included). On the omega side,
any infinite limit point of the represented set must share arbitrarily long
prefixes with one of the finitely many lassos and is therefore equal to one of
them, so it is already a member; nothing needs checking beyond the lassos the
set carries.

Factor closure needs no factor built while it holds. The non-empty factors of
a derivation d of length two or more are d itself and the factors of d[:-1]
and of d[1:], so all of d's strict factors are members iff d[:-1] and d[1:]
are members whose own strict factors are all members. One pass over the
members by increasing length decides this for each of them. The first member
in sort order with a missing factor is the least member for which it fails,
so building only that member's factors names the same first missing factor as
scanning every member's factors in order.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .ars import Ars, Derivation, Lasso
from .errors import UnknownObject
from .value import Value


class ApplicationStatus(enum.Enum):
    APPLIES = "applies"
    FAILS = "fails"
    INDETERMINATE = "indeterminate"


class ApplicationResult(Value):
    """Outcome of applying a strategy to an object."""

    status: ApplicationStatus
    targets: tuple[str, ...] = ()
    witnesses: tuple = ()

    @property
    def applies(self) -> bool:
        return self.status is ApplicationStatus.APPLIES


class AbstractStrategy(Value):
    """A set of non-empty derivations over one reduction system."""

    ars: Ars
    finite_part: frozenset[Derivation] = frozenset()
    lasso_part: frozenset[Lasso] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "finite_part", frozenset(self.finite_part))
        object.__setattr__(self, "lasso_part", frozenset(self.lasso_part))
        for d in self.finite_part:
            if d.ars is not self.ars:
                raise ValueError("member belongs to a different system")
            if d.is_empty:
                raise ValueError("the empty derivation cannot be a strategy member")
        for l in self.lasso_part:
            if l.ars is not self.ars:
                raise ValueError("lasso belongs to a different system")

    def members(self) -> tuple[Derivation, ...]:
        """Finite members in deterministic order."""
        return tuple(sorted(self.finite_part, key=Derivation.sort_key))

    def lassos(self) -> tuple[Lasso, ...]:
        return tuple(sorted(self.lasso_part, key=Lasso.sort_key))

    def domain(self) -> tuple[str, ...]:
        """Objects some member (finite or infinite) starts from."""
        names = {d.source for d in self.finite_part} | {l.source for l in self.lasso_part}
        return tuple(sorted(names, key=self.ars.object_index))

    def apply(self, obj: str) -> ApplicationResult:
        """Targets of finite members from obj; Fails/Indeterminate otherwise."""
        if not self.ars.has_object(obj):
            raise UnknownObject(obj)
        finite_from = [d for d in self.members() if d.source == obj]
        if finite_from:
            targets = tuple(
                sorted({d.target for d in finite_from}, key=self.ars.object_index)
            )
            return ApplicationResult(ApplicationStatus.APPLIES, targets, tuple(finite_from))
        lassos_from = tuple(l for l in self.lassos() if l.source == obj)
        if lassos_from:
            return ApplicationResult(ApplicationStatus.INDETERMINATE, (), lassos_from)
        return ApplicationResult(ApplicationStatus.FAILS)

    def __contains__(self, item) -> bool:
        if isinstance(item, Derivation):
            return item in self.finite_part
        if isinstance(item, Lasso):
            return item in self.lasso_part
        return False

    def size(self) -> int:
        return len(self.finite_part) + len(self.lasso_part)


class ClosureVerdict(Value):
    """Result of a closure check; falsy iff a counterexample was found."""

    holds: bool
    culprits: tuple = ()
    missing: Derivation | None = None

    def __bool__(self) -> bool:
        return self.holds


_HOLDS = ClosureVerdict(True)


def _lasso_prefix_bound(lasso: Lasso) -> int:
    return len(lasso.stem) + 2 * len(lasso.cycle)


def is_prefix_closed(z: AbstractStrategy) -> ClosureVerdict:
    """Every strict prefix of a member is a member.

    Lassos contribute the prefixes of stem . cycle^omega up to length
    |stem| + 2|cycle|; those must appear among the finite members.
    """
    have = z.finite_part
    for d in z.members():
        for p in d.strict_prefixes():
            if p not in have:
                return ClosureVerdict(False, (d,), p)
    for l in z.lassos():
        for p in l.finite_prefixes(_lasso_prefix_bound(l)):
            if p not in have:
                return ClosureVerdict(False, (l,), p)
    return _HOLDS


def is_factor_closed(z: AbstractStrategy) -> ClosureVerdict:
    """Every factor of a finite member is a member.

    ok[key] says whether all of a member's strict factors are members, by the
    recurrence of the module docstring; only the least member that is not ok
    has its factors built, to name the first one missing.
    """
    ok: dict[tuple[str, tuple[str, ...]], bool] = {}
    for d in sorted(z.finite_part, key=len):
        labels = d.labels
        ok[d.source, labels] = len(labels) == 1 or (
            ok.get((d.source, labels[:-1]), False) and ok.get((d.targets[1], labels[1:]), False)
        )
    bad = [d for d in z.finite_part if not ok[d.source, d.labels]]
    if not bad:
        return _HOLDS
    d = min(bad, key=Derivation.sort_key)
    return ClosureVerdict(False, (d,), next(f for f in d.factors() if f not in z.finite_part))


def is_composition_closed(z: AbstractStrategy) -> ClosureVerdict:
    """Every composition of two composable finite members is a member.

    Compositions are looked up by labels among the members from their source.
    Length classes are taken shortest first and sorted only when reached, so
    the first d1 with a missing composition, and its least missing partner
    d2, are those that scanning members() in order for both parts finds.
    """
    starting: dict[str, list[Derivation]] = {}
    words: dict[str, set[tuple[str, ...]]] = {}
    by_length: dict[int, list[Derivation]] = {}
    for d in z.finite_part:
        starting.setdefault(d.source, []).append(d)
        words.setdefault(d.source, set()).add(d.labels)
        by_length.setdefault(len(d), []).append(d)
    for length in sorted(by_length):
        for d1 in sorted(by_length[length], key=Derivation.sort_key):
            have, labels = words[d1.source], d1.labels
            unmet = [d2 for d2 in starting.get(d1.target, ()) if labels + d2.labels not in have]
            if unmet:
                d2 = min(unmet, key=Derivation.sort_key)
                return ClosureVerdict(False, (d1, d2), d1.compose(d2))
    return _HOLDS


def is_closed(z: AbstractStrategy) -> ClosureVerdict:
    """Whether the represented set contains all its limit points.

    A missing prefix of a member (including the bounded lasso prefixes) is a
    limit point outside the set and is returned as the witness. Infinite limit
    points need no search: they coincide with the set's own lassos (see the
    module docstring), so for this representation closedness reduces to the
    prefix-membership check. For lasso-free finite sets this makes is_closed
    and is_prefix_closed agree, as they must.
    """
    return is_prefix_closed(z)


def prefix_closure(z: AbstractStrategy) -> AbstractStrategy:
    """Smallest prefix-closed superset (bounded lasso prefixes included)."""
    grown = set(z.finite_part)
    for d in z.finite_part:
        grown.update(d.strict_prefixes())
    for l in z.lasso_part:
        grown.update(l.finite_prefixes(_lasso_prefix_bound(l)))
    return AbstractStrategy(z.ars, frozenset(grown), z.lasso_part)
