"""Exception types shared across the engine.

Every error raised by the package derives from StratError so callers can
catch engine failures without also swallowing programming mistakes.
"""

from __future__ import annotations


class StratError(Exception):
    """Base class for all engine errors."""


class UnknownSymbol(StratError):
    """A name is not among the declared objects or labels."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown symbol {name!r}")
        self.name = name


class ObjectLabelOverlap(StratError):
    """Objects and labels must be disjoint name sets."""

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__(f"names used both as object and label: {', '.join(names)}")
        self.names = names


class FunctionalityViolation(StratError):
    """Two steps share a source and label but disagree on the target."""

    def __init__(self, source: str, label: str, target_a: str, target_b: str) -> None:
        super().__init__(
            f"step ({source}, {label}, ...) maps to both {target_a} and {target_b}"
        )
        self.source = source
        self.label = label
        self.target_a = target_a
        self.target_b = target_b


class UndefinedStep(StratError):
    """A derivation asked for a (source, label) pair with no declared step."""

    def __init__(self, source: str, label: str) -> None:
        super().__init__(f"no step from {source} with label {label}")
        self.source = source
        self.label = label


class NotComposable(StratError):
    """Composition requires the first target to meet the second source."""

    def __init__(self, at: str, wants: str) -> None:
        super().__init__(f"cannot compose: first ends at {at}, second starts at {wants}")
        self.at = at
        self.wants = wants


class UnknownObject(StratError):
    """Strategy application was asked about a name that is not an object."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown object {name!r}")
        self.name = name


class MemoryRequired(StratError):
    """An operation limited to memoryless strategies got a memoried one."""


class CyclicOrder(StratError):
    """A label order whose transitive closure is not irreflexive."""

    def __init__(self, label: str) -> None:
        super().__init__(f"order is cyclic at {label}")
        self.label = label


class NotPrefixClosed(StratError):
    """Set lacks a prefix of one of its members."""

    def __init__(self, missing) -> None:
        super().__init__(f"set is not prefix-closed: missing {missing.render()}")
        self.missing = missing


class NotFactorClosed(StratError):
    """Set lacks a factor of one of its members."""

    def __init__(self, missing) -> None:
        super().__init__(f"set is not factor-closed: missing {missing.render()}")
        self.missing = missing


class NotCompositionClosed(StratError):
    """Set lacks the composition of two composable members."""

    def __init__(self, missing) -> None:
        super().__init__(f"set is not composition-closed: missing {missing.render()}")
        self.missing = missing


class NoWitnessUpToHorizon(StratError):
    """Bounded witness search exhausted the horizon without a find."""

    def __init__(self, horizon: int) -> None:
        super().__init__(f"no witness up to horizon {horizon}")
        self.horizon = horizon
