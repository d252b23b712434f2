"""The benchmark's tracer against the names of strat it wraps.

stratbench/tracing.py wraps public functions of strat by name, in every strat
module namespace that holds them and in the CLI's check table, and wraps
methods on strat's classes; it is imported here read-only, as test_oracles
imports the benchmark's workloads. A name it wraps that strat no longer has
would make every traced benchmark run raise AttributeError, and a wrapper left
in place after uninstall would change what later calls in the process time.
"""

from __future__ import annotations

import sys
from pathlib import Path

import strat.cli  # noqa: F401 (the tracer reads its check table)

sys.path.insert(0, str(Path(__file__).parent.parent / "stratbench"))

import tracing  # noqa: E402


def _bindings() -> dict[tuple, object]:
    """Every name bound in a strat module, in the CLI's check table and in the
    namespace of a class that a strat module defines, with what it is bound to."""
    out: dict[tuple, object] = {}
    for name, module in list(sys.modules.items()):
        if name == "strat" or name.startswith("strat."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type) and value.__module__.startswith("strat"):
                    for key, member in vars(value).items():
                        out[value, key] = member
    for key, value in sys.modules["strat.cli"]._CHECKS.items():
        out["check", key] = value
    return out


def test_install_wraps_every_timed_name_and_uninstall_puts_each_back():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, module, names in tracing.TIMED:
            for name in names:
                assert getattr(sys.modules[f"strat.{module}"], name) is not before[f"strat.{module}", name], name
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
