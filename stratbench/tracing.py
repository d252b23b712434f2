"""Per-layer spans and counters around the public functions of `strat`.

install() replaces each function in every `strat` module namespace that
holds it (callers in cli, logic, intensional and traffic look names up in
their own module), in the check table of the CLI, and on the classes whose
methods are counted; uninstall() puts the originals back. Nothing here
changes what the program computes.

A timed metric `<module>.<name>_s` is the inclusive time of the outermost
call (a recursive or nested call of the same metric is not counted twice).
`cli.self_s` is the self time of `cli.main`: its span time minus the time of
the spans directly inside it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (metric, module, function names); the function lives in the named module
TIMED = [
    ("cli.main", "cli", ["main"]),
    ("speclang.parse", "speclang", ["parse"]),
    ("speclang.build", "speclang", ["build_ars", "build_strategy"]),
    ("logic.accepted", "logic", ["accepted"]),
    ("logic.witness", "logic", ["nonclosed_witness"]),
    ("intensional.finite_support", "intensional", ["finite_support"]),
    ("intensional.lassos", "intensional", ["lassos_of_memoryless"]),
    ("ars.simple_cycles", "ars", ["simple_cycles"]),
    ("ars.shortest_path", "ars", ["shortest_path_to"]),
    ("rational.matches", "rational", ["matches"]),
    ("extensional.check", "extensional", ["is_prefix_closed", "is_factor_closed", "is_composition_closed", "is_closed"]),
    ("traffic.build", "traffic", ["build_traffic_ars", "never_both_green"]),
    ("traffic.safety", "traffic", ["safety_violation"]),
    ("traffic.fairness", "traffic", ["fairness_nonclosed_witness"]),
]

MODULES = ["ars", "cli", "errors", "extensional", "intensional", "logic", "rational", "speclang", "traffic"]

METRICS = [
    ("rational.matches_calls", "count"),
    ("rational.step_map_builds", "count"),
    ("rational.matches_s", "s"),
    ("ars.simple_cycles_s", "s"),
    ("ars.cycles_enumerated", "count"),
    ("ars.shortest_path_s", "s"),
    ("logic.witness_s", "s"),
    ("logic.accepted_calls", "count"),
    ("logic.accepted_s", "s"),
    ("logic.accepted_members", "count"),
    ("logic.accept_tests", "count"),
    ("intensional.finite_support_s", "s"),
    ("intensional.support_members", "count"),
    ("intensional.evals", "count"),
    ("ars.derivations_built", "count"),
    ("extensional.check_s", "s"),
    ("extensional.members_calls", "count"),
    ("extensional.apply_s", "s"),
    ("intensional.lassos_s", "s"),
    ("speclang.parse_s", "s"),
    ("speclang.parse_bytes", "bytes"),
    ("speclang.build_s", "s"),
    ("cli.self_s", "s"),
    ("traffic.build_s", "s"),
    ("traffic.safety_s", "s"),
    ("traffic.fairness_s", "s"),
]


def _record_sizes(metric, result, args):
    """Work counts read off a timed call's arguments and result."""
    if metric == "speclang.parse":
        return {"speclang.parse_bytes": len(args[0].encode("utf-8"))}
    if metric == "logic.accepted":
        return {"logic.accepted_calls": 1, "logic.accepted_members": len(result.finite_part)}
    if metric == "intensional.finite_support":
        return {"intensional.support_members": len(result.finite_part)}
    if metric == "ars.simple_cycles":
        return {"ars.cycles_enumerated": len(result)}
    if metric == "rational.matches":
        return {"rational.matches_calls": 1}
    return {}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = []  # per open span: time covered by its direct child spans
        self._open = defaultdict(int)
        self._undo = []

    def reset(self):
        self.stats = defaultdict(float)

    def _timed(self, metric, fn):
        stack, open_ = self._stack, self._open

        def span(*args, **kwargs):
            stats = self.stats
            covered = [0.0]
            stack.append(covered)
            open_[metric] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_[metric] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if open_[metric] == 0:
                    stats[metric + "_s"] += dt
                if metric == "cli.main":
                    stats["cli.self_s"] += dt - covered[0]
            for key, n in _record_sizes(metric, result, args).items():
                stats[key] += n
            return result

        return span

    def _counted(self, metric, fn, depth=None):
        """Counts calls of fn; with a shared depth cell, only calls not nested in another."""
        outermost = depth is not None
        depth = depth or [0]

        def counted(*args, **kwargs):
            if not outermost or depth[0] == 0:
                self.stats[metric] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "strat" and not name.startswith("strat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, original))
        checks = sys.modules["strat.cli"]._CHECKS
        for key, value in list(checks.items()):
            if value is original:
                checks[key] = wrapper
                self._undo.append((dict.__setitem__, checks, key, original))

    def _replace_method(self, cls, name, wrapper):
        self._undo.append((setattr, cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self):
        import strat.ars as ars
        import strat.extensional as extensional
        import strat.intensional as intensional
        import strat.logic as logic
        import strat.rational as rational

        for metric, module, names in TIMED:
            mod = sys.modules[f"strat.{module}"]
            for name in names:
                original = getattr(mod, name)
                self._replace_everywhere(original, self._timed(metric, original))
        self._replace_method(extensional.AbstractStrategy, "apply",
                             self._timed("extensional.apply", extensional.AbstractStrategy.apply))
        self._replace_method(extensional.AbstractStrategy, "members",
                             self._counted("extensional.members_calls", extensional.AbstractStrategy.members))
        self._replace_method(rational.Nfa, "step_map", self._counted("rational.step_map_builds", rational.Nfa.step_map))
        self._replace_method(ars.Derivation, "__post_init__",
                             self._counted("ars.derivations_built", ars.Derivation.__post_init__))
        for cls in _subclasses(intensional.Strategy):
            if "eval" in cls.__dict__:
                self._replace_method(cls, "eval", self._counted("intensional.evals", cls.__dict__["eval"]))
        nesting = [0]  # shared, so conditions inside and/or/not are not counted
        for cls in _subclasses(logic.AcceptCondition):
            if "accepts" in cls.__dict__:
                self._replace_method(cls, "accepts", self._counted("logic.accept_tests", cls.__dict__["accepts"], nesting))

    def uninstall(self):
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def source_lines(src_dir):
    """Lines of each module under src/strat, as `<module>.src_lines`."""
    out = {}
    for module in MODULES:
        with open(f"{src_dir}/strat/{module}.py", encoding="utf-8") as fh:
            out[f"{module}.src_lines"] = fh.read().count("\n")
    return out
