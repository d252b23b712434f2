"""The strat command line: enumerate, apply, check, witness, scenario.

Commands read a .ars document, evaluate the named strategy up to a depth,
and report results on standard output; diagnostics go to standard error. A
count and every closure verdict are decided on the product walk of logic
(layered_check, factor_check, composition_check) without building the set,
and so are the objects apply reaches (accepted_targets); a text listing
prints the accepted members in order, each line folded along the walk of
intensional.fold_paths as the member's path grows, one write per layer,
acceptance read off the condition state the walk carries. No command
materialises the set, and a listing builds no Derivation. Exit codes let
shells branch on verdicts: 0 for success or an affirmative verdict, 2 for
usage errors and diagnostics, 3 for a negative verdict (a closure property
that fails, a non-closedness witness found, a safety violation). An internal
error is reported in one line and exits 2 as well, never as a traceback.
With --machine each invocation emits exactly one JSON record {kind, verdict,
witness, count} in that key order; output is byte-deterministic for
identical invocations.

The argument parser is built once per process (build_parser is cached), so
every main call after the first in one process skips that cost; a fresh
`strat` process builds it once either way.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import speclang
from .ars import Ars, reaches_cycle
from .errors import NoWitnessUpToHorizon, StratError
from .intensional import Universal, fold_paths, induced
from .logic import (
    ACCEPT_ALL,
    LogicalStrategy,
    accepted_targets,
    as_logical,
    composition_check,
    factor_check,
    layered_check,
    nonclosed_witness,
)
from .traffic import (
    build_traffic_ars,
    fairness_nonclosed_witness,
    good_starts,
    never_both_green,
    safety_violation,
)

# factor and composition closure, each by its own walk of the product; prefix
# closure, and closedness, which is the same on lasso-free sets, by layered_check
_CHECKS = {"factor": factor_check, "composition": composition_check}


def _at_least(minimum: int, what: str):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}")
        return value

    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="strat",
        description="Bounded analysis of strategies over finite reduction systems.",
    )
    parser.add_argument(
        "--machine", action="store_true", help="emit one JSON record instead of text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def machine_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--machine",
            action="store_true",
            default=argparse.SUPPRESS,
            help="emit one JSON record instead of text",
        )

    p_enum = sub.add_parser("enumerate", help="list derivations, optionally under a strategy")
    p_enum.add_argument("-f", "--file", required=True, help="the .ars document")
    p_enum.add_argument("-s", "--strategy", help="strategy name within the document")
    p_enum.add_argument("--from", dest="source", help="restrict to this source object")
    p_enum.add_argument("--depth", required=True, type=_at_least(1, "depth"))
    machine_flag(p_enum)

    p_apply = sub.add_parser("apply", help="apply a strategy to an object")
    p_apply.add_argument("-f", "--file", required=True)
    p_apply.add_argument("-s", "--strategy", required=True)
    p_apply.add_argument("--from", dest="source", required=True)
    p_apply.add_argument("--depth", required=True, type=_at_least(1, "depth"))
    machine_flag(p_apply)

    p_check = sub.add_parser("check", help="check a closure property of the accepted set")
    p_check.add_argument("-f", "--file", required=True)
    p_check.add_argument("-s", "--strategy", required=True)
    p_check.add_argument("--prop", required=True, choices=sorted(speclang.CHECK_PROPS))
    p_check.add_argument("--depth", required=True, type=_at_least(1, "depth"))
    machine_flag(p_check)

    p_wit = sub.add_parser("witness", help="search for a non-closedness lasso witness")
    p_wit.add_argument("-f", "--file", required=True)
    p_wit.add_argument("-s", "--strategy", required=True)
    p_wit.add_argument("--horizon", required=True, type=_at_least(2, "horizon"))
    machine_flag(p_wit)

    p_scn = sub.add_parser("scenario", help="run a built-in scenario")
    p_scn.add_argument("name", choices=["traffic"])
    p_scn.add_argument("--queue-bound", required=True, type=_at_least(1, "queue-bound"))
    p_scn.add_argument("--depth", required=True, type=_at_least(1, "depth"))
    p_scn.add_argument("--strategy", choices=["safe", "universal"], default="safe")
    p_scn.add_argument("--check", choices=["safety", "fairness"])
    machine_flag(p_scn)

    return parser


def _machine(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "machine", False))


def _record(kind: str, verdict: str, witness: str | None, count: int) -> None:
    import json  # loaded with the first record: text output and set-up do without it

    print(json.dumps({"kind": kind, "verdict": verdict, "witness": witness, "count": count}))


def _load(path: str) -> tuple[speclang.SpecDocument, Ars]:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as err:
        raise StratError(f"{path}: not UTF-8 text (byte {err.start})") from None
    doc = speclang.parse(text)
    return doc, speclang.build_ars(doc)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    doc, ars = _load(args.file)
    if args.source is not None:
        ars.object_index(args.source)
    sources = None if args.source is None else (args.source,)
    if args.strategy is None:
        ls = LogicalStrategy(Universal(), ACCEPT_ALL)
    else:
        ls = as_logical(speclang.build_strategy(doc, args.strategy, ars))
    if _machine(args):
        _record("enumerate", "ok", None, layered_check(ls, ars, args.depth, sources)[0])
        return 0
    _print_listing(ls, ars, args.depth, sources)
    return 0


def _print_listing(ls: LogicalStrategy, ars: Ars, depth: int, sources: Sequence[str] | None) -> None:
    """The accepted members, each line folded along its path, a layer per write, then their COUNT."""
    accept = None if ls.accept is ACCEPT_ALL else ls.accept  # no state to carry when all are kept
    count = 0
    line = lambda text, s: f"{text} -{s.label}-> {s.target}"
    for lines in fold_paths(ls.base, ars, depth, sources, accept, str, line):
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")
            count += len(lines)
    sys.stdout.write(f"COUNT={count}\n")


def _cmd_apply(args: argparse.Namespace) -> int:
    doc, ars = _load(args.file)
    ars.object_index(args.source)
    ls = as_logical(speclang.build_strategy(doc, args.strategy, ars))
    reached = accepted_targets(ls, ars, args.depth, (args.source,))
    if reached:
        rendered = "{" + ", ".join(sorted(reached, key=ars.object_index)) + "}"
        if _machine(args):
            _record("apply", "applies", rendered, len(reached))
        else:
            print(rendered)
    else:
        # nothing finite applies: an infinite derivation from the source makes it
        # indeterminate, and a memoryless one exists when its sub-system reaches a cycle
        infinite = ls.base.memoryless and reaches_cycle(induced(ls.base, ars), args.source)
        verdict = "indeterminate" if infinite else "fails"
        if _machine(args):
            _record("apply", verdict, None, 0)
        else:
            print(verdict.upper())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    doc, ars = _load(args.file)
    ls = as_logical(speclang.build_strategy(doc, args.strategy, ars))
    if args.prop in _CHECKS:
        count, verdict = _CHECKS[args.prop](ls, ars, args.depth)
        missing = verdict.missing
    else:
        count, missing = layered_check(ls, ars, args.depth)
    witness = None if missing is None else missing.render()
    if _machine(args):
        _record("check", "true" if missing is None else "false", witness, count)
    else:
        print(f"PROPERTY={'true' if missing is None else 'false'}")
        if witness is not None:
            print(f"WITNESS={witness}")
    return 0 if missing is None else 3


def _cmd_witness(args: argparse.Namespace) -> int:
    doc, ars = _load(args.file)
    ls = as_logical(speclang.build_strategy(doc, args.strategy, ars))
    lasso = nonclosed_witness(ls, ars, args.horizon)
    if lasso is None:
        if _machine(args):
            _record("witness", "none", None, 0)
        else:
            print("NO_WITNESS_UP_TO_HORIZON")
        return 0
    if _machine(args):
        _record("witness", "found", lasso.render(), 0)
    else:
        print(f"WITNESS={lasso.render()}")
    return 3


def _cmd_scenario(args: argparse.Namespace) -> int:
    ars = build_traffic_ars(args.queue_bound)
    strategy = never_both_green(ars) if args.strategy == "safe" else Universal()
    ls = LogicalStrategy(strategy, ACCEPT_ALL)
    support = layered_check(ls, ars, args.depth, good_starts(ars))[0]
    verdict, witness, code = "ok", None, 0
    if args.check == "safety":
        violation = safety_violation(ars, strategy)
        if violation is not None:
            verdict, witness, code = "violation", violation.render(), 3
    elif args.check == "fairness":
        try:
            lasso = fairness_nonclosed_witness(ars, args.depth)
            verdict, witness, code = "found", lasso.render(), 3
        except NoWitnessUpToHorizon:
            verdict = "none"
    if _machine(args):
        _record("scenario", verdict, witness, support)
        return code
    print(f"OBJECTS={len(ars.objects)}")
    print(f"STEPS={len(ars.steps)}")
    print(f"SUPPORT={support}")
    if args.check == "safety":
        print(f"SAFETY={'ok' if code == 0 else 'violation'}")
        if witness is not None:
            print(f"WITNESS={witness}")
    elif args.check == "fairness":
        if witness is None:
            print("NO_WITNESS_UP_TO_HORIZON")
        else:
            print(f"WITNESS={witness}")
    return code


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "apply": _cmd_apply,
    "check": _cmd_check,
    "witness": _cmd_witness,
    "scenario": _cmd_scenario,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except speclang.SpecLangError as err:
        path = getattr(args, "file", "<input>")
        for diag in err.diagnostics:
            print(f"{path}:{diag.render()}", file=sys.stderr)
        return 2
    except (StratError, OSError) as err:
        print(f"strat: error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of strat itself: one line and exit 2, not a traceback
        print(f"strat: error: internal error: {err!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
