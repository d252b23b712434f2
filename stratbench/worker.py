"""Runs one workload's operations through strat.cli.main in this fresh process.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the source directory, the operations (argument lists), the
seconds to measure and whether to trace. One caller issues one operation
after another (a closed loop on one thread) and repeats whole rounds of the
list while the next round still fits in the time. With tracing on, untraced
and traced rounds alternate, and the tracing wrappers are installed only for
the traced ones. With tracing off, set-up is measured between rounds, in a
fresh process each time, spread over the whole run. The result holds each
round's per-operation times, the distinct outputs of each operation, the
set-up times, the peak resident memory and, for traced rounds, the per-layer
statistics. Checking the outputs is left to run.py.
"""

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# set-up is probed at most this many times per run, evenly over its length
SETUP_PROBES = 24
PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import strat.cli\n"
    "strat.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds(src):
    """Time to import strat and build the CLI parser in a fresh process."""
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, src], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def call(main, argv):
    """(exit code or None if it raised, stdout or the exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        return None, f"{type(exc).__name__}: {str(exc)[:200]}", perf_counter() - t0
    return code, out.getvalue(), perf_counter() - t0


def main():
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import strat.cli as cli  # also writes the bytecode cache the set-up probes read

    ops, seconds = plan["ops"], plan["seconds"]
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
    outputs = [{} for _ in ops]
    rounds = []

    def one_round(traced):
        if traced:
            tracer.reset()
            tracer.install()
        times, raised = [], []
        try:
            for i, argv in enumerate(ops):
                gc.collect()
                code, out, dt = call(cli.main, argv)
                times.append(dt)
                if code is None:
                    raised.append(i)
                key = json.dumps([code, out])
                outputs[i][key] = outputs[i].get(key, 0) + 1
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "times": times, "raised": raised, "layers": dict(tracer.stats) if traced else None})

    # objects alive now (modules, the plan) are never garbage: keep them out
    # of the collections made between operations
    gc.freeze()
    kinds = [False, True] if tracer else [False]
    setup_times = []
    start = perf_counter()
    probed = None
    cycle_times = []
    while True:
        began = perf_counter()
        # a spell of interference lasts seconds, longer than one probe: probes
        # spread over the run are not all caught by the same spell
        if not tracer and (probed is None or began - probed >= seconds / SETUP_PROBES):
            setup_times.append(setup_seconds(plan["src"]))
            probed = began
            began = perf_counter()
        for traced in kinds:
            one_round(traced)
        cycle_times.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(cycle_times) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "outputs": outputs, "setup_times": setup_times, "peak_rss_mb": peak_kib / 1024}, fh)


if __name__ == "__main__":
    main()
