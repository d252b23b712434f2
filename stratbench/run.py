"""The strat benchmark: one workload per run, checked against independent oracles.

Usage, from the root of a checkout of the repository:

    python3 stratbench/run.py --workload witness|support|queries \\
        --seed N --seconds S --trace 0|1

The run generates the workload's documents from the seed under
.stratbench/, runs the operations in one fresh process (worker.py), which
also measures the set-up time of strat in fresh processes between rounds,
checks every output and prints one JSON object as its last line of output. With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

def best_times(rounds):
    """Each operation's shortest time over the rounds.

    Interference from other work on the machine only adds time, and it comes
    in spells that can last many rounds, so the shortest repetition of an
    operation is the steadiest reading of its cost.
    """
    return [min(r["times"][i] for r in rounds) for i in range(len(rounds[0]["times"]))]


def verify(work, outputs):
    """(failed operations over all rounds, descriptions of wrong outputs)."""
    failed, wrong = 0, []
    for op, seen in zip(work.ops, outputs):
        for key, rounds in seen.items():
            code, out = json.loads(key)
            if code is None:
                failed += rounds
                continue
            reason = op.check(code, out)
            if reason is not None:
                failed += rounds
                if code in (0, 3):  # a verdict was given, and it is wrong
                    wrong.append(f"{' '.join(op.argv)}: {reason}")
    for law in work.laws:
        outs = [next(iter(outputs[i])) for i in law.ops]
        if any(json.loads(k)[0] != 0 for k in outs):
            continue
        reason = law.check([json.loads(k)[1] for k in outs])
        if reason is not None:
            wrong.append(f"{law.what}: {reason}")
    return failed, wrong


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "strat", "cli.py")):
        sys.exit("stratbench: run from the root of a checkout: src/strat/cli.py is missing")
    selftest.selftest()

    work_dir = os.path.join(root, ".stratbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        for name, text in work.files.items():
            with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        plan, result = os.path.join(work_dir, "plan.json"), os.path.join(work_dir, "result.json")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump({"src": src, "ops": [op.argv for op in work.ops], "seconds": args.seconds, "trace": args.trace}, fh)
        subprocess.run([sys.executable, "-I", os.path.join(HERE, "worker.py"), plan, result], check=True, timeout=170)
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    failed, wrong = verify(work, res["outputs"])
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    plain = [r for r in res["rounds"] if not r["traced"]]
    best = best_times(plain)
    if args.trace:
        traced = [r for r in res["rounds"] if r["traced"]]
        metrics = {}
        for name, unit in tracing.METRICS:
            value = statistics.median(r["layers"].get(name, 0) for r in traced)
            metrics[name] = {"value": int(value) if unit in ("count", "bytes") else value, "unit": unit}
        for name, lines in tracing.source_lines(src).items():
            metrics[name] = {"value": lines, "unit": "lines"}
        metrics["trace.overhead_s"] = {"value": sum(best_times(traced)) - sum(best), "unit": "s"}
    else:
        verdicts = [t for i, t in enumerate(best) if not any(i in r["raised"] for r in plain)]
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_times"]), "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "verdict_s.p50": {"value": statistics.median(verdicts), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    attempted = len(work.ops) * len(res["rounds"])
    rounds = " ".join(f"{sum(r['times']):.3f}{'t' if r['traced'] else ''}" for r in res["rounds"])
    print(f"{args.workload}: {len(work.ops)} operations, round seconds {rounds}", file=sys.stderr)
    if res["setup_times"]:
        probes = " ".join(f"{t:.3f}" for t in res["setup_times"])
        print(f"{args.workload}: set-up probe seconds {probes}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
