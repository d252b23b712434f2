"""Record what the strat CLI prints for a fixed set of invocations.

Each line of cli.jsonl after the header is one invocation of `cli.main`:
its argv, its exit code, and the sha256 and byte length of its stdout and
of its stderr. The header records the commit the corpus was generated at.
tests/test_golden.py replays every record and demands the same outputs, so
a refactoring that must keep the CLI's outputs byte for byte can be checked
against a corpus taken before it.

The invocations cover every sample, the traffic documents of queue bounds 1
and 2 and a document of memoried strategies inside combinators (see
memoried_document()), under every command and every `--prop`, in text and
with `--machine`, at depths up to 3 and horizons 2 and 4; text listings at
depth 5 of every strategy of that document, and of the `accept` strategies
over `word(...)` conditions (see DEEP_LISTINGS); the `traffic` scenario under
each strategy and check; and usage and document errors. Documents are
named by fixed relative paths (see documents()); replay and generation both
write them into a scratch directory and run from there.

Run from anywhere:  python tests/golden/make_cli_corpus.py
Replay without regenerating:  python tests/golden/make_cli_corpus.py --check
(the standard library alone; it prints the argv of each invocation whose
outputs differ and exits 1 if any do).

The corpus replays byte for byte under Python 3.10, 3.11 and 3.12. Under 3.13,
five records differ: `enumerate --help`, the three `enumerate` usage errors of
a missing, zero or non-numeric `--depth`, and `check --prop bogus`. Python
3.13's argparse keeps an option and its metavar on one line when it wraps a
usage line (`--depth DEPTH`, `--prop {closed,...}`), where earlier versions
may break between them; the messages are otherwise the same.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = HERE / "cli.jsonl"
sys.path.insert(0, str(ROOT / "src"))

from strat import speclang  # noqa: E402
from strat.cli import main  # noqa: E402
from strat.traffic import traffic_document  # noqa: E402

SAMPLES = ("a_c.ars", "a_lc.ars", "a_loop.ars", "eventual.ars", "union_pair.ars")
TRAFFIC = {1: "traffic_1.ars", 2: "traffic_2.ars"}
MEMORIED = "memoried.ars"
PROPS = ("closed", "composition", "factor", "prefix")

# documents for the error cases
BROKEN = {
    "broken.ars": b"ars {\n  objects: a, b;\n  labels: phi;\n  steps: (a, phi, c);\n}\nstrategy s = greatmost(none);\n",
    "truncated.ars": b"ars {\n  objects: a;\n",
    "latin1.ars": "# café\n".encode("latin-1"),
}


def _nested_union(levels: int) -> str:
    """unionC nested `levels` deep, over memoried and memoryless leaves in turn."""
    leaves = ("restrict({x})", "alternate({x}; {y, z})", "maxlen(3)", "restrict({y, z})")
    text = "unionC(restrict({z}), maxlen(2))"
    for i in range(levels - 1):
        text = f"unionC({leaves[i % len(leaves)]}, {text})"
    return text


def memoried_document() -> str:
    """Memoried strategies (maxlen, alternate) under unionC, intersect, unionP
    and accept, and a committed union nested 40 deep."""
    return f"""# Memoried strategies inside combinators, and a deep committed union.
ars {{
  objects: a, b, c, d;
  labels: x, y, z;
  steps:
    (a, x, b),
    (a, y, c),
    (b, y, a),
    (b, z, d),
    (c, x, a),
    (c, z, c),
    (d, x, d);
}}
order up {{
  x < y;
  y < z;
}}
strategy committed = unionC(alternate({{x}}; {{y, z}}), maxlen(3));
strategy meet = intersect(greatmost(up), alternate({{x, z}}; {{y}}));
strategy pointwise = unionP(greatmost(up), maxlen(3));
strategy long = accept(unionC(alternate({{x}}; {{y, z}}), maxlen(3)), len >= 2);
strategy deep = {_nested_union(40)};
"""


def documents() -> dict[str, bytes]:
    """Relative path -> bytes of every document an invocation names."""
    docs = {f"samples/{name}": (ROOT / "samples" / name).read_bytes() for name in SAMPLES}
    for q, name in TRAFFIC.items():
        docs[name] = traffic_document(q).encode("utf-8")
    docs[MEMORIED] = memoried_document().encode("utf-8")
    docs.update(BROKEN)
    return docs


@contextlib.contextmanager
def replaying(where: Path):
    """Write the documents under `where` and run from there, with help text
    wrapped at 80 columns whatever the terminal."""
    for rel, data in documents().items():
        path = where / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(where)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def _calls_for(path: str, text: str) -> list[list[str]]:
    doc = speclang.parse(text)
    objects = list(doc.objects)
    small = len(objects) <= 4
    froms = objects if small else [objects[0], objects[len(objects) // 2], objects[-1]]
    out: list[list[str]] = []
    for mode in ([], ["--machine"]):
        for depth in ("1", "2", "3"):
            out.append(mode + ["enumerate", "-f", path, "--depth", depth])
            out.append(mode + ["enumerate", "-f", path, "--from", objects[-1], "--depth", depth])
        for name, _ in doc.strategies:
            for depth, source in (("1", None), ("2", objects[0]), ("3", None), ("3", objects[0])):
                start = [] if source is None else ["--from", source]
                out.append(mode + ["enumerate", "-f", path, "-s", name, *start, "--depth", depth])
            for obj in froms:
                for depth in ("1", "3") if small else ("3",):
                    out.append(mode + ["apply", "-f", path, "-s", name, "--from", obj, "--depth", depth])
            for prop in PROPS:
                # prefix and closed are decided without materialising: one depth
                for depth in ("2", "3") if prop in ("composition", "factor") else ("3",):
                    out.append(mode + ["check", "-f", path, "-s", name, "--prop", prop, "--depth", depth])
            for horizon in ("2", "4"):
                out.append(mode + ["witness", "-f", path, "-s", name, "--horizon", horizon])
    return out


def _scenario_calls() -> list[list[str]]:
    out = []
    for mode in ([], ["--machine"]):
        for q in ("1", "2"):
            for strategy in ("safe", "universal"):
                for check in ([], ["--check", "safety"], ["--check", "fairness"]):
                    out.append(mode + ["scenario", "traffic", "--queue-bound", q, "--depth", "3",
                                       "--strategy", strategy] + check)
    return out


# usage, help and document errors
ERRORS = [
    [],
    ["--help"],
    ["enumerate", "--help"],
    ["frobnicate"],
    ["enumerate", "-f", "samples/a_lc.ars"],
    ["enumerate", "-f", "samples/a_lc.ars", "--depth", "0"],
    ["enumerate", "-f", "samples/a_lc.ars", "--depth", "x"],
    ["enumerate", "-f", "samples/a_lc.ars", "--depth", "2", "--from", "zz"],
    ["--machine", "enumerate", "-f", "samples/a_lc.ars", "--depth", "2", "--from", "zz"],
    ["enumerate", "-f", "samples/a_lc.ars", "-s", "nope", "--depth", "2"],
    ["enumerate", "-f", "missing.ars", "--depth", "2"],
    ["enumerate", "-f", "broken.ars", "--depth", "2"],
    ["enumerate", "-f", "truncated.ars", "--depth", "2"],
    ["enumerate", "-f", "latin1.ars", "--depth", "2"],
    ["apply", "-f", "samples/a_lc.ars", "-s", "all", "--depth", "2"],
    ["apply", "-f", "samples/a_lc.ars", "-s", "all", "--from", "zz", "--depth", "2"],
    ["--machine", "apply", "-f", "samples/a_lc.ars", "-s", "all", "--from", "zz", "--depth", "2"],
    ["apply", "-f", "samples/a_lc.ars", "-s", "nope", "--from", "a", "--depth", "2"],
    ["apply", "-f", "broken.ars", "-s", "s", "--from", "a", "--depth", "2"],
    ["check", "-f", "samples/a_lc.ars", "-s", "all", "--prop", "bogus", "--depth", "2"],
    ["check", "-f", "samples/a_lc.ars", "-s", "nope", "--prop", "factor", "--depth", "2"],
    ["check", "-f", "missing.ars", "-s", "all", "--prop", "factor", "--depth", "2"],
    ["witness", "-f", "samples/a_lc.ars", "-s", "all", "--horizon", "1"],
    ["witness", "-f", "samples/a_lc.ars", "-s", "nope", "--horizon", "3"],
    ["scenario", "traffic", "--queue-bound", "0", "--depth", "2"],
    ["scenario", "elsewhere", "--queue-bound", "1", "--depth", "2"],
    ["enumerate", "-f", "samples/a_lc.ars", "--depth", "2", "--machine"],
    ["apply", "-f", "samples/a_lc.ars", "-s", "eventually_c", "--from", "d", "--depth", "3", "--machine"],
    ["check", "-f", "samples/a_lc.ars", "-s", "eventually_c", "--prop", "factor", "--depth", "3", "--machine"],
]


# text listings at depth 5, from every object and from one: the memoried
# document's strategies (unionC, intersect and unionP over alternate and
# maxlen, accept, the deep union) and accept strategies over word(...)
DEEP_LISTINGS = [
    *((MEMORIED, name, "a") for name in ("committed", "meet", "pointwise", "long", "deep")),
    ("samples/a_lc.ars", "eventually_c", "a"),
    ("samples/eventual.ars", "eventually_exit", "a"),
    (TRAFFIC[1], "fair_runs", "s_0_0_0_0"),
]


def _deep_listing_calls() -> list[list[str]]:
    return [
        ["enumerate", "-f", path, "-s", name, *start, "--depth", "5"]
        for path, name, source in DEEP_LISTINGS
        for start in ([], ["--from", source])
    ]


def calls() -> list[list[str]]:
    docs = documents()
    out: list[list[str]] = []
    for rel in [f"samples/{name}" for name in SAMPLES] + list(TRAFFIC.values()) + [MEMORIED]:
        out.extend(_calls_for(rel, docs[rel].decode("utf-8")))
    return out + _scenario_calls() + ERRORS + _deep_listing_calls()


def _digest(text: str) -> tuple[str, int]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def record(argv: list[str]) -> dict:
    """Run main(argv) in this process and summarise what it returned and printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out_sha, out_len = _digest(out.getvalue())
    err_sha, err_len = _digest(err.getvalue())
    return {"argv": argv, "code": code, "stdout_sha256": out_sha, "stdout_len": out_len,
            "stderr_sha256": err_sha, "stderr_len": err_len}


def load() -> tuple[dict, list[dict]]:
    """The header and the records of cli.jsonl."""
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def differing(records: list[dict]) -> list[list[str]]:
    """The argv of each record whose replay gives other outputs."""
    with tempfile.TemporaryDirectory() as scratch, replaying(Path(scratch)):
        return [r["argv"] for r in records if record(r["argv"]) != r]


def check() -> int:
    """Replay cli.jsonl and print each invocation whose outputs differ; 1 if any do."""
    _, records = load()
    differ = differing(records)
    for argv in differ:
        print(json.dumps(argv))
    print(f"{len(differ)} of {len(records)} invocations differ")
    return 1 if differ else 0


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def generate() -> None:
    header = {
        "generated_at": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "python": sys.version.split()[0],
    }
    with tempfile.TemporaryDirectory() as scratch, replaying(Path(scratch)):
        records = [record(argv) for argv in calls()]
    with CORPUS.open("w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for r in records:
            f.write(json.dumps(r) + "\n")
    print(f"{len(records)} records written to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record, or with --check replay, the CLI corpus.")
    parser.add_argument("--check", action="store_true", help="replay cli.jsonl instead of writing it")
    if parser.parse_args().check:
        raise SystemExit(check())
    generate()
