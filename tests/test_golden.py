"""Replay the CLI corpus: every recorded invocation gives the same outputs.

tests/golden/cli.jsonl was generated by tests/golden/make_cli_corpus.py at
the commit named in its header. Each record holds an argv, the exit code and
the sha256 and length of stdout and stderr; replay runs `cli.main` in this
process on the same documents and compares all five, as
`python tests/golden/make_cli_corpus.py --check` does without pytest.
"""

from __future__ import annotations

from golden import make_cli_corpus as corpus


def test_corpus_covers_every_command():
    header, records = corpus.load()
    assert len(header["generated_at"]) == 40 and not header["src_modified"]
    commands = {arg for r in records for arg in r["argv"][:2]}
    assert {"enumerate", "apply", "check", "witness", "scenario"} <= commands
    assert {r["code"] for r in records} == {0, 2, 3}


def test_replay_gives_the_recorded_outputs():
    _, records = corpus.load()
    differ = corpus.differing(records)
    assert not differ, f"{len(differ)} of {len(records)} invocations differ, first {differ[:5]}"
