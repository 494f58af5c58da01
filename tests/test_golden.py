"""Byte-identical command-line output on the corpus.

`tests/data/golden.json` holds the stdout, stderr and exit code of
`cli.main` for every corpus language under each of the six verbs, as text
and with --json.  A change that means to alter the output regenerates it
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and shows the diff of the JSON file for review.
"""

import contextlib
import io
import json
import sys

import pytest

from synmon import cli

from conftest import CORPUS_SOURCES, DATA

GOLDEN = DATA / "golden.json"
VERBS = ("analyze", "period", "monoid", "prob", "decompose", "zero-one")
CASES = [f"{verb} {name}{flag}" for name in CORPUS_SOURCES for verb in VERBS
         for flag in ("", " --json")]


def run(case: str) -> dict:
    """Exit code, stdout and stderr of `cli.main` on one case."""
    verb, name, *flags = case.split(" ")
    regex, path = CORPUS_SOURCES[name]
    source = ["--dfa", str(DATA / path)] if path else ["--regex", regex, "--alphabet", "ab"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, *source, *flags])
    return {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical(golden, case):
    assert run(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: run(case) for case in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
