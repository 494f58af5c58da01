"""Byte-identical command-line output on the corpus.

`tests/data/golden.json` holds the stdout, stderr and exit code of
`cli.main` for every corpus language under each of the six verbs, as text
and with --json.  A change that means to alter the output regenerates it
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and shows the diff of the JSON file for review.
"""

import contextlib
import hashlib
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


# analyze --json on (a|b)*a(a|b)^k at orders 511 and 1023, either side of
# the order up to which associativity used to be checked: (stdout bytes,
# sha256 of stdout)
DIGESTS = {
    7: (3157532, "dcf48b868350279b952ec1faf1d9805227039944ceb130ab0e436d6e4ee9b80b"),
    8: (12748608, "73e704f354b743a8dd4cb8c4ad38a86a3b0f864ddc2ed174ba038c462a9cd2ff"),
}


def analyze_json_digest(regex: str) -> tuple:
    """(stdout bytes, sha256 of stdout) of `analyze --json` on a regex over ab."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--json", "--regex", regex, "--alphabet", "ab"])
    assert code == 0, err.getvalue()
    stdout = out.getvalue().encode()
    return len(stdout), hashlib.sha256(stdout).hexdigest()


@pytest.mark.parametrize("k", sorted(DIGESTS))
def test_kth_tail_analyze_json_digest(k):
    assert analyze_json_digest("(a|b)*a" + "(a|b)" * k) == DIGESTS[k]


def test_even_length_kth_tail_analyze_json_digest():
    # (a|b)((a|b)(a|b))*a(a|b)^8, the even-length words whose ninth letter
    # from the end is an a: order 1535 at P = 2, with K = 853
    regex = "(a|b)((a|b)(a|b))*a" + "(a|b)" * 8
    assert analyze_json_digest(regex) == (
        32861985, "bc1994554e87373735acf9381725443eb0cc07b42fd64e89a6b1212acc4bcd78")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: run(case) for case in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
