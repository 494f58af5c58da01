import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
A3_REGEX = "a((a|b)(a|b))*|b(a|b)*"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "synmon", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_analyze_text_report():
    result = run_cli("analyze", "--regex", A3_REGEX, "--gamma", "a,b")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "monoid: order 5" in out
    assert "period w.r.t. {a,b}: 2" in out
    assert "K=3" in out
    assert "accumulation: r=0: 1/2, r=1: 1" in out
    assert "zero-one: basic: oscillating; r=0: no; r=1: yes (witness {e})" in out


def test_analyze_two_gammas():
    result = run_cli("analyze", "--dfa", str(DATA / "a1.json"),
                     "--gamma", "a", "--gamma", "b")
    assert result.returncode == 0, result.stderr
    assert "period w.r.t. {a}: 2" in result.stdout
    assert "period w.r.t. {b}: 2" in result.stdout
    assert "K=1" in result.stdout


def test_analyze_trivial_period_warns_but_succeeds():
    result = run_cli("analyze", "--regex", "(a|b)*")
    assert result.returncode == 0
    assert "degenerate" in result.stderr
    assert "K=1" in result.stdout
    assert result.stderr.splitlines() == [
        "warning: all periods are 1; the decomposition is degenerate"]
    assert "cli.py" not in result.stderr


def test_prob_last_line():
    result = run_cli("prob", "--dfa", str(DATA / "a3.json"), "--length", "2")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "2 1/2"


def test_zero_one_text():
    result = run_cli("zero-one", "--dfa", str(DATA / "a3.json"))
    assert result.returncode == 0
    assert result.stdout.strip() == \
        "basic: oscillating; r=0: no; r=1: yes (witness {e})"


def test_monoid_dot_output(tmp_path):
    dot = tmp_path / "cayley.dot"
    result = run_cli("monoid", "--regex", A3_REGEX, "--dot", str(dot))
    assert result.returncode == 0
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("->") == 10


def test_syntax_error_exit_code():
    result = run_cli("monoid", "--regex", "a(")
    assert result.returncode == 2
    assert "offset 1" in result.stderr


def test_missing_source_exit_code():
    result = run_cli("monoid")
    assert result.returncode == 2


def test_bad_dfa_file_exit_code(tmp_path):
    doc = tmp_path / "broken.json"
    doc.write_text('{"alphabet": ["a"]}')
    result = run_cli("monoid", "--dfa", str(doc))
    assert result.returncode == 2


def test_invalid_period_exit_code():
    result = run_cli("period", "--regex", "(a|b)*", "--periods", "2")
    assert result.returncode == 2


def test_analyze_json_parses_with_expected_keys():
    result = run_cli("analyze", "--regex", A3_REGEX, "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["monoid"]["order"] == 5
    assert report["signature"]["periods"] == [2]
    assert report["decomposition"]["K"] == 3
    assert report["decomposition"]["verified"] is True
    assert report["probability"]["period"] == 2
    acc = report["probability"]["accumulation"]
    assert [Fraction(p["num"], p["den"]) for p in acc] == [Fraction(1, 2), 1]
    assert report["probability"]["mu_series"][2] == {"len": 2, "num": 1, "den": 2}
    verdicts = {v["w"]: v["verdict"] for v in report["probability"]["zero_one"]["residual"]}
    assert verdicts == {"": "mixed", "a": "zero-one", "b": "zero-one"}


@pytest.mark.parametrize("args", [
    ("prob", "--length", "-1"),
    ("analyze", "--length", "-1"),
], ids=" ".join)
def test_out_of_range_numbers_exit_two_with_one_error_line(args):
    result = run_cli(args[0], "--dfa", str(DATA / "a3.json"), *args[1:])
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def test_json_and_text_report_same_numbers():
    as_json = json.loads(run_cli("prob", "--dfa", str(DATA / "a3.json"),
                                 "--length", "4", "--json").stdout)
    as_text = run_cli("prob", "--dfa", str(DATA / "a3.json"), "--length", "4").stdout
    text_values = [Fraction(line.split()[1]) for line in as_text.splitlines()]
    json_values = [Fraction(e["num"], e["den"]) for e in as_json["mu_series"]]
    assert text_values == json_values


@pytest.mark.parametrize("args", [
    ("--dfa", str(DATA / "a3.json"), "--periods", "1"),
    ("--dfa", str(DATA / "a1.json"), "--gamma", "a,b", "--periods", "1"),
], ids=["a3", "a1-gamma"])
def test_analyze_below_the_maximum_period_reports_the_algebra(args):
    # limits and verdicts need the maximum period, so they are left out
    result = run_cli("analyze", "--json", *args)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["signature"]["periods"] == [1]
    assert report["decomposition"]["verified"] is True
    assert "probability" not in report and "residual_monoids" not in report


def test_prob_limit_of_third_letter_from_the_end():
    # mu(l) = 0 for l < 3 and 1/2 after: the limit is 1/2, not the 0 at the start
    result = run_cli("prob", "--json", "--regex", "(a|b)*a(a|b)(a|b)")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["accumulation"] == [{"r": 0, "num": 1, "den": 2}]


@pytest.mark.parametrize("regex", ["(a|b)(a|b)(a|b)(a|b)*", "(a|b)*a(a|b)(a|b)"])
def test_zero_one_succeeds_when_mu_starts_with_zeros(regex):
    result = run_cli("zero-one", "--regex", regex)
    assert result.returncode == 0, result.stderr


def test_period_json_classes_keys():
    result = run_cli("period", "--dfa", str(DATA / "a1.json"),
                     "--gamma", "a", "--gamma", "b", "--json")
    report = json.loads(result.stdout)
    assert report["gammas"] == [["a"], ["b"]]
    assert report["periods"] == [2, 2]
    assert set(report["classes"]) == {"(0,0)", "(0,1)", "(1,0)", "(1,1)"}


def test_analyze_json_deterministic_across_processes():
    first = run_cli("analyze", "--regex", A3_REGEX, "--json")
    second = run_cli("analyze", "--regex", A3_REGEX, "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verification_failure_exits_three(monkeypatch):
    import argparse

    from synmon import cli
    from synmon.errors import VerificationFailure

    def failing(args):
        raise VerificationFailure("injected")

    namespace = argparse.Namespace(handler=failing)
    fake = argparse.Namespace(parse_args=lambda argv=None: namespace)
    monkeypatch.setattr(cli, "build_parser", lambda: fake)
    assert cli.main([]) == 3


def test_oracle_subcommands():
    result = run_cli("oracle", "mu", "--dfa", str(DATA / "a3.json"), "--length", "2")
    assert result.stdout.strip() == "2 1/2"
    result = run_cli("oracle", "cycle-gcd", "--regex", A3_REGEX)
    assert result.stdout.strip() == "{a,b} 2"
    result = run_cli("oracle", "lw", "--dfa", str(DATA / "a3.json"), "--blocks", "1")
    assert result.stdout.split() == ["ba", "bb"]
