import functools
import itertools
import json
import sys

from synmon import (Analysis, cli, decompose, monoid, periods, probability,
                    zero_one_residual)

from conftest import DATA


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` in every synmon module that binds it; returns the
    list of calls, one entry per call."""
    original = getattr(module, name)
    calls = []

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "synmon" or key.startswith("synmon."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def counter_dfa_file(tmp_path, n):
    """n x n two-letter counter: accept when both letter counts are 0 mod n."""
    states = [f"{i}_{j}" for i in range(n) for j in range(n)]
    transitions = []
    for i, j in itertools.product(range(n), repeat=2):
        transitions.append({"from": f"{i}_{j}", "on": "a", "to": f"{(i + 1) % n}_{j}"})
        transitions.append({"from": f"{i}_{j}", "on": "b", "to": f"{i}_{(j + 1) % n}"})
    path = tmp_path / f"counter{n}.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "states": states,
                                "initial": "0_0", "accepting": ["0_0"],
                                "transitions": transitions}))
    return path


def test_analyze_builds_the_monoid_once(monkeypatch, tmp_path, capsys):
    builds = count_calls(monkeypatch, monoid, "transition_monoid")
    assert cli.main(["analyze", "--json", "--dfa", str(counter_dfa_file(tmp_path, 4))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monoid"]["order"] == 16
    assert len(builds) == 1


def test_analyze_checks_each_monoid_table_once(monkeypatch, capsys):
    checks = count_calls(monkeypatch, monoid, "check_table")
    # the 6th letter from the end is an a: P = 1, so T_0 shares M's checked monoid
    assert cli.main(["analyze", "--json", "--regex", "(a|b)*a" + "(a|b)" * 5]) == 0
    assert json.loads(capsys.readouterr().out)["monoid"]["order"] == 127
    assert [len(table) for table, _ in checks] == [127]
    # P = 2: M, then T_0 and T_1 with tables of their own
    checks.clear()
    assert cli.main(["analyze", "--json", "--dfa", str(DATA / "a3.json")]) == 0
    assert json.loads(capsys.readouterr().out)["signature"]["periods"] == [2]
    assert len(checks) == 3


def test_analyze_runs_max_period_once_and_prob_no_signature(monkeypatch, capsys):
    # the letter-count walk gives the maxima and rho_bar together
    walks = count_calls(monkeypatch, periods, "_letter_counts")
    signatures = count_calls(monkeypatch, periods, "build_signature")
    assert cli.main(["analyze", "--json", "--regex", "((a|b)(a|b))*"]) == 0
    assert json.loads(capsys.readouterr().out)["signature"]["periods"] == [2]
    assert (len(walks), len(signatures)) == (1, 1)
    walks.clear()
    signatures.clear()
    assert cli.main(["zero-one", "--regex", "((a|b)(a|b))*"]) == 0
    assert capsys.readouterr().out.startswith("basic: ")
    assert (len(walks), len(signatures)) == (1, 1)
    # P = 1: building a signature would warn that every period is 1
    signatures.clear()
    assert cli.main(["prob", "--regex", "(a|b)*a"]) == 0
    assert capsys.readouterr().err == ""
    assert signatures == []


def test_residual_verdicts_once_per_prefix_image(monkeypatch, capsys):
    verdicts = count_calls(monkeypatch, probability, "residual_verdict")
    regex = "((a|b|c)(a|b|c)(a|b|c))*"
    assert cli.main(["analyze", "--json", "--regex", regex]) == 0
    rows = json.loads(capsys.readouterr().out)["probability"]["zero_one"]["residual"]
    assert len(rows) == 1 + 3 + 9
    # eta(w) is the length of w mod 3, so three distinct images
    assert len(verdicts) == 3


def test_deduplicated_rows_equal_per_prefix_recomputation(corpus):
    for name in ("a3", "alt_half"):
        dfa = corpus[name][0]
        analysis = Analysis(dfa)
        period = analysis.signature.periods[0]
        prefixes = ["".join(p) for r in range(period)
                    for p in itertools.product("ab", repeat=r)]
        direct = [zero_one_residual(analysis.decomposition, dfa, w) for w in prefixes]
        assert list(analysis.residual_verdicts) == direct, name


def test_shared_residual_monoids_equal_fresh_ones(corpus):
    analysis = Analysis(corpus["a3"][0])
    assert len(analysis.residual_monoids) == 2
    for r, shared in enumerate(analysis.residual_monoids):
        fresh = decompose.residual_monoid(analysis.decomposition, r)
        assert shared.r == fresh.r == r
        assert shared.transformations == fresh.transformations
        assert shared.monoid.table == fresh.monoid.table
        assert shared.index == fresh.index


def test_analyze_builds_each_residual_monoid_once(monkeypatch, capsys):
    builds = count_calls(monkeypatch, decompose, "residual_monoid")
    seen = []  # the analysis, then the report
    build, emit = cli._analysis, cli._emit

    def analysis(args):
        seen.append(build(args))
        return seen[-1]

    def report(args, out, lines):
        seen.append(out)
        emit(args, out, lines)

    monkeypatch.setattr(cli, "_analysis", analysis)
    monkeypatch.setattr(cli, "_emit", report)
    for source, period in ((["--dfa", str(DATA / "a3.json")], 2),
                           (["--regex", "((a|b)(a|b)(a|b))*"], 3)):
        builds.clear()
        seen.clear()
        assert cli.main(["analyze", *source]) == 0
        assert capsys.readouterr().out.startswith("dfa: ")
        done, out = seen
        assert [r for _, r in builds] == list(range(period))
        # the report's rows are the stage's own tuples, not copies
        assert len(out["residual_monoids"]) == period
        for row, t_r in zip(out["residual_monoids"], done.residual_monoids):
            assert row["elements"] is t_r.transformations
