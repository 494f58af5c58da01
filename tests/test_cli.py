import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from synmon import Analysis, cli, errors
from synmon.errors import InvalidArgument
from synmon.regexes import LETTERS, parse_regex, regex_to_dfa

from conftest import dfa_document, full_transformation_dfa, small_dfas

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


def test_analyze_reports_a_residual_map_that_is_not_onto(capsys):
    # two gammas over the same letters count |w| mod 2 twice, so rho_bar
    # reaches only (0,0) and (1,1), and C2 x C2 does not divide the monoid
    source = ["--regex", "((a|b)(a|b))*", "--alphabet", "ab", "--gamma", "a,b", "--gamma", "a,b"]
    sig = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab"),
                   [("a", "b"), ("a", "b")]).signature
    assert set(sig.rho_bar) == {(0, 0), (1, 1)} and not sig.surjective
    assert cli.main(["analyze", *source]) == 0
    assert ("wreath divisor: equivariant=True, G divides monoid=False"
            in capsys.readouterr().out.splitlines())
    assert cli.main(["analyze", "--json", *source]) == 0
    assert json.loads(capsys.readouterr().out)["wreath"]["rho_bar_surjective"] is False


def test_analyze_trivial_period_warns_but_succeeds():
    result = run_cli("analyze", "--regex", "(a|b)*")
    assert result.returncode == 0
    assert "degenerate" in result.stderr
    assert "K=1" in result.stdout
    assert result.stderr.splitlines() == [
        "warning: all periods are 1; the decomposition is degenerate"]
    assert "cli.py" not in result.stderr


NOTICE = "warning: all periods are 1; the decomposition is degenerate"


@pytest.mark.parametrize("argv, notice", [
    (["period"], True), (["decompose"], True), (["analyze"], True), (["zero-one"], True),
    (["prob"], False), (["oracle", "cycle-gcd"], False),
])
def test_degenerate_period_notice_once_per_signature_verb(argv, notice, capsys):
    assert cli.main([*argv, "--regex", "(a|b)*", "--alphabet", "ab"]) == 0
    assert capsys.readouterr().err == (NOTICE + "\n" if notice else "")


def test_notice_follows_the_unreachable_warning_and_precedes_a_failure(
        monkeypatch, tmp_path, capsys):
    from synmon import decompose
    from synmon.errors import VerificationFailure

    def failing(dec):
        raise VerificationFailure("canonical embedding: injected")

    monkeypatch.setattr(decompose, "verify_canonical", failing)
    path = tmp_path / "all.json"  # (a|b)*, with state 1 unreachable
    path.write_text(json.dumps({
        "alphabet": ["a", "b"], "states": ["0", "1"], "initial": "0", "accepting": ["0"],
        "transitions": [{"from": q, "on": a, "to": "0"} for q in "01" for a in "ab"]}))
    assert cli.main(["decompose", "--dfa", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "warning: removed unreachable states: ['1']", NOTICE,
        "verification failure: canonical embedding: injected"]


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


A3_MONOID_DOT = """digraph cayley {
  0 [label="e"];
  1 [label="a"];
  2 [label="b"];
  3 [label="aa"];
  4 [label="ba"];
  0 -> 1 [label="a"];
  0 -> 2 [label="b"];
  1 -> 3 [label="a"];
  1 -> 3 [label="b"];
  2 -> 4 [label="a"];
  2 -> 4 [label="b"];
  3 -> 1 [label="a"];
  3 -> 1 [label="b"];
  4 -> 2 [label="a"];
  4 -> 2 [label="b"];
}
"""

PAIRS_ANALYZE_DOT = """digraph cayley {
  0 [label="e"];
  1 [label="a"];
  0 -> 1 [label="a"];
  0 -> 1 [label="b"];
  1 -> 0 [label="a"];
  1 -> 0 [label="b"];
}
"""


@pytest.mark.parametrize("args, expected", [
    (("monoid", "--dfa", str(DATA / "a3.json")), A3_MONOID_DOT),
    (("analyze", "--regex", "((a|b)(a|b))*", "--alphabet", "ab"), PAIRS_ANALYZE_DOT),
], ids=["monoid a3", "analyze pairs"])
def test_dot_files_are_byte_identical(args, expected, tmp_path):
    dot = tmp_path / "cayley.dot"
    result = run_cli(*args, "--dot", str(dot))
    assert result.returncode == 0, result.stderr
    assert dot.read_bytes() == expected.encode()


# over the letters " and \, which the DFA file format allows: " swaps the
# two states and \ sends both to state 0
QUOTE_DFA = {"alphabet": ['"', "\\"], "states": ["0", "1"], "initial": "0", "accepting": ["1"],
             "transitions": [{"from": "0", "on": '"', "to": "1"},
                             {"from": "1", "on": '"', "to": "0"},
                             {"from": "0", "on": "\\", "to": "0"},
                             {"from": "1", "on": "\\", "to": "0"}]}

QUOTE_MONOID_DOT = r"""digraph cayley {
  0 [label="e"];
  1 [label="\""];
  2 [label="\\"];
  3 [label="\\\""];
  0 -> 1 [label="\""];
  0 -> 2 [label="\\"];
  1 -> 0 [label="\""];
  1 -> 2 [label="\\"];
  2 -> 3 [label="\""];
  2 -> 2 [label="\\"];
  3 -> 2 [label="\""];
  3 -> 2 [label="\\"];
}
"""


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    source, dot = tmp_path / "quote.json", tmp_path / "cayley.dot"
    source.write_text(json.dumps(QUOTE_DFA))
    assert cli.main(["monoid", "--dfa", str(source), "--dot", str(dot)]) == 0
    assert dot.read_text() == QUOTE_MONOID_DOT


def test_syntax_error_exit_code():
    result = run_cli("monoid", "--regex", "a(")
    assert result.returncode == 2
    assert "offset 1" in result.stderr


def test_missing_source_exit_code():
    result = run_cli("monoid")
    assert result.returncode == 2


@pytest.mark.parametrize("alphabet", ["xyz", "ab", ""])
def test_alphabet_with_a_dfa_file_exits_two(alphabet, capsys):
    # a DFA file declares its alphabet: --alphabet is refused, not ignored,
    # even when it names the file's own letters
    argv = ["period", "--dfa", str(DATA / "a1.json"), "--alphabet", alphabet]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: --alphabet applies to --regex only; a DFA file declares its own\n")


def test_bad_dfa_file_exit_code(tmp_path):
    doc = tmp_path / "broken.json"
    doc.write_text('{"alphabet": ["a"]}')
    result = run_cli("monoid", "--dfa", str(doc))
    assert result.returncode == 2


@pytest.mark.parametrize("document", ["[" * 200_000, '{"initial": ' + "1" * 5000 + "}"],
                         ids=["nested past the recursion limit", "int past the digit limit"])
def test_json_that_python_cannot_parse_exits_two(document, tmp_path):
    doc = tmp_path / "unparsable.json"
    doc.write_text(document)
    result = run_cli("period", "--dfa", str(doc))
    assert result.returncode == 2
    assert result.stderr.startswith("error: not valid JSON: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("verb", ["analyze", "period", "monoid", "prob", "decompose",
                                  "zero-one"])
def test_the_declared_letter_order_changes_no_report(verb, tmp_path, capsys):
    reports = []
    for letters in (["a", "b"], ["b", "a"]):
        doc = json.loads((DATA / "a3.json").read_text())
        doc["alphabet"] = letters
        path = tmp_path / f"{''.join(letters)}.json"
        path.write_text(json.dumps(doc))
        for json_flag in ([], ["--json"]):
            assert cli.main([verb, *json_flag, "--dfa", str(path)]) == 0
            reports.append(capsys.readouterr())
    assert reports[:2] == reports[2:]


def test_errors_define_one_class_per_refusal():
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {
        "SynmonError", "InvalidArgument", "VerificationFailure", "RegexSyntaxError",
        "FormatError", "InvalidMonoid", "TooLarge", "NotAnIdeal", "NotAnAction",
        "UnknownSymbol", "InvalidPeriod", "ScopeError"}
    assert all(issubclass(getattr(errors, name), errors.SynmonError) for name in classes)


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


@pytest.mark.parametrize("regex, gammas", [
    ("(a|b)*a(a|b)(a|b)", []),
    ("((a|b)(a|b))*", []),
    ("((a|b)(a|b)(a|b))*a(a|b)", []),
    ("((a|b)(a|b))*", ["--gamma", "a,b", "--gamma", "a,b"]),
], ids=["P=1", "P=2", "P=3", "two gammas"])
def test_analyze_json_is_the_verbs_reports_composed(regex, gammas, capsys):
    def report(verb, *flags):
        assert cli.main([verb, "--json", "--regex", regex, *flags]) == 0, verb
        return json.loads(capsys.readouterr().out)

    analyze = report("analyze", *gammas, "--length", "12")
    assert report("monoid") == analyze["monoid"]
    assert report("period", *gammas) == analyze["signature"]
    assert report("decompose", *gammas) == analyze["decomposition"]
    # zero-one and prob take no --gamma: analyze reports them only over the
    # whole alphabet at its maximum period
    assert ("probability" in analyze) == (not gammas)
    if not gammas:
        probability = analyze["probability"]
        assert report("zero-one") == probability.pop("zero_one")
        assert report("prob", "--length", "12") == probability


def a3_with(change) -> bytes:
    """The a3 document after `change(doc)`, as UTF-8 bytes."""
    doc = json.loads((DATA / "a3.json").read_text())
    change(doc)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("args, document", [
    pytest.param(("prob", "--length", "-1"), None, id="prob --length -1"),
    pytest.param(("analyze", "--length", "-1"), None, id="analyze --length -1"),
    pytest.param(("analyze", "--periods", "2,x"), None, id="analyze --periods 2,x"),
    pytest.param(("analyze",), b"\xff\xfe{}", id="not UTF-8"),
    pytest.param(("analyze",), a3_with(lambda d: d.update(initial=["q1"])),
                 id="list initial"),
    pytest.param(("analyze",), a3_with(lambda d: d.update(accepting=[["q2"]])),
                 id="list accepting entry"),
    pytest.param(("analyze",), a3_with(lambda d: d["transitions"][0].update({"from": ["q1"]})),
                 id="list transition source"),
    pytest.param(("analyze",), a3_with(lambda d: d["transitions"][0].update(to=["q1"])),
                 id="list transition target"),
    pytest.param(("oracle", "lw", "--w", "c"), None, id="oracle lw --w outside the alphabet"),
    pytest.param(("oracle", "lw", "--w", "aaa"), None, id="oracle lw --w past the period"),
    pytest.param(("oracle", "cycle-gcd", "--gamma", "z"), None,
                 id="oracle cycle-gcd --gamma outside the alphabet"),
    pytest.param(("oracle", "cycle-gcd", "--gamma", ""), None, id="oracle cycle-gcd --gamma ''"),
    pytest.param(("oracle", "lw", "--blocks", "-1"), None, id="oracle lw --blocks -1"),
    pytest.param(("prob", "--length", "15000"), None, id="prob --length past int-to-text"),
    pytest.param(("prob", "--length", "15000", "--json"), None,
                 id="prob --json --length past int-to-text"),
    pytest.param(("analyze", "--length", "15000", "--json"), None,
                 id="analyze --json --length past int-to-text"),
    pytest.param(("prob", "--regex", "((a|b)(a|b))*", "--alphabet", "a,b", "--length", "2"),
                 None, id="prob --alphabet a,b"),
    pytest.param(("prob", "--regex", "((a|b)(a|b))*", "--alphabet", "a b"), None,
                 id="prob --alphabet 'a b'"),
    # a flag given with an empty value is given
    pytest.param(("period", "--regex="), None, id="period --regex= --dfa"),
    pytest.param(("period", "--regex", "a", "--alphabet", ""), None, id="period --alphabet ''"),
    pytest.param(("analyze", "--periods", ""), None, id="analyze --periods ''"),
])
def test_out_of_range_numbers_exit_two_with_one_error_line(args, document, tmp_path):
    path = DATA / "a3.json"
    if document is not None:
        path = tmp_path / "bad.json"
        path.write_bytes(document)
    source = () if "--regex" in args else ("--dfa", str(path))
    result = run_cli(args[0], *source, *args[1:])
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    if "--alphabet" in args:  # the line names the symbol that is not a letter
        alphabet = args[args.index("--alphabet") + 1]
        if alphabet:
            assert repr(next(a for a in alphabet if a not in LETTERS)) in lines[0]
        else:  # the empty alphabet holds none of the regex's symbols
            assert lines[0] == "error: symbols ['a'] not in alphabet []"
    if "--regex=" in args:  # with the --dfa given above
        assert lines[0] == "error: need exactly one of --regex or --dfa"
    if "--periods" in args and not args[args.index("--periods") + 1]:
        assert lines[0] == "error: --periods must be comma-separated integers, got ''"


@pytest.mark.parametrize("gamma, shown", [("z", "['z']"), (",", "[]")])
def test_period_gamma_outside_the_alphabet_exits_two(gamma, shown):
    result = run_cli("period", "--dfa", str(DATA / "a3.json"), "--gamma", gamma)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: gamma {shown} is not a non-empty subset of the alphabet\n"


@pytest.mark.parametrize("period", ["0", "-2"])
def test_period_below_one_exits_two(period):
    result = run_cli("period", "--regex", "(aa)*", "--alphabet", "a", "--periods", period)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: period {period} for gamma ['a'] must be at least 1\n"


def test_length_past_the_int_to_text_limit_is_refused():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert len(str(2 ** 14284)) == 4300
        cli._check_digits("ab", 14284)
        with pytest.raises(InvalidArgument, match="--length 14285 .* 4300 digits"):
            cli._check_digits("ab", 14285)
        cli._check_digits("a", 10 ** 9)  # mu is 0 or 1
        sys.set_int_max_str_digits(0)  # no limit
        cli._check_digits("ab", 10 ** 9)
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_a_table_that_fails_its_check_exits_three(monkeypatch, capsys):
    # a table the pipeline builds that failed check_table would be a bug
    from synmon import monoid
    from synmon.errors import InvalidMonoid

    def failing(table):
        raise InvalidMonoid("identity law fails at element 0")

    monkeypatch.setattr(monoid, "check_table", failing)
    # analyze --json prints M's table, so it fills and checks it
    assert cli.main(["analyze", "--json", "--regex", A3_REGEX]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: identity law fails at element 0\n"


@pytest.mark.parametrize("verb", ["monoid", "monoid --json", "analyze --json"])
def test_a_table_of_the_opposite_monoid_exits_three(verb, monkeypatch, capsys):
    # the transpose of M's table is the table of the opposite monoid: it
    # passes check_table, but its letters' columns are not M's Cayley edges
    from synmon import monoid

    rows = monoid._rows
    monkeypatch.setattr(monoid, "_rows", lambda right, tree: tuple(zip(*rows(right, tree))))
    assert cli.main([*verb.split(), "--regex", "(a|b)*a(a|b)", "--alphabet", "ab"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "verification failure: table column of letter 'a' disagrees with the Cayley graph\n")


@pytest.mark.parametrize("verb", ["analyze", "zero-one"])
def test_a_corrupted_cayley_edge_exits_three_without_a_table(verb, monkeypatch, capsys):
    # text analyze and zero-one fill no table, so the table check does not
    # see a wrong edge; the decomposition's homomorphism check names it
    from synmon import monoid, pipeline

    build, fills = monoid.transition_monoid, []

    def corrupted(dfa):
        sm = build(dfa)
        row = sm.right[-1]  # the last element has no child in the tree
        right = sm.right[:-1] + (((row[0] + 1) % sm.order,) + row[1:],)
        return monoid.SyntacticMonoid(right, sm.tree, sm.eta, sm.accepting_image)

    monkeypatch.setattr(pipeline, "transition_monoid", corrupted)
    monkeypatch.setattr(monoid, "_rows", lambda *args: fills.append(args))
    assert cli.main([verb, "--regex", "(a|b)*a(a|b)(a|b)", "--alphabet", "ab"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and fills == []
    assert err.splitlines() == [
        NOTICE, "verification failure: canonical embedding: Can(s.a) != Can(s).Can(a) at "
        "s = 9, a = 'a', r = (0,), slot 6: Can(s.a) gives 14, Can(s).Can(a) gives 11"]


def test_closure_budget_exits_two(monkeypatch, capsys, tmp_path):
    # the closure holds order x (degree + 42) <= cap x (cap + 42) words: the
    # 3-state full transformation DFA (degree 3, order 27) needs 27 x 45 =
    # 1215 of them, past the 19 x 61 = 1159 that a cap of 19 gives
    from synmon import monoid

    path = tmp_path / "full3.json"
    path.write_text(dfa_document(full_transformation_dfa(3)))
    monkeypatch.setattr(monoid, "ORDER_CAP", 19)
    assert cli.main(["period", "--dfa", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: transition monoid of degree 3 exceeds the closure "
                            "budget of 1159 words (order x (degree + 42)) at order 26\n")


def test_the_order_cap_refuses_only_the_verbs_that_build_an_order_squared_object(
        monkeypatch, capsys, tmp_path):
    # the 3-state full transformation DFA has order 27: at a cap of 20 the
    # closure (27 x 45 <= 20 x 62 words) and the signature still run, and
    # M's table and the flat maps Can(t) are refused before either is built
    from synmon import monoid

    dfa = full_transformation_dfa(3)
    path = tmp_path / "full3.json"
    path.write_text(dfa_document(dfa))
    monkeypatch.setattr(monoid, "ORDER_CAP", 20)
    assert Analysis(dfa).monoid.order == 27
    # P = 1: the verbs that report a signature warn first
    for argv, warning in ((["period"], NOTICE + "\n"), (["prob", "--json"], "")):
        assert cli.main([*argv, "--dfa", str(path)]) == 0, argv
        out, err = capsys.readouterr()
        assert out and err == warning, argv
    table = "error: the multiplication table of order 27 exceeds the order cap 20\n"
    can = NOTICE + "\nerror: the canonical decomposition of order 27 exceeds the order cap 20\n"
    for argv, message in ((["monoid"], table), (["monoid", "--json"], table),
                          (["decompose"], can), (["decompose", "--json"], can),
                          (["zero-one"], can), (["zero-one", "--json"], can),
                          (["analyze"], can), (["analyze", "--json"], can)):
        assert cli.main([*argv, "--dfa", str(path)]) == 2, argv
        assert capsys.readouterr() == ("", message), argv


def test_a_failing_analyze_writes_no_dot_file(tmp_path):
    dot = tmp_path / "o.dot"
    # only the JSON report prints the series, so only it refuses a long one
    result = run_cli("analyze", "--regex", "(a|b)*", "--alphabet", "ab",
                     "--length", "15000", "--json", "--dot", str(dot))
    assert (result.returncode, result.stdout) == (2, "")
    assert "error: --length 15000 is too long" in result.stderr
    assert not dot.exists()


def test_a_failing_verdict_writes_no_dot_file(monkeypatch, capsys, tmp_path):
    from synmon import probability
    from synmon.errors import VerificationFailure

    def failing(*args):
        raise VerificationFailure("zero-one verdict: injected")

    monkeypatch.setattr(probability, "residual_verdict", failing)
    dot = tmp_path / "o.dot"
    assert cli.main(["analyze", "--regex", A3_REGEX, "--dot", str(dot)]) == 3
    assert capsys.readouterr().out == ""
    assert not dot.exists()


@pytest.mark.parametrize("flag", [["--json"], ["--periods", "7"]])
def test_oracle_refuses_report_flags(flag, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["oracle", "mu", "--regex", "a", "--alphabet", "ab", *flag])
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


def test_oracle_subcommands():
    result = run_cli("oracle", "mu", "--dfa", str(DATA / "a3.json"), "--length", "2")
    assert result.stdout.strip() == "2 1/2"
    result = run_cli("oracle", "cycle-gcd", "--regex", A3_REGEX)
    assert result.stdout.strip() == "{a,b} 2"
    result = run_cli("oracle", "lw", "--dfa", str(DATA / "a3.json"), "--blocks", "1")
    assert result.stdout.split() == ["ba", "bb"]


@pytest.mark.parametrize("argv", [
    ["mu", "--regex", "((a|b)(a|b))*", "--alphabet", "ab", "--length", "1000000000000"],
    ["mu", "--regex", "a*", "--alphabet", "a", "--length", "1000000000000"],
    ["lw", "--regex", "((a|b)(a|b))*", "--alphabet", "ab", "--w", "a",
     "--blocks", "1000000000000"],
])
def test_oracle_budgets_refuse_before_enumerating(argv):
    # each budget is decided before anything proportional to it is built
    result = subprocess.run([sys.executable, "-m", "synmon", "oracle", *argv],
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert "past the" in result.stderr and "cap" in result.stderr


@pytest.mark.parametrize("verb", ["analyze", "zero-one"])
def test_prefix_row_budget(verb, monkeypatch, capsys):
    from synmon import pipeline

    # P = 3: 1 + 3 + 9 prefix rows, and analyze --json lists 3 x 3 rows f_t(r)
    argv = [verb, "--regex", "((a|b|c)(a|b|c)(a|b|c))*"]
    monkeypatch.setattr(pipeline, "REPORT_ROWS", 12)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 13 prefix rows of zero-one verdicts (every word "
                            "shorter than the period 3) exceed the budget of 12\n")
    monkeypatch.setattr(pipeline, "REPORT_ROWS", 13)
    assert cli.main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    verdicts = report["probability"]["zero_one"] if verb == "analyze" else report
    assert len(verdicts["residual"]) == 13


@pytest.mark.parametrize("verb", ["prob", "analyze"])
def test_series_length_budget(verb, monkeypatch, capsys):
    from synmon import probability

    # one letter: mu is 0 or 1, so the int-to-text check lets any length through
    argv = [verb, "--regex", "(aa)*", "--alphabet", "a", "--json", "--length"]
    text = [a for a in argv if a != "--json"]
    refused = "", "error: a mu series to length 11 exceeds the budget of 10 letters\n"
    monkeypatch.setattr(probability, "SERIES_LENGTH", 10)
    assert cli.main([*argv, "11"]) == 2
    assert capsys.readouterr() == refused
    if verb == "prob":  # text prob prints the series, so it refuses it too
        assert cli.main([*text, "11"]) == 2
        assert capsys.readouterr() == refused
    else:  # text analyze prints no series, so it counts none and refuses none
        assert cli.main([*text, "11"]) == 0
        long = capsys.readouterr()
        assert cli.main(text[:-1]) == 0  # at the default length
        assert long == (capsys.readouterr().out, "")
    assert cli.main([*argv, "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    series = report["probability"]["mu_series"] if verb == "analyze" else report["mu_series"]
    assert len(series) == 11


VERBS = ("analyze", "monoid", "period", "prob", "decompose", "zero-one")


@pytest.mark.parametrize("verb", VERBS)
@given(dfa=small_dfas())
def test_no_verb_exits_three_on_random_dfas(tmp_path_factory, verb, dfa):
    document = {
        "alphabet": list(dfa.alphabet), "states": [str(q) for q in dfa.states],
        "initial": str(dfa.initial), "accepting": [str(q) for q in dfa.accepting],
        "transitions": [{"from": str(q), "on": a, "to": str(t)}
                        for (q, a), t in dfa.delta.items()],
    }
    path = tmp_path_factory.getbasetemp() / f"random-{verb}.json"
    path.write_text(json.dumps(document))
    for flags in ([], ["--json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([verb, "--dfa", str(path), *flags])
        assert code != 3, err.getvalue()


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_monoid_that_fails_its_check_writes_no_dot_file(flags, monkeypatch, capsys, tmp_path):
    from synmon import monoid
    from synmon.errors import InvalidMonoid

    def failing(table):
        raise InvalidMonoid("identity law fails at element 0")

    monkeypatch.setattr(monoid, "check_table", failing)
    dot = tmp_path / "o.dot"
    assert cli.main(["monoid", "--regex", A3_REGEX, "--dot", str(dot), *flags]) == 3
    assert capsys.readouterr() == ("", "verification failure: identity law fails at element 0\n")
    assert not dot.exists()


@pytest.mark.parametrize("verb", ["analyze", "decompose"])
def test_decomposition_report_budget(verb, monkeypatch, capsys, tmp_path):
    from synmon import decompose, pipeline

    reads = []
    read = decompose.CanonicalDecomposition.f

    def counted(dec, t, r):
        reads.append((t, r))
        return read(dec, t, r)

    monkeypatch.setattr(decompose.CanonicalDecomposition, "f", counted)
    # a3: 5 elements at P = 2, so the report lists 10 rows f_t(r), and 3
    # prefix rows of zero-one verdicts
    monkeypatch.setattr(pipeline, "REPORT_ROWS", 9)
    dot = tmp_path / "o.dot"
    argv = [verb, "--regex", A3_REGEX]
    # the text report lists no f_t(r), so the budget does not bound it, and
    # analyze's residual monoids build none: a3's witnesses name only e
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert reads == []
    reads.clear()
    flags = ["--json"] + (["--dot", str(dot)] if verb == "analyze" else [])
    assert cli.main([*argv, *flags]) == 2
    assert capsys.readouterr() == (
        "", "error: 10 rows f_t(r) of the decomposition report (5 elements times 2 "
        "residuals) exceed the budget of 9\n")
    assert not dot.exists()
    # the report refused before any stage it lists: no f_t(r) was read, not
    # even the residual monoids'
    assert reads == []
    monkeypatch.setattr(pipeline, "REPORT_ROWS", 10)
    assert cli.main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    can = (report["decomposition"] if verb == "analyze" else report)["can"]
    assert sum(map(len, (row["f"] for row in can.values()))) == 10
