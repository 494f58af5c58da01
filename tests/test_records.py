"""The records of every layer are immutable and compare as documented, and
building them generates no code: neither `import synmon` nor a command
imports `dataclasses` or `inspect`."""

import copy
import pickle
import subprocess
import sys

import pytest

from synmon import Analysis, lw_quotient, markov_chain, mu_consistency
from synmon.errors import InvalidMonoid
from synmon.monoid import FiniteMonoid, make_named, transition_monoid
from synmon.oracle import OracleBudget
from synmon.regexes import Letter, Opt, Plus, Star, parse_regex, regex_to_dfa

CODE_GENERATORS = {"dataclasses", "inspect"}


def imported_by(code: str, *argv) -> set:
    """The code generators that running `code` in a fresh interpreter
    imports, besides those the interpreter loads at start-up."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(*sorted(set(sys.modules) - before), file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return CODE_GENERATORS & set(result.stderr.splitlines()[-1].split())


def test_import_synmon_generates_no_code():
    assert imported_by("import synmon") == set()


def test_a_command_generates_no_code():
    run_main = ("import runpy\nsys.argv[0] = 'synmon'\ntry:\n"
                "    runpy.run_module('synmon', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n    assert exc.code == 0, exc.code")
    assert imported_by(run_main, "prob", "--json", "--regex", "a", "--alphabet", "ab") == set()


def every_record() -> list:
    """One instance of every record class of the pipeline."""
    analysis = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab"))
    dec = analysis.decomposition
    return [
        analysis, analysis.dfa, analysis.monoid, analysis.monoid.monoid, analysis.cayley,
        analysis.signature, dec, dec.report, analysis.wreath, analysis.residual_monoid(0),
        analysis.recognizer(""), analysis.basic_verdict, analysis.accumulation[0],
        analysis.residual_verdicts[0], markov_chain(analysis.minimal),
        mu_consistency(dec, analysis.minimal, 0), lw_quotient(dec, analysis.minimal, ""),
        OracleBudget(), *_nodes(parse_regex("(a|&)*b+c?")),
    ]


def _nodes(ast):
    yield ast
    for child in ast:
        if not isinstance(child, str):
            yield from _nodes(child)


def test_every_record_class_is_covered():
    assert {type(x).__name__ for x in every_record()} == {
        "Analysis", "Dfa", "SyntacticMonoid", "FiniteMonoid", "CayleyGraph",
        "PeriodSignature", "CanonicalDecomposition", "VerificationReport",
        "WreathEmbedding", "ResidualMonoid", "LwRecognizer", "BasicZeroOne",
        "AccumulationPoint", "ResidualZeroOne", "MarkovChain", "MuConsistency",
        "LwQuotientReport", "OracleBudget",
        "Letter", "Epsilon", "Alt", "Cat", "Star", "Plus", "Opt"}


@pytest.mark.parametrize("record", every_record(), ids=lambda x: type(x).__name__)
def test_records_reject_assignment(record):
    fields = getattr(record, "_fields", None) or getattr(record, "__slots__", ())
    for name in fields[:1] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert not hasattr(record, "extra")


def test_regex_nodes_compare_by_kind():
    nodes = [Star(Letter("a")), Plus(Letter("a")), Opt(Letter("a"))]
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert (x == y) == (i == j) and (x != y) == (i != j)
        assert x == type(x)(Letter("a")) and x != (Letter("a"),)


def test_monoids_and_analyses_compare_by_identity():
    dfa = regex_to_dfa(parse_regex("(a|b)*a"), "ab")
    pairs = [(transition_monoid(dfa), transition_monoid(dfa)),
             (FiniteMonoid(((0, 1), (1, 0))), FiniteMonoid(((0, 1), (1, 0)))),
             (Analysis(dfa), Analysis(dfa))]
    for x, y in pairs:
        assert x == x and x != y and len({x, y}) == 2


def test_decomposition_equality_ignores_the_report():
    dec = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab")).decomposition
    assert dec.report is not None
    assert dec == dec._replace(report=None) and not dec != dec._replace(report=None)
    assert dec != dec._replace(K=dec.K + 1)


def clones(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def test_dfas_and_monoids_copy_and_pickle():
    dfa = regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab")
    sm = transition_monoid(dfa)
    for clone in clones(dfa):
        assert type(clone) is type(dfa) and clone == dfa
    for m in (sm.monoid, make_named("symmetric", 3), FiniteMonoid(((0, 1), (1, 0)))):
        for clone in clones(m):
            assert type(clone) is FiniteMonoid
            assert (clone.table, clone.identity, clone.generators, clone.names,
                    clone.columns) == (m.table, m.identity, m.generators, m.names, m.columns)
    for clone in clones(sm):
        assert type(clone) is type(sm) and type(clone.monoid) is FiniteMonoid
        assert clone.monoid.table == sm.monoid.table
        assert (clone.eta, clone.accepting_image) == (sm.eta, sm.accepting_image)
    with pytest.raises(AttributeError):
        copy.copy(dfa).initial = None


def test_a_copy_is_validated_again():
    # the reduction calls the constructor, so a broken state cannot be copied
    m = FiniteMonoid(((0, 1), (1, 0)))
    object.__setattr__(m, "table", ((0, 1), (0, 1)))
    with pytest.raises(InvalidMonoid, match="identity law"):
        copy.copy(m)
