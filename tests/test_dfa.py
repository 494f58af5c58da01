import json
import warnings

import pytest
from hypothesis import given

from synmon.dfa import Dfa, block_dfa, load_dfa, minimize, trim
from synmon.errors import FormatError, InvalidPeriod, UnknownSymbol
from synmon.regexes import parse_regex, regex_to_dfa
from synmon.theory import syntactic_monoid_of_lw

from conftest import data_json, data_text, small_dfas
from reference import moore_minimize


def test_load_well_formed():
    dfa = load_dfa(data_text("a3.json"))
    assert dfa.n_states == 4
    assert dfa.initial == "q1"
    assert dfa.accepting == frozenset({"q2", "q4"})
    assert dfa.run("ab") == "q3"


# a malformed automaton is one class, FormatError; the message names the fault
@pytest.mark.parametrize("fault, message", [
    pytest.param(lambda doc: doc["states"].append("q1"), "^duplicate state ids$",
                 id="duplicate state id"),
    pytest.param(lambda doc: doc["transitions"][0].update(to="q9"),
                 r"^transition \('q1', 'a'\) -> undeclared 'q9'$",
                 id="transition to an undeclared state"),
    pytest.param(lambda doc: doc.update(transitions=doc["transitions"][1:]),
                 r"^missing transition \('q1', 'a'\)$", id="missing transition"),
    pytest.param(lambda doc: doc.update(initial="q9"), "^initial state 'q9' is not declared$",
                 id="undeclared initial state"),
    pytest.param(lambda doc: doc["accepting"].append("q9"),
                 "^accepting state 'q9' is not declared$", id="undeclared accepting state"),
    pytest.param(lambda doc: doc["transitions"][0].update(on="c"),
                 "^transition on unknown symbol 'c'$", id="unknown symbol"),
    pytest.param(lambda doc: doc["transitions"][0].update({"from": "q9"}),
                 "^transition from undeclared state 'q9'$",
                 id="transition from an undeclared state"),
])
def test_load_single_fault_raises_its_class(fault, message):
    doc = data_json("a3.json")
    fault(doc)
    with pytest.raises(FormatError, match=message):
        load_dfa(json.dumps(doc))


def test_load_duplicate_transition():
    doc = data_json("a3.json")
    doc["transitions"].append(dict(doc["transitions"][0]))
    with pytest.raises(FormatError):
        load_dfa(json.dumps(doc))


def test_load_bad_schema():
    with pytest.raises(FormatError):
        load_dfa("[1, 2]")
    with pytest.raises(FormatError):
        load_dfa("{not json")
    doc = data_json("a3.json")
    del doc["alphabet"]
    with pytest.raises(FormatError):
        load_dfa(json.dumps(doc))
    # arrays where a state id belongs
    for key, value in (("initial", ["q1"]), ("accepting", [["q2"]])):
        doc = data_json("a3.json")
        doc[key] = value
        with pytest.raises(FormatError):
            load_dfa(json.dumps(doc))
    for end in ("from", "to"):
        doc = data_json("a3.json")
        doc["transitions"][0][end] = ["q1"]
        with pytest.raises(FormatError):
            load_dfa(json.dumps(doc))


@pytest.mark.parametrize("document", ["[" * 200_000, '{"initial": ' + "1" * 5000 + "}"],
                         ids=["nested past the recursion limit", "int past the digit limit"])
def test_load_refuses_json_that_python_cannot_parse(document):
    with pytest.raises(FormatError, match="^not valid JSON: "):
        load_dfa(document)


def test_load_keeps_unreachable_states_and_trim_drops_them():
    # the library warns nothing; the CLI trims and prints the notice
    doc = data_json("a3.json")
    doc["states"].append("q9")
    doc["transitions"] += [{"from": "q9", "on": a, "to": "q9"} for a in "ab"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dfa = load_dfa(json.dumps(doc))
    assert dfa.n_states == 5 and "q9" in dfa.states
    trimmed = trim(dfa)
    assert trimmed.n_states == 4 and "q9" not in trimmed.states
    assert trim(trimmed) is trimmed


def test_minimize_collapses_equivalent_states():
    # two equivalent all-accepting states
    dfa = Dfa(("a",), ("s", "t"), "s", frozenset({"s", "t"}),
              {("s", "a"): "t", ("t", "a"): "s"})
    assert minimize(dfa).n_states == 1


def test_minimize_keeps_minimal_dfa():
    dfa = load_dfa(data_text("a1.json"))
    assert minimize(dfa).n_states == 4
    dfa3 = load_dfa(data_text("a3.json"))
    assert minimize(dfa3).n_states == 4


def test_minimize_canonical_numbering():
    minimal = minimize(load_dfa(data_text("a3.json")))
    assert minimal.states == (0, 1, 2, 3)
    assert minimal.initial == 0
    # BFS order: 0 -a-> 1, 0 -b-> 2
    assert minimal.delta[(0, "a")] == 1 and minimal.delta[(0, "b")] == 2


def _right_languages_distinct(dfa):
    import itertools

    words = ["".join(w) for n in range(dfa.n_states + 1)
             for w in itertools.product(sorted(dfa.alphabet), repeat=n)]
    signatures = {}
    for q in dfa.states:
        sig = tuple(dfa.run(w, start=q) in dfa.accepting for w in words)
        if sig in signatures:
            return False
        signatures[sig] = q
    return True


@given(small_dfas())
def test_minimize_equals_moore(dfa):
    assert minimize(dfa) == moore_minimize(dfa)


def test_minimize_output_has_distinct_right_languages():
    for pattern in ["(a|b)*a(a|b)*", "a((a|b)(a|b))*|b(a|b)*", "a(aa)*", "&"]:
        dfa = regex_to_dfa(parse_regex(pattern), "ab")
        assert _right_languages_distinct(dfa), pattern


def test_block_dfa_matches_prefixed_membership():
    dfa = load_dfa(data_text("a3.json"))
    blocks = block_dfa(dfa, "a", 2)
    assert blocks.alphabet == ("aa", "ab", "ba", "bb")
    # running block symbols through delta equals running the letters
    q = blocks.initial
    for b in ["ab", "ba", "aa"]:
        q = blocks.delta[(q, b)]
    assert q == dfa.run("a" + "abbaaa")


@pytest.mark.parametrize("build, prefix, period, error, text", [
    (block_dfa, "z", 2, UnknownSymbol, "letter 'z' not in alphabet"),
    (syntactic_monoid_of_lw, "z", 2, UnknownSymbol, "letter 'z' not in alphabet"),
    (block_dfa, "a", 0, InvalidPeriod, "period 0 must be at least 1"),
], ids=["block_dfa-letter", "syntactic_monoid_of_lw-letter", "block_dfa-period"])
def test_block_dfa_rejects_foreign_prefixes_and_periods_below_one(
        build, prefix, period, error, text):
    dfa = load_dfa(data_text("a3.json"))
    with pytest.raises(error, match=f"^{text}$"):
        build(dfa, prefix, period)
