import json

import pytest

from synmon.dfa import Dfa, block_dfa, load_dfa, minimize
from synmon.errors import (FormatError, PartialTransitionFunction,
                           UnknownState)
from synmon.regexes import parse_regex, regex_to_dfa

from conftest import data_json, data_text


def test_load_well_formed():
    dfa = load_dfa(data_text("a3.json"))
    assert dfa.n_states == 4
    assert dfa.initial == "q1"
    assert dfa.accepting == frozenset({"q2", "q4"})
    assert dfa.run("ab") == "q3"


def test_load_missing_transition():
    doc = data_json("a3.json")
    doc["transitions"] = [t for t in doc["transitions"]
                          if not (t["from"] == "q1" and t["on"] == "b")]
    with pytest.raises(PartialTransitionFunction):
        load_dfa(json.dumps(doc))


def test_load_undeclared_initial():
    doc = data_json("a3.json")
    doc["initial"] = "q9"
    with pytest.raises(UnknownState):
        load_dfa(json.dumps(doc))


def test_load_undeclared_transition_target():
    doc = data_json("a3.json")
    doc["transitions"][0]["to"] = "q9"
    with pytest.raises(UnknownState):
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


def test_load_drops_unreachable_with_warning():
    doc = data_json("a3.json")
    doc["states"].append("q9")
    doc["transitions"] += [{"from": "q9", "on": a, "to": "q9"} for a in "ab"]
    with pytest.warns(UserWarning, match="unreachable"):
        dfa = load_dfa(json.dumps(doc))
    assert dfa.n_states == 4 and "q9" not in dfa.states


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
