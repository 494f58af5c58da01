import json
import random
import re
import sys
import warnings
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from synmon import (Analysis, build_signature, load_dfa, max_period, minimize, periods,
                    residual_of_word, sink_periods, transition_monoid)
from synmon.errors import InvalidPeriod, TooLarge, UnknownSymbol, VerificationFailure
from synmon.oracle import CYCLE_ORDER_CAP, cycle_gcd
from synmon.periods import strongly_connected_components
from synmon.regexes import parse_regex, regex_to_dfa

from conftest import CORPUS_SOURCES, closed_classes, small_dfas, small_monoid
from reference import bfs_signature, tarjan_components

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import counter, kth_tail, mod_length  # noqa: E402


def test_residual_of_word_mixed_gammas():
    r = residual_of_word("aabac", [("a",), ("a", "b")], [2, 2], alphabet="abc")
    assert r == (1, 0)


def test_residual_of_empty_word():
    assert residual_of_word("", [("a",)], [3]) == (0,)


def test_residual_full_alphabet():
    assert residual_of_word("ab", [("a", "b")], [2]) == (0,)


def test_residual_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        residual_of_word("ax", [("a",)], [2], alphabet="ab")


def test_scc_basics():
    # 0 -> 1 -> 2 -> 1, 2 -> 3 (self loop)
    successors = [[1], [2], [1, 3], [3]]
    components = strongly_connected_components(4, successors)
    assert sorted(map(tuple, components)) == [(0,), (1, 2), (3,)]


@st.composite
def graphs(draw):
    """Successor lists on 0..n-1 with some self-loops and some isolated
    vertices, which have no edge in or out."""
    n = draw(st.integers(0, 12))
    isolated = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)) if n else set()
    others = [v for v in range(n) if v not in isolated]
    loops = draw(st.sets(st.sampled_from(others), max_size=3)) if others else set()
    successors = [[] for _ in range(n)]
    for v in others:
        successors[v] = draw(st.lists(st.sampled_from(others), max_size=3))
        if v in loops:
            successors[v].append(v)
    return successors


@given(graphs())
def test_scc_equal_tarjans_on_random_graphs(successors):
    n = len(successors)
    assert strongly_connected_components(n, successors) == tarjan_components(n, successors)


# --- maximum periods ---

def test_max_period_pairs_language(corpus):
    _, _, sm = corpus["pairs"]
    assert max_period(sm, "ab") == 2


def test_max_period_order_six(corpus):
    _, _, sm = corpus["a2"]
    assert max_period(sm, "a") == 2
    assert max_period(sm, "b") == 1
    assert max_period(sm, "ab") == 1


def test_max_period_parity_language(corpus):
    _, _, sm = corpus["a1"]
    assert max_period(sm, "a") == 2
    assert max_period(sm, "b") == 2
    assert max_period(sm, "ab") == 2


def test_max_period_gamma_validation(corpus):
    _, _, sm = corpus["a1"]
    with pytest.raises(UnknownSymbol):
        max_period(sm, "")
    with pytest.raises(UnknownSymbol):
        max_period(sm, "ac")


@pytest.mark.parametrize("gamma", [[], ["z"]])
def test_signature_refuses_a_gamma_that_is_not_a_nonempty_subset(corpus, gamma):
    _, _, sm = corpus["a1"]
    with pytest.raises(UnknownSymbol, match=rf"^gamma {re.escape(str(gamma))} is not a "
                                            r"non-empty subset of the alphabet$"):
        build_signature(sm, [["a"], gamma])


def test_max_period_matches_cycle_oracle(corpus):
    gammas = [("a",), ("b",), ("a", "b")]
    for name, (_, _, sm) in corpus.items():
        for gamma in gammas:
            assert max_period(sm, gamma) == cycle_gcd(sm, gamma), (name, gamma)


@given(small_dfas())
def test_max_period_matches_cycle_oracle_on_random_dfas(dfa):
    sm = small_monoid(dfa, cap=CYCLE_ORDER_CAP)
    for gamma in [("a",), ("b",), ("a", "b")]:
        assert max_period(sm, gamma) == cycle_gcd(sm, gamma), gamma


# --- signatures ---

def nonempty_gammas(alphabet):
    return [g for k in range(1, len(alphabet) + 1) for g in combinations(alphabet, k)]


def assert_signatures_match_reference(sm):
    """build_signature against `reference.bfs_signature`: at the maxima
    for every non-empty gamma and every pair of them, and for each gamma
    alone at every divisor of its maximum."""
    gammas = nonempty_gammas(sm.alphabet)
    for chosen in [[g] for g in gammas] + [list(pair) for pair in product(gammas, repeat=2)]:
        sig = build_signature(sm, chosen)
        assert (sig.maxima, sig.rho_bar, sig.classes) == bfs_signature(sm, sig.gammas), chosen
        assert sig.periods == sig.maxima, chosen
    for gamma in gammas:  # and at every divisor of the maximum
        maximum = max_period(sm, gamma)
        for p in (d for d in range(1, maximum + 1) if maximum % d == 0):
            sig = build_signature(sm, [gamma], [p])
            assert (sig.maxima, sig.rho_bar, sig.classes) == \
                bfs_signature(sm, sig.gammas, [p]), (gamma, p)


@given(small_dfas())
def test_signature_matches_reference_on_random_dfas(dfa):
    assert_signatures_match_reference(small_monoid(dfa))


@pytest.mark.parametrize("language", [kth_tail(k) for k in range(1, 7)]
                         + [counter(n) for n in range(1, 9)]
                         + [mod_length(p) for p in range(1, 8)],
                         ids=lambda language: language.name)
def test_signature_matches_reference_on_families(language):
    # kth_tail k = 6 has order 255, past the cycle oracle's budget
    assert_signatures_match_reference(
        transition_monoid(minimize(load_dfa(json.dumps(language.dfa)))))


def test_signature_classes_sizes(corpus):
    _, _, sm = corpus["a3"]
    sig = build_signature(sm, ["ab"], [2])
    assert len(sig.classes[(0,)]) == 3
    assert len(sig.classes[(1,)]) == 2


def test_signature_four_singletons(corpus):
    _, _, sm = corpus["a1"]
    sig = build_signature(sm, ["a", "b"], [2, 2])
    assert all(len(v) == 1 for v in sig.classes.values())
    assert len(sig.classes) == 4


def test_signature_keeps_the_maxima_and_decides_the_residual_scope(corpus):
    _, _, sm = corpus["a1"]
    full = build_signature(sm, ["ab"])
    assert full.periods == full.maxima == (2,)
    assert full.full_alphabet and full.full_alphabet_at_maximum
    below = build_signature(sm, ["ab"], [1])
    assert below.maxima == (2,) and below.full_alphabet
    assert not below.full_alphabet_at_maximum
    split = build_signature(sm, ["a", "b"], [2, 1])
    assert split.maxima == (2, 2) and not split.full_alphabet
    single = build_signature(sm, ["a"])
    assert single.periods == single.maxima == (2,)
    assert not single.full_alphabet and not single.full_alphabet_at_maximum


def test_signature_invalid_period(corpus):
    _, _, sm = corpus["all_words"]
    with pytest.raises(InvalidPeriod):
        build_signature(sm, ["ab"], [2])


def test_max_period_without_a_gamma_cycle_is_a_verification_failure():
    # a monoid no syntactic monoid can be: its a-edges form a path, so no
    # closed walk reads an a
    fake = SimpleNamespace(alphabet=("a", "b"), order=3,
                           targets=lambda: [[1, 0], [2, 1], []],
                           tree=((-1, -1), (0, 0), (1, 0)))
    with pytest.raises(VerificationFailure,
                       match=r"^maximum period: no closed walk has a letter of gamma \['a'\]$"):
        max_period(fake, "a")


def test_signature_divisor_period_allowed(corpus):
    _, _, sm = corpus["a1"]
    sig = build_signature(sm, ["a"], [1])
    assert sig.periods == (1,)
    assert len(sig.classes[(0,)]) == 4


def test_signature_at_period_one_is_silent(corpus):
    # the degenerate-period notice is the CLI's to print, not a warning
    _, _, sm = corpus["all_words"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_signature(sm, ["ab"]).periods == (1,)
        assert Analysis(regex_to_dfa(parse_regex("(a|b)*"), "ab")).signature.periods == (1,)


def test_classes_partition_monoid(corpus, full_sigs):
    for name, sig in full_sigs.items():
        sm = corpus[name][2]
        seen = []
        for r in sig.residuals():
            seen.extend(sig.classes[r])
        assert sorted(seen) == list(range(sm.order)), name


def test_rho_bar_is_homomorphism(corpus, full_sigs):
    for name, sig in full_sigs.items():
        sm = corpus[name][2]
        for x in range(sm.order):
            for y in range(sm.order):
                assert sig.rho_bar[sm.monoid.table[x][y]] == sig.add(
                    sig.rho_bar[x], sig.rho_bar[y]), name


def test_stabilizing_words_have_zero_residual(corpus, full_sigs):
    rng = random.Random(7)
    for name, sig in full_sigs.items():
        sm = corpus[name][2]
        for _ in range(1000):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            image = sm.image_of_word(w)
            if any(sm.monoid.table[t][image] == t for t in range(sm.order)):
                assert residual_of_word(w, sig.gammas, sig.periods) == \
                    tuple(0 for _ in sig.periods), (name, w)


@given(st.sampled_from(sorted(CORPUS_SOURCES)), st.text(alphabet="ab", max_size=14))
def test_rho_bar_agrees_with_word_residual(corpus, full_sigs, name, word):
    sig = full_sigs[name]
    sm = corpus[name][2]
    assert sig.rho_bar[sm.image_of_word(word)] == residual_of_word(
        word, sig.gammas, sig.periods)


# --- sink periods ---

def test_sinks_of_markov_graph(corpus):
    dfa, _, _ = corpus["a3"]
    sinks = dict(sink_periods(dfa))
    assert sinks == {("q2", "q3"): 2, ("q4",): 1}


def test_sinks_of_cayley_graph_all_equal(corpus):
    _, _, sm = corpus["a3"]
    sinks = sink_periods(sm)
    assert [p for _, p in sinks] == [2, 2]


def test_sink_periods_take_only_a_syntactic_monoid_or_a_dfa(corpus):
    _, _, sm = corpus["a3"]
    with pytest.raises(TypeError, match=r"^expected SyntacticMonoid or Dfa, got FiniteMonoid$"):
        sink_periods(sm.monoid)


def test_single_vertex_self_loop():
    dfa = regex_to_dfa(parse_regex("(a|b)*"), "ab")
    assert sink_periods(dfa) == [((0,), 1)]


def test_sink_periods_divide_max_period(corpus, full_sigs):
    # the maximum period w.r.t. the whole alphabet is a multiple of every
    # sink period of the Cayley graph, and all sink periods agree
    for name, (_, _, sm) in corpus.items():
        period = full_sigs[name].periods[0]
        sinks = sink_periods(sm)
        periods = {p for _, p in sinks}
        assert len(periods) == 1, name
        assert period % periods.pop() == 0, name


@given(small_dfas())
def test_sinks_are_the_closed_classes_on_random_dfas(dfa):
    # small_dfas numbers the states 0..n-1
    assert sink_periods(dfa) == closed_classes(
        [[dfa.delta[(q, a)] for a in dfa.alphabet] for q in dfa.states])
    sm = small_monoid(dfa)
    assert sink_periods(sm) == closed_classes(
        [[sm.monoid.table[x][sm.eta[a]] for a in sm.alphabet] for x in range(sm.order)])


def test_signature_refuses_a_residual_group_past_the_budget(monkeypatch):
    # C_6 counted by a twice over: 36 residuals, of which rho_bar reaches 6
    sm = transition_monoid(minimize(regex_to_dfa(parse_regex("(aaaaaa)*"), "a")))
    monkeypatch.setattr(periods, "RESIDUALS", 36)
    assert len(build_signature(sm, ["a", "a"]).classes) == 36
    monkeypatch.setattr(periods, "RESIDUALS", 35)

    def product(*ranges):
        raise AssertionError("a class was laid out")

    monkeypatch.setattr(periods, "product", product)
    with pytest.raises(TooLarge, match=r"^the residual group C6xC6 exceeds the budget "
                                       r"of 35 residuals$"):
        build_signature(sm, ["a", "a"])
