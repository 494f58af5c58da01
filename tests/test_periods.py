import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from synmon import (build_signature, max_period, periods, residual_of_word,
                    sink_periods)
from synmon.errors import (InvalidPeriod, PeriodTrivialWarning,
                           UnknownSymbol, VerificationFailure)
from synmon.oracle import OracleBudget, cycle_gcd
from synmon.periods import strongly_connected_components
from synmon.regexes import parse_regex, regex_to_dfa

from conftest import CORPUS_SOURCES, closed_classes, small_dfas, small_monoid


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
    sm = small_monoid(dfa, cap=OracleBudget().max_monoid_order)
    for gamma in [("a",), ("b",), ("a", "b")]:
        assert max_period(sm, gamma) == cycle_gcd(sm, gamma), gamma


# --- signatures ---

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
    with pytest.warns(PeriodTrivialWarning):
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
    n = 3
    edges = sorted([(u, "a", u + 1) for u in range(n - 1)] + [(u, "b", u) for u in range(n)])
    fake = SimpleNamespace(alphabet=("a", "b"), order=n, cayley_edges=lambda: edges)
    with pytest.raises(VerificationFailure,
                       match=r"^maximum period: no closed walk has a letter of gamma \['a'\]$"):
        max_period(fake, "a")


def test_a_residual_clash_is_a_verification_failure(corpus, monkeypatch):
    # a wrong maximum lets the period 2 through on a language of period 1:
    # the identity, reached by a from itself, gets two residuals
    _, _, sm = corpus["all_words"]
    monkeypatch.setattr(periods, "max_period", lambda m, gamma: 4)
    with pytest.raises(VerificationFailure,
                       match=r"^signature: residual clash at element 0: \(0,\) and \(1,\)$"):
        build_signature(sm, ["ab"], [2])


def test_signature_divisor_period_allowed(corpus):
    _, _, sm = corpus["a1"]
    with pytest.warns(PeriodTrivialWarning):
        sig = build_signature(sm, ["a"], [1])
    assert sig.periods == (1,)
    assert len(sig.classes[(0,)]) == 4


def test_signature_trivial_warning(corpus):
    _, _, sm = corpus["all_words"]
    with pytest.warns(PeriodTrivialWarning):
        build_signature(sm, ["ab"])


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
