import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synmon import (Analysis, build_signature, canonical_decomposition, load_dfa,
                    lw_recognizer, principal_ideal, mu_series,
                    accumulation_points, zero_one_basic, zero_one_residual)
from synmon import periods, probability
from synmon.dfa import Dfa, minimize, words_of_length
from synmon.errors import InvalidPeriod, ScopeError, VerificationFailure
from synmon.oracle import mu_enumerate
from synmon.regexes import parse_regex, regex_to_dfa
from synmon.probability import (_solve, basic_verdict, limit_mu_blocks, limit_vector,
                                maximum_period_of, residual_verdict, residue_limits)

from conftest import closed_classes, random_decomposition, small_dfas
from reference import markov_chain, mu_exact, residual_table, walk_limit_vector

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import counter, kth_tail  # noqa: E402

def test_mu_exact_matches_quoted_value(corpus):
    dfa, _, _ = corpus["a3"]
    assert mu_exact(dfa, 2) == Fraction(1, 2)


def test_mu_at_zero_is_epsilon_membership(corpus):
    for name, (dfa, _, _) in corpus.items():
        assert mu_exact(dfa, 0) == (1 if dfa.accepts("") else 0)


def test_mu_constant_half_for_head_language(corpus):
    dfa, _, _ = corpus["head_a"]
    for length in range(1, 21):
        assert mu_exact(dfa, length) == Fraction(1, 2)


def test_mu_series_matches_pointwise(corpus):
    dfa, _, _ = corpus["a3"]
    series = mu_series(dfa, 10)
    assert series == [mu_exact(dfa, l) for l in range(11)]


@given(small_dfas())
def test_mu_series_matches_the_enumeration_oracle_on_random_dfas(dfa):
    assert mu_series(dfa, 8) == [mu_enumerate(dfa, l) for l in range(9)]


def forward_series(dfa, upto):
    """mu(0), ..., mu(upto) by counting forward from the initial state: the
    number of words of each length that reach each state."""
    accepting = {i for i, q in enumerate(dfa.states) if q in dfa.accepting}
    counts = probability._walk_counts(dfa.targets(), dfa.states.index(dfa.initial))
    return [Fraction(sum(c for i, c in vector.items() if i in accepting),
                     len(dfa.alphabet) ** length)
            for length, vector in zip(range(upto + 1), counts)]


def test_mu_series_equals_the_forward_count_on_the_corpus(corpus):
    for name, (dfa, minimal, _) in corpus.items():
        assert mu_series(dfa, 64) == forward_series(dfa, 64), name
        assert mu_series(minimal, 64) == forward_series(minimal, 64), name


@given(small_dfas())
def test_mu_series_equals_the_forward_count_on_random_dfas(dfa):
    assert mu_series(dfa, 64) == forward_series(dfa, 64)


def test_mu_series_with_one_letter_or_one_state():
    # one letter gathers once per step; one state takes the `map` fallback
    for regex, alphabet in (("a(aa)*", "a"), ("a*", "a"), ("(a|b)*", "ab"), ("a", "a")):
        dfa = regex_to_dfa(parse_regex(regex), alphabet)
        assert mu_series(dfa, 64) == forward_series(dfa, 64), regex
    one_state = regex_to_dfa(parse_regex("a*"), "a")
    assert one_state.n_states == 1
    assert mu_series(one_state, 3) == [1, 1, 1, 1]
    assert mu_series(regex_to_dfa(parse_regex("a(aa)*"), "a"), 3) == [0, 1, 0, 1]


def test_markov_matrix_exact(corpus):
    dfa, _, _ = corpus["a3"]
    chain = markov_chain(dfa)
    h = Fraction(1, 2)
    assert chain.states == ("q1", "q2", "q3", "q4")
    assert chain.matrix == (
        (0, h, 0, h),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )


def test_markov_rows_sum_to_one(corpus):
    for name, (dfa, _, _) in corpus.items():
        for row in markov_chain(dfa).matrix:
            assert sum(row) == 1, name


def test_markov_one_state_dfa(corpus):
    dfa, _, _ = corpus["all_words"]
    assert markov_chain(dfa).matrix == ((1,),)


def test_mu_equals_markov_power(corpus):
    # mu(l) = sum over accepting states of Pi^l(initial, q), exactly
    for name in ("a3", "a1", "head_a"):
        dfa, _, _ = corpus[name]
        chain = markov_chain(dfa)
        position = {q: i for i, q in enumerate(chain.states)}
        row = [Fraction(int(q == dfa.initial)) for q in chain.states]
        for length in range(51):
            if length:
                row = [sum(row[i] * chain.matrix[i][j] for i in range(len(row)))
                       for j in range(len(row))]
            expected = sum(row[position[q]] for q in dfa.accepting)
            assert mu_exact(dfa, length) == expected, (name, length)


# --- accumulation points ---

def test_accumulation_oscillating(corpus):
    dfa, _, _ = corpus["a3"]
    points = accumulation_points(dfa)
    assert points == [Fraction(1, 2), 1]


def test_accumulation_equal_halves(corpus):
    dfa, _, _ = corpus["alt_half"]
    points = accumulation_points(dfa)
    assert points == [Fraction(1, 2), Fraction(1, 2)]


def test_accumulation_parity(corpus):
    dfa, _, _ = corpus["a1"]
    points = accumulation_points(dfa)
    assert points == [Fraction(1, 2), 0]


# exact limits per residue, derived by hand (see bench/workloads.py)
CORPUS_LIMITS = {
    "a1": [Fraction(1, 2), 0], "a2": [Fraction(1, 3)], "a3": [Fraction(1, 2), 1],
    "pairs": [1, 0], "head_a": [Fraction(1, 2)],
    "alt_half": [Fraction(1, 2), Fraction(1, 2)], "has_a": [1], "single_a": [0],
    "all_words": [1],
}


def test_accumulation_sequences_settle(corpus):
    for name, (dfa, _, _) in corpus.items():
        assert accumulation_points(dfa) == CORPUS_LIMITS[name], name


# --- zero-one verdicts ---

def test_basic_verdicts(corpus):
    cases = {"has_a": "one", "head_a": "neither", "a3": "oscillating",
             "all_words": "one", "single_a": "zero", "a1": "oscillating"}
    for name, expected in cases.items():
        dfa, _, sm = corpus[name]
        assert zero_one_basic(sm, dfa).verdict == expected, name


def test_basic_verdict_agrees_with_zero_element(corpus):
    from synmon import find_zero

    for name, (dfa, _, sm) in corpus.items():
        verdict = zero_one_basic(sm, dfa).verdict
        assert (find_zero(sm.monoid) is not None) == (verdict in ("zero", "one")), name


def test_residual_verdicts_for_oscillating_language(corpus, full_decs):
    dfa, _, _ = corpus["a3"]
    dec = full_decs["a3"]
    va = zero_one_residual(dec, dfa, "a")
    assert va.is_zero_or_one and va.witness_names == ("e",)
    assert va.mu_lw == 1
    veps = zero_one_residual(dec, dfa, "")
    assert not veps.is_zero_or_one and veps.witness is None
    assert veps.mu_lw == Fraction(1, 2)


def test_residual_verdict_parity_prefix(corpus, full_decs):
    dfa, _, _ = corpus["a1"]
    dec = full_decs["a1"]
    verdict = zero_one_residual(dec, dfa, "a")
    assert verdict.is_zero_or_one
    assert verdict.mu_lw == 0


def test_residual_scope_needs_max_period(corpus):
    dfa, _, sm = corpus["a1"]
    dec = canonical_decomposition(sm, build_signature(sm, ["ab"], [1]))
    # a single letter subset at its own maximum period is out of scope too
    dec_a = canonical_decomposition(sm, build_signature(sm, ["a"]))
    for out_of_scope in (dec, dec_a):
        with pytest.raises(ScopeError):
            zero_one_residual(out_of_scope, dfa, "")


def test_verdicts_match_limits_both_ways(corpus, full_decs):
    # ideal witness exists iff the exact limit is 0 or 1
    from synmon import is_ideal, residual_monoid

    for name, dec in full_decs.items():
        dfa = corpus[name][0]
        period = dec.signature.periods[0]
        for n in range(period):
            for w in map("".join, itertools.product("ab", repeat=n)):
                verdict = zero_one_residual(dec, dfa, w)
                assert verdict.is_zero_or_one == (verdict.mu_lw in (0, 1)), (name, w)
                if verdict.witness is not None:
                    t_r = residual_monoid(dec, verdict.r)
                    assert is_ideal(residual_table(t_r), set(verdict.witness)), (name, w)


def scan_witness(t_r, accepting):
    """The first principal ideal of T_r, in ascending order of its
    generator, that lies inside or outside `accepting`, or None: the
    verdict by definition, scanning every element of T_r's table by
    composition."""
    table = residual_table(t_r)
    for tau in range(t_r.order):
        ideal = principal_ideal(table, tau)
        if not (ideal & accepting) or ideal <= accepting:
            return tuple(sorted(ideal))
    return None


def assert_verdicts_match_scan(analysis):
    for verdict in analysis.residual_verdicts:
        rec = lw_recognizer(analysis.decomposition, verdict.w)
        assert verdict.witness == scan_witness(rec.monoid, rec.accepting), verdict.w


def test_minimal_ideal_verdicts_match_the_scan_on_the_corpus(corpus):
    for name, (dfa, _, _) in corpus.items():
        assert_verdicts_match_scan(Analysis(dfa))


@pytest.mark.parametrize("language", [kth_tail(k) for k in range(1, 6)]
                         + [counter(n) for n in (4, 6, 8)], ids=lambda lang: lang.name)
def test_minimal_ideal_verdicts_match_the_scan_on_families(language):
    assert_verdicts_match_scan(Analysis(load_dfa(json.dumps(language.dfa))))


@given(small_dfas())
def test_minimal_ideal_verdicts_match_the_scan_on_random_dfas(dfa):
    dec = random_decomposition(dfa)
    h = limit_vector(dfa, dec.signature.periods[0])
    for r in range(dec.signature.periods[0]):
        for w in map("".join, itertools.product("ab", repeat=r)):
            rec = lw_recognizer(dec, w)
            verdict = residual_verdict(w, rec.monoid, rec.accepting, h[dfa.run(w)])
            assert verdict.witness == scan_witness(rec.monoid, rec.accepting), w


def test_verdicts_reject_limits_off_zero_or_one_by_any_amount(corpus):
    # the algebra says 1; a limit 1e-9 below it is a verification failure
    near_one = 1 - Fraction(1, 10 ** 9)
    analysis = Analysis(corpus["a3"][0])
    rec = lw_recognizer(analysis.decomposition, "a")
    with pytest.raises(VerificationFailure, match=r"^residual zero-one verdict: .* "
                       r"limit 999999999/1000000000 for w='a'$"):
        residual_verdict("a", rec.monoid, rec.accepting, near_one)
    _, _, has_a = corpus["has_a"]
    with pytest.raises(VerificationFailure, match=r"^basic zero-one verdict: zero element "
                       r"\d+ predicts mu = 1 but limits are 999999999/1000000000$"):
        basic_verdict(has_a, 1, [near_one])


def limits_by_residue_and_by_word(dfa, period: int, r: int):
    """The limit at residue r from `residue_limits`' forward counts, and the
    limit of each word of length r read off h at the state it reaches."""
    h = limit_vector(dfa, period)
    return (residue_limits(dfa, period, h)[r],
            [h[dfa.run(w)] for w in words_of_length(dfa.alphabet, r)])


def test_residue_limits_average_h_examples(corpus):
    dfa, _, _ = corpus["a3"]
    dfa1, _, _ = corpus["a1"]
    assert maximum_period_of(dfa) == maximum_period_of(dfa1) == 2
    for r, limit in ((1, 1), (0, Fraction(1, 2))):
        mu_r, per_word = limits_by_residue_and_by_word(dfa, 2, r)
        assert mu_r == Fraction(sum(per_word), len(per_word)) == limit
    mu_r, per_word = limits_by_residue_and_by_word(dfa1, 2, 1)
    assert mu_r == 0 and per_word == [0, 0]


def test_residue_limits_average_h_everywhere(corpus, full_decs):
    for name, dec in full_decs.items():
        dfa = corpus[name][0]
        period = dec.signature.periods[0]
        for r in range(period):
            mu_r, per_word = limits_by_residue_and_by_word(dfa, period, r)
            assert mu_r == Fraction(sum(per_word), len(per_word)), (name, r)


def test_limit_mu_blocks_converges(corpus):
    dfa, _, _ = corpus["a3"]
    assert limit_mu_blocks(dfa, "b") == 1


def test_limit_mu_blocks_reads_the_maximum_period_itself(corpus):
    # on a1 mu alternates between 1/2 and 0: the limit after no prefix is
    # the one at residue 0 of the maximum period 2, not a mean of both
    dfa, _, _ = corpus["a1"]
    assert limit_mu_blocks(dfa, "") == Fraction(1, 2)


def test_the_wrappers_agree_with_the_stages(corpus):
    for name, (dfa, _, _) in corpus.items():
        analysis = Analysis(dfa)
        assert accumulation_points(dfa) == analysis.accumulation, name
        for r in range(analysis.max_period):
            for w in words_of_length(dfa.alphabet, r):
                assert limit_mu_blocks(dfa, w) == \
                    analysis.limit_vector[analysis.minimal.run(w)], (name, w)


def test_maximum_period_of(corpus, full_sigs):
    for name, (dfa, _, _) in corpus.items():
        assert maximum_period_of(dfa) == full_sigs[name].periods[0], name


def fraction_solve(equations) -> dict:
    """The unique solution of a linear system by Gauss-Jordan elimination
    over Fractions, each pivot row divided by its pivot: the reference for
    `probability._solve`, which eliminates on integer rows.  Equations are
    dicts {unknown: coefficient} with the right-hand side under None."""
    rows = [{x: Fraction(v) for x, v in equation.items() if v} for equation in equations]
    holders = {None: set()}
    for i, row in enumerate(rows):
        for x in row:
            holders.setdefault(x, set()).add(i)
    pending = set(range(len(rows)))
    while pending:
        i = min(pending, key=lambda k: len(rows[k]))
        pending.remove(i)
        row = rows[i]
        x = min((y for y in row if y is not None), key=lambda y: len(holders[y]))
        scale = row[x]
        for y in row:
            row[y] /= scale
        for k in holders[x] - {i}:
            other = rows[k]
            factor = other[x]
            for y, v in row.items():
                value = other.get(y, 0) - factor * v
                if value:
                    other[y] = value
                    holders[y].add(k)
                else:
                    del other[y]
                    holders[y].discard(k)
    return {x: row.get(None, Fraction(0)) for row in rows for x in row if x is not None}


@st.composite
def regular_systems(draw):
    """Sparse linear systems with a unique solution: strictly diagonally
    dominant integer coefficients, and right-hand sides that are ints or
    Fractions."""
    n = draw(st.integers(1, 7))
    equations = []
    for i in range(n):
        row = {j: draw(st.integers(-4, 4)) for j in range(n)
               if j != i and draw(st.booleans())}
        dominance = sum(abs(v) for v in row.values()) + draw(st.integers(1, 5))
        row[i] = draw(st.sampled_from([dominance, -dominance]))
        row[None] = draw(st.one_of(
            st.integers(-20, 20),
            st.fractions(min_value=-20, max_value=20, max_denominator=12)))
        equations.append(row)
    return equations


@settings(max_examples=300)
@given(regular_systems())
def test_integer_elimination_matches_fraction_elimination(equations):
    assert _solve(equations) == fraction_solve(equations)


def test_limit_vector_systems_match_fraction_elimination(corpus):
    # the systems limit_vector builds, solved by both eliminations
    systems = []

    def recording(equations):
        systems.append(equations)
        return _solve(equations)

    for dfa, _, _ in corpus.values():
        with mock.patch.object(probability, "_solve", recording):
            limit_vector(dfa, maximum_period_of(dfa))
    assert systems
    for equations in systems:
        assert _solve(equations) == fraction_solve(equations)


@given(small_dfas(), st.integers(1, 4))
def test_limit_vector_closed_classes_on_random_dfas(dfa, period):
    # the closed classes limit_vector solves are those of the one-letter
    # chain, with their cycle gcds, at every period; small_dfas numbers the
    # states 0..n-1
    solved = []

    def recording(n, successors):
        classes = periods._cycle_classes(n, successors)
        solved.extend((component, d) for component, d, _ in classes)
        return classes

    with mock.patch.object(probability, "_cycle_classes", recording):
        limit_vector(dfa, period)
    assert solved == [(list(members), d) for members, d in closed_classes(dfa.targets())]


@settings(max_examples=300)
@given(st.one_of(small_dfas(), small_dfas(8, ("ab", "abc"), 0)), st.integers(1, 6))
def test_limit_vector_equals_the_walk_through_a_to_the_p(dfa, period):
    # one solve per closed class of the one-letter chain gives the Cesaro
    # limit over the closed classes of A^P, on the DFA as drawn, which need
    # not be minimal, and on its minimization; the larger DFAs, over two or
    # three letters with levels mod p up to 8 and maybe no accepting state,
    # hold closed classes with cycle gcds up to 8
    for automaton in (dfa, minimize(dfa)):
        assert limit_vector(automaton, period) == walk_limit_vector(automaton, period)


def test_limit_vector_reads_gcd_of_cycle_and_period():
    # three accepting states in a cycle accept Sigma*: the cycle gcd is 3,
    # and at periods 1 and 2, which 3 does not divide, every limit is 1;
    # with one accepting state each limit is gcd(3, P)/3 or 0
    delta = {(q, "a"): (q + 1) % 3 for q in range(3)}
    for accepting, period, expected in (({0, 1, 2}, 1, [1, 1, 1]), ({0, 1, 2}, 2, [1, 1, 1]),
                                        ({0}, 1, [Fraction(1, 3)] * 3),
                                        ({0}, 3, [1, 0, 0]), ({0}, 6, [1, 0, 0])):
        cycle = Dfa(("a",), (0, 1, 2), 0, frozenset(accepting), delta)
        h = limit_vector(cycle, period)
        assert h == walk_limit_vector(cycle, period)
        assert [h[q] for q in range(3)] == expected


@pytest.mark.parametrize("period", [0, -1])
def test_limit_vector_refuses_a_period_below_one(corpus, period):
    # refused before any walk starts
    walks = []
    with mock.patch.object(probability, "_walk_counts", lambda *args: walks.append(args)):
        with pytest.raises(InvalidPeriod, match=f"period {period} must be at least 1"):
            limit_vector(corpus["pairs"][0], period)
    assert walks == []


# --- exact limits against float64 powers, on random DFAs ---

@settings(max_examples=200)
@given(small_dfas())
def test_exact_limits_match_float_powers_on_random_dfas(dfa):
    # mu(r + kP) -> u Q^r (Q^P)^k acc: at k = 2000 the float64 value is
    # within 1e-9 of the exact limit; the DFA need not be minimal
    dec = random_decomposition(dfa)
    period = dec.signature.periods[0]
    index = {q: i for i, q in enumerate(dfa.states)}
    chain = np.zeros((dfa.n_states, dfa.n_states))
    for (q, _a), t in dfa.delta.items():
        chain[index[q], index[t]] += 0.5
    acc = np.array([float(q in dfa.accepting) for q in dfa.states])
    tail = np.linalg.matrix_power(np.linalg.matrix_power(chain, period), 2000) @ acc
    start = np.eye(dfa.n_states)[index[dfa.initial]]
    for r, limit in enumerate(accumulation_points(dfa)):
        expected = start @ np.linalg.matrix_power(chain, r) @ tail
        assert abs(float(limit) - expected) < 1e-9, r
    zero_one_basic(dec.m, dfa)
    for r in range(period):
        for w in map("".join, itertools.product("ab", repeat=r)):
            limit = limit_mu_blocks(dfa, w)
            assert abs(float(limit) - tail[index[dfa.run(w)]]) < 1e-9, w
            assert zero_one_residual(dec, dfa, w).mu_lw == limit
