"""Acceptance suite: one check per criterion, with a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the whole
suite finishes in a few seconds.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from synmon import (accumulation_points, build_signature,
                    canonical_decomposition, direct_product, hom_image_check,
                    lw_member, lw_quotient, lw_recognizer, make_named,
                    max_period, mu_exact, residual_monoid,
                    semidirect_product, sink_periods,
                    verify_canonical, wreath_divisor, zero_one_basic,
                    zero_one_residual)
from synmon.monoid import function_monoid
from synmon.oracle import brute_isomorphic, cycle_gcd, mu_enumerate

from conftest import CORPUS_SOURCES
from test_generator_checks import allpairs_wreath_ok

DATA = Path(__file__).parent / "data"
INVERSION = [[0, 1, 2], [0, 2, 1]]


def check(label, condition):
    print(f"{'PASS' if condition else 'FAIL'}  {label}")
    assert condition, label


# --- 1. worked examples, exact ---

def test_parity_language_monoid(corpus):
    _, _, sm = corpus["a1"]
    c2 = make_named("cyclic", 2)
    check("a1: monoid order 4", sm.order == 4)
    check("a1: isomorphic to C2 x C2",
          brute_isomorphic(sm.monoid, direct_product(c2, c2)))
    check("a1: max periods 2/2/2 for {a},{b},{a,b}",
          (max_period(sm, "a"), max_period(sm, "b"), max_period(sm, "ab"))
          == (2, 2, 2))
    dec = canonical_decomposition(sm, build_signature(sm, ["a", "b"], [2, 2]))
    verify_canonical(dec)
    check("a1: K = 1", dec.K == 1)
    check("a1: embedding bijective onto the K=1 target",
          dec.target_order() == sm.order)


def test_permutation_language_monoid(corpus):
    _, _, sm = corpus["a2"]
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    check("a2: monoid order 6", sm.order == 6)
    check("a2: isomorphic to C3 semidirect C2 with inversion",
          brute_isomorphic(sm.monoid, semidirect_product(c3, c2, INVERSION)))
    check("a2: max period w.r.t. {a} is 2", max_period(sm, "a") == 2)
    dec = canonical_decomposition(sm, build_signature(sm, ["a"], [2]))
    check("a2: K = 3", dec.K == 3)
    check("a2: max periods for {b} and {a,b} are 1, matching the cycle oracle",
          max_period(sm, "b") == cycle_gcd(sm, "b") == 1
          and max_period(sm, "ab") == cycle_gcd(sm, "ab") == 1)


def test_oscillating_language_monoid(corpus, full_decs):
    dfa, _, sm = corpus["a3"]
    check("a3: monoid order 5", sm.order == 5)
    check("a3: max period w.r.t. the alphabet is 2",
          max_period(sm, "ab") == 2)
    dec = full_decs["a3"]
    check("a3: K = 3", dec.K == 3)
    t0, t1 = residual_monoid(dec, 0), residual_monoid(dec, 1)
    check("a3: residual monoid at r=1 is trivial", t1.order == 1)
    check("a3: residual monoid at r=0 is the left-zero adjunction",
          brute_isomorphic(t0.monoid, make_named("left_zero", 2)))
    sinks = dict(sink_periods(dfa))
    check("a3: sinks {q2,q3} period 2 and {q4} period 1",
          sinks == {("q2", "q3"): 2, ("q4",): 1})
    check("a3: mu(2) = 1/2 exactly", mu_exact(dfa, 2) == Fraction(1, 2))
    points = accumulation_points(dfa, 2)
    check("a3: accumulation points (0.5, 1.0) within 1e-6",
          abs(points[0].value - 0.5) < 1e-6 and abs(points[1].value - 1.0) < 1e-6)
    r1 = [zero_one_residual(dec, dfa, w) for w in ("a", "b")]
    r0 = zero_one_residual(dec, dfa, "")
    check("a3: residual zero-one verdicts r=1 true, r=0 false",
          all(v.is_zero_or_one for v in r1) and not r0.is_zero_or_one)


def test_remaining_example_languages(corpus):
    _, _, sm_pairs = corpus["pairs"]
    check("pairs: monoid is C2 with period 2",
          brute_isomorphic(sm_pairs.monoid, make_named("cyclic", 2))
          and max_period(sm_pairs, "ab") == 2)
    dfa_head, _, _ = corpus["head_a"]
    check("head_a: mu(l) = 1/2 exactly for 1 <= l <= 20",
          all(mu_exact(dfa_head, l) == Fraction(1, 2) for l in range(1, 21)))
    dfa_half, _, sm_half = corpus["alt_half"]
    points = accumulation_points(dfa_half, 2)
    check("alt_half: max period 2 with accumulation (0.5, 0.5) within 1e-6",
          max_period(sm_half, "ab") == 2
          and abs(points[0].value - 0.5) < 1e-6
          and abs(points[1].value - 0.5) < 1e-6)


# --- 2. exhaustive structural suites ---

GAMMA_SETS = {name: [[("a", "b")]] for name in CORPUS_SOURCES}
GAMMA_SETS["a1"] = [[("a", "b")], [("a",), ("b",)]]
GAMMA_SETS["a2"] = [[("a", "b")], [("a",)]]


def _divisor_vectors(maxima):
    choices = [[d for d in range(1, p + 1) if p % d == 0] for p in maxima]
    return itertools.product(*choices)


def test_embedding_verified_for_every_divisor_valid_period_vector(corpus):
    count = 0
    for name, (_, _, sm) in corpus.items():
        for gammas in GAMMA_SETS[name]:
            maxima = [max_period(sm, g) for g in gammas]
            for periods in _divisor_vectors(maxima):
                dec = canonical_decomposition(sm, build_signature(sm, gammas, periods))
                verify_canonical(dec)
                count += 1
    check(f"embedding verified (hom/injective/residual) for {count} "
          "language-period combinations", count >= 9)


def test_classes_partition_every_corpus_monoid(corpus, full_sigs):
    for name, sig in full_sigs.items():
        order = corpus[name][2].order
        members = sorted(i for r in sig.residuals() for i in sig.classes[r])
        assert members == list(range(order)), name
    check("residual classes partition the monoid for all corpus signatures",
          True)


def test_recognizers_agree_with_dfa_membership(corpus, full_decs):
    rng = random.Random(2024)
    for name, dec in full_decs.items():
        _, minimal, _ = corpus[name]
        period = dec.signature.periods[0]
        prefixes = [w for n in range(period)
                    for w in map("".join, itertools.product("ab", repeat=n))]
        recognizers = {w: lw_recognizer(dec, w) for w in prefixes}
        for _ in range(500):
            w = rng.choice(prefixes)
            u = ["".join(rng.choice("ab") for _ in range(period))
                 for _ in range(rng.randint(0, 5))]
            assert lw_member(recognizers[w], u) == minimal.accepts(w + "".join(u)), \
                (name, w, u)
    check("block recognizers agree with dfa membership on 500 samples "
          "per language", True)


def test_quotients_onto_block_monoids(corpus, full_decs):
    for name, dec in full_decs.items():
        dfa = corpus[name][0]
        for n in range(dec.signature.periods[0]):
            for w in map("".join, itertools.product("ab", repeat=n)):
                lw_quotient(dec, dfa, w)
    check("residual monoids map onto every block-language monoid "
          "(well-defined and surjective)", True)


def test_wreath_divisor_everywhere(corpus, full_decs):
    # wreath_divisor reads phi off a verified decomposition; the all-pairs
    # reference checks the action against every element
    for name, dec in full_decs.items():
        assert len(wreath_divisor(dec)) == dec.m.order, name
        assert allpairs_wreath_ok(dec), name
        assert dec.signature.surjective, name
    _, _, sm1 = corpus["a1"]
    dec1 = canonical_decomposition(sm1, build_signature(sm1, ["a", "b"], [2, 2]))
    assert len(wreath_divisor(dec1)) == sm1.order
    assert allpairs_wreath_ok(dec1)
    assert dec1.signature.surjective
    check("wreath action equivariance holds exhaustively; residual map "
          "is onto the group", True)


def test_power_semidirect_embedding():
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    small = semidirect_product(c3, c2, INVERSION)
    power = function_monoid(c3, 2)
    elements = list(itertools.product(range(3), repeat=2))
    index = {f: i for i, f in enumerate(elements)}
    power_action = [
        [index[tuple(f[c2.table[y][j]] for y in range(2))] for f in elements]
        for j in range(2)
    ]
    big = semidirect_product(power, c2, power_action)
    mapping = []
    for i in range(3):
        f = tuple(INVERSION[y][i] for y in range(2))
        for j in range(2):
            mapping.append(index[f] * 2 + j)
    check("inversion product embeds in the function-power product "
          "(injective homomorphism, exhaustive)",
          hom_image_check(small, big, mapping)
          and len(set(mapping)) == small.order)


def test_zero_one_verdicts_match_numeric_limits(corpus, full_decs):
    from synmon import find_zero

    for name, (dfa, _, sm) in corpus.items():
        basic = zero_one_basic(sm, dfa)
        points = accumulation_points(dfa, basic.period)
        limits = [p.value for p in points]
        binary = all(min(abs(v), abs(v - 1)) < 1e-6 for v in limits) \
            and max(limits) - min(limits) < 1e-6
        assert (find_zero(sm.monoid) is not None) == binary, name
    for name, dec in full_decs.items():
        dfa = corpus[name][0]
        for n in range(dec.signature.periods[0]):
            for w in map("".join, itertools.product("ab", repeat=n)):
                verdict = zero_one_residual(dec, dfa, w)
                near = min(abs(verdict.mu_lw), abs(verdict.mu_lw - 1)) < 1e-6
                assert verdict.is_zero_or_one == near, (name, w)
    check("zero-one verdicts match numeric limits within 1e-6, "
          "both directions, basic and per-prefix", True)


# --- 3. oracle equivalence ---

def test_exact_counting_matches_enumeration(corpus):
    for name, (dfa, _, _) in corpus.items():
        for length in range(13):
            assert mu_exact(dfa, length) == mu_enumerate(dfa, length), \
                (name, length)
    check("exact counting equals word enumeration for lengths up to 12", True)


def test_graph_period_matches_cycle_oracle(corpus):
    for name, (_, _, sm) in corpus.items():
        for gamma in (("a",), ("b",), ("a", "b")):
            assert max_period(sm, gamma) == cycle_gcd(sm, gamma), (name, gamma)
    check("potential-based period equals simple-cycle gcd on all corpus "
          "monoids", True)


def test_parity_accumulation_reproduced_both_ways(corpus):
    dfa, _, _ = corpus["a1"]
    points = accumulation_points(dfa, 2)
    direct = (abs(points[0].value - 0.5) < 1e-6
              and abs(points[1].value - 0.0) < 1e-6)
    enumerated = (mu_enumerate(dfa, 12) == Fraction(1, 2)
                  and mu_enumerate(dfa, 11) == 0
                  and mu_enumerate(dfa, 10) == Fraction(1, 2))
    check("parity-language accumulation (0.5, 0.0) via iteration and via "
          "enumeration", direct and enumerated)


# --- 4. determinism ---

def test_analyze_json_byte_identical():
    args = [sys.executable, "-m", "synmon", "analyze",
            "--regex", "a((a|b)(a|b))*|b(a|b)*", "--json"]
    first = subprocess.run(args, capture_output=True, text=True, timeout=120)
    second = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert first.returncode == second.returncode == 0
    json.loads(first.stdout)
    check("two analyze --json runs are byte-identical",
          first.stdout == second.stdout)
