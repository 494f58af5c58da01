import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from synmon import (Dfa, build_signature, canonical_decomposition, cli, load_dfa, lw_member,
                    lw_quotient, lw_recognizer, make_named, max_period, minimize,
                    residual_monoid, syntactic_monoid_of_lw, transition_monoid,
                    verify_canonical, wreath_divisor)
from synmon.errors import ScopeError, UnknownSymbol, VerificationFailure
from synmon.oracle import brute_isomorphic, lw_enumerate
from synmon.regexes import parse_regex, regex_to_dfa
from synmon.theory import can_product, identity_transformation, target_order

from conftest import CORPUS_SOURCES, random_decomposition, small_dfas, small_monoid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import kth_tail  # noqa: E402


def divisor_vectors(maxima):
    """All per-gamma period choices dividing the maxima."""
    choices = [[d for d in range(1, p + 1) if p % d == 0] for p in maxima]
    return list(itertools.product(*choices))


GAMMA_SETS = {name: [("a", "b")] for name in CORPUS_SOURCES}
GAMMA_SETS["a1"] = [("a", "b"), ("a",), ("b",)]
GAMMA_SETS["a2"] = [("a", "b"), ("a",)]


# --- K values and bijectivity (paper examples) ---

def test_k_one_and_bijective(corpus):
    _, _, sm = corpus["a1"]
    sig = build_signature(sm, ["a", "b"], [2, 2])
    dec = canonical_decomposition(sm, sig)
    assert dec.K == 1
    verify_canonical(dec)
    # K = 1 makes the target as small as the monoid itself: Can is onto
    assert target_order(dec) == sm.order == 4


def test_k_three_for_order_six(corpus):
    _, _, sm = corpus["a2"]
    dec = canonical_decomposition(sm, build_signature(sm, ["a"], [2]))
    assert dec.K == 3
    verify_canonical(dec)


def test_k_three_for_order_five(full_decs):
    dec = full_decs["a3"]
    assert dec.K == 3
    verify_canonical(dec)


def test_verify_passes_for_all_divisor_valid_periods(corpus):
    for name, (_, _, sm) in corpus.items():
        for gammas in [GAMMA_SETS[name]]:
            maxima = [None] * len(gammas)
            from synmon import max_period
            maxima = [max_period(sm, g) for g in gammas]
            for periods in divisor_vectors(maxima):
                sig = build_signature(sm, gammas, periods)
                verify_canonical(canonical_decomposition(sm, sig))


def reference_can_f(sm, sig):
    """f_t(r) by its definition: the position in N_{r+rho_bar(t)} of
    theta_r(k).t for k < |N_r|, padded with k -> k."""
    classes = {r: sig.classes[r] for r in sig.residuals()}
    big_k = max(map(len, classes.values()))
    return tuple(
        {r: tuple(classes[sig.add(r, sig.rho_bar[t])].index(sm.monoid.table[x][t])
                  for x in theta) + tuple(range(len(theta), big_k))
         for r, theta in classes.items()}
        for t in range(sm.order))


def can_f(dec):
    """Every f_t(r) as `dec.f` reads it: element t -> {residual: f_t(r)}."""
    return tuple({r: dec.f(t, r) for r in dec.residuals} for t in range(dec.m.order))


def flat_of(sig, maps):
    """The flat maps of the points X of `sig` whose f_t(r) agree with
    maps[t][r] on the class-carrying slots: slot k of N_r, at point
    start_r + k, goes to point start_{r+rho_bar(t)} + maps[t][r][k]."""
    residuals = sig.residuals()
    sizes = [len(sig.classes[r]) for r in residuals]
    start = dict(zip(residuals, itertools.accumulate(sizes, initial=0)))
    return tuple(
        tuple(start[sig.add(r, sig.rho_bar[t])] + x
              for r, size in zip(residuals, sizes) for x in f_t[r][:size])
        for t, f_t in enumerate(maps))


# nonempty words of a length divisible by P: N_0 = {e, the words of length
# P} and every other class holds one element, so K = 2
ONE_ELEMENT_CLASSES = {2: "(a|b)(a|b)((a|b)(a|b))*",
                       3: "(a|b)(a|b)(a|b)((a|b)(a|b)(a|b))*"}


def test_one_element_classes_at_periods_above_one():
    for period, regex in ONE_ELEMENT_CLASSES.items():
        sm = transition_monoid(minimize(regex_to_dfa(parse_regex(regex), "ab")))
        for periods in divisor_vectors([period]):
            sig = build_signature(sm, [("a", "b")], periods)
            dec = canonical_decomposition(sm, sig)
            sizes = sorted(len(sig.classes[r]) for r in sig.residuals())
            assert sizes == ([1] * (period - 1) + [2] if periods == (period,) else [sm.order])
            assert dec.K == sizes[-1]
            assert can_f(dec) == reference_can_f(sm, sig), (regex, periods)
            verify_canonical(dec)


def test_decomposition_matches_its_definition_at_every_divisor_period(corpus):
    for name, (_, _, sm) in corpus.items():
        gammas = GAMMA_SETS[name]
        for periods in divisor_vectors([max_period(sm, g) for g in gammas]):
            sig = build_signature(sm, gammas, periods)
            dec = canonical_decomposition(sm, sig)
            assert can_f(dec) == reference_can_f(sm, sig), (name, periods)


@st.composite
def counting_dfas(draw):
    """A DFA of `small_dfas` that also counts the length mod 2 or 3 and
    accepts at one residue of it, so that periods above one are common."""
    dfa = draw(small_dfas())
    p = draw(st.integers(2, 3))
    residue = draw(st.integers(0, p - 1))
    states = tuple((q, i) for q in dfa.states for i in range(p))
    delta = {((q, i), a): (dfa.delta[(q, a)], (i + 1) % p)
             for q, i in states for a in dfa.alphabet}
    return Dfa(dfa.alphabet, states, (dfa.initial, 0),
               frozenset((q, residue) for q in dfa.accepting), delta)


@settings(max_examples=200)
@given(counting_dfas(),
       st.lists(st.sampled_from(["ab", "ab", "a", "b"]), min_size=1, max_size=3), st.data())
def test_f_matches_its_definition_on_random_dfas_and_gammas(dfa, gammas, data):
    """A repeated gamma leaves classes empty, and a period below the
    maximum merges classes; the whole alphabet is drawn most often, as it
    has a period above one on most DFAs of `counting_dfas`."""
    sm = small_monoid(dfa)
    maxima = [max_period(sm, g) for g in gammas]
    # the maxima first: a draw leans to the first choice
    periods = data.draw(st.sampled_from(divisor_vectors(maxima)[::-1]))
    sig = build_signature(sm, gammas, periods)
    assert can_f(canonical_decomposition(sm, sig)) == reference_can_f(sm, sig)


def test_f_t_of_zero_is_column_t_at_period_one(full_decs):
    dec = full_decs["a2"]
    assert dec.signature.periods == (1,)
    t_0 = residual_monoid(dec, 0)
    for t, column in enumerate(zip(*dec.m.monoid.table)):
        assert dec.f(t, (0,)) == column
        assert dec.f(t, (0,)) is dec.flat[t] is t_0.transformations[t]


def test_each_f_t_of_r_is_one_object_at_period_two():
    # N_0 and N_1 are both proper classes, so every f_t(r) is built on its
    # first read; the elements of T_r and the report's rows are those reads
    sm = transition_monoid(minimize(regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab")))
    dec = canonical_decomposition(sm, build_signature(sm, [("a", "b")]))
    report = cli._decomposition_json(dec)
    for r in range(2):
        t_r = residual_monoid(dec, r)
        assert residual_monoid(dec, r).monoid is t_r.monoid
        for t in dec.theta[(0,)]:
            tau = dec.f(t, (r,))
            assert tau is dec.f(t, (r,)) is report["can"][str(t)]["f"][str(r)]
            assert tau in t_r.transformations
            assert t_r.transformations[t_r.transformations.index(tau)] is tau


def kth_tail_of_length_mod(k: int, period: int):
    """kth_tail(k) times a length-mod-`period` counter: the words of length
    a multiple of `period` whose (k+1)-th letter from the end is an a."""
    language = kth_tail(k).dfa
    step = {(edge["from"], edge["on"]): edge["to"] for edge in language["transitions"]}
    states = [f"{q}{c}" for q in language["states"] for c in range(period)]
    return minimize(load_dfa(json.dumps({
        "alphabet": language["alphabet"], "states": states,
        "initial": language["initial"] + "0",
        "accepting": [q + "0" for q in language["accepting"]],
        "transitions": [{"from": q, "on": a,
                         "to": f"{step[(q[:-1], a)]}{(int(q[-1]) + 1) % period}"}
                        for q in states for a in language["alphabet"]]})))


@pytest.mark.parametrize("k", range(1, 5))
def test_decomposition_matches_its_definition_on_even_length_kth_tail(k):
    """Orders 11 to 95 at P = 2 with K below the order: f_t(r) is read from
    the transposed rows of each class, past the sizes of the corpus."""
    sm = transition_monoid(kth_tail_of_length_mod(k, 2))
    sig = build_signature(sm, [("a", "b")])
    dec = canonical_decomposition(sm, sig)
    assert sig.periods == (2,) and dec.K < sm.order
    assert can_f(dec) == reference_can_f(sm, sig)


# k -> K for kth_tail_of_length_mod(k, 3), of order 2^(k+3) - 1
K_AT_PERIOD_THREE = {1: 6, 2: 12, 3: 25, 4: 50}


@pytest.mark.parametrize("k", sorted(K_AT_PERIOD_THREE))
def test_decomposition_checks_pass_at_period_three(k):
    """At P = 3, Can matches its definition, and the wreath divisor and the
    block quotient of every prefix shorter than the period verify."""
    dfa = kth_tail_of_length_mod(k, 3)
    sm = transition_monoid(dfa)
    sig = build_signature(sm, [("a", "b")])
    dec = canonical_decomposition(sm, sig)
    assert (sig.periods, sm.order, dec.K) == ((3,), 2 ** (k + 3) - 1, K_AT_PERIOD_THREE[k])
    assert can_f(dec) == reference_can_f(sm, sig)
    assert len(wreath_divisor(dec)) == sm.order
    for length in range(3):
        for w in map("".join, itertools.product("ab", repeat=length)):
            quotient = lw_quotient(dec, dfa, w)
            assert len(quotient) == residual_monoid(dec, length).order, w


def test_cli_decompose_with_divisor_periods():
    regex = ONE_ELEMENT_CLASSES[2]
    sm = transition_monoid(minimize(regex_to_dfa(parse_regex(regex), "ab")))
    for periods in ("1", "2"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["decompose", "--json", "--regex", regex, "--alphabet", "ab",
                             "--periods", periods])
        assert code == 0, err.getvalue()
        report = json.loads(out.getvalue())
        sig = build_signature(sm, [("a", "b")], [int(periods)])
        expected = reference_can_f(sm, sig)
        assert report["verified"] is True
        assert {t: {k: tuple(f) for k, f in can["f"].items()}
                for t, can in report["can"].items()} == {
            str(t): {",".join(map(str, r)): f for r, f in fs.items()}
            for t, fs in enumerate(expected)}


def test_mutated_tables_fail_homomorphism(full_decs):
    dec = full_decs["a3"]
    # swap two entries inside a class-carrying slot of one f_t
    t = dec.m.eta["a"]
    zero = (0,)
    broken_f = list(can_f(dec))
    f_t = dict(broken_f[t])
    tau = list(f_t[zero])
    i, j = next((i, j) for i in range(len(tau)) for j in range(len(tau))
                if tau[i] != tau[j])
    tau[i], tau[j] = tau[j], tau[i]
    f_t[zero] = tuple(tau)
    broken_f[t] = f_t
    mutated = dec._replace(flat=flat_of(dec.signature, broken_f))
    # f_a(0) is now (1, 0, 0): then f_a(1) = (1, 2, 2) sends slot 0 to 2,
    # where f_{a.a}(0) = (1, 1, 2) sends it to 1
    with pytest.raises(VerificationFailure) as info:
        verify_canonical(mutated)
    assert str(info.value) == (
        "canonical embedding: Can(s.a) != Can(s).Can(a) at s = 1, a = 'a', "
        "r = (0,), slot 0: Can(s.a) gives 1, Can(s).Can(a) gives 2")


def test_pairs_with_fixed_point_force_zero_residual(corpus, full_decs):
    # any t.m = t forces the residual of m to vanish
    for name, dec in full_decs.items():
        sm = corpus[name][2]
        zero = tuple(0 for _ in dec.signature.periods)
        for t in range(sm.order):
            for m in range(sm.order):
                if sm.monoid.table[t][m] == t:
                    assert dec.signature.rho_bar[m] == zero, name


# --- residual monoids ---

def test_residual_monoids_order_five(full_decs):
    dec = full_decs["a3"]
    t0 = residual_monoid(dec, 0)
    t1 = residual_monoid(dec, 1)
    assert t1.order == 1
    assert t0.order == 3
    assert brute_isomorphic(t0.monoid, make_named("left_zero", 2))


def test_residual_monoid_pairs_language(full_decs):
    t0 = residual_monoid(full_decs["pairs"], 0)
    assert t0.order == 1
    assert t0.transformations == (identity_transformation(full_decs["pairs"].K),)


def test_residual_monoid_scope_error(corpus):
    _, _, sm = corpus["a1"]
    dec = canonical_decomposition(sm, build_signature(sm, ["a", "b"], [2, 2]))
    with pytest.raises(ScopeError):
        residual_monoid(dec, 0)
    dec_full = canonical_decomposition(sm, build_signature(sm, ["ab"]))
    with pytest.raises(ScopeError):
        residual_monoid(dec_full, 5)


def test_residual_monoid_shares_the_table_of_m_at_period_one(full_decs):
    # at P = 1, N_0 = M and t -> f_t(0) is injective, so T_0's table is M's
    dec = full_decs["a2"]
    assert dec.signature.periods == (1,)
    assert residual_monoid(dec, 0).monoid.table is dec.m.monoid.table
    assert residual_monoid(dec, 0).monoid is dec.m.monoid
    dec = full_decs["a3"]
    assert dec.signature.periods == (2,)
    assert residual_monoid(dec, 0).monoid.table is not dec.m.monoid.table


def test_residual_monoid_names_elements_by_their_transformation(full_decs):
    for name, dec in full_decs.items():
        for r in range(dec.signature.periods[0]):
            t_r = residual_monoid(dec, r)
            assert t_r.name_of(0) == "e", name
            for i, tau in enumerate(t_r.transformations[1:], 1):
                assert t_r.name_of(i) == "(" + ",".join(map(str, tau)) + ")", name


def test_residual_monoids_closed_with_identity(full_decs):
    for name, dec in full_decs.items():
        for r in range(dec.signature.periods[0]):
            t_r = residual_monoid(dec, r)
            assert t_r.transformations[0] == identity_transformation(dec.K)
            elements = set(t_r.transformations)
            for x in t_r.transformations:
                for y in t_r.transformations:
                    composed = tuple(y[k] for k in x)
                    assert composed in elements, (name, r)


# --- block-language recognizers ---

def test_recognizer_blocks_for_empty_prefix(full_decs):
    rec = lw_recognizer(full_decs["a3"], "")
    assert lw_member(rec, ["ba"]) and lw_member(rec, ["bb"])
    assert not lw_member(rec, ["aa"]) and not lw_member(rec, ["ab"])
    assert not lw_member(rec, [])  # empty word not in the language


def test_recognizer_after_one_letter_accepts_everything(full_decs):
    rec = lw_recognizer(full_decs["a3"], "a")
    assert len(rec.accepting) == rec.monoid.order
    assert lw_member(rec, ["ab", "ba"])
    assert lw_member(rec, [])


def test_recognizer_block_length_error(full_decs):
    rec = lw_recognizer(full_decs["a3"], "")
    with pytest.raises(UnknownSymbol, match="^block 'a' does not have length 2$"):
        lw_member(rec, ["a"])


def test_recognizer_degenerate_period_one(corpus):
    _, minimal, sm = corpus["has_a"]
    sig = build_signature(sm, ["ab"])
    dec = canonical_decomposition(sm, sig)
    rec = lw_recognizer(dec, "")
    # blocks are single letters; recognizer equals plain DFA membership
    for n in range(5):
        for u in itertools.product("ab", repeat=n):
            assert lw_member(rec, list(u)) == minimal.accepts("".join(u))


def test_recognizer_prefix_too_long(full_decs):
    with pytest.raises(ScopeError):
        lw_recognizer(full_decs["a3"], "ab")


def test_membership_matches_dfa_random(corpus, full_decs):
    rng = random.Random(11)
    for name, dec in full_decs.items():
        _, minimal, _ = corpus[name]
        period = dec.signature.periods[0]
        recs = {w: lw_recognizer(dec, w)
                for n in range(period)
                for w in map("".join, itertools.product("ab", repeat=n))}
        for _ in range(500):
            w = rng.choice(sorted(recs))
            u = ["".join(rng.choice("ab") for _ in range(period))
                 for _ in range(rng.randint(0, 5))]
            assert lw_member(recs[w], u) == minimal.accepts(w + "".join(u)), (name, w, u)


def test_membership_matches_block_enumeration(corpus, full_decs):
    dec = full_decs["a3"]
    _, minimal, _ = corpus["a3"]
    rec = lw_recognizer(dec, "")
    expected = lw_enumerate(minimal, "", 2, 2)
    got = {u for n in range(3)
           for u in itertools.product(("aa", "ab", "ba", "bb"), repeat=n)
           if lw_member(rec, list(u))}
    assert got == expected


@given(small_dfas())
def test_membership_matches_block_enumeration_on_random_dfas(dfa):
    """For every prefix w shorter than the period, the recognizer of L_w
    accepts exactly the block words of at most two blocks that the oracle
    finds by running the DFA on w + u."""
    dec = random_decomposition(dfa)
    period = dec.signature.periods[0]
    blocks = ["".join(b) for b in itertools.product("ab", repeat=period)]
    words = [u for n in range(3) for u in itertools.product(blocks, repeat=n)]
    for r in range(period):
        for w in map("".join, itertools.product("ab", repeat=r)):
            rec = lw_recognizer(dec, w)
            got = {u for u in words if lw_member(rec, u)}
            assert got == lw_enumerate(dfa, w, period, 2), w


# --- syntactic monoids of block languages and the quotient map ---

def test_block_monoid_after_one_letter_is_trivial(corpus):
    dfa, _, _ = corpus["a3"]
    assert syntactic_monoid_of_lw(dfa, "a", 2).order == 1


def test_block_monoid_of_empty_prefix_is_left_zero_quotient(corpus, full_decs):
    dfa, _, _ = corpus["a3"]
    sm_lw = syntactic_monoid_of_lw(dfa, "", 2)
    assert sm_lw.order <= 3
    mapping = lw_quotient(full_decs["a3"], dfa, "")
    assert set(mapping) == set(range(sm_lw.order))


def test_block_monoid_parity_language(corpus):
    dfa, _, _ = corpus["a1"]
    sm_lw = syntactic_monoid_of_lw(dfa, "", 2)
    assert sm_lw.order == 2


def test_quotient_well_defined_and_onto_everywhere(corpus, full_decs):
    for name, dec in full_decs.items():
        dfa = corpus[name][0]
        period = dec.signature.periods[0]
        for n in range(period):
            for w in map("".join, itertools.product("ab", repeat=n)):
                mapping = lw_quotient(dec, dfa, w)
                assert len(mapping) == lw_recognizer(dec, w).monoid.order, (name, w)


# --- wreath product divisor ---

def test_wreath_equivariance_on_corpus(full_decs):
    for name, dec in full_decs.items():
        assert dec.signature.surjective, name
        assert len(wreath_divisor(dec)) == dec.m.order, name


def test_wreath_for_two_gamma_signature(corpus):
    _, _, sm = corpus["a1"]
    dec = canonical_decomposition(sm, build_signature(sm, ["a", "b"], [2, 2]))
    assert dec.signature.surjective
    # K = 1: phi is a bijection onto the monoid
    assert len(wreath_divisor(dec)) == sm.order


def test_decomposition_json_shape(full_decs):
    dec = full_decs["a3"]
    out = cli._decomposition_json(dec)
    assert out["K"] == 3 and out["G"] == [2] and out["verified"]
    assert set(out["theta"]) == {"0", "1"}
    assert out["can"]["0"]["r"] == [0]
    assert out["can"][str(dec.m.eta["a"])]["r"] == [1]


def test_can_product_matches_table(full_decs):
    dec = full_decs["a2"]
    table = dec.m.monoid.table
    for s in range(dec.m.order):
        for s2 in range(dec.m.order):
            f, rho = can_product(dec, s, s2)
            t = table[s][s2]
            assert rho == dec.rho(t)
            for r in dec.residuals:
                size = len(dec.theta[r])
                assert f[r][:size] == dec.f(t, r)[:size]
