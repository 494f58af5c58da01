"""The generator-based checks of the decomposition, the wreath divisor and
the block-language quotients against all-pairs reference versions.

The library checks each element against each generator, which is
equivalent to checking all pairs (see the docstrings of verify_canonical,
wreath_divisor and hom_generator_check).  The references below check all
pairs; the tests assert that both give the same answer.
"""

import dataclasses
import itertools
import warnings

from hypothesis import given, settings, strategies as st

from synmon import (build_signature, canonical_decomposition,
                    hom_generator_check, hom_image_check, lw_quotient,
                    lw_recognizer, max_period, syntactic_monoid_of_lw,
                    verify_canonical, wreath_divisor)
from synmon.decompose import LwQuotientReport, VerificationReport, _can_key
from synmon.errors import VerificationFailure
from synmon.monoid import compose

from conftest import random_decomposition, small_dfas
from test_decompose import GAMMA_SETS, divisor_vectors


# --- all-pairs references ---

def allpairs_verify(dec) -> VerificationReport:
    """Homomorphism over all pairs of elements, on class-carrying slots."""
    sig = dec.signature
    table = dec.m.monoid.table
    homomorphism = True
    for s, s2 in itertools.product(range(dec.m.order), repeat=2):
        rho_s = sig.rho_bar[s]
        t = table[s][s2]
        if sig.add(rho_s, sig.rho_bar[s2]) != sig.rho_bar[t]:
            homomorphism = False
            break
        for r in dec.residuals:
            shifted = dec.can_f[s2][sig.add(r, rho_s)]
            left = dec.can_f[s][r]
            expected = dec.can_f[t][r]
            if any(shifted[left[k]] != expected[k] for k in range(len(dec.theta[r]))):
                homomorphism = False
        if not homomorphism:
            break
    injective = len({_can_key(dec, t) for t in range(dec.m.order)}) == dec.m.order
    residual_condition = all(
        sig.rho_bar[dec.m.eta[a]] == sig.letter_residual(a) for a in dec.m.alphabet
    )
    return VerificationReport(homomorphism, injective, residual_condition)


def allpairs_wreath_ok(dec) -> bool:
    """phi is injective and reads every point back, and the wreath action
    agrees with right multiplication by every element."""
    sig = dec.signature
    zero = tuple(0 for _ in sig.periods)
    e_pos = dec.theta[zero].index(dec.m.monoid.identity)
    table = dec.m.monoid.table
    points = {(dec.can_f[t][zero], dec.rho(t)): t for t in range(dec.m.order)}
    if len(points) != dec.m.order:
        return False
    for (x1, c), t in points.items():
        if dec.theta[c][x1[e_pos]] != t:
            return False
        for s in range(dec.m.order):
            moved = compose(x1, dec.can_f[s][c])
            if dec.theta[sig.add(c, dec.rho(s))][moved[e_pos]] != table[t][s]:
                return False
    return True


def allpairs_quotient(dec, dfa, w) -> LwQuotientReport:
    """`lw_quotient` with the homomorphism checked over all pairs."""
    period = dec.signature.periods[0]
    rec = lw_recognizer(dec, w)
    lw_m = syntactic_monoid_of_lw(dfa, w, period)
    t_m = rec.monoid
    mapping = {0: 0}
    queue = [0]
    well_defined = True
    while queue and well_defined:
        x = queue.pop()
        y = mapping[x]
        for b in sorted(rec.block_images):
            x2 = t_m.monoid.table[x][t_m.index[rec.block_images[b]]]
            y2 = lw_m.monoid.table[y][lw_m.eta[b]]
            if x2 not in mapping:
                mapping[x2] = y2
                queue.append(x2)
            elif mapping[x2] != y2:
                well_defined = False
                break
    if not well_defined or len(mapping) != t_m.order:
        return LwQuotientReport(False, False, False, None)
    as_list = tuple(mapping[i] for i in range(t_m.order))
    surjective = set(as_list) == set(range(lw_m.order))
    homomorphism = hom_image_check(t_m.monoid, lw_m.monoid, as_list)
    return LwQuotientReport(well_defined, surjective, homomorphism, as_list)


# --- the checks under test ---

def wreath_ok(dec) -> bool:
    try:
        return wreath_divisor(dec).equivariant
    except VerificationFailure:
        return False


def assert_checks_agree(dec, dfa):
    assert verify_canonical(dec) == allpairs_verify(dec)
    assert wreath_ok(dec) == allpairs_wreath_ok(dec)
    sig = dec.signature
    if sig.n == 1 and sig.gammas[0] == dec.m.alphabet:
        for r in range(sig.periods[0]):
            for w in map("".join, itertools.product(dec.m.alphabet, repeat=r)):
                assert lw_quotient(dec, dfa, w) == allpairs_quotient(dec, dfa, w), w


def quiet_signature(sm, gammas, periods=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_signature(sm, gammas, periods)


def test_agree_on_corpus_at_every_divisor_period(corpus):
    count = 0
    for name, (dfa, _, sm) in corpus.items():
        for gammas in (GAMMA_SETS[name], [sm.alphabet]):
            maxima = [max_period(sm, g) for g in gammas]
            for periods in divisor_vectors(maxima):
                dec = canonical_decomposition(sm, quiet_signature(sm, gammas, periods))
                assert_checks_agree(dec, dfa)
                count += 1
    assert count >= 20


def mutated(dec, t, r, size):
    """dec with the first two differing values among slots < size of
    f_t(r) swapped."""
    f_t = dict(dec.can_f[t])
    tau = list(f_t[r])
    i, j = next((i, j) for i in range(size) for j in range(size) if tau[i] != tau[j])
    tau[i], tau[j] = tau[j], tau[i]
    f_t[r] = tuple(tau)
    can_f = list(dec.can_f)
    can_f[t] = f_t
    return dataclasses.replace(dec, can_f=tuple(can_f))


def test_agree_on_mutated_letter_tables(full_decs):
    # for "a", the mutation of test_decompose.test_mutated_tables_fail_homomorphism
    dec = full_decs["a3"]
    for a in dec.m.alphabet:
        broken = mutated(dec, dec.m.eta[a], (0,), dec.K)
        assert verify_canonical(broken) == allpairs_verify(broken), a
        assert not verify_canonical(broken).homomorphism, a


def test_agree_on_mutated_non_letter_table(full_decs):
    dec = full_decs["a3"]
    letters = set(dec.m.eta.values()) | {dec.m.monoid.identity}
    t, r = next((t, r) for t in range(dec.m.order) if t not in letters
                for r in dec.residuals
                if len(set(dec.can_f[t][r][:len(dec.theta[r])])) > 1)
    broken = mutated(dec, t, r, len(dec.theta[r]))
    assert verify_canonical(broken) == allpairs_verify(broken)
    assert not verify_canonical(broken).homomorphism


@settings(max_examples=200)
@given(small_dfas())
def test_agree_on_random_dfas(dfa):
    assert_checks_agree(random_decomposition(dfa), dfa)


@settings(max_examples=200)
@given(small_dfas(), st.data())
def test_verify_on_random_single_slot_mutations(dfa, data):
    # one class-carrying slot of one f_t gets a new value
    dec = random_decomposition(dfa)
    t = data.draw(st.integers(0, dec.m.order - 1))
    r = data.draw(st.sampled_from(dec.residuals))
    k = data.draw(st.integers(0, len(dec.theta[r]) - 1))
    value = data.draw(st.integers(0, dec.K - 1))
    f_t = dict(dec.can_f[t])
    f_t[r] = f_t[r][:k] + (value,) + f_t[r][k + 1:]
    can_f = dec.can_f[:t] + (f_t,) + dec.can_f[t + 1:]
    broken = dataclasses.replace(dec, can_f=can_f)
    target = dec.signature.add(r, dec.rho(t))
    if t == dec.m.monoid.identity and value != k:
        # Can(e) is no longer the identity
        assert not verify_canonical(broken).homomorphism
    elif value < len(dec.theta[target]):
        # Can(e) and the class-to-class property still hold, so the
        # generator check must reject exactly when all pairs do
        assert verify_canonical(broken) == allpairs_verify(broken)
    else:
        # a class slot sent to padding breaks the induction's premise
        assert not verify_canonical(broken).homomorphism


@settings(max_examples=200)
@given(small_dfas(), st.data())
def test_hom_generator_check_agrees_with_all_pairs(dfa, data):
    sm = random_decomposition(dfa).m
    x = data.draw(st.integers(0, sm.order - 1))
    y = data.draw(st.integers(0, sm.order - 1))
    mapping = list(range(sm.order))
    mapping[x] = y
    assert hom_generator_check(sm.monoid, sm.monoid, mapping, sm.eta.values()) \
        == hom_image_check(sm.monoid, sm.monoid, mapping)
