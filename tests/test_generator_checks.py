"""The generator-based checks of the decomposition and the block-language
quotients against all-pairs reference versions, and the wreath divisor
read off a verified decomposition.

The library checks each element against each generator, which is
equivalent to checking all pairs (see the docstrings of verify_canonical
and hom_generator_check).  The references below check all pairs; the tests
assert that both give the same answer, and that the wreath divisor of every
decomposition that verify_canonical passes meets the all-pairs wreath
check (see the docstring of wreath_divisor).  A failed check raises
VerificationFailure, whose message starts with its stage and names its
witness; the last tests break each check once on the language a3 and read
both back.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from synmon import (build_signature, canonical_decomposition,
                    hom_generator_check, hom_image_check, lw_quotient,
                    lw_recognizer, make_named, max_period, minimize, parse_regex,
                    regex_to_dfa, syntactic_monoid_of_lw, transition_monoid,
                    verify_canonical, wreath_divisor)
from synmon.errors import VerificationFailure
from synmon.periods import residual_of_word
from synmon.theory import compose

from conftest import random_decomposition, small_dfas
from reference import residual_table
from test_decompose import GAMMA_SETS, can_f, divisor_vectors, flat_of


# --- all-pairs references ---

def _can_key(dec, t):
    """Can(t) on every residual, padding included, with rho_bar(t)."""
    return (tuple(dec.f(t, r) for r in dec.residuals), dec.rho(t))


def reads_back(dec) -> bool:
    """The identity lies in N_0, and theta_{rho_bar(t)}(f_t(0)(e)) = t for
    every t, with e the identity's slot in N_0."""
    zero = tuple(0 for _ in dec.signature.periods)
    if dec.m.monoid.identity not in dec.theta[zero]:
        return False
    e_pos = dec.theta[zero].index(dec.m.monoid.identity)
    for t in range(dec.m.order):
        k, n_c = dec.f(t, zero)[e_pos], dec.theta[dec.rho(t)]
        if not (0 <= k < len(n_c) and n_c[k] == t):
            return False
    return True


def allpairs_verify(dec):
    """The first check of `verify_canonical` to fail when the homomorphism
    is checked over all pairs of elements on class-carrying slots:
    "homomorphism", "read-back" or "residual condition"; None when all
    pass.  Can failing to be injective, checked over all pairs, is a
    "read-back" failure, since the read-back fails whenever injectivity
    does."""
    sig = dec.signature
    table = dec.m.monoid.table
    can = can_f(dec)
    for s, s2 in itertools.product(range(dec.m.order), repeat=2):
        rho_s = sig.rho_bar[s]
        t = table[s][s2]
        if sig.add(rho_s, sig.rho_bar[s2]) != sig.rho_bar[t]:
            return "homomorphism"
        for r in dec.residuals:
            shifted = can[s2][sig.add(r, rho_s)]
            left = can[s][r]
            expected = can[t][r]
            if any(shifted[left[k]] != expected[k] for k in range(len(dec.theta[r]))):
                return "homomorphism"
    if (not reads_back(dec)
            or len({_can_key(dec, t) for t in range(dec.m.order)}) != dec.m.order):
        return "read-back"
    if any(sig.rho_bar[dec.m.eta[a]] != residual_of_word(a, sig.gammas, sig.periods)
           for a in dec.m.alphabet):
        return "residual condition"
    return None


def allpairs_wreath_ok(dec) -> bool:
    """phi is injective and reads every point back, and the wreath action
    agrees with right multiplication by every element."""
    sig = dec.signature
    zero = tuple(0 for _ in sig.periods)
    e_pos = dec.theta[zero].index(dec.m.monoid.identity)
    table = dec.m.monoid.table
    can = can_f(dec)
    points = {(can[t][zero], dec.rho(t)): t for t in range(dec.m.order)}
    if len(points) != dec.m.order:
        return False
    for (x1, c), t in points.items():
        if dec.theta[c][x1[e_pos]] != t:
            return False
        for s in range(dec.m.order):
            moved = compose(x1, can[s][c])
            if dec.theta[sig.add(c, dec.rho(s))][moved[e_pos]] != table[t][s]:
                return False
    return True


def reference_phi(dec) -> dict:
    """phi by its formula, phi(tau, c) = theta_c(tau(e)) with e the
    identity's slot in N_0, at every point (f_t(0), rho_bar(t))."""
    zero = tuple(0 for _ in dec.signature.periods)
    e_pos = dec.theta[zero].index(dec.m.monoid.identity)
    points = ((dec.f(t, zero), dec.rho(t)) for t in range(dec.m.order))
    return {(tau, c): dec.theta[c][tau[e_pos]] for tau, c in points}


def allpairs_quotient(dec, dfa, w):
    """`lw_quotient` with the homomorphism checked over all pairs: the
    mapping, or the first check to fail, "well defined", "surjective" or
    "homomorphism"."""
    period = dec.signature.periods[0]
    rec = lw_recognizer(dec, w)
    lw_m = syntactic_monoid_of_lw(dfa, w, period)
    t_m, t_table = rec.monoid, residual_table(rec.monoid)
    index = {tau: i for i, tau in enumerate(t_m.transformations)}
    mapping = {0: 0}
    queue = [0]
    while queue:
        x = queue.pop()
        y = mapping[x]
        for b in sorted(rec.block_images):
            x2 = t_table.table[x][index[rec.block_images[b]]]
            y2 = lw_m.monoid.table[y][lw_m.eta[b]]
            if x2 not in mapping:
                mapping[x2] = y2
                queue.append(x2)
            elif mapping[x2] != y2:
                return "well defined"
    if len(mapping) != t_m.order:
        return "well defined"
    as_list = tuple(mapping[i] for i in range(t_m.order))
    if set(as_list) != set(range(lw_m.order)):
        return "surjective"
    if not hom_image_check(t_table, lw_m.monoid, as_list):
        return "homomorphism"
    return as_list


# --- the checks under test ---

# the start of the detail of each VerificationFailure message -> its check
CHECKS = {
    "canonical embedding: Can(e) is not (identity, 0)": "homomorphism",
    "canonical embedding: f_s(r) leaves its class": "homomorphism",
    "canonical embedding: residual of s.a": "homomorphism",
    "canonical embedding: Can(s.a) != Can(s).Can(a)": "homomorphism",
    "canonical embedding: the identity": "read-back",
    "canonical embedding: Can(t) does not read t back": "read-back",
    "canonical embedding: residual condition fails": "residual condition",
    "block quotient: the map is not well defined": "well defined",
    "block quotient: the blocks do not reach": "well defined",
    "block quotient: the map misses": "surjective",
}


def check_named(exc: VerificationFailure) -> str:
    """The check that a VerificationFailure message names."""
    return next(check for start, check in CHECKS.items() if str(exc).startswith(start))


def failing_check(dec):
    """The check named by the VerificationFailure that `verify_canonical`
    raises, or None when it passes."""
    try:
        verify_canonical(dec)
    except VerificationFailure as exc:
        return check_named(exc)
    return None


def quotient(dec, dfa, w):
    """The mapping `lw_quotient` returns, or the check its
    VerificationFailure names."""
    try:
        return lw_quotient(dec, dfa, w)
    except VerificationFailure as exc:
        return check_named(exc)


def assert_wreath_read_off(dec):
    """The wreath divisor of a decomposition that verify_canonical passes
    meets the all-pairs wreath check and is phi by its formula."""
    assert allpairs_wreath_ok(dec)
    phi = wreath_divisor(dec)
    assert len(phi) == dec.m.order
    assert phi == reference_phi(dec)


def assert_checks_agree(dec, dfa):
    check = failing_check(dec)
    assert check == allpairs_verify(dec)
    if check is None:
        assert_wreath_read_off(dec)
    sig = dec.signature
    if sig.n == 1 and sig.gammas[0] == dec.m.alphabet:
        for r in range(sig.periods[0]):
            for w in map("".join, itertools.product(dec.m.alphabet, repeat=r)):
                assert quotient(dec, dfa, w) == allpairs_quotient(dec, dfa, w), w


def test_agree_on_corpus_at_every_divisor_period(corpus):
    count = 0
    for name, (dfa, _, sm) in corpus.items():
        for gammas in (GAMMA_SETS[name], [sm.alphabet]):
            maxima = [max_period(sm, g) for g in gammas]
            for periods in divisor_vectors(maxima):
                dec = canonical_decomposition(sm, build_signature(sm, gammas, periods))
                assert_checks_agree(dec, dfa)
                count += 1
    assert count >= 20


def with_can_f(dec, maps, **signature):
    """dec with every f_t(r) replaced by maps[t][r] on the class-carrying
    slots, and with the fields of its signature replaced by `signature`."""
    sig = dec.signature._replace(**signature)
    return dec._replace(signature=sig, flat=flat_of(sig, maps))


def with_f(dec, t, r, tau):
    """dec with f_t(r) replaced by tau on the class-carrying slots."""
    maps = list(can_f(dec))
    maps[t] = {**maps[t], r: tau}
    return with_can_f(dec, maps)


def mutated(dec, t, r, size):
    """dec with the first two differing values among slots < size of
    f_t(r) swapped."""
    tau = list(dec.f(t, r))
    i, j = next((i, j) for i in range(size) for j in range(size) if tau[i] != tau[j])
    tau[i], tau[j] = tau[j], tau[i]
    return with_f(dec, t, r, tuple(tau))


def test_agree_on_mutated_letter_tables(full_decs):
    # for "a", the mutation of test_decompose.test_mutated_tables_fail_homomorphism
    dec = full_decs["a3"]
    for a in dec.m.alphabet:
        broken = mutated(dec, dec.m.eta[a], (0,), dec.K)
        assert failing_check(broken) == allpairs_verify(broken) == "homomorphism", a


def test_agree_on_mutated_non_letter_table(full_decs):
    dec = full_decs["a3"]
    letters = set(dec.m.eta.values()) | {dec.m.monoid.identity}
    t, r = next((t, r) for t in range(dec.m.order) if t not in letters
                for r in dec.residuals
                if len(set(dec.f(t, r)[:len(dec.theta[r])])) > 1)
    broken = mutated(dec, t, r, len(dec.theta[r]))
    assert failing_check(broken) == allpairs_verify(broken) == "homomorphism"


@settings(max_examples=200)
@given(small_dfas())
def test_agree_on_random_dfas(dfa):
    assert_checks_agree(random_decomposition(dfa), dfa)


def single_slot_mutant(dfa, data):
    """A random decomposition of `dfa`, and a copy in which one
    class-carrying slot k of one f_t(r) gets a drawn value: (dec, broken,
    t, r, k, value)."""
    dec = random_decomposition(dfa)
    t = data.draw(st.integers(0, dec.m.order - 1))
    r = data.draw(st.sampled_from(dec.residuals))
    k = data.draw(st.integers(0, len(dec.theta[r]) - 1))
    value = data.draw(st.integers(0, dec.K - 1))
    tau = dec.f(t, r)
    return dec, with_f(dec, t, r, tau[:k] + (value,) + tau[k + 1:]), t, r, k, value


def test_a_point_read_from_the_end_is_refused(full_decs):
    # i - |X| indexes the same point as i, so every gather reads the two
    # alike.  Where no map but the identity's leads to point 0, as in an
    # aperiodic monoid, only the read-back reads point 0 of a letter's map,
    # so the letters' maps are read for a negative point; every other map
    # meets theirs in the homomorphism check
    for name, dec in full_decs.items():
        for t, image in enumerate(dec.flat):
            moved = (image[0] - len(image),) + image[1:]
            broken = dec._replace(flat=dec.flat[:t] + (moved,) + dec.flat[t + 1:])
            assert failing_check(broken) == "homomorphism", (name, t)


@settings(max_examples=200)
@given(small_dfas(), st.data())
def test_verify_on_random_single_slot_mutations(dfa, data):
    dec, broken, t, r, k, value = single_slot_mutant(dfa, data)
    target = dec.signature.add(r, dec.rho(t))
    if t == dec.m.monoid.identity and value != k:
        # Can(e) is no longer the identity
        with pytest.raises(VerificationFailure) as info:
            verify_canonical(broken)
        assert str(info.value) == ("canonical embedding: Can(e) is not (identity, 0): "
                                   f"f_e({r}) sends slot {k} to {value}")
    elif value < len(dec.theta[target]):
        # Can(e) and the class-to-class property still hold, so the
        # generator check must reject exactly when all pairs do
        assert failing_check(broken) == allpairs_verify(broken)
    else:
        # a class slot sent to padding breaks the induction's premise
        assert failing_check(broken) == "homomorphism"


@settings(max_examples=200)
@given(small_dfas(), st.data())
def test_wreath_divisor_of_a_verified_single_slot_mutant(dfa, data):
    # verify_canonical checks Can against its definition, so the only
    # mutant it passes leaves the slot as it was, and phi is read off it
    dec, broken, t, r, k, value = single_slot_mutant(dfa, data)
    if failing_check(broken) is None:
        assert value == dec.f(t, r)[k]
        assert_wreath_read_off(broken)


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


def test_hom_generator_check_rejects_maps_outside_the_monoids():
    c2 = make_named("cyclic", 2)
    for mapping in ([0, 2], [0, -1], [0], [0, 1, 0]):
        assert hom_generator_check(c2, c2, mapping, [1]) is False, mapping
    assert hom_generator_check(c2, c2, [0, 1], [1]) is True
    for generators in ([2], [-1], [1, 2], [None], [1.0]):
        assert hom_generator_check(c2, c2, [0, 1], generators) is False, generators


# --- one broken decomposition of a3 per check ---
#
# a3 has order 5 with eta(a) = 1 and eta(b) = 2, period 2, K = 3 and the
# classes N_0 = (0, 3, 4) and N_1 = (1, 2); f_a(0) = (0, 0, 1),
# f_a(1) = (1, 2, 2), and a.a = 3.  The homomorphism check proper is
# broken by test_decompose.test_mutated_tables_fail_homomorphism.

def failure(check, *args) -> str:
    with pytest.raises(VerificationFailure) as info:
        check(*args)
    return str(info.value)


def test_a3_layout(full_decs):
    dec = full_decs["a3"]
    assert (dec.m.eta, dec.K, dec.theta) == ({"a": 1, "b": 2}, 3,
                                             {(0,): (0, 3, 4), (1,): (1, 2)})
    assert can_f(dec)[1] == {(0,): (0, 0, 1), (1,): (1, 2, 2)}
    assert dec.flat[1] == (3, 3, 4, 1, 2)
    assert dec.m.monoid.table[1][1] == 3


def test_identity_check_names_the_residual_and_slot(full_decs):
    broken = with_f(full_decs["a3"], 0, (1,), (1, 0, 2))
    assert failure(verify_canonical, broken) == (
        "canonical embedding: Can(e) is not (identity, 0): f_e((1,)) sends slot 0 to 1")


def test_class_check_names_the_element_residual_and_slot(full_decs):
    # slot 0 of f_a(0) goes past the two slots of N_1
    broken = with_f(full_decs["a3"], 1, (0,), (2, 0, 1))
    assert failure(verify_canonical, broken) == (
        "canonical embedding: f_s(r) leaves its class at s = 1, r = (0,): "
        "slot 0 goes to 2, past the 2 of N_(1,)")


def test_non_letter_maps_are_met_at_their_tree_parent(full_decs):
    # only the letters' maps are scanned for their classes: 3 = a.a and
    # 4 = b.a are compared with a product of checked maps at their tree
    # parents 1 and 2, before either is read as gather indices, so a point
    # in the wrong class or past X is named there and raises no IndexError
    dec = full_decs["a3"]
    assert dec.m.tree[3:] == ((1, 0), (2, 0))
    for t, image, s, want, got in ((3, (4, 3, 4, 1, 2), 1, 4, 1),
                                   (4, (4, 4, 4, 1, 9), 2, 4, 2)):
        broken = dec._replace(flat=dec.flat[:t] + (image,) + dec.flat[t + 1:])
        assert failure(verify_canonical, broken) == (
            f"canonical embedding: Can(s.a) != Can(s).Can(a) at s = {s}, a = 'a', "
            f"r = (0,), slot 0: Can(s.a) gives {want}, Can(s).Can(a) gives {got}")


def test_residual_of_a_product_names_the_element_and_letter(full_decs):
    dec = full_decs["a3"]
    sig = dec.signature
    rho_bar = sig.rho_bar[:3] + ((1,),) + sig.rho_bar[4:]  # a.a = 3 moved to N_1
    broken = dec._replace(signature=sig._replace(rho_bar=rho_bar))
    assert failure(verify_canonical, broken) == (
        "canonical embedding: residual of s.a at s = 1, a = 'a': "
        "rho_bar(s.a) = (1,), not (0,)")


def test_injectivity_check_names_two_elements(full_decs):
    # every element fixes the one slot of each class: a homomorphism that
    # only keeps rho_bar, so a and b, both in N_1, share their image
    dec = full_decs["a3"]
    classes = {r: theta[:1] for r, theta in dec.theta.items()}
    broken = with_can_f(dec, [{r: (0, 1, 2) for r in dec.residuals}] * dec.m.order,
                        classes=classes)
    # the read-back finds 1 at the slot of 2
    assert failure(verify_canonical, broken) == (
        "canonical embedding: Can(t) does not read t back at t = 2: f_t((0,)) "
        "sends the identity's slot to 0, which holds 1 in N_(1,)")
    assert allpairs_verify(broken) == "read-back"


def test_residual_condition_names_the_letter(full_decs):
    # counting only the a's, b should not move the residual
    dec = full_decs["a3"]
    broken = dec._replace(signature=dec.signature._replace(gammas=(("a",),)))
    assert failure(verify_canonical, broken) == (
        "canonical embedding: residual condition fails at letter 'b': "
        "rho_bar = (1,), not (0,)")
    assert allpairs_verify(broken) == "residual condition"


def test_wreath_action_check_names_the_element_and_letter(full_decs):
    # f_a(1) with slots 0 and 1 swapped moves the point of 1 wrongly; the
    # homomorphism check meets it at the same element and letter
    broken = with_f(full_decs["a3"], 1, (1,), (2, 1, 2))
    assert failure(verify_canonical, broken) == (
        "canonical embedding: Can(s.a) != Can(s).Can(a) at s = 1, a = 'a', r = (0,), "
        "slot 0: Can(s.a) gives 1, Can(s).Can(a) gives 2")
    assert not allpairs_wreath_ok(broken)


def test_wreath_action_check_reads_no_slot_past_its_class(full_decs):
    # f_a(0) sends the identity's slot 0 to slot 2, past the two of N_1
    broken = with_f(full_decs["a3"], 1, (0,), (2, 0, 1))
    assert failure(verify_canonical, broken) == (
        "canonical embedding: f_s(r) leaves its class at s = 1, r = (0,): "
        "slot 0 goes to 2, past the 2 of N_(1,)")


def test_wreath_divisor_names_an_identity_outside_the_zero_class(full_decs):
    dec = full_decs["a3"]
    # N_0 shrunk to (3, 4): f_a(1) sends slot 1 past its two slots
    classes = {**dec.theta, (0,): (3, 4)}
    broken = with_can_f(dec, can_f(dec), classes=classes)
    assert failure(verify_canonical, broken) == (
        "canonical embedding: f_s(r) leaves its class at s = 1, r = (1,): "
        "slot 1 goes to 2, past the 2 of N_(0,)")
    # N_0 = (2, 3, 4) keeps the sizes, so only the read-back sees it
    classes = {**dec.theta, (0,): (2, 3, 4)}
    broken = with_can_f(dec, can_f(dec), classes=classes)
    assert failure(verify_canonical, broken) == (
        "canonical embedding: the identity 0 is not in N_(0,)")


def test_wreath_formula_check_names_the_second_of_two_elements_on_one_point(full_decs):
    # 3 and 4 both lie in N_0 and neither is a letter's image, so with
    # f_4 = f_3 they share a point of phi; 4 = b.a, so the homomorphism
    # check meets it first, at element 2 and letter a
    dec = full_decs["a3"]
    broken = dec._replace(flat=dec.flat[:4] + (dec.flat[3],) + dec.flat[5:])
    assert dec.m.monoid.table[2][1] == 4
    assert failure(verify_canonical, broken) == (
        "canonical embedding: Can(s.a) != Can(s).Can(a) at s = 2, a = 'a', r = (0,), "
        "slot 0: Can(s.a) gives 1, Can(s).Can(a) gives 2")
    assert not allpairs_wreath_ok(broken)


def test_relabelled_can_fails_the_read_back():
    # a(a|b)* has order 3, K = 3 and P = 1; conjugating every f_t(0) by
    # the swap of slots 1 and 2 keeps an injective homomorphism that is
    # not Can: the identity's slot of element 1 goes to slot 2
    sm = transition_monoid(minimize(regex_to_dfa(parse_regex("a(a|b)*"), "ab")))
    dec = canonical_decomposition(sm, build_signature(sm, [sm.alphabet]))
    assert (sm.order, dec.K, dec.signature.periods) == (3, 3, (1,))
    swap = (0, 2, 1)
    relabelled = tuple(tuple(swap[f[swap[k]]] for k in range(3)) for f in dec.flat)
    broken = dec._replace(flat=relabelled)
    assert allpairs_verify(broken) == "read-back"
    assert not allpairs_wreath_ok(broken)
    assert failure(verify_canonical, broken) == (
        "canonical embedding: Can(t) does not read t back at t = 1: f_t((0,)) "
        "sends the identity's slot to 2, which holds 2 in N_(0,)")


def test_block_quotient_names_the_element_and_block(corpus, full_decs):
    # every f_t(0) with t in N_0 the identity: T_0 is trivial, so the
    # block aa cannot reach its image in the block monoid
    dfa = corpus["a3"][0]
    dec = full_decs["a3"]
    for t in dec.theta[(0,)]:
        dec = with_f(dec, t, (0,), (0, 1, 2))
    image = syntactic_monoid_of_lw(dfa, "", 2).eta["aa"]
    assert image != 0
    assert failure(lw_quotient, dec, dfa, "") == (
        "block quotient: the map is not well defined for w = '' at element 0 "
        f"of T_0 and block 'aa': 0 goes to 0 and {image}")
    assert allpairs_quotient(dec, dfa, "") == "well defined"
