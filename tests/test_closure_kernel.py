"""The closure kernel of `synmon.monoid` and the tables built from it,
against all-pairs reference builders that compose every pair of elements.

The library closes the generators by BFS and fills the table from the right
Cayley graph along the BFS tree; a residual monoid T_r builds no table and
reads its ideals off the table of M through its slots over N_0.  The
references below are the direct constructions: BFS over transformations,
then one composition per pair.  The tests assert that both give the same
elements, names and tables in the same numbering, and the same ideals of
T_r and zero-one decisions.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from synmon import (build_signature, canonical_decomposition, find_zero, load_dfa, make_named,
                    minimize, principal_ideal, residual_monoid, transition_monoid,
                    zero_one_basic)
from synmon.decompose import lw_accepting
from synmon.dfa import words_of_length
from synmon.regexes import parse_regex, regex_to_dfa
from synmon.errors import TooLarge
from synmon.monoid import _close, _rows
from synmon.probability import residual_verdict
from synmon.theory import compose, identity_transformation, minimal_ideal_element

from conftest import small_dfas, small_monoid
from reference import residual_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import counter, kth_tail, mod_length  # noqa: E402

FAMILIES = ([kth_tail(k) for k in range(1, 6)] + [counter(n) for n in (4, 6, 8)]
            + [mod_length(p) for p in (5, 6, 7)])


# --- all-pairs references ---

def compose_transition_monoid(dfa, cap=5000):
    """(elements, names, eta, accepting image, table) of the transition
    monoid: BFS from the identity with letters sorted, then the table by
    composing every pair of elements."""
    position = {q: i for i, q in enumerate(dfa.states)}
    letters = sorted(dfa.alphabet)
    letter_trans = {
        a: tuple(position[dfa.delta[(q, a)]] for q in dfa.states) for a in letters
    }
    elements = [identity_transformation(dfa.n_states)]
    index = {elements[0]: 0}
    words = [""]
    for i, x in enumerate(elements):
        for a in letters:
            t = compose(x, letter_trans[a])
            if t not in index:
                if len(elements) >= cap:
                    raise TooLarge(f"transition monoid exceeds cap {cap}")
                index[t] = len(elements)
                elements.append(t)
                words.append(words[i] + a)
    table = tuple(tuple(index[compose(x, y)] for y in elements) for x in elements)
    eta = {a: index[letter_trans[a]] for a in letters}
    initial = position[dfa.initial]
    accepting = {position[q] for q in dfa.accepting}
    accepting_image = frozenset(
        i for i, t in enumerate(elements) if t[initial] in accepting)
    names = tuple("e" if w == "" else w for w in words)
    return elements, names, eta, accepting_image, table


def assert_kernel_matches_reference(dfa):
    elements, names, eta, accepting_image, table = compose_transition_monoid(dfa)
    letters = sorted(dfa.alphabet)
    position = {q: i for i, q in enumerate(dfa.states)}
    closed = _close([[position[dfa.delta[(q, a)]] for q in dfa.states]
                     for a in letters])
    assert closed[0] == elements
    assert _rows(closed[1], closed[2]) == table
    sm = transition_monoid(dfa)
    assert sm.monoid.names == names
    assert sm.eta == eta
    assert sm.accepting_image == accepting_image
    assert sm.monoid.table == table


# --- transition monoids ---

def test_kernel_matches_compose_on_corpus(corpus):
    for name, (dfa, minimal, _sm) in corpus.items():
        assert_kernel_matches_reference(minimal)
        assert_kernel_matches_reference(dfa)


@pytest.mark.parametrize("language", FAMILIES, ids=lambda lang: lang.name)
def test_kernel_matches_compose_on_benchmark_families(language):
    assert_kernel_matches_reference(minimize(load_dfa(json.dumps(language.dfa))))


@settings(max_examples=100)
@given(small_dfas())
def test_kernel_matches_compose_on_random_dfas(dfa):
    assert_kernel_matches_reference(dfa)
    assert_kernel_matches_reference(minimize(dfa))


def test_kernel_on_a_degree_one_dfa():
    """a* over {a} has one state: every transformation is one point, which
    the composition by `gather` must keep a tuple."""
    dfa = minimize(regex_to_dfa(parse_regex("a*"), "a"))
    assert dfa.n_states == 1
    assert_kernel_matches_reference(dfa)
    sm = transition_monoid(dfa)
    assert sm.monoid.table == ((0,),)


# --- residual monoids ---

def assert_residual_ideals_match_the_composed_table(sm, dfa):
    """K(M), read off the closed classes of the Cayley graph, is the
    principal ideal of the product of all elements, and the zero of the
    basic verdict on `dfa`, a DFA of the language of sm, is `find_zero`'s.
    At every period dividing the maximum, for each T_r against its table
    by composition: K(T_r), the slots of K(M) & N_0, is the ideal of the
    product of N_0; `t_r.ideal(t)` is the principal ideal of the element of
    t for every t in N_0, and `residual_verdict`'s K(T_r) decision agrees
    with the full ascending scan for the accepting set of every prefix.  The
    limit handed to it is 0 where the scan finds a witness and 1/2 where it
    finds none, so a wrong decision raises or changes the witness."""
    m = sm.monoid
    assert sm.minimal_ideal == principal_ideal(m, minimal_ideal_element(m))
    assert zero_one_basic(sm, dfa).zero_element == find_zero(m)
    maximum = build_signature(sm, [sm.alphabet]).periods[0]
    for period in (d for d in range(1, maximum + 1) if maximum % d == 0):
        dec = canonical_decomposition(sm, build_signature(sm, [sm.alphabet], [period]))
        z = 0  # the product of N_0 in ascending order, which lies in K(N_0)
        for t in dec.theta[(0,)]:
            z = m.table[z][t]
        for r in range(period):
            t_r = residual_monoid(dec, r)
            kernel = {t_r.slot[t] for t in sm.minimal_ideal if t in t_r.slot}
            assert kernel == t_r.ideal(z), (period, r)
            table = residual_table(t_r)
            element = {tau: i for i, tau in enumerate(t_r.transformations)}
            for t in dec.theta[(0,)]:
                assert t_r.ideal(t) == principal_ideal(table, element[dec.f(t, (r,))]), \
                    (period, r, t)
            ideals = [principal_ideal(table, i) for i in range(table.order)]
            for w in words_of_length(sm.alphabet, r):
                accepting = lw_accepting(dec, sm.image_of_word(w), t_r)
                scan = next((tuple(sorted(ideal)) for ideal in ideals
                             if not ideal & accepting or ideal <= accepting), None)
                limit = Fraction(0) if scan else Fraction(1, 2)
                assert residual_verdict(w, t_r, accepting, limit).witness == scan, \
                    (period, w)


def test_residual_tables_match_compose(corpus):
    for name, (dfa, _minimal, sm) in corpus.items():
        assert_residual_ideals_match_the_composed_table(sm, dfa)


@pytest.mark.parametrize("language", FAMILIES, ids=lambda lang: lang.name)
def test_residual_tables_match_compose_on_benchmark_families(language):
    dfa = load_dfa(json.dumps(language.dfa))
    assert_residual_ideals_match_the_composed_table(transition_monoid(minimize(dfa)), dfa)


@settings(max_examples=60)
@given(small_dfas())
def test_residual_tables_match_compose_on_random_dfas(dfa):
    assert_residual_ideals_match_the_composed_table(small_monoid(dfa), dfa)


def assert_kernel_members_have_the_kernel_as_ideal(sm):
    """For k in K(T_r), T_r.k.T_r is an ideal inside K(T_r), so by
    minimality it is K(T_r): at every period dividing the maximum and for
    every r, `t_r.ideal(t)` is the slots of K(M) & N_0 for every t in N_0
    whose element lies in K(T_r)."""
    maximum = build_signature(sm, [sm.alphabet]).periods[0]
    for period in (d for d in range(1, maximum + 1) if maximum % d == 0):
        dec = canonical_decomposition(sm, build_signature(sm, [sm.alphabet], [period]))
        for r in range(period):
            t_r = residual_monoid(dec, r)
            kernel = frozenset(t_r.slot[t] for t in sm.minimal_ideal if t in t_r.slot)
            members = [t for t, i in t_r.slot.items() if i in kernel]
            assert members, (period, r)
            for t in members:
                assert t_r.ideal(t) == kernel, (period, r, t)


def test_kernel_members_have_the_kernel_as_ideal(corpus):
    for name, (_dfa, _minimal, sm) in corpus.items():
        assert_kernel_members_have_the_kernel_as_ideal(sm)


@settings(max_examples=60)
@given(small_dfas())
def test_kernel_members_have_the_kernel_as_ideal_on_random_dfas(dfa):
    assert_kernel_members_have_the_kernel_as_ideal(small_monoid(dfa))


# --- named transformation monoids ---

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symmetric_and_full_transformation_orders(k):
    for kind, order in (("symmetric", math.factorial(k)), ("full_transformation", k ** k)):
        m = make_named(kind, k)
        assert m.order == order, kind
        elements = [tuple(map(int, name)) for name in m.names]
        assert elements[0] == identity_transformation(k)
        assert len(set(elements)) == order
        index = {t: i for i, t in enumerate(elements)}
        assert m.table == tuple(tuple(index[compose(x, y)] for y in elements)
                                for x in elements), kind
