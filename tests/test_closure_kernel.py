"""The closure kernel of `synmon.monoid` and the tables built from it,
against all-pairs reference builders that compose every pair of elements.

The library closes the generators by BFS and fills the table from the right
Cayley graph along the BFS tree; `residual_monoid` reads T_r's table from the
table of M.  The references below are the direct constructions: BFS over
transformations, then one composition per pair.  The tests assert that both
give the same elements, names and tables in the same numbering.
"""

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from synmon import load_dfa, make_named, minimize, residual_monoid, transition_monoid
from synmon.regexes import parse_regex, regex_to_dfa
from synmon.errors import TooLarge
from synmon.monoid import _close, _rows
from synmon.theory import compose, identity_transformation

from conftest import random_decomposition, small_dfas

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


def compose_residual_table(t_r):
    """The table of T_r by composing every pair of its transformations."""
    index = {tau: i for i, tau in enumerate(t_r.transformations)}
    return tuple(tuple(index[compose(x, y)] for y in t_r.transformations)
                 for x in t_r.transformations)


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

def test_residual_tables_match_compose(full_decs):
    for name, dec in full_decs.items():
        for r in range(dec.signature.periods[0]):
            t_r = residual_monoid(dec, r)
            assert t_r.monoid.table == compose_residual_table(t_r), (name, r)


@settings(max_examples=60)
@given(small_dfas())
def test_residual_tables_match_compose_on_random_dfas(dfa):
    dec = random_decomposition(dfa)
    for r in range(dec.signature.periods[0]):
        t_r = residual_monoid(dec, r)
        assert t_r.monoid.table == compose_residual_table(t_r)


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
