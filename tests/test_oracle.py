from fractions import Fraction

import pytest

from synmon import (direct_product, make_named, minimize, mu_exact,
                    semidirect_product, transition_monoid)
from synmon.errors import BudgetExceeded
from synmon.oracle import (CYCLE_ORDER_CAP, brute_isomorphic, cycle_gcd,
                           lw_enumerate, mu_enumerate)
from synmon.regexes import parse_regex, regex_to_dfa


def test_mu_enumerate_examples(corpus):
    dfa, _, _ = corpus["a3"]
    assert mu_enumerate(dfa, 2) == Fraction(1, 2)
    assert {w for w in ("aa", "ab", "ba", "bb") if dfa.accepts(w)} == {"ba", "bb"}
    dfa1, _, _ = corpus["a1"]
    assert mu_enumerate(dfa1, 3) == 0
    for name, (d, _, _) in corpus.items():
        assert mu_enumerate(d, 0) == (1 if d.accepts("") else 0)


def test_mu_enumerate_budget(corpus):
    dfa, _, _ = corpus["a3"]
    with pytest.raises(BudgetExceeded):
        mu_enumerate(dfa, 64)


def test_mu_exact_agrees_with_enumeration(corpus):
    for name, (dfa, _, _) in corpus.items():
        for length in range(13):
            assert mu_exact(dfa, length) == mu_enumerate(dfa, length), (name, length)


def test_cycle_gcd_examples(corpus):
    _, _, sm_pairs = corpus["pairs"]
    assert cycle_gcd(sm_pairs, "ab") == 2
    _, _, sm2 = corpus["a2"]
    assert cycle_gcd(sm2, "a") == 2
    assert cycle_gcd(sm2, "ab") == 1


def test_cycle_gcd_budget():
    # the fourth letter from the end is an a: order 31, one past the cap
    dfa = regex_to_dfa(parse_regex("(a|b)*a(a|b)(a|b)(a|b)"), "ab")
    sm = transition_monoid(minimize(dfa))
    assert sm.order == CYCLE_ORDER_CAP + 1
    with pytest.raises(BudgetExceeded, match="^graph order 31 is past the cycle budget$"):
        cycle_gcd(sm, "a")


def test_brute_isomorphic_parity_monoid(corpus):
    _, _, sm = corpus["a1"]
    c2 = make_named("cyclic", 2)
    assert brute_isomorphic(sm.monoid, direct_product(c2, c2))
    assert not brute_isomorphic(sm.monoid, make_named("cyclic", 4))


def test_brute_isomorphic_non_commutative(corpus):
    _, _, sm = corpus["a2"]
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    assert not brute_isomorphic(sm.monoid, make_named("cyclic", 6))
    assert brute_isomorphic(sm.monoid, semidirect_product(c3, c2, [[0, 1, 2], [0, 2, 1]]))


def test_brute_isomorphic_order_mismatch():
    assert not brute_isomorphic(make_named("cyclic", 2), make_named("cyclic", 3))


def test_brute_isomorphic_budget():
    t3 = make_named("full_transformation", 3)
    with pytest.raises(BudgetExceeded):
        brute_isomorphic(t3, t3)


def test_lw_enumerate_examples(corpus):
    dfa, _, _ = corpus["a3"]
    assert lw_enumerate(dfa, "", 2, 1) == {("ba",), ("bb",)}
    assert lw_enumerate(dfa, "a", 2, 1) == {(), ("aa",), ("ab",), ("ba",), ("bb",)}
    dfa1, _, _ = corpus["a1"]
    assert lw_enumerate(dfa1, "a", 2, 2) == set()


def test_lw_enumerate_budget(corpus):
    dfa, _, _ = corpus["a3"]
    with pytest.raises(BudgetExceeded):
        lw_enumerate(dfa, "", 4, 8)
