from fractions import Fraction

import pytest

from synmon import (direct_product, make_named, minimize, semidirect_product,
                    transition_monoid)
from synmon import oracle
from synmon.errors import TooLarge
from synmon.oracle import (CYCLE_ORDER_CAP, ENUMERATION_CAP, brute_isomorphic,
                           cycle_gcd, lw_enumerate, mu_enumerate)
from synmon.regexes import parse_regex, regex_to_dfa

from reference import mu_exact


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
    with pytest.raises(TooLarge):
        mu_enumerate(dfa, 64)


def test_enumeration_budget_is_decided_exactly():
    assert ENUMERATION_CAP == 10_000_000
    # 2^23 <= cap < 2^24 and 10^7 <= cap < 10^8
    assert not oracle._past_cap(2, 23) and oracle._past_cap(2, 24)
    assert not oracle._past_cap(10, 7) and oracle._past_cap(10, 8)
    for size in range(2, 12):
        for exponent in range(40):
            assert oracle._past_cap(size, exponent) == (size ** exponent > ENUMERATION_CAP)


def test_one_letter_enumeration_is_budgeted(monkeypatch):
    # one word per length: the budget counts the letters read
    dfa = regex_to_dfa(parse_regex("(aa)*"), "a")
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 20)
    assert mu_enumerate(dfa, 20) == 1
    with pytest.raises(TooLarge, match="^21 letters is past the enumeration cap$"):
        mu_enumerate(dfa, 21)
    # |w| + 2c letters for each count c <= 3: 1 + 3 + 5 + 7 = 16
    assert lw_enumerate(dfa, "a", 2, 3) == set()
    assert lw_enumerate(dfa, "", 2, 3) == {(), ("aa",), ("aa", "aa"), ("aa", "aa", "aa")}
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 15)
    with pytest.raises(TooLarge, match="^block enumeration past the cap$"):
        lw_enumerate(dfa, "a", 2, 3)


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
    with pytest.raises(TooLarge, match="^graph order 31 is past the cycle budget$"):
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
    with pytest.raises(TooLarge):
        brute_isomorphic(t3, t3)


def test_lw_enumerate_examples(corpus):
    dfa, _, _ = corpus["a3"]
    assert lw_enumerate(dfa, "", 2, 1) == {("ba",), ("bb",)}
    assert lw_enumerate(dfa, "a", 2, 1) == {(), ("aa",), ("ab",), ("ba",), ("bb",)}
    dfa1, _, _ = corpus["a1"]
    assert lw_enumerate(dfa1, "a", 2, 2) == set()


def test_lw_enumerate_budget(corpus):
    dfa, _, _ = corpus["a3"]
    with pytest.raises(TooLarge):
        lw_enumerate(dfa, "", 4, 8)
