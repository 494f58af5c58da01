import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings

from synmon import (Analysis, Dfa, cayley_to_dot, direct_product, find_zero,
                    function_monoid, hom_image_check, is_ideal, make_named,
                    minimize, monoid, principal_ideal, rees_factor,
                    semidirect_product, transition_monoid)
from synmon.errors import InvalidArgument, InvalidMonoid, NotAnAction, NotAnIdeal, TooLarge
from synmon.monoid import FiniteMonoid, SyntacticMonoid
from synmon.theory import minimal_ideal_element
from synmon.oracle import brute_isomorphic
from synmon.regexes import parse_regex, regex_to_dfa

from conftest import full_transformation_dfa, small_dfas


def assert_monoid_laws(m):
    n = m.order
    e = m.identity
    for i in range(n):
        assert m.table[e][i] == i == m.table[i][e]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert m.table[m.table[i][j]][k] == m.table[i][m.table[j][k]]


# --- named monoids ---

def test_cyclic_two():
    c2 = make_named("cyclic", 2)
    assert c2.table == ((0, 1), (1, 0))


def test_left_zero_table():
    u = make_named("left_zero", 2)
    for i in (1, 2):
        for s in range(3):
            assert u.table[i][s] == i


def test_right_zero_table():
    u = make_named("right_zero", 2)
    for j in (1, 2):
        for s in range(3):
            assert u.table[s][j] == j


def test_full_transformation_order():
    t3 = make_named("full_transformation", 3)
    assert t3.order == 27
    assert_monoid_laws(t3)


def test_symmetric_order_and_laws():
    s3 = make_named("symmetric", 3)
    assert s3.order == 6
    assert_monoid_laws(s3)


def test_named_caps():
    with pytest.raises(TooLarge):
        make_named("symmetric", 7)
    with pytest.raises(TooLarge):
        make_named("full_transformation", 6)
    # K < 1 is no budget but an invalid argument
    with pytest.raises(ValueError, match="^K must be at least 1$"):
        make_named("cyclic", 0)


# at an order cap of 6, the largest K of each kind: orders K, K + 1, K + 1, K!, K^K
@pytest.mark.parametrize("kind, largest", [
    ("cyclic", 6), ("right_zero", 5), ("left_zero", 5), ("symmetric", 3),
    ("full_transformation", 2)])
def test_named_monoids_refuse_past_the_order_cap(kind, largest, monkeypatch):
    monkeypatch.setattr(monoid, "ORDER_CAP", 6)
    assert make_named(kind, largest).order <= 6
    with pytest.raises(TooLarge,
                       match=f"^{kind} monoid of degree {largest + 1} exceeds the order cap 6$"):
        make_named(kind, largest + 1)


def test_products_and_powers_refuse_past_the_order_cap(monkeypatch):
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    monkeypatch.setattr(monoid, "ORDER_CAP", 6)
    assert semidirect_product(c3, c2, INVERSION).order == 6
    assert direct_product(c3, c2).order == 6
    assert function_monoid(c2, 2).order == 4
    monkeypatch.setattr(monoid, "ORDER_CAP", 5)
    for action in (INVERSION, []):  # the order is refused before the action is read
        with pytest.raises(TooLarge,
                           match="^semidirect product of orders 3 and 2 exceeds the order cap 5$"):
            semidirect_product(c3, c2, action)
    with pytest.raises(TooLarge,
                       match="^direct product of orders 3 and 2 exceeds the order cap 5$"):
        direct_product(c3, c2)
    with pytest.raises(TooLarge, match=r"^\|M\|\^3 with \|M\| = 2 exceeds the order cap 5$"):
        function_monoid(c2, 3)


def test_builders_refuse_huge_orders_before_they_allocate():
    # each order is decided before its table, its elements or its number is
    # built: built, these would take hours or all the memory there is
    for kind in ("cyclic", "right_zero", "left_zero", "symmetric", "full_transformation"):
        with pytest.raises(TooLarge, match=f"^{kind} monoid of degree 1000000 exceeds"):
            make_named(kind, 10 ** 6)
    c80 = make_named("cyclic", 80)
    with pytest.raises(TooLarge, match="^direct product of orders 80 and 80 exceeds"):
        direct_product(c80, c80)
    c2 = make_named("cyclic", 2)
    with pytest.raises(TooLarge, match=r"^\|M\|\^20000 with \|M\| = 2 exceeds"):
        function_monoid(c2, 20000)  # 2^20000 has 6021 digits
    with pytest.raises(InvalidArgument, match="^copies must be non-negative, got -1$"):
        function_monoid(c2, -1)


def test_bad_table_rejected():
    with pytest.raises(InvalidMonoid):
        FiniteMonoid(((1, 0), (0, 1)))  # identity law fails
    with pytest.raises(InvalidMonoid):
        # identity ok, associativity broken
        FiniteMonoid(((0, 1, 2), (1, 2, 2), (2, 2, 1)))


# --- transition monoids ---

def test_order_four_commutative_self_inverse(corpus):
    _, _, sm = corpus["a1"]
    assert sm.order == 4
    t = sm.monoid.table
    assert all(t[i][j] == t[j][i] for i in range(4) for j in range(4))
    assert all(t[i][i] == 0 for i in range(4))


def test_order_six_non_commutative(corpus):
    _, _, sm = corpus["a2"]
    assert sm.order == 6
    t = sm.monoid.table
    assert any(t[i][j] != t[j][i] for i in range(6) for j in range(6))


def test_order_five(corpus):
    _, _, sm = corpus["a3"]
    assert sm.order == 5


def test_monoid_laws_hold_on_corpus(corpus):
    for name, (_, _, sm) in corpus.items():
        assert_monoid_laws(sm.monoid)


def test_accepting_image_matches_dfa(corpus):
    for name, (_, minimal, sm) in corpus.items():
        for n in range(6):
            for w in map("".join, itertools.product("ab", repeat=n)):
                assert (sm.image_of_word(w) in sm.accepting_image) == minimal.accepts(w)


def test_order_invariant_under_presentation():
    variants = ["((a|b)(a|b))*", "(aa|ab|ba|bb)*", "(&|(a|b)(a|b))((a|b)(a|b))*"]
    orders = {transition_monoid(regex_to_dfa(parse_regex(p), "ab")).order
              for p in variants}
    assert orders == {2}


def test_monoid_cap(monkeypatch):
    # the cap bounds the |M|^2 objects, M's table and the flat maps Can(t),
    # and the closure only through its room of cap x (cap + 42) words: at cap
    # 20 the 3-state full transformation monoid of order 27 is closed, and
    # both are refused
    dfa = full_transformation_dfa(3)
    assert monoid.ORDER_CAP == 5000
    monkeypatch.setattr(monoid, "ORDER_CAP", 20)
    assert transition_monoid(dfa).order == 27
    with pytest.raises(TooLarge,
                       match="^the multiplication table of order 27 exceeds the order cap 20$"):
        transition_monoid(dfa).monoid
    with pytest.raises(TooLarge,
                       match="^the canonical decomposition of order 27 exceeds the order cap 20$"):
        Analysis(dfa).decomposition
    # the cap is the largest order whose table and decomposition are built
    monkeypatch.setattr(monoid, "ORDER_CAP", 27)
    assert transition_monoid(dfa).monoid.order == 27
    assert Analysis(dfa).decomposition.K == 27
    monkeypatch.setattr(monoid, "ORDER_CAP", 26)
    with pytest.raises(TooLarge):
        transition_monoid(dfa).monoid
    with pytest.raises(TooLarge):
        Analysis(dfa).decomposition


def test_closure_budget_bounds_order_times_degree(monkeypatch):
    # the closure refuses once order x (degree + 42) passes cap x (cap + 42)
    # words (pinned against the reference closure in test_closure_kernel):
    # at the cap of 5000 that holds order 5000 at every degree up to 5000,
    # and at every degree at least the order that the earlier budget of
    # 5000 x (4096 + 42) words held
    assert monoid.ORDER_CAP == 5000
    budget = 5000 * (5000 + 42)
    for degree in (1, 4, 42, 4096, 4097, 8192, 10 ** 6):
        assert budget // (degree + 42) >= 5000 * 4138 // (degree + 42)
    assert all(budget // (degree + 42) >= 5000 for degree in range(1, 5001))
    # so a monoid of order d on d points, the cyclic group of a d-cycle,
    # closes exactly when d is within the cap
    for cap in (1, 2, 5, 20):
        monkeypatch.setattr(monoid, "ORDER_CAP", cap)
        for d in range(1, 2 * cap + 2):
            cycle = Dfa(("a",), tuple(range(d)), 0, frozenset({0}),
                        {(q, "a"): (q + 1) % d for q in range(d)})
            if d <= cap:
                assert transition_monoid(cycle).order == d
            else:
                with pytest.raises(TooLarge, match=f"^transition monoid of degree {d} exceeds "
                                   f"the closure budget of {cap * (cap + 42)} words "):
                    transition_monoid(cycle)


# --- Cayley graphs ---

def test_cayley_counts(corpus):
    _, _, sm1 = corpus["a1"]
    assert sm1.order == 4 and sum(map(len, sm1.targets())) == 8
    _, _, sm2 = corpus["a2"]
    assert sm2.order == 6 and sum(map(len, sm2.targets())) == 12


def test_cayley_targets_follow_the_table_in_element_then_letter_order(corpus):
    for name, (_, _, sm) in corpus.items():
        assert [list(row) for row in sm.targets()] == [
            [sm.monoid.table[x][sm.eta[a]] for a in sm.alphabet]
            for x in range(sm.order)], name


def assert_graph_and_table_agree(sm):
    """The kernel's Cayley graph is the table read at the letters, and
    `image_of_word`, which walks the graph, is the table's walk."""
    table = sm.monoid.table
    for x, row in enumerate(sm.targets()):
        for g, a in enumerate(sm.alphabet):
            assert row[g] == table[x][sm.eta[a]], (x, a)
    for length in range(4):
        for w in map("".join, itertools.product(sm.alphabet, repeat=length)):
            x = 0
            for a in w:
                x = table[x][sm.eta[a]]
            assert sm.image_of_word(w) == x, w


def test_graph_and_table_agree_on_corpus(corpus):
    for name, (_, _, sm) in corpus.items():
        assert_graph_and_table_agree(sm)


@settings(max_examples=100)
@given(small_dfas())
def test_graph_and_table_agree_on_random_dfas(dfa):
    assert_graph_and_table_agree(transition_monoid(dfa))
    assert_graph_and_table_agree(transition_monoid(minimize(dfa)))


def test_a_cayley_entry_out_of_range_is_rejected(corpus):
    sm = corpus["a2"][2]
    last = sm.right[-1]
    for row in ((sm.order,) + last[1:], (-1,) + last[1:], last[:1]):
        with pytest.raises(InvalidMonoid,
                           match="^Cayley graph is not a table of element indices$"):
            SyntacticMonoid(sm.right[:-1] + (row,), sm.tree, sm.eta, sm.accepting_image)


def test_the_table_is_filled_on_first_read_and_not_copied():
    sm = transition_monoid(minimize(regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab")))
    assert "monoid" not in vars(sm)
    table = sm.monoid.table
    # the table takes the names, which read the alphabet
    assert vars(sm) == {"monoid": sm.monoid, "names": sm.monoid.names, "alphabet": sm.alphabet}
    with pytest.raises(AttributeError):
        sm.monoid = None
    for clone in (copy.copy(sm), copy.deepcopy(sm), pickle.loads(pickle.dumps(sm))):
        assert type(clone) is SyntacticMonoid and vars(clone) == {}
        assert (clone.right, clone.tree, clone.eta, clone.accepting_image) == \
            (sm.right, sm.tree, sm.eta, sm.accepting_image)
        assert clone.names == sm.names
        assert clone.monoid.table == table and clone.monoid is not sm.monoid


def test_cayley_trivial_self_loop():
    sm = transition_monoid(regex_to_dfa(parse_regex("a*"), "a"))
    assert sm.order == 1 and [list(row) for row in sm.targets()] == [[0]]


def test_cayley_dot_export(corpus):
    _, _, sm = corpus["a3"]
    dot = cayley_to_dot(sm)
    assert dot.startswith("digraph")
    assert dot.count("->") == 10
    assert '0 -> 1 [label="a"]' in dot


# --- zero elements, ideals, Rees factors ---

def test_find_zero_u1():
    u1 = make_named("right_zero", 1)
    assert find_zero(u1) == 1


def test_find_zero_absent_in_left_zero_pair():
    assert find_zero(make_named("left_zero", 2)) is None


def test_find_zero_absorbing_language():
    sm = transition_monoid(regex_to_dfa(parse_regex("(a|b)*a(a|b)*"), "ab"))
    z = find_zero(sm.monoid)
    assert z is not None and z == sm.eta["a"]


def test_principal_ideal_in_group_is_everything():
    c3 = make_named("cyclic", 3)
    assert principal_ideal(c3, 1) == frozenset({0, 1, 2})


def test_principal_ideal_left_zero():
    u = make_named("left_zero", 2)
    assert principal_ideal(u, 1) == frozenset({1, 2})


def test_principal_ideal_of_zero_is_singleton():
    sm = transition_monoid(regex_to_dfa(parse_regex("(a|b)*a(a|b)*"), "ab"))
    z = find_zero(sm.monoid)
    assert principal_ideal(sm.monoid, z) == frozenset({z})


def test_is_ideal_cases():
    u1 = make_named("right_zero", 1)
    assert is_ideal(u1, {1})
    c2 = make_named("cyclic", 2)
    assert not is_ideal(c2, {0})
    assert not is_ideal(c2, set())
    assert is_ideal(make_named("left_zero", 2), {1, 2})


def test_principal_ideals_are_ideals_and_generate():
    for m in (make_named("left_zero", 3), make_named("right_zero", 2),
              make_named("full_transformation", 2), make_named("cyclic", 4)):
        ideals = [principal_ideal(m, x) for x in range(m.order)]
        for ideal in ideals:
            assert is_ideal(m, ideal)
            # every ideal is the union of the principal ideals of its members
            assert ideal == frozenset().union(*(principal_ideal(m, x) for x in ideal))


def test_rees_factor_left_zero_pair():
    u = make_named("left_zero", 2)
    q = rees_factor(u, {1, 2})
    assert q.order == 2
    assert find_zero(q) == 1
    assert q.names == ("e", "ι")


def test_rees_factor_whole_monoid():
    c2 = make_named("cyclic", 2)
    q = rees_factor(c2, {0, 1})
    assert q.order == 1


def test_rees_factor_not_an_ideal():
    with pytest.raises(NotAnIdeal):
        rees_factor(make_named("cyclic", 2), {0})


def test_rees_factor_always_has_zero(corpus):
    _, _, sm = corpus["a3"]
    for x in range(sm.order):
        ideal = principal_ideal(sm.monoid, x)
        assert find_zero(rees_factor(sm.monoid, ideal)) is not None


def brute_zero(m):
    """The absorbing element by definition, or None."""
    return next((z for z in range(m.order)
                 if all(m.table[z][s] == z == m.table[s][z] for s in range(m.order))), None)


def test_find_zero_and_the_minimal_ideal_by_definition(corpus):
    monoids = [make_named(kind, k) for kind in ("cyclic", "right_zero", "left_zero",
                                                "symmetric", "full_transformation")
               for k in range(1, 5)]
    for _, _, sm in corpus.values():
        monoids.append(sm.monoid)
        monoids.extend(rees_factor(sm.monoid, principal_ideal(sm.monoid, x))
                       for x in range(sm.order))
    for m in monoids:
        assert find_zero(m) == brute_zero(m), m.names
        z = minimal_ideal_element(m)
        assert all(z in principal_ideal(m, x) for x in range(m.order)), m.names
    # the verdicts read K(M) off the closed classes of the Cayley graph, and
    # the zero as its one element
    for name, (dfa, _, sm) in corpus.items():
        assert sm.minimal_ideal == principal_ideal(sm.monoid, minimal_ideal_element(sm.monoid))
        assert Analysis(dfa).basic_verdict.zero_element == find_zero(sm.monoid), name


# --- products ---

INVERSION = [[0, 1, 2], [0, 2, 1]]


def test_semidirect_inversion_is_symmetric_group():
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    product = semidirect_product(c3, c2, INVERSION)
    assert product.order == 6
    assert any(product.table[i][j] != product.table[j][i]
               for i in range(6) for j in range(6))
    assert brute_isomorphic(product, make_named("symmetric", 3))


def test_trivial_action_gives_direct_product():
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    prod = direct_product(c3, c2)
    assert prod.order == 6
    assert brute_isomorphic(prod, make_named("cyclic", 6))


def test_semidirect_rejects_bad_actions():
    c3, c2 = make_named("cyclic", 3), make_named("cyclic", 2)
    c4 = make_named("cyclic", 4)
    with pytest.raises(NotAnAction):
        semidirect_product(c3, c2, [[1, 2, 0], [0, 2, 1]])  # e_N must act as id
    # involution swapping 1 and 2 of C4 satisfies the action laws but is
    # not distributive: it sends 1+1 to 1 while images sum to 0
    with pytest.raises(NotAnAction, match=r"^distributivity fails at \(1, 1, 1\)$"):
        semidirect_product(c4, c2, [[0, 1, 2, 3], [0, 2, 1, 3]])
    swap = [[0, 1, 2], [0, 2, 1]]
    u2 = make_named("left_zero", 2)
    assert semidirect_product(u2, c2, swap).order == 6


def test_semidirect_rejects_action_entries_outside_the_monoid():
    c2 = make_named("cyclic", 2)
    with pytest.raises(NotAnAction, match=r"^action entry \(1, 1\) is 2, not an element of M$"):
        semidirect_product(c2, c2, [[0, 1], [0, 2]])
    with pytest.raises(NotAnAction, match=r"^action entry \(1, 1\) is -1, "):
        semidirect_product(c2, c2, [[0, 1], [0, -1]])
    for entry in (None, 1.0, "1"):
        with pytest.raises(NotAnAction,
                           match=rf"^action entry \(1, 1\) is {entry}, not an element of M$"):
            semidirect_product(c2, c2, [[0, 1], [0, entry]])


def test_hom_image_check_identity_map():
    c2 = make_named("cyclic", 2)
    assert hom_image_check(c2, c2, [0, 1])
    assert not hom_image_check(c2, c2, [1, 0])


def test_hom_image_check_rejects_maps_outside_the_monoids():
    c2 = make_named("cyclic", 2)
    for mapping in ([0, 2], [0, -1], [0], [0, 1, 0]):
        assert hom_image_check(c2, c2, mapping) is False, mapping


def test_rho_bar_is_homomorphism_onto_c2(corpus, full_sigs):
    _, _, sm = corpus["a3"]
    sig = full_sigs["a3"]
    c2 = make_named("cyclic", 2)
    mapping = [r[0] for r in sig.rho_bar]
    assert hom_image_check(sm.monoid, c2, mapping)
    assert set(mapping) == {0, 1}


# --- embedding into the function-power semidirect product ---

def _induced_power_action(m, n):
    """Action of N on M^N: (n (*) f)(y) = f(y.n)."""
    power = function_monoid(m, n.order)
    elements = list(itertools.product(range(m.order), repeat=n.order))
    index = {f: i for i, f in enumerate(elements)}
    action = [
        [index[tuple(f[n.table[y][j]] for y in range(n.order))] for f in elements]
        for j in range(n.order)
    ]
    return power, elements, index, action


@pytest.mark.parametrize("m_kind,n_kind,action", [
    (("cyclic", 3), ("cyclic", 2), INVERSION),
    (("cyclic", 2), ("cyclic", 2), None),          # trivial action
    (("cyclic", 4), ("cyclic", 2), [[0, 1, 2, 3], [0, 3, 2, 1]]),
    (("left_zero", 2), ("cyclic", 2), [[0, 1, 2], [0, 2, 1]]),
])
def test_unitary_actions_embed_in_power_semidirect(m_kind, n_kind, action):
    m = make_named(*m_kind)
    n = make_named(*n_kind)
    if action is None:
        action = [list(range(m.order)) for _ in range(n.order)]
    assert m.order ** n.order * n.order <= 64 or m.order * n.order <= 64
    small = semidirect_product(m, n, action)
    power, elements, index, power_action = _induced_power_action(m, n)
    big = semidirect_product(power, n, power_action)
    # h(m, n) = (y -> y * m, n)
    mapping = []
    for i in range(m.order):
        f = tuple(action[y][i] for y in range(n.order))
        for j in range(n.order):
            mapping.append(index[f] * n.order + j)
    assert hom_image_check(small, big, mapping)
    assert len(set(mapping)) == small.order
