"""Light's associativity test in `check_table` against the exhaustive check.

`check_table` tests (x.a).y = x.(a.y) for every a in a greedy generating
set only.  The oracle below tests every triple.  The tests assert that both
accept and reject the same tables: random tables with an identity, and
single-entry mutations of monoid tables, among them mutations whose broken
triples all have a middle factor outside the generating set.
"""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from synmon import load_dfa, make_named, minimize, transition_monoid
from synmon.errors import InvalidMonoid
from synmon.monoid import (FiniteMonoid, SyntacticMonoid, _generating_set,
                           check_table, gather)

from conftest import CORPUS_SOURCES, load_corpus_dfa

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import counter, kth_tail  # noqa: E402


def failing_triples(table):
    """Every (x, y, z) with (x.y).z != x.(y.z): the exhaustive n^3 pass."""
    n = len(table)
    return [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
            if table[table[x][y]][z] != table[x][table[y][z]]]


def light_accepts(table):
    try:
        check_table(table)
    except InvalidMonoid as exc:
        assert "associativity" in str(exc)
        return False
    return True


def syntactic_table(dfa):
    return transition_monoid(minimize(dfa)).monoid.table


SOURCES = dict(
    {name: syntactic_table(load_corpus_dfa(name)) for name in CORPUS_SOURCES},
    kth_tail_2=syntactic_table(load_dfa(json.dumps(kth_tail(2).dfa))),
    counter_4=syntactic_table(load_dfa(json.dumps(counter(4).dfa))),
    symmetric_3=make_named("symmetric", 3).table,
    full_transformation_3=make_named("full_transformation", 3).table,
)


def reaches_all(table, generators):
    reached, queue = {0}, [0]
    for x in queue:
        for g in generators:
            if table[x][g] not in reached:
                reached.add(table[x][g])
                queue.append(table[x][g])
    return len(reached) == len(table)


def mutate(table, x, y, value):
    rows = [list(row) for row in table]
    rows[x][y] = value
    return tuple(map(tuple, rows))


@st.composite
def identity_tables(draw):
    """Tables of order at most 6 whose row and column 0 are the identity;
    the other entries are arbitrary."""
    n = draw(st.integers(1, 6))
    entries = st.integers(0, n - 1)
    return tuple(
        tuple(y if x == 0 else x if y == 0 else draw(entries) for y in range(n))
        for x in range(n))


@st.composite
def mutated_tables(draw):
    """A monoid table with one entry outside the identity row and column
    changed."""
    table = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    n = len(table)
    if n < 2:
        return table
    x, y = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    value = draw(st.integers(0, n - 2))
    return mutate(table, x, y, value + (value >= table[x][y]))


@settings(max_examples=400)
@given(identity_tables())
def test_light_agrees_with_exhaustive_on_random_tables(table):
    assert light_accepts(table) == (not failing_triples(table))


@settings(max_examples=300)
@given(mutated_tables())
def test_light_agrees_with_exhaustive_on_mutated_monoids(table):
    assert light_accepts(table) == (not failing_triples(table))


@settings(max_examples=200)
@given(st.one_of(identity_tables(), mutated_tables()))
def test_greedy_generating_set_generates(table):
    assert reaches_all(table, _generating_set(table))


def test_greedy_generating_set_of_named_monoids():
    for name in ("symmetric_3", "full_transformation_3"):
        assert reaches_all(SOURCES[name], _generating_set(SOURCES[name])), name


def test_unmutated_monoids_are_accepted():
    for name, table in SOURCES.items():
        assert not failing_triples(table), name
        assert light_accepts(table), name


def test_failures_away_from_the_generators_are_caught():
    """Every single-entry mutation of a corpus table that breaks
    associativity is rejected, including those whose first broken triple
    has a middle factor outside the greedy generating set.  (No table fails
    only there: by the proof in `check_table`, a failure shows at some
    middle factor in the set.)"""
    outside_first = 0
    for name in CORPUS_SOURCES:
        table = SOURCES[name]
        n = len(table)
        for x in range(1, n):
            for y in range(1, n):
                for value in range(n):
                    mutant = mutate(table, x, y, value)
                    broken = failing_triples(mutant)
                    if not broken:
                        continue
                    outside_first += broken[0][1] not in _generating_set(mutant)
                    assert not light_accepts(mutant), (name, x, y, value)
    assert outside_first > 0


def test_tables_of_order_one_and_two():
    """Rows of one entry go through the `map` fallback of `gather`."""
    assert gather(())("xyz") == () and gather((2,))("xyz") == ("z",)
    for table in (((0,),), ((0, 1), (1, 0)), ((0, 1), (1, 1))):
        assert light_accepts(table)
        assert FiniteMonoid(table).order == len(table)
    with pytest.raises(InvalidMonoid, match="identity law"):
        check_table(((0, 1), (0, 1)))
    with pytest.raises(InvalidMonoid, match="^table is empty$"):
        check_table(())


def test_associativity_is_checked_above_order_512():
    """A single changed entry of the table of kth_tail k = 8 (order 1023)
    is rejected, and the factors the message names witness the failure."""
    table = syntactic_table(load_dfa(json.dumps(kth_tail(8).dfa)))
    assert len(table) == 1023
    mutant = mutate(table, 700, 300, (table[700][300] + 1) % len(table))
    with pytest.raises(InvalidMonoid, match="middle factor") as info:
        check_table(mutant)
    x, a = map(int, re.fullmatch(
        r"associativity fails with left factor (\d+) and middle factor (\d+)",
        str(info.value)).groups())
    assert any(mutant[mutant[x][a]][y] != mutant[x][mutant[a][y]]
               for y in range(len(mutant)))


def test_generators_that_do_not_generate_are_rejected():
    sm = transition_monoid(minimize(load_corpus_dfa("a2")))
    # the last element's tree edge starts at itself, and element 1's at a
    # later element, along a Cayley edge: the tree reaches neither from 0
    last = sm.order - 1
    later = next((p, g) for p in range(2, sm.order)
                 for g, y in enumerate(sm.right[p]) if y == 1)
    for j, edge in ((last, (last, sm.tree[last][1])), (1, later)):
        cut = sm.tree[:j] + (edge,) + sm.tree[j + 1:]
        with pytest.raises(InvalidMonoid, match="do not generate"):
            SyntacticMonoid(sm.right, cut, sm.eta, frozenset())
    assert SyntacticMonoid(sm.right, sm.tree, sm.eta, frozenset()).order == sm.order


def test_commands_do_not_import_numpy():
    script = textwrap.dedent("""
        import sys
        import synmon
        from synmon import cli
        assert "numpy" not in sys.modules, "import synmon"
        code = cli.main(["analyze", "--json", "--regex", "((a|b)(a|b))*",
                         "--alphabet", "ab"])
        assert code == 0, code
        assert "numpy" not in sys.modules, "analyze"
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
