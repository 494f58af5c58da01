import json
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, settings, strategies as st

from synmon import (Dfa, build_signature, canonical_decomposition, load_dfa,
                    minimize, monoid, transition_monoid)
from synmon.errors import TooLarge
from synmon.regexes import parse_regex, regex_to_dfa

DATA = Path(__file__).parent / "data"

# Property tests draw the same examples on every run and have no time limit:
# a machine whose speed drifts must not turn a slow example into a failure.
settings.register_profile("synmon", deadline=None, derandomize=True)
settings.load_profile("synmon")

# name -> (regex or None, dfa json or None); every language is over {a, b}
CORPUS_SOURCES = {
    "a1": (None, "a1.json"),                      # both letter counts even
    "a2": (None, "a2.json"),                      # permutation walk, order-6 monoid
    "a3": (None, "a3.json"),                      # a(SS)* | bS*, oscillating
    "pairs": ("((a|b)(a|b))*", None),             # even length
    "head_a": ("a(a|b)*", None),                  # first letter a
    "alt_half": ("a((a|b)(a|b))*|b(a|b)((a|b)(a|b))*", None),
    "has_a": ("(a|b)*a(a|b)*", None),             # contains an a
    "single_a": ("a", None),
    "all_words": ("(a|b)*", None),
}


def load_corpus_dfa(name):
    regex, path = CORPUS_SOURCES[name]
    if path:
        return load_dfa((DATA / path).read_text())
    return regex_to_dfa(parse_regex(regex), "ab")


@pytest.fixture(scope="session")
def corpus():
    """name -> (dfa as given, minimal dfa, syntactic monoid)."""
    out = {}
    for name in CORPUS_SOURCES:
        dfa = load_corpus_dfa(name)
        minimal = minimize(dfa)
        out[name] = (dfa, minimal, transition_monoid(minimal))
    return out


@pytest.fixture(scope="session")
def full_sigs(corpus):
    """Full-alphabet signatures at the maximum period, per language."""
    out = {}
    for name, (_dfa, _minimal, sm) in corpus.items():
        out[name] = build_signature(sm, [sm.alphabet])
    return out


@pytest.fixture(scope="session")
def full_decs(corpus, full_sigs):
    return {
        name: canonical_decomposition(corpus[name][2], full_sigs[name])
        for name in corpus
    }


@st.composite
def small_dfas(draw):
    """Complete DFAs over {a, b} with at most five states.  State q sits on
    level q mod p and every letter moves one level up, so that lengths mod p
    are tracked and periods above one occur."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, n))
    delta = {(q, a): draw(st.sampled_from(range((q + 1) % p, n, p)))
             for q in range(n) for a in "ab"}
    accepting = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Dfa(("a", "b"), tuple(range(n)), 0, frozenset(accepting), delta)


def small_monoid(dfa, cap=64):
    """The syntactic monoid of a DFA from `small_dfas`; examples whose
    monoid has more than `cap` elements are skipped.  The closure refuses
    them before it fills a table: five states can reach order 3125."""
    with mock.patch.object(monoid, "ORDER_CAP", cap):
        try:
            return transition_monoid(minimize(dfa))
        except TooLarge:
            assume(False)


def random_decomposition(dfa):
    """The full-alphabet decomposition at the maximum period of a DFA from
    `small_dfas`; examples whose monoid has more than 64 elements are
    skipped."""
    sm = small_monoid(dfa)
    return canonical_decomposition(sm, build_signature(sm, [sm.alphabet]))


def closed_classes(successors) -> list:
    """The closed classes of the graph v -> successors[v] on 0..n-1 by
    definition, as (sorted class, period) in the order of their least
    vertex: a class is the set of vertices mutually reachable with one, and
    it is closed when nothing outside it is reachable.  The period is the
    gcd of the lengths l <= 3n of the closed walks through the least
    vertex.  For each simple cycle of the class two such walks differ in
    length by the cycle's length, so that gcd is the gcd of all cycle
    lengths."""
    n = len(successors)
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            for w in successors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    out = []
    for v in range(n):
        members = tuple(u for u in range(n) if u in reach[v] and v in reach[u])
        if members[0] != v or not reach[v] <= set(members):
            continue
        period, walk_ends = 0, {v}
        for length in range(1, 3 * n + 1):
            walk_ends = {w for u in walk_ends for w in successors[u]}
            if v in walk_ends:
                period = gcd(period, length)
        out.append((members, period))
    return out


def data_text(filename):
    return (DATA / filename).read_text()


def data_json(filename):
    return json.loads((DATA / filename).read_text())
