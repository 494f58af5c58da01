import json
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, settings, strategies as st

from synmon import (Dfa, build_signature, canonical_decomposition, load_dfa,
                    minimize, transition_monoid)
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
def small_dfas(draw, max_states=5, alphabets=("ab",), min_accepting=1):
    """Complete DFAs with at most `max_states` states over one of
    `alphabets`, with at least `min_accepting` accepting states.  State q
    sits on level q mod p and every letter moves one level up, so that
    lengths mod p are tracked and periods above one occur."""
    n = draw(st.integers(1, max_states))
    p = draw(st.integers(1, n))
    letters = draw(st.sampled_from(alphabets))
    delta = {(q, a): draw(st.sampled_from(range((q + 1) % p, n, p)))
             for q in range(n) for a in letters}
    accepting = draw(st.sets(st.integers(0, n - 1), min_size=min_accepting))
    return Dfa(tuple(letters), tuple(range(n)), 0, frozenset(accepting), delta)


@st.composite
def merging_dfas(draw, max_states=6, alphabets=("ab", "abc")):
    """Level DFAs as in `small_dfas`, on p = 2 or 3 levels, whose first h
    states are a transient head: state q < h is entered only from states
    below it, and every other state only from states h and above, so no
    letter enters state 0.  Accepting states lie on level 0, so that the
    period is often p.  No element of N_r with r >= 1 has state 0 in its
    image, so two t in N_0 that differ only there share f_t(r), and T_r is
    often smaller than N_0: in about a quarter of the examples, against
    about one in a hundred of `small_dfas() | small_dfas(6, ("abc",), 0)`."""
    p = draw(st.integers(2, 3))
    h = draw(st.integers(1, 2))
    n = draw(st.integers(h + p, max(h + p, max_states)))
    letters = draw(st.sampled_from(alphabets))

    def targets(q):  # one level up, and into the head only from below
        return [t for t in range((q + 1) % p, n, p) if t > q or h <= t]

    delta = {(q, a): draw(st.sampled_from(targets(q))) for q in range(n) for a in letters}
    accepting = draw(st.sets(st.sampled_from(range(0, n, p)), min_size=1))
    return Dfa(tuple(letters), tuple(range(n)), 0, frozenset(accepting), delta)


def small_monoid(dfa, cap=64):
    """The syntactic monoid of a DFA from `small_dfas`; examples whose
    monoid has more than `cap` elements are skipped once it is closed,
    since the order cap bounds no closure.  No table is filled for them:
    five states can reach order 3125."""
    sm = transition_monoid(minimize(dfa))
    assume(sm.order <= cap)
    return sm


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
