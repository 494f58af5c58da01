import json
from pathlib import Path

import pytest
from hypothesis import settings

from synmon import (build_signature, canonical_decomposition, load_dfa,
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
    import warnings

    out = {}
    for name, (_dfa, _minimal, sm) in corpus.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out[name] = build_signature(sm, [sm.alphabet])
    return out


@pytest.fixture(scope="session")
def full_decs(corpus, full_sigs):
    return {
        name: canonical_decomposition(corpus[name][2], full_sigs[name])
        for name in corpus
    }


def data_text(filename):
    return (DATA / filename).read_text()


def data_json(filename):
    return json.loads((DATA / filename).read_text())
