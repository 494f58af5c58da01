"""Languages, generated inputs and reference values for the benchmark.

Every language carries its own reference DFA, written here by hand or by a
generator, and the values a correct report must contain.  None of them is
computed by the synmon pipeline: closed forms for the generated families,
hand derivations for the acceptance corpus, and `synmon.oracle.mu_enumerate`
(run on the reference DFA, not on anything the CLI parsed) for short lengths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

PROB_LENGTH = 1024      # `prob --length` in the series workload
ANALYZE_LENGTH = 8      # the CLI default for `analyze --length`
ORACLE_LENGTH = 12      # longest mu(l) checked by word enumeration


@dataclass(frozen=True)
class Language:
    """One regular language with its references.

    `dfa` is the reference automaton as a DFA document (the file format of
    `synmon --dfa`).  `regex`, when set, is what the CLI receives instead of
    a generated DFA file.  `order` and `K` are None where no closed form is
    recorded; `mu` is a closed form for mu(l), or None.
    """
    name: str
    dfa: dict
    regex: str | None
    period: int
    limits: tuple            # Fraction per residue r = 0..period-1
    order: int | None = None
    K: int | None = None
    mu: object = None
    all_zero_one: bool = False

    @property
    def alphabet(self) -> list:
        return self.dfa["alphabet"]

    @property
    def n_prefixes(self) -> int:
        """Prefixes w with |w| < period: sum of |alphabet|^r."""
        return sum(len(self.alphabet) ** r for r in range(self.period))


def _dfa(alphabet, states, initial, accepting, step) -> dict:
    return {
        "alphabet": list(alphabet),
        "states": list(states),
        "initial": initial,
        "accepting": list(accepting),
        "transitions": [{"from": q, "on": a, "to": step(q, a)}
                        for q in states for a in alphabet],
    }


def _table_dfa(initial, accepting, table) -> dict:
    """DFA over {a, b} from {state: (a-successor, b-successor)}."""
    return _dfa("ab", list(table), initial, accepting,
                lambda q, a: table[q]["ab".index(a)])


# --- generated families ---

def kth_tail(k: int) -> Language:
    """(a|b)*a(a|b)^k: the (k+1)-th letter from the end is an a.

    States are the last k+1 letters read (b-padded at the start), so the
    minimal DFA has 2^(k+1) states and the monoid order is 2^(k+2) - 1.
    """
    width = k + 1
    states = [format(i, f"0{width}b").replace("0", "a").replace("1", "b")
              for i in range(2 ** width)]
    dfa = _dfa("ab", states, "b" * width,
               [q for q in states if q[0] == "a"], lambda q, a: q[1:] + a)
    order = 2 ** (k + 2) - 1
    return Language(
        f"kth_tail_k{k}", dfa, "(a|b)*a" + "(a|b)" * k, period=1,
        limits=(Fraction(1, 2),), order=order, K=order,
        mu=lambda l: Fraction(1, 2) if l > k else Fraction(0))


def counter(n: int) -> Language:
    """Two-letter n x n counter: accept when both letter counts are 0 mod n.

    Order n^2, period n, K = n; mu(l) is the binomial mass on multiples of
    n when n divides l, so the limit is 1/n at r = 0 and 0 elsewhere.
    """
    states = [f"{i}_{j}" for i in range(n) for j in range(n)]

    def step(q, a):
        i, j = map(int, q.split("_"))
        return f"{(i + 1) % n}_{j}" if a == "a" else f"{i}_{(j + 1) % n}"

    def mu(l):
        if l % n:
            return Fraction(0)
        return Fraction(sum(comb(l, j) for j in range(0, l + 1, n)), 2 ** l)

    return Language(
        f"counter_n{n}", _dfa("ab", states, "0_0", ["0_0"], step), None,
        period=n, limits=(Fraction(1, n),) + (Fraction(0),) * (n - 1),
        order=n * n, K=n, mu=mu)


def mod_length(p: int) -> Language:
    """((a|b|c)^p)*: length divisible by p over three letters.

    Order p, period p, K = 1; the monoid is the cyclic group, so every
    block language is trivial and every per-prefix verdict is zero-one.
    """
    states = [str(i) for i in range(p)]
    dfa = _dfa("abc", states, "0", ["0"], lambda q, a: str((int(q) + 1) % p))
    return Language(
        f"mod_length_p{p}", dfa, "(" + "(a|b|c)" * p + ")*", period=p,
        limits=(Fraction(1),) + (Fraction(0),) * (p - 1), order=p, K=1,
        mu=lambda l: Fraction(int(l % p == 0)), all_zero_one=True)


# --- the acceptance corpus of tests/conftest.py, transcribed ---
# Periods and limits are those asserted in tests/test_acceptance.py, except
# where a comment gives the derivation.

HALF, ONE, ZERO = Fraction(1, 2), Fraction(1), Fraction(0)


def corpus() -> list:
    a1 = _table_dfa("q1", ["q1"], {"q1": ("q2", "q3"), "q2": ("q1", "q4"),
                                   "q3": ("q4", "q1"), "q4": ("q3", "q2")})
    a2 = _table_dfa("q1", ["q1"], {"q1": ("q1", "q3"), "q2": ("q3", "q1"),
                                   "q3": ("q2", "q2")})
    a3 = _table_dfa("q1", ["q2", "q4"], {"q1": ("q2", "q4"), "q2": ("q3", "q3"),
                                         "q3": ("q2", "q2"), "q4": ("q4", "q4")})
    return [
        # both letter counts even: the 2 x 2 counter
        Language("a1", a1, None, 2, (HALF, ZERO), mu=counter(2).mu),
        # every state has in-degree 2, so the chain is doubly stochastic;
        # the loop at q1 makes it aperiodic: the limit is uniform, 1/3
        Language("a2", a2, None, 1, (Fraction(1, 3),)),
        # a(SS)* | bS*: odd lengths always accepted, even ones by the b half
        Language("a3", a3, None, 2, (HALF, ONE),
                 mu=lambda l: ZERO if l == 0 else ONE if l % 2 else HALF),
        Language("pairs", _table_dfa("e", ["e"], {"e": ("o", "o"), "o": ("e", "e")}),
                 "((a|b)(a|b))*", 2, (ONE, ZERO),
                 mu=lambda l: Fraction(int(l % 2 == 0))),
        Language("head_a", _table_dfa("s", ["y"], {"s": ("y", "n"), "y": ("y", "y"),
                                                   "n": ("n", "n")}),
                 "a(a|b)*", 1, (HALF,), mu=lambda l: HALF if l else ZERO),
        # minimal DFA s -a-> x (accepting) <-> y <-b- s: mu(l) = 1/2, l >= 1
        Language("alt_half", _table_dfa("s", ["x"], {"s": ("x", "y"), "x": ("y", "y"),
                                                     "y": ("x", "x")}),
                 "a((a|b)(a|b))*|b(a|b)((a|b)(a|b))*", 2, (HALF, HALF),
                 mu=lambda l: HALF if l else ZERO),
        Language("has_a", _table_dfa("n", ["y"], {"n": ("y", "n"), "y": ("y", "y")}),
                 "(a|b)*a(a|b)*", 1, (ONE,), mu=lambda l: 1 - Fraction(1, 2 ** l)),
        Language("single_a", _table_dfa("s", ["y"], {"s": ("y", "d"), "y": ("d", "d"),
                                                     "d": ("d", "d")}),
                 "a", 1, (ZERO,), mu=lambda l: HALF if l == 1 else ZERO),
        Language("all_words", _table_dfa("s", ["s"], {"s": ("s", "s")}),
                 "(a|b)*", 1, (ONE,), mu=lambda l: ONE),
    ]


# --- workloads ---

@dataclass(frozen=True)
class Command:
    """One CLI invocation: `synmon <verb> --json <source> [--length N]`;
    `length` is the longest mu(l) the report carries."""
    id: str
    verb: str
    language: Language
    length: int = ANALYZE_LENGTH


def _commands(workload: str) -> list:
    if workload == "kth_tail":
        return [Command(f"{verb}/{lang.name}", verb, lang)
                for lang in map(kth_tail, (3, 4, 5, 6))
                for verb in ("decompose", "analyze")]
    if workload == "blocks":
        languages = [counter(n) for n in (4, 6, 8)] + [mod_length(p) for p in (5, 6, 7)]
        return [Command(f"analyze/{lang.name}", "analyze", lang) for lang in languages]
    if workload == "series":
        languages = (corpus() + [kth_tail(k) for k in (3, 4, 5, 6)]
                     + [counter(n) for n in (4, 6, 8)])
        return [Command(f"prob/{lang.name}", "prob", lang, PROB_LENGTH)
                for lang in languages]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("kth_tail", "blocks", "series")


def relabel(dfa: dict, rng: random.Random) -> dict:
    """The same automaton with fresh state names, shuffled state order and
    shuffled transition entries."""
    names = [f"q{i}" for i in range(len(dfa["states"]))]
    rng.shuffle(names)
    rename = dict(zip(dfa["states"], names))
    states = [rename[q] for q in dfa["states"]]
    rng.shuffle(states)
    transitions = [{"from": rename[t["from"]], "on": t["on"], "to": rename[t["to"]]}
                   for t in dfa["transitions"]]
    rng.shuffle(transitions)
    return {
        "alphabet": list(dfa["alphabet"]),
        "states": states,
        "initial": rename[dfa["initial"]],
        "accepting": sorted(rename[q] for q in dfa["accepting"]),
        "transitions": transitions,
    }


def plan(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's DFA files into `directory` and return
    [(Command, argv after `synmon`)].  The seed only renames, reorders and
    shuffles; every seed runs the same languages."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for command in _commands(workload):
        lang = command.language
        if lang.regex is not None:
            source = ["--regex", lang.regex, "--alphabet", "".join(lang.alphabet)]
        else:
            path = directory / f"{lang.name}.json"
            path.write_text(json.dumps(relabel(lang.dfa, rng)))
            source = ["--dfa", str(path)]
        if command.length != ANALYZE_LENGTH:
            source += ["--length", str(command.length)]
        out.append((command, [command.verb, "--json", *source]))
    return out


def pass_order(n: int, seed: int, index: int) -> list:
    """Command order for pass `index`: a seeded shuffle of range(n)."""
    order = list(range(n))
    random.Random(f"order:{seed}:{index}").shuffle(order)
    return order
