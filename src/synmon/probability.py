"""Exact and limiting probabilities of regular languages.

mu(l) = |L intersect Sigma^l| / |Sigma|^l, computed by arbitrary-precision
path counting.  Limits are exact as well: along each residue class of l
modulo the maximum period P, mu converges to a rational number read off the
limit vector of the DFA's Markov chain at P letters a step
(`limit_vector`).  Algebraic zero-one verdicts are always checked against
these limits for equality, and a disagreement raises VerificationFailure
rather than being resolved silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .decompose import CanonicalDecomposition, ResidualMonoid, lw_recognizer
from .dfa import Dfa, minimize
from .errors import InvalidPeriod, ScopeError, VerificationFailure
from .monoid import SyntacticMonoid, find_zero, principal_ideal, transition_monoid
from .periods import _cycle_classes, max_period


@dataclass(frozen=True)
class MarkovChain:
    states: tuple
    matrix: tuple  # row-stochastic, exact Fractions


@dataclass(frozen=True)
class AccumulationPoint:
    r: int
    value: Fraction


@dataclass(frozen=True)
class BasicZeroOne:
    verdict: str               # zero | one | neither | oscillating
    zero_element: int | None
    period: int
    accumulation: tuple


@dataclass(frozen=True)
class ResidualZeroOne:
    w: str
    r: int
    is_zero_or_one: bool
    witness: tuple | None      # element indices of the witness ideal in T_r
    witness_names: tuple | None
    mu_lw: Fraction


@dataclass(frozen=True)
class MuConsistency:
    r: int
    mu_r: Fraction
    per_word: tuple            # (w, limit) pairs
    average: Fraction
    ok: bool


def _successors(dfa: Dfa) -> list:
    """Per state index, the index of the target of each letter."""
    position = {q: i for i, q in enumerate(dfa.states)}
    return [[position[dfa.delta[(q, a)]] for a in dfa.alphabet] for q in dfa.states]


def _counts(successors, start: int, upto: int):
    """Yield, for the lengths 0, 1, ..., upto, the number of words of that
    length leading from state `start` to each state."""
    vector = [0] * len(successors)
    vector[start] = 1
    yield vector
    for _ in range(upto):
        step = [0] * len(vector)
        for i, count in enumerate(vector):
            if count:
                for j in successors[i]:
                    step[j] += count
        vector = step
        yield vector


def mu_exact(dfa: Dfa, length: int) -> Fraction:
    """|L intersect Sigma^length| / |Sigma|^length, exactly."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return mu_series(dfa, length)[length]


def mu_series(dfa: Dfa, upto: int) -> list:
    """[mu(0), ..., mu(upto)] with one counting pass."""
    accepting = [i for i, q in enumerate(dfa.states) if q in dfa.accepting]
    counts = _counts(_successors(dfa), dfa.states.index(dfa.initial), upto)
    return [Fraction(sum(vector[i] for i in accepting), len(dfa.alphabet) ** length)
            for length, vector in enumerate(counts)]


def markov_chain(dfa: Dfa) -> MarkovChain:
    """Uniform-transition Markov chain of a complete DFA."""
    successors, size = _successors(dfa), len(dfa.alphabet)
    matrix = tuple(tuple(Fraction(c, size) for c in list(_counts(successors, i, 1))[1])
                   for i in range(dfa.n_states))
    return MarkovChain(tuple(dfa.states), matrix)


def _solve(equations) -> dict:
    """The unique solution of a linear system, by Gauss-Jordan elimination
    over Fractions on sparse rows.  Each equation is a dict {unknown:
    coefficient} with its right-hand side under the key None.  To keep the
    fill-in low, each pivot is the unknown in the fewest rows among those of
    the sparsest remaining row (Markowitz's rule)."""
    rows = [{x: Fraction(v) for x, v in equation.items() if v} for equation in equations]
    holders = {None: set()}  # unknown -> indices of the rows in which it appears
    for i, row in enumerate(rows):
        for x in row:
            holders.setdefault(x, set()).add(i)
    pending = set(range(len(rows)))
    while pending:
        i = min(pending, key=lambda k: len(rows[k]))
        pending.remove(i)
        row = rows[i]
        x = min((y for y in row if y is not None), key=lambda y: len(holders[y]))
        scale = row[x]
        for y in row:
            row[y] /= scale
        for k in holders[x] - {i}:
            other = rows[k]
            factor = other[x]
            for y, v in row.items():
                value = other.get(y, 0) - factor * v
                if value:
                    other[y] = value
                    holders[y].add(k)
                else:
                    del other[y]
                    holders[y].discard(k)
    return {x: row.get(None, Fraction(0)) for row in rows for x in row if x is not None}


def limit_vector(dfa: Dfa, period: int) -> dict:
    """h[q] = lim_k Pr[a uniform word of length k*period read from q is
    accepted], exactly, for every state q of a DFA, minimal or not.

    h is the Cesaro limit of R^k applied to the accepting states, with R the
    chain of `period` letters at a time: on each closed class of R the
    stationary mass of the accepting states, and on the transient states
    the solution of h = R h (Kemeny & Snell, Finite Markov Chains, ch. 3-5).
    The Cesaro limit is the limit wherever that exists, which it does at
    every reachable state when `period` is a multiple of the maximum period.
    """
    successors, n = _successors(dfa), dfa.n_states
    # rows of A = size R, A[i][j] the number of words of `period` letters from i to j
    rows = [{j: c for j, c in enumerate(list(_counts(successors, i, period))[-1]) if c}
            for i in range(n)]
    size = len(dfa.alphabet) ** period
    accepting = {i for i, q in enumerate(dfa.states) if q in dfa.accepting}
    h = {}
    edges = [(i, 1, j) for i, row in enumerate(rows) for j in row]
    for component, closed, _ in _cycle_classes(n, edges):
        if not closed:
            continue
        # the stationary distribution pi of the closed class solves
        # pi A = size pi, with one balance equation replaced by sum(pi) = 1
        balance = {j: {j: -size} for j in component}
        for i in component:
            for j, c in rows[i].items():
                balance[j][i] = balance[j].get(i, 0) + c
        pi = _solve([balance[j] for j in component[1:]]
                    + [dict.fromkeys(component + [None], 1)])
        h.update(dict.fromkeys(component, sum(pi[j] for j in component if j in accepting)))
    transient = []  # size h_t - sum of A[t][j] h_j over transient j = the rest
    for t in (t for t in range(n) if t not in h):
        equation = {j: -c for j, c in rows[t].items() if j not in h}
        equation[t] = equation.get(t, 0) + size
        equation[None] = sum(c * h[j] for j, c in rows[t].items() if j in h)
        transient.append(equation)
    h.update(_solve(transient))
    return {q: Fraction(h[i]) for i, q in enumerate(dfa.states)}


def maximum_period_of(dfa: Dfa) -> int:
    """Maximum period of the language of `dfa` over its whole alphabet.

    `accumulation_points` checks a caller's period against it; an
    `Analysis` computes it once as a stage instead.
    """
    m = transition_monoid(minimize(dfa))
    return max_period(m, m.alphabet)


def accumulation_points(dfa: Dfa, period: int) -> list:
    """Per residue r, the exact limit of mu(r + k*period) as k grows.

    `period` must be the maximum period of the language with respect to the
    whole alphabet.
    """
    maximum = maximum_period_of(dfa)
    if period != maximum:
        raise InvalidPeriod(f"period {period} is not the maximum period {maximum}")
    return residue_limits(dfa, period, limit_vector(dfa, period))


def residue_limits(dfa: Dfa, period: int, h: dict) -> list:
    """`accumulation_points` from the limit vector h of `limit_vector`, for a
    period the caller knows to be the maximum period: the limit at residue r
    is the mean of h over the states reached by the words of length r."""
    values = [h[q] for q in dfa.states]
    counts = _counts(_successors(dfa), dfa.states.index(dfa.initial), period - 1)
    return [AccumulationPoint(r, Fraction(sum(c * v for c, v in zip(vector, values)),
                                          len(dfa.alphabet) ** r))
            for r, vector in enumerate(counts)]


def zero_one_basic(m: SyntacticMonoid, dfa: Dfa) -> BasicZeroOne:
    """Verdict from the zero element of the syntactic monoid, cross-checked
    against the exact accumulation points."""
    period = max_period(m, m.alphabet)
    return basic_verdict(m, period, accumulation_points(dfa, period))


def basic_verdict(m: SyntacticMonoid, period: int, points) -> BasicZeroOne:
    """`zero_one_basic` for accumulation points already computed at the
    maximum period."""
    zero = find_zero(m.monoid)
    values = [p.value for p in points]
    if zero is not None:
        verdict = "one" if zero in m.accepting_image else "zero"
        target = 1 if verdict == "one" else 0
        if any(v != target for v in values):
            raise VerificationFailure(
                f"zero element predicts mu = {target} but limits are "
                f"{', '.join(map(str, values))}"
            )
        return BasicZeroOne(verdict, zero, period, tuple(points))
    if len(set(values)) > 1:
        return BasicZeroOne("oscillating", None, period, tuple(points))
    if values[0] in (0, 1):
        raise VerificationFailure(
            f"no zero element but the limit {values[0]} is zero or one"
        )
    return BasicZeroOne("neither", None, period, tuple(points))


def limit_mu_blocks(dfa: Dfa, w: str, period: int) -> Fraction:
    """Exact limit of mu_{L_w}(k), the probability that w and k uniform
    blocks of `period` letters, the maximum period, form a word of L."""
    return limit_vector(dfa, period)[dfa.run(w)]


def zero_one_residual(dec: CanonicalDecomposition, dfa: Dfa, w: str) -> ResidualZeroOne:
    """Theorem-style verdict for the block language L_w; see
    `residual_verdict`."""
    period = dec.signature.periods[0]
    if period != max_period(dec.m, dec.m.alphabet):
        raise ScopeError("zero-one residual verdicts need the maximum period")
    rec = lw_recognizer(dec, w)
    return residual_verdict(w, rec.monoid, rec.accepting, limit_mu_blocks(dfa, w, period))


def residual_verdict(w: str, t_r: ResidualMonoid, accepting: frozenset,
                     limit: Fraction) -> ResidualZeroOne:
    """Scan the principal ideals of T_r for one disjoint from, or contained
    in, the elements `accepting` after the prefix w.  Sound and complete
    because every non-empty ideal is a union of the principal ideals of its
    members.  `limit` is the exact limit of mu_{L_w}; a witness exists
    exactly when it is 0 or 1, and a disagreement raises
    VerificationFailure."""
    witness = None
    for tau in range(t_r.order):
        ideal = principal_ideal(t_r.monoid, tau)
        if not (ideal & accepting) or ideal <= accepting:
            witness = tuple(sorted(ideal))
            break
    is_zero_or_one = witness is not None
    if (limit in (0, 1)) != is_zero_or_one:
        raise VerificationFailure(
            f"ideal verdict {is_zero_or_one} disagrees with limit {limit} for w={w!r}"
        )
    names = tuple(t_r.monoid.name_of(i) for i in witness) if witness else None
    return ResidualZeroOne(w, t_r.r, is_zero_or_one, witness, names, limit)


def mu_consistency(dec: CanonicalDecomposition, dfa: Dfa, r: int) -> MuConsistency:
    """Check mu_r = average of mu_{L_w} over w in Sigma^r, exactly."""
    period = dec.signature.periods[0]
    if period != max_period(dec.m, dec.m.alphabet):
        raise ScopeError("consistency checks need the maximum period")
    if not 0 <= r < period:
        raise ScopeError(f"residue {r} out of range for period {period}")
    h = limit_vector(dfa, period)
    mu_r = residue_limits(dfa, period, h)[r].value
    words = map("".join, product(sorted(dfa.alphabet), repeat=r))
    per_word = tuple((w, h[dfa.run(w)]) for w in words)
    average = Fraction(sum(v for _, v in per_word), len(per_word))
    return MuConsistency(r, mu_r, per_word, average, average == mu_r)
