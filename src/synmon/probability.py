"""Exact and limiting probabilities of regular languages.

mu(l) = |L intersect Sigma^l| / |Sigma|^l, computed by arbitrary-precision
path counting.  Accumulation points are estimated along residue classes of
l modulo the maximum period; algebraic zero-one verdicts are always
cross-checked against the numeric limits, and a disagreement raises
VerificationFailure rather than being resolved silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .decompose import CanonicalDecomposition, ResidualMonoid, lw_recognizer
from .dfa import Dfa, block_dfa
from .errors import (InvalidArgument, InvalidPeriod, ScopeError,
                     VerificationFailure)
from .monoid import SyntacticMonoid, find_zero, principal_ideal
from .periods import max_period

CROSS_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class MarkovChain:
    states: tuple
    matrix: tuple  # row-stochastic, exact Fractions


@dataclass(frozen=True)
class AccumulationPoint:
    r: int
    value: float
    converged: bool


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
    mu_lw: float
    mu_converged: bool


@dataclass(frozen=True)
class MuConsistency:
    r: int
    mu_r: float
    per_word: tuple            # (w, limit) pairs
    average: float
    difference: float
    ok: bool


def _counting_matrix(dfa: Dfa):
    position = {q: i for i, q in enumerate(dfa.states)}
    n = dfa.n_states
    counts = [[0] * n for _ in range(n)]
    for (q, _a), t in dfa.delta.items():
        counts[position[q]][position[t]] += 1
    return counts


def _count_step(matrix, vector):
    n = len(matrix)
    return [sum(vector[i] * matrix[i][j] for i in range(n)) for j in range(n)]


def mu_exact(dfa: Dfa, length: int) -> Fraction:
    """|L intersect Sigma^length| / |Sigma|^length, exactly."""
    if length < 0:
        raise ValueError("length must be non-negative")
    matrix = _counting_matrix(dfa)
    position = {q: i for i, q in enumerate(dfa.states)}
    vector = [0] * dfa.n_states
    vector[position[dfa.initial]] = 1
    for _ in range(length):
        vector = _count_step(matrix, vector)
    accepted = sum(vector[position[q]] for q in dfa.accepting)
    return Fraction(accepted, len(dfa.alphabet) ** length)


def mu_series(dfa: Dfa, upto: int) -> list:
    """[mu(0), ..., mu(upto)] with one counting pass."""
    matrix = _counting_matrix(dfa)
    position = {q: i for i, q in enumerate(dfa.states)}
    accepting = [position[q] for q in dfa.accepting]
    vector = [0] * dfa.n_states
    vector[position[dfa.initial]] = 1
    out = []
    for length in range(upto + 1):
        if length:
            vector = _count_step(matrix, vector)
        out.append(Fraction(sum(vector[i] for i in accepting), len(dfa.alphabet) ** length))
    return out


def markov_chain(dfa: Dfa) -> MarkovChain:
    """Uniform-transition Markov chain of a complete DFA."""
    size = len(dfa.alphabet)
    counts = _counting_matrix(dfa)
    matrix = tuple(tuple(Fraction(c, size) for c in row) for row in counts)
    return MarkovChain(tuple(dfa.states), matrix)


def maximum_period_of(dfa: Dfa) -> int:
    """Maximum period of the language of `dfa` over its whole alphabet.

    The public helpers below check a caller's period against it; an
    `Analysis` computes it once as a stage instead.
    """
    from .pipeline import Analysis  # pipeline.py is built on this module
    return Analysis(dfa).max_period


def accumulation_points(dfa: Dfa, period: int, tol: float = 1e-9,
                        cap: int = 4096) -> list:
    """Per residue r, iterate mu(r + k*period) for k = 1, 2, ... until two
    successive values differ by less than tol, or r + k*period exceeds cap.

    `period` must be the maximum period of the language with respect to the
    whole alphabet.
    """
    maximum = maximum_period_of(dfa)
    if period != maximum:
        raise InvalidPeriod(f"period {period} is not the maximum period {maximum}")
    return residue_limits(dfa, period, tol, cap)


def residue_limits(dfa: Dfa, period: int, tol: float, cap: int) -> list:
    """The iteration behind `accumulation_points`, for a period the caller
    knows to be the maximum period."""
    if period < 1 or not tol > 0 or cap < period:
        raise InvalidArgument(
            f"need period >= 1, tol > 0 and cap >= period; got period {period}, "
            f"tol {tol}, cap {cap}")
    matrix = _counting_matrix(dfa)
    position = {q: i for i, q in enumerate(dfa.states)}
    accepting = [position[q] for q in dfa.accepting]
    size = len(dfa.alphabet)
    vector = [0] * dfa.n_states
    vector[position[dfa.initial]] = 1
    last = [None] * period    # latest mu per residue, lengths >= r + period
    done = [False] * period
    results = [None] * period
    length = 0
    while length < cap and not all(done):
        length += 1
        vector = _count_step(matrix, vector)
        r = length % period
        if done[r] or length < r + period:
            continue
        value = sum(vector[i] for i in accepting) / size ** length
        if last[r] is not None and abs(value - last[r]) < tol:
            results[r] = AccumulationPoint(r, value, True)
            done[r] = True
        last[r] = value
    for r in range(period):
        if results[r] is None:
            value = last[r] if last[r] is not None else float("nan")
            results[r] = AccumulationPoint(r, value, False)
    return results


def distinct_accumulation_values(points, tol: float = 1e-9) -> int:
    """Number of pairwise-distinct limits (duplicates can make this smaller
    than the period)."""
    values = sorted(p.value for p in points)
    if not values:
        return 0
    distinct = 1
    for a, b in zip(values, values[1:]):
        if abs(b - a) >= tol:
            distinct += 1
    return distinct


def zero_one_basic(m: SyntacticMonoid, dfa: Dfa, tol: float = 1e-9,
                   cap: int = 4096) -> BasicZeroOne:
    """Verdict from the zero element of the syntactic monoid, cross-checked
    against the numeric accumulation points."""
    period = max_period(m, m.alphabet)
    return basic_verdict(m, period, accumulation_points(dfa, period, tol, cap))


def basic_verdict(m: SyntacticMonoid, period: int, points) -> BasicZeroOne:
    """`zero_one_basic` for accumulation points already computed at the
    maximum period."""
    zero = find_zero(m.monoid)
    values = [p.value for p in points]
    if zero is not None:
        verdict = "one" if zero in m.accepting_image else "zero"
        target = 1.0 if verdict == "one" else 0.0
        if any(abs(v - target) > CROSS_CHECK_TOL for v in values):
            raise VerificationFailure(
                f"zero element predicts mu = {target} but limits are {values}"
            )
        return BasicZeroOne(verdict, zero, period, tuple(points))
    if distinct_accumulation_values(points, CROSS_CHECK_TOL) > 1:
        return BasicZeroOne("oscillating", None, period, tuple(points))
    limit = values[0]
    if min(abs(limit), abs(limit - 1.0)) <= CROSS_CHECK_TOL:
        raise VerificationFailure(
            f"no zero element but the limit {limit} is zero or one"
        )
    return BasicZeroOne("neither", None, period, tuple(points))


def limit_mu_blocks(dfa: Dfa, w: str, period: int, tol: float = 1e-9,
                    cap: int = 4096):
    """Numeric limit of the block-language probability mu_{L_w}(l); returns
    (value, converged)."""
    bd = block_dfa(dfa, w, period)
    matrix = _counting_matrix(bd)
    position = {q: i for i, q in enumerate(bd.states)}
    accepting = [position[q] for q in bd.accepting]
    size = len(bd.alphabet)
    vector = [0] * bd.n_states
    vector[position[bd.initial]] = 1
    previous = None
    value = 1.0 if bd.initial in bd.accepting else 0.0
    for blocks in range(1, cap + 1):
        vector = _count_step(matrix, vector)
        value = sum(vector[i] for i in accepting) / size ** blocks
        if previous is not None and abs(value - previous) < tol:
            return value, True
        previous = value
    return value, False


def zero_one_residual(dec: CanonicalDecomposition, dfa: Dfa, w: str,
                      tol: float = 1e-9, cap: int = 4096) -> ResidualZeroOne:
    """Theorem-style verdict for the block language L_w; see
    `residual_verdict`."""
    period = dec.signature.periods[0]
    if period != maximum_period_of(dfa):
        raise ScopeError("zero-one residual verdicts need the maximum period")
    rec = lw_recognizer(dec, w)
    return residual_verdict(w, rec.monoid, rec.accepting,
                            limit_mu_blocks(dfa, w, period, tol, cap))


def residual_verdict(w: str, t_r: ResidualMonoid, accepting: frozenset,
                     limit: tuple) -> ResidualZeroOne:
    """Scan the principal ideals of T_r for one disjoint from, or contained
    in, the elements `accepting` after the prefix w.  Sound and complete
    because every non-empty ideal is a union of the principal ideals of its
    members.  `limit` is the numeric (value, converged) limit of mu_{L_w}
    from `limit_mu_blocks`; a converged limit that disagrees with the ideal
    verdict raises VerificationFailure."""
    witness = None
    for tau in range(t_r.order):
        ideal = principal_ideal(t_r.monoid, tau)
        if not (ideal & accepting) or ideal <= accepting:
            witness = tuple(sorted(ideal))
            break
    mu_lw, converged = limit
    is_zero_or_one = witness is not None
    numeric = min(abs(mu_lw), abs(mu_lw - 1.0)) <= CROSS_CHECK_TOL
    if converged and numeric != is_zero_or_one:
        raise VerificationFailure(
            f"ideal verdict {is_zero_or_one} disagrees with limit {mu_lw} for w={w!r}"
        )
    names = tuple(t_r.monoid.name_of(i) for i in witness) if witness else None
    return ResidualZeroOne(w, t_r.r, is_zero_or_one, witness, names, mu_lw, converged)


def mu_consistency(dec: CanonicalDecomposition, dfa: Dfa, r: int,
                   tol: float = CROSS_CHECK_TOL, iter_tol: float = 1e-9,
                   cap: int = 4096) -> MuConsistency:
    """Check mu_r = average of mu_{L_w} over w in Sigma^r."""
    period = dec.signature.periods[0]
    if period != maximum_period_of(dfa):
        raise ScopeError("consistency checks need the maximum period")
    if not 0 <= r < period:
        raise ScopeError(f"residue {r} out of range for period {period}")
    points = residue_limits(dfa, period, iter_tol, cap)
    mu_r = points[r].value
    letters = sorted(dfa.alphabet)
    words = ["".join(p) for p in product(letters, repeat=r)]
    per_word = tuple((w, limit_mu_blocks(dfa, w, period, iter_tol, cap)[0]) for w in words)
    average = sum(v for _, v in per_word) / len(per_word)
    difference = abs(mu_r - average)
    return MuConsistency(r, mu_r, per_word, average, difference, difference < tol)
