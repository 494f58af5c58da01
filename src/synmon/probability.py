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

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, lcm
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from .dfa import Dfa, minimize
from .errors import InvalidPeriod, ScopeError, TooLarge, VerificationFailure
from .monoid import SyntacticMonoid, gather, transition_monoid
from .periods import _cycle_classes, max_period

if TYPE_CHECKING:  # decompose is imported where it is used: `prob` never needs it
    from .decompose import CanonicalDecomposition, ResidualMonoid

SERIES_LENGTH = 1 << 16  # the longest series, in letters, that `mu_series` counts


class BasicZeroOne(NamedTuple):
    verdict: str               # zero | one | neither | oscillating
    zero_element: int | None
    period: int
    accumulation: tuple        # the limits, indexed by the residue r


class ResidualZeroOne(NamedTuple):
    w: str
    witness: tuple | None      # element indices of the witness ideal in T_r
    witness_names: tuple | None
    mu_lw: Fraction

    @property
    def r(self) -> int:
        return len(self.w)

    @property
    def is_zero_or_one(self) -> bool:
        return self.witness is not None


def _walk_counts(successors, start: int):
    """Yield, for the lengths 0, 1, 2, ..., {state: number of words of that
    length leading from state `start` to it}, without the zero counts."""
    counts = {start: 1}
    while True:
        yield counts
        step = {}
        for i, count in counts.items():
            for j in successors[i]:
                step[j] = step.get(j, 0) + count
        counts = step


def mu_series(dfa: Dfa, upto: int) -> list:
    """[mu(0), ..., mu(upto)] by a backward gather.

    b_0 is the indicator of the accepting states and b_{l+1}[q] is the sum
    over the letters a of b_l[delta(q, a)], so b_l[q] counts the words of
    length l accepted from q.  Each step gathers b_l once per letter.
    TooLarge is raised before the first step when upto passes
    SERIES_LENGTH."""
    if upto > SERIES_LENGTH:
        raise TooLarge(f"a mu series to length {upto} exceeds the budget of "
                       f"{SERIES_LENGTH} letters")
    by_letter = [gather(targets) for targets in zip(*dfa.targets())]
    initial = dfa.states.index(dfa.initial)
    b = tuple(int(q in dfa.accepting) for q in dfa.states)
    counts = [b[initial]]
    for _ in range(upto):
        total = by_letter[0](b)
        for letter in by_letter[1:]:
            total = map(add, total, letter(b))
        b = tuple(total)
        counts.append(b[initial])
    return [Fraction(count, len(dfa.alphabet) ** length)
            for length, count in enumerate(counts)]


def _solve(equations) -> dict:
    """The unique solution of a linear system, by Gauss-Jordan elimination
    on sparse integer rows.  Each equation is a dict {unknown:
    coefficient}, ints or Fractions, with its right-hand side under the key
    None.  Every row is scaled to coprime integers; eliminating the pivot
    p.x from a row holding q.x replaces it by (p.row - q.pivot row) / gcd(p,
    q) and divides out the gcd of its entries again, so a Fraction is built
    only for each final value.  To keep the fill-in low, each pivot is the
    unknown in the fewest rows among those of the sparsest remaining row
    (Markowitz's rule)."""
    rows = [_integer_row(equation) for equation in equations]
    holders = {None: set()}  # unknown -> indices of the rows in which it appears
    for i, row in enumerate(rows):
        for x in row:
            holders.setdefault(x, set()).add(i)
    pending = set(range(len(rows)))
    queue = [(len(row), i) for i, row in enumerate(rows)]  # stale entries are skipped
    heapify(queue)
    while pending:
        size, i = heappop(queue)
        if i not in pending or size != len(rows[i]):
            continue
        pending.remove(i)
        row = rows[i]
        x = min((y for y in row if y is not None), key=lambda y: len(holders[y]))
        for k in holders[x] - {i}:
            other = rows[k]
            common = gcd(row[x], other[x])
            scale, factor = row[x] // common, other[x] // common
            if scale != 1:
                for y in other:
                    other[y] *= scale
            for y, v in row.items():
                value = other.get(y, 0) - factor * v
                if value:
                    other[y] = value
                    holders[y].add(k)
                else:
                    del other[y]
                    holders[y].discard(k)
            _coprime(other)
            if k in pending:
                heappush(queue, (len(other), k))
    return {x: Fraction(row.get(None, 0), row[x])
            for row in rows for x in row if x is not None}


def _integer_row(equation) -> dict:
    """The equation's non-zero entries times the lcm of their denominators,
    divided by their gcd."""
    row = {x: v for x, v in equation.items() if v}
    scale = lcm(*(v.denominator for v in row.values()))
    return _coprime({x: v.numerator * (scale // v.denominator) for x, v in row.items()})


def _coprime(row: dict) -> dict:
    """`row` divided by the gcd of its entries."""
    divisor = gcd(*row.values())
    if divisor > 1:
        for x in row:
            row[x] //= divisor
    return row


def limit_vector(dfa: Dfa, period: int) -> dict:
    """h[q] = lim_k Pr[a uniform word of length k*period read from q is
    accepted], exactly, for every state q of a DFA, minimal or not.

    h is the Cesaro limit of R^k applied to the accepting states, with R the
    chain of P = `period` letters at a time: on each closed class of R the
    stationary mass of the accepting states, and on the transient states
    the solution of h = R h (Kemeny & Snell, Finite Markov Chains, ch. 3-5).
    The Cesaro limit is the limit wherever that exists, which it does at
    every reachable state when `period` is a multiple of the maximum period.
    A period below 1 raises InvalidPeriod.

    R is A^P / |Sigma|^P, with A[i][j] the number of letters from i to j,
    and each closed class of R is read off a closed class C of A, the
    one-letter chain, with cycle gcd d and breadth-first depth from
    `_cycle_classes`.  Its cyclic subclasses are the states of C by depth
    mod d (Kemeny & Snell, ch. 5):
    - every edge of C raises depth by 1 mod d, since d divides
      depth(u) + 1 - depth(v) on each edge u -> v;
    - so A moves subclass c onto c + 1, and A^P moves it onto c + P mod d;
    - each subclass holds 1/d of the stationary distribution pi of A on C:
      the edges into c + 1 are those out of c, and each state of C has
      all |Sigma| of its edges in C, so pi(c + 1) = pi(c).
    With g = gcd(d, P), the closed classes of R in C are the unions X_r of
    the subclasses c = r mod g: A^P maps X_r into itself, and joins any
    subclass c to any c' = c mod g, since the closed walks of C have every
    large multiple of d as a length, and kP = c' - c mod d has a solution k.
    X_r holds d/g subclasses, a mass 1/g of pi, so h = g pi(accepting
    states of X_r) / pi(C) on X_r.  The formula needs g, not d: on a minimal
    DFA d divides the maximum period, but not in general (three accepting
    states in a cycle accept Sigma*, with d = 3 and P = 1).  A transient
    state of A reaches a closed class of A and never returns, so it is
    transient for R too.

    pi comes from one solve on the base subclass B = {j : depth(j) = 0 mod
    d}: A^d maps B into itself, each of its rows there sums to |Sigma|^d,
    and it is irreducible there, since a walk in C between two states of B
    has a length divisible by d and passes through B every d letters.  So
    pi A^d = |Sigma|^d pi on B has one solution up to scale (Perron and
    Frobenius), pinned to 1 at B's least state, the root of the depths.  The
    walks of d letters from the states of B give the rows of A^d on B, and
    their steps s < d carry pi onto subclass s as pi A^s / |Sigma|^s.  Only
    the transient states walk P letters, for their rows of A^P.
    """
    if period < 1:
        raise InvalidPeriod(f"period {period} must be at least 1")
    successors, n, size = dfa.targets(), dfa.n_states, len(dfa.alphabet)
    accepting = {i for i, q in enumerate(dfa.states) if q in dfa.accepting}
    h = {}
    for component, d, depth in _cycle_classes(n, successors):
        g = gcd(d, period)
        # balance: pi A^d = size^d pi on the base subclass, in ascending order;
        # mass: i -> size^d times the accepting mass of the walks from i, by step mod g
        balance, mass = {j: {j: -size ** d} for j in component if depth[j] % d == 0}, {}
        for i in balance:
            walk, mass[i] = _walk_counts(successors, i), [0] * g
            for s, counts in zip(range(d), walk):
                mass[i][s % g] += size ** (d - s) * sum(c for j, c in counts.items() if j in accepting)
            for j, c in next(walk).items():
                balance[j][i] = balance[j].get(i, 0) + c
        # one balance equation is replaced by pi = 1 at the least state, component[0]
        pi = _solve([*balance.values()][1:] + [{component[0]: 1, None: 1}])
        total = d * size ** d * sum(pi.values())  # each subclass holds 1/d of pi
        limits = [g * sum(pi[i] * mass[i][r] for i in mass) / total for r in range(g)]
        h.update({j: limits[depth[j] % g] for j in component})
    transient = []  # size^P h_t - sum of A^P[t][j] h_j over transient j = the rest
    for t in (t for t in range(n) if t not in h):
        row = sorted(next(islice(_walk_counts(successors, t), period, None)).items())
        equation = {j: -c for j, c in row if j not in h}
        equation[t] = equation.get(t, 0) + size ** period
        equation[None] = sum(c * h[j] for j, c in row if j in h)
        transient.append(equation)
    h.update(_solve(transient))
    return {q: Fraction(h[i]) for i, q in enumerate(dfa.states)}


def maximum_period_of(dfa: Dfa) -> int:
    """Maximum period of the language of `dfa` over its whole alphabet.

    `accumulation_points` and `limit_mu_blocks` compute it for themselves;
    an `Analysis` computes it once as a stage instead.
    """
    m = transition_monoid(minimize(dfa))
    return max_period(m, m.alphabet)


def accumulation_points(dfa: Dfa) -> list:
    """The exact limit of mu(r + k*P) as k grows, indexed by r, with P the
    maximum period of the language with respect to the whole alphabet."""
    period = maximum_period_of(dfa)
    return residue_limits(dfa, period, limit_vector(dfa, period))


def residue_limits(dfa: Dfa, period: int, h: dict) -> list:
    """`accumulation_points` from the limit vector h of `limit_vector`, for a
    period the caller knows to be the maximum period: the limit at residue r
    is the mean of h over the states reached by the words of length r."""
    values = [h[q] for q in dfa.states]
    counts = _walk_counts(dfa.targets(), dfa.states.index(dfa.initial))
    return [Fraction(sum(c * values[j] for j, c in vector.items()), len(dfa.alphabet) ** r)
            for r, vector in zip(range(period), counts)]


def zero_one_basic(m: SyntacticMonoid, dfa: Dfa) -> BasicZeroOne:
    """Verdict from the zero element of m, the syntactic monoid of the
    language of `dfa`, cross-checked against its exact accumulation points."""
    period = max_period(m, m.alphabet)
    return basic_verdict(m, period, residue_limits(dfa, period, limit_vector(dfa, period)))


def basic_verdict(m: SyntacticMonoid, period: int, points) -> BasicZeroOne:
    """`zero_one_basic` for accumulation points already computed at the
    maximum period.  The zero is the one element of K(M), if K(M) has one."""
    zero = min(m.minimal_ideal) if len(m.minimal_ideal) == 1 else None
    values = tuple(points)
    if zero is not None:
        verdict = "one" if zero in m.accepting_image else "zero"
        target = 1 if verdict == "one" else 0
        if any(v != target for v in values):
            raise VerificationFailure(
                f"basic zero-one verdict: zero element {zero} predicts mu = {target} "
                f"but limits are {', '.join(map(str, values))}"
            )
        return BasicZeroOne(verdict, zero, period, values)
    if len(set(values)) > 1:
        return BasicZeroOne("oscillating", None, period, values)
    if values[0] in (0, 1):
        raise VerificationFailure(
            f"basic zero-one verdict: no zero element but the limit {values[0]} is zero or one"
        )
    return BasicZeroOne("neither", None, period, values)


def limit_mu_blocks(dfa: Dfa, w: str) -> Fraction:
    """Exact limit of mu_{L_w}(k), the probability that w and k uniform
    blocks of P letters, the maximum period, form a word of L."""
    return limit_vector(dfa, maximum_period_of(dfa))[dfa.run(w)]


def zero_one_residual(dec: CanonicalDecomposition, dfa: Dfa, w: str) -> ResidualZeroOne:
    """Theorem-style verdict for the block language L_w, with `dfa` a DFA
    of the language that `dec` decomposes; see `residual_verdict`."""
    if not dec.signature.full_alphabet_at_maximum:
        raise ScopeError("zero-one residual verdicts need the maximum period")
    from .decompose import lw_recognizer

    rec = lw_recognizer(dec, w)
    limit = limit_vector(dfa, dec.signature.periods[0])[dfa.run(w)]
    return residual_verdict(w, rec.monoid, rec.accepting, limit)


def residual_verdict(w: str, t_r: ResidualMonoid, accepting: frozenset,
                     limit: Fraction) -> ResidualZeroOne:
    """Find an ideal of T_r disjoint from, or contained in, the elements
    `accepting` after the prefix w: the first such principal ideal in
    ascending order of its generator.  Sound and complete because every
    non-empty ideal is a union of the principal ideals of its members.
    `limit` is the exact limit of mu_{L_w}; a witness exists exactly when
    it is 0 or 1, and a disagreement raises VerificationFailure.

    The minimal ideal K(T_r) decides whether a witness exists (Sin'ya,
    GandALF 2015): it lies in every ideal, so some ideal is a witness if
    and only if K(T_r) is.  K(T_r) is the slots of K(M) & N_0, with K(M)
    read off the Cayley graph (`SyntacticMonoid.minimal_ideal`).

    M acts on the states of the minimal DFA, and the minimal ideal of a
    finite transformation monoid is its set of least-rank elements: they
    form an ideal, and for x among them and k in K, u = k.x has its image
    in im(x) and x.u has the rank of x, so u permutes im(x) and x = x.u^m
    lies in K for some m >= 1.  K(M) & N_0 is not empty, since every
    letter has residual 1: it holds z.w for z in K(M) and any word w of
    length -rho_bar(z) mod P.  So the least rank in N_0 is that of K(M),
    and K(N_0) = K(M) & N_0.  Its image under the surjective homomorphism
    t -> f_t(r) (`ResidualMonoid.ideal`) is an ideal of T_r, so it holds
    K(T_r), and it lies in the preimage of K(T_r), an ideal of N_0; so it
    is K(T_r).  The ascending scan runs only when K(T_r) is a witness, to
    report the first one; it reads each element at its least t, and reads
    `kernel` for each element k of K(T_r): T_r.k.T_r is an ideal inside
    K(T_r), so by minimality it is K(T_r)."""
    # K(M) & N_0 by a loop over N_0, the keys of `slot`: `slot.keys() & K(M)`
    # loops over K(M), which is all of M when M is a group
    kernel = frozenset(map(t_r.slot.__getitem__, t_r.dec.m.minimal_ideal.intersection(t_r.slot)))
    witness = None
    if _decides(kernel, accepting):
        least = {}  # element -> its least t, in ascending order of the element
        for t, i in t_r.slot.items():
            least.setdefault(i, t)
        ideals = (kernel if i in kernel else t_r.ideal(t) for i, t in least.items())
        witness = next(tuple(sorted(ideal)) for ideal in ideals if _decides(ideal, accepting))
    is_zero_or_one = witness is not None
    if (limit in (0, 1)) != is_zero_or_one:
        raise VerificationFailure(
            f"residual zero-one verdict: ideal verdict {is_zero_or_one} disagrees with "
            f"limit {limit} for w={w!r}"
        )
    names = tuple(map(t_r.name_of, witness)) if witness else None
    return ResidualZeroOne(w, witness, names, limit)


def _decides(ideal: frozenset, accepting: frozenset) -> bool:
    """Whether the ideal lies inside or outside the accepting elements."""
    return not (ideal & accepting) or ideal <= accepting

