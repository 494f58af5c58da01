"""Periods of regular languages with respect to letter subsets.

A residual is a plain tuple (r_1, ..., r_n) with 0 <= r_i < P_i.  L has
period P for gamma exactly when w -> |w|_gamma mod P factors through eta,
so that rho_bar : M -> C_P is a homomorphism.  The maximum period is the
gcd of the gamma-letter counts over all closed walks of the Cayley graph;
any divisor of it is a period.  One walk from the identity,
`_letter_counts`, gives every maximum period and rho_bar.  `_cycle_classes`
finds the closed classes of unweighted graphs with their cycle gcds and
breadth-first depths: the sinks of a DFA or a Cayley graph, and the closed
classes of a Markov chain with their cyclic subclasses.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import gcd
from operator import add, mod, mul
from typing import NamedTuple

from .dfa import Dfa
from .errors import InvalidPeriod, TooLarge, UnknownSymbol, VerificationFailure
from .monoid import SyntacticMonoid

RESIDUALS = 1 << 18  # the most residuals, one class N_r each, that a signature lays out


def residual_of_word(word: str, gammas, periods):
    """(|word|_gamma_i mod P_i) for each i."""
    counts = []
    for gamma, p in zip(gammas, periods):
        members = set(gamma)
        counts.append(sum(1 for a in word if a in members) % p)
    return tuple(counts)


def strongly_connected_components(n: int, successors) -> list:
    """Kosaraju's algorithm: a depth-first pass lists the vertices in the
    order they finish, and a pass over the reversed edges, last finisher
    first, collects one component per unvisited vertex.  `successors[v]`
    iterates over the out-neighbours of v.  Components are returned as
    sorted vertex lists, in the order of their least vertex.
    """
    finished, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(successors[root]))]
        while stack:
            v, out = stack[-1]
            for w in out:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(successors[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    predecessors = [[] for _ in range(n)]
    for v in range(n):
        for w in successors[v]:
            predecessors[w].append(v)
    components = []  # the second pass clears the marks the first one set
    for root in reversed(finished):
        if not seen[root]:
            continue
        seen[root] = False
        component = [root]
        for v in component:  # grows while it is read
            for u in predecessors[v]:
                if seen[u]:
                    seen[u] = False
                    component.append(u)
        components.append(sorted(component))
    components.sort()
    return components


def _cycle_classes(n: int, successors) -> list:
    """The closed classes of the graph v -> successors[v] on 0..n-1, the
    strongly connected components that no edge leaves, as (component, gcd
    of its cycle lengths, depth) in the order of
    `strongly_connected_components`, with depth the dict {v: d(v)} over the
    component.

    With d(v) the breadth-first distance of v from the least vertex of its
    class, the gcd is that of d(u) + 1 - d(v) over the edges u -> v of the
    class, as for the period of a Markov chain (Denardo, "Periods of
    connected networks and powers of nonnegative matrices", Math. Oper. Res.
    1977): a cycle's length is the sum of these terms along it, and each
    term is the difference of the lengths of two closed walks through the
    root.  So every edge of the class raises d by 1 modulo the gcd.
    """
    classes = []
    for component in strongly_connected_components(n, successors):
        members = set(component)
        if any(v not in members for u in component for v in successors[u]):
            continue
        depth = {component[0]: 0}
        queue, g = [component[0]], 0
        for u in queue:  # grows while it is read
            for v in successors[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
                g = gcd(g, depth[u] + 1 - depth[v])  # 0 on a tree edge
        classes.append((component, g, depth))
    return classes


def _letter_counts(m: SyntacticMonoid, gammas: tuple) -> tuple:
    """(counts, maxima) for `gammas`, a tuple of sorted letter tuples.
    counts[x] holds |w|_gamma for each gamma, for the word w that spells
    the path to x in the closure's BFS tree `m.tree`, and maxima holds the
    maximum period of each gamma.

    The maximum period is the gcd, over the edges (x, a, x.a), of the
    defect c(x) + [a in gamma] - c(x.a).  A closed walk's weight is the sum
    of the defects along it.  Each defect is |u|_gamma - |v|_gamma for two
    words u, v with the same image y; with y^k idempotent, u^k and
    u^(k-1) v both lead from y^k back to y^k, so the defect is the
    difference of two closed-walk weights.
    """
    letters = set(m.alphabet)
    for g in gammas:
        if not g or not set(g) <= letters:
            raise UnknownSymbol(f"gamma {list(g)} is not a non-empty subset of the alphabet")
    steps = [tuple(int(a in g) for g in gammas) for a in m.alphabet]
    moves = [list(zip(steps, row)) for row in m.targets()]  # x -> (step of a, x.a)
    counts = [(0,) * len(gammas)]
    for parent, g in m.tree[1:]:  # a parent precedes its children
        counts.append(tuple(map(add, counts[parent], steps[g])))
    maxima = []
    for i, g in enumerate(gammas):
        period = gcd(*(counts[x][i] + s[i] - counts[y][i]
                       for x, row in enumerate(moves) for s, y in row))
        if period == 0:
            # unreachable: a letter of gamma repeated from any element ends in a cycle
            raise VerificationFailure(f"maximum period: no closed walk has a letter of "
                                      f"gamma {list(g)}")
        maxima.append(period)
    return counts, tuple(maxima)


def max_period(m: SyntacticMonoid, gamma) -> int:
    """Greatest P such that |w|_gamma is a multiple of P for every word w
    labeling a closed walk of the Cayley graph of m."""
    return _letter_counts(m, (tuple(sorted(set(gamma))),))[1][0]


class PeriodSignature(NamedTuple):
    alphabet: tuple
    gammas: tuple       # tuple of sorted letter tuples
    periods: tuple
    maxima: tuple       # the maximum period of each gamma
    rho_bar: tuple      # element index -> residual tuple
    classes: dict       # residual tuple -> sorted tuple of element indices

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def full_alphabet(self) -> bool:
        """One period over the whole alphabet: the scope of residual monoids
        and recognizers."""
        return self.n == 1 and self.gammas[0] == self.alphabet

    @property
    def full_alphabet_at_maximum(self) -> bool:
        """`full_alphabet` at the maximum period: the scope of limits per
        residue and of zero-one verdicts."""
        return self.full_alphabet and self.periods == self.maxima

    @property
    def surjective(self) -> bool:
        """rho_bar is onto C_{P_1} x ... x C_{P_n}: the residual group
        divides the monoid."""
        return set(self.rho_bar) == set(self.residuals())

    def residuals(self):
        """All residual vectors in lexicographic order."""
        return list(product(*(range(p) for p in self.periods)))

    def add(self, r1, r2):
        return tuple((x + y) % p for x, y, p in zip(r1, r2, self.periods))


def build_signature(m: SyntacticMonoid, gammas, periods=None) -> PeriodSignature:
    """Compute the maxima, the residual map rho_bar and the classes N_r
    from one `_letter_counts` walk: rho_bar(x) is the letter counts of x
    modulo the periods.

    Omitted periods default to the maximum period of each gamma; supplied
    periods must be at least 1 and divide it (otherwise rho_bar would not
    be well defined).  A residual group past RESIDUALS, of which rho_bar
    reaches at most |M|, raises TooLarge before any class is built; an
    empty gamma or one with a letter outside the alphabet, UnknownSymbol.
    """
    gammas = tuple(tuple(sorted(set(g))) for g in gammas)
    counts, maxima = _letter_counts(m, gammas)
    if periods is None:
        periods = maxima
    else:
        periods = tuple(int(p) for p in periods)
        if len(periods) != len(gammas):
            raise InvalidPeriod("need one period per gamma")
        for p, pmax, g in zip(periods, maxima, gammas):
            if p < 1:
                raise InvalidPeriod(f"period {p} for gamma {list(g)} must be at least 1")
            if pmax % p != 0:
                raise InvalidPeriod(
                    f"period {p} for gamma {list(g)} does not divide the maximum period {pmax}"
                )
    # |C_{P_1} x ... x C_{P_n}|, a factor at a time: it stops past the budget
    for size in accumulate(periods, mul):
        if size > RESIDUALS:
            raise TooLarge(f"the residual group {'x'.join(f'C{p}' for p in periods)} "
                           f"exceeds the budget of {RESIDUALS} residuals")
    rho_bar = tuple(tuple(map(mod, c, periods)) for c in counts)
    classes = {r: [] for r in product(*map(range, periods))}
    for i, r in enumerate(rho_bar):
        classes[r].append(i)
    classes = {r: tuple(v) for r, v in classes.items()}
    return PeriodSignature(m.alphabet, gammas, periods, maxima, rho_bar, classes)


def sink_periods(graph) -> list:
    """Sinks (SCCs without outgoing edges) with their periods, the gcd of
    their cycle lengths, in the Cayley graph of a SyntacticMonoid or the
    transition graph of a Dfa, both read in the index form of `targets()`.
    Vertices keep their original ids."""
    if isinstance(graph, SyntacticMonoid):
        vertices = range(graph.order)
    elif isinstance(graph, Dfa):
        vertices = graph.states
    else:
        raise TypeError(f"expected SyntacticMonoid or Dfa, got {type(graph).__name__}")
    # every vertex has an out-edge, one per letter, so every closed class
    # holds a cycle and its period is at least 1
    return [(tuple(vertices[v] for v in component), period)
            for component, period, _ in _cycle_classes(len(vertices), graph.targets())]
