"""Periods of regular languages with respect to letter subsets.

A residual is a plain tuple (r_1, ..., r_n) with 0 <= r_i < P_i.  The
maximum period for a subset gamma is the gcd of the gamma-letter counts
over all closed walks of the Cayley graph; any divisor of it is a valid
period.

Every cycle question here (the maximum period, the sink periods of a DFA or
a Cayley graph, and the closed classes of a Markov chain) is answered by
one pass over the edges, `_cycle_classes`.  It finds the strongly connected
components once, groups the edges inside each, and gives every vertex a
potential p along a spanning tree of its component.  The gcd of the cycle
weights of a component is then the gcd of p(u) + w - p(v) over its edges
(u, w, v), as for the period of a Markov chain (Denardo, "Periods of
connected networks and powers of nonnegative matrices", Math. Oper. Res.
1977).  Every cycle's weight is the sum of these terms along it, and each
term is the difference of the weights of two closed walks through the root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

from .dfa import Dfa
from .errors import (InternalNoPositiveCycle, InvalidPeriod,
                     PeriodTrivialWarning, UnknownSymbol)
from .monoid import CayleyGraph, SyntacticMonoid, cayley_graph


def residual_of_word(word: str, gammas, periods, alphabet=None):
    """(|word|_gamma_i mod P_i) for each i."""
    if alphabet is not None:
        known = set(alphabet)
        for a in word:
            if a not in known:
                raise UnknownSymbol(f"letter {a!r} not in alphabet {sorted(known)}")
    counts = []
    for gamma, p in zip(gammas, periods):
        members = set(gamma)
        counts.append(sum(1 for a in word if a in members) % p)
    return tuple(counts)


def strongly_connected_components(n: int, successors) -> list:
    """Tarjan's algorithm, iterative.  `successors[v]` lists out-neighbours.
    Components are returned as sorted vertex lists, in a deterministic order.
    """
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(successors[v])):
                w = successors[v][i]
                if index[w] is None:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(sorted(component))
    components.sort(key=lambda c: c[0])
    return components


def _cycle_classes(n: int, edges) -> list:
    """Every strongly connected component of the graph on 0..n-1 with the
    weighted edges (u, w, v), as (component, closed, gcd) in the order of
    `strongly_connected_components`.  `closed` says that no edge leaves the
    component, and gcd is the gcd of the weights of its cycles, 0 when it
    has no cycle of nonzero weight."""
    successors = [[] for _ in range(n)]
    for u, _, v in edges:
        successors[u].append(v)
    components = strongly_connected_components(n, successors)
    owner = [0] * n
    for c, component in enumerate(components):
        for v in component:
            owner[v] = c
    closed = [True] * len(components)
    internal = [[] for _ in range(n)]  # u -> (w, v) for the edges inside owner[u]
    for u, w, v in edges:
        if owner[u] == owner[v]:
            internal[u].append((w, v))
        else:
            closed[owner[u]] = False
    potential = [None] * n
    classes = []
    for c, component in enumerate(components):
        root = component[0]
        potential[root] = 0
        stack, g = [root], 0
        while stack:
            u = stack.pop()
            for w, v in internal[u]:
                if potential[v] is None:
                    potential[v] = potential[u] + w  # a tree edge adds 0 to g
                    stack.append(v)
                else:
                    g = math.gcd(g, potential[u] + w - potential[v])
        classes.append((component, closed[c], g))
    return classes


def max_period(m: SyntacticMonoid, gamma) -> int:
    """Greatest P such that |w|_gamma is a multiple of P for every word w
    labeling a closed walk of the Cayley graph."""
    gamma = set(gamma)
    if not gamma or not gamma <= set(m.alphabet):
        raise UnknownSymbol(f"gamma {sorted(gamma)} is not a non-empty subset of the alphabet")
    edges = [(u, 1 if a in gamma else 0, v) for u, a, v in cayley_graph(m).edges]
    g = math.gcd(*(period for _, _, period in _cycle_classes(m.order, edges)))
    if g == 0:
        raise InternalNoPositiveCycle(
            "no closed walk with positive gamma-weight; impossible for a Cayley graph"
        )
    return g


@dataclass(frozen=True)
class PeriodSignature:
    alphabet: tuple
    gammas: tuple       # tuple of sorted letter tuples
    periods: tuple
    rho_bar: tuple      # element index -> residual tuple
    classes: dict       # residual tuple -> sorted tuple of element indices

    @property
    def n(self) -> int:
        return len(self.gammas)

    def residuals(self):
        """All residual vectors in lexicographic order."""
        return list(product(*(range(p) for p in self.periods)))

    def letter_residual(self, a: str):
        return tuple(
            (1 if a in set(g) else 0) % p for g, p in zip(self.gammas, self.periods)
        )

    def add(self, r1, r2):
        return tuple((x + y) % p for x, y, p in zip(r1, r2, self.periods))


def build_signature(m: SyntacticMonoid, gammas, periods=None) -> PeriodSignature:
    """Compute the residual map rho_bar and the classes N_r.

    Omitted periods default to the maximum period of each gamma; supplied
    periods must divide it (otherwise the classes would clash).
    """
    alphabet = m.alphabet
    gammas = tuple(tuple(sorted(set(g))) for g in gammas)
    for g in gammas:
        if not g or not set(g) <= set(alphabet):
            raise UnknownSymbol(f"gamma {list(g)} is not a non-empty subset of the alphabet")
    maxima = [max_period(m, g) for g in gammas]
    if periods is None:
        periods = tuple(maxima)
    else:
        periods = tuple(int(p) for p in periods)
        if len(periods) != len(gammas):
            raise InvalidPeriod("need one period per gamma")
        for p, pmax, g in zip(periods, maxima, gammas):
            if p < 1 or pmax % p != 0:
                raise InvalidPeriod(
                    f"period {p} for gamma {list(g)} does not divide the maximum period {pmax}"
                )
    if all(p == 1 for p in periods):
        warnings.warn("all periods are 1; the decomposition is degenerate",
                      PeriodTrivialWarning, stacklevel=2)
    sig = PeriodSignature(alphabet, gammas, periods, (), {})
    rho_bar = [None] * m.order
    rho_bar[m.monoid.identity] = tuple(0 for _ in periods)
    queue = [m.monoid.identity]
    while queue:
        x = queue.pop()
        for a in alphabet:
            y = m.monoid.table[x][m.eta[a]]
            r = sig.add(rho_bar[x], sig.letter_residual(a))
            if rho_bar[y] is None:
                rho_bar[y] = r
                queue.append(y)
            elif rho_bar[y] != r:
                # cannot happen once divisibility holds
                raise InvalidPeriod(f"residual clash at element {y}")
    classes = {r: [] for r in sig.residuals()}
    for i, r in enumerate(rho_bar):
        classes[r].append(i)
    classes = {r: tuple(v) for r, v in classes.items()}
    return PeriodSignature(alphabet, gammas, tuple(periods), tuple(rho_bar), classes)


def sink_periods(graph) -> list:
    """Sinks (SCCs without outgoing edges) with their periods, the gcd of
    their cycle lengths.  Vertices keep their original ids."""
    if isinstance(graph, CayleyGraph):
        vertices, edges = graph.vertices, [(u, 1, v) for u, _, v in graph.edges]
    elif isinstance(graph, Dfa):
        vertices = graph.states
        position = {q: i for i, q in enumerate(vertices)}
        edges = [(position[q], 1, position[graph.delta[(q, a)]])
                 for q in vertices for a in sorted(graph.alphabet)]
    else:
        raise TypeError(f"expected CayleyGraph or Dfa, got {type(graph).__name__}")
    return [(tuple(vertices[v] for v in component), period)
            for component, closed, period in _cycle_classes(len(vertices), edges)
            if closed and period]
