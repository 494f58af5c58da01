"""Reference implementations that the library replaced, kept as oracles.

`moore_minimize` is Moore's partition refinement, which recomputes every
state's signature once per round; `recursive_parse` is the
recursive-descent regex parser, one function per grammar rule.  Both are
slow or bounded by the recursion limit, and both are plain enough to
check by eye.  `tarjan_components` is Tarjan's strongly connected
components; `scc_max_period` takes the maximum period component by
component, with potentials along a spanning tree of each; and
`bfs_signature` rebuilds rho_bar by a second walk that adds the letter
residuals, each from its own definition.  `markov_chain` and `mu_exact`
are the uniform-transition chain of a DFA and one term of `mu_series`,
which only the tests read.  `residual_table` is the multiplication table
of a residual monoid T_r by composing every pair of its transformations,
which the library no longer builds: T_r reads its ideals off Can(t) and
M's Cayley graph.  `reference_residual_monoid` is T_r as a tuple of its
transformations, deduplicated from f_t(r) over N_0 with the slot of each
t, and `reference_lw_accepting` reads the accepting elements off those
whole transformations; the library keeps only each element's least t
and reads one point of Can(t).  `walk_limit_vector` is the limit vector
from the closed classes of the chain at P letters a step, with the rows
of A^P walked from every state; `probability.limit_vector` solves each
closed class of the one-letter chain once instead.
"""

import math
from fractions import Fraction
from itertools import islice, product
from typing import NamedTuple

from synmon.dfa import Dfa, trim
from synmon.errors import RegexSyntaxError
from synmon.monoid import FiniteMonoid
from synmon.periods import _cycle_classes
from synmon.probability import _solve, _walk_counts, mu_series
from synmon.regexes import LETTERS, Alt, Cat, Epsilon, Letter, Opt, Plus, Star
from synmon.theory import compose


def _canonicalize(dfa: Dfa) -> Dfa:
    """Renumber states 0..m-1 in BFS discovery order, letters sorted."""
    letters = sorted(dfa.alphabet)
    order, seen = [dfa.initial], {dfa.initial}
    for q in order:
        for a in letters:
            t = dfa.delta[(q, a)]
            if t not in seen:
                seen.add(t)
                order.append(t)
    number = {q: i for i, q in enumerate(order)}
    delta = {(number[q], a): number[dfa.delta[(q, a)]] for q in order for a in letters}
    return Dfa(tuple(letters), tuple(range(len(order))), 0,
               frozenset(number[q] for q in dfa.accepting if q in number), delta)


def moore_minimize(dfa: Dfa) -> Dfa:
    """The minimal DFA by Moore refinement, canonically numbered."""
    dfa = trim(dfa)
    letters = sorted(dfa.alphabet)
    block = {q: (q in dfa.accepting) for q in dfa.states}
    while True:
        signature = {q: (block[q], tuple(block[dfa.delta[(q, a)]] for a in letters))
                     for q in dfa.states}
        ids = {}
        new_block = {q: ids.setdefault(signature[q], len(ids)) for q in dfa.states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    reps = {}
    for q in dfa.states:
        reps.setdefault(block[q], q)
    delta = {(block[q], a): block[dfa.delta[(reps[block[q]], a)]]
             for q in dfa.states for a in letters}
    merged = Dfa(tuple(letters), tuple(sorted(reps)), block[dfa.initial],
                 frozenset(block[q] for q in dfa.accepting), delta)
    return _canonicalize(merged)


def recursive_parse(text: str):
    """The AST of `text` by recursive descent, or RegexSyntaxError."""
    if not text:
        raise RegexSyntaxError("empty pattern", 0)
    _check_parens(text)
    ast, pos = _parse_alt(text, 0)
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return ast


def _check_parens(text):
    stack = []
    for i, c in enumerate(text):
        if c == "(":
            stack.append(i)
        elif c == ")":
            if not stack:
                raise RegexSyntaxError("unbalanced ')'", i)
            stack.pop()
    if stack:
        raise RegexSyntaxError("unbalanced '('", stack[0])


def _parse_alt(text, pos):
    node, pos = _parse_cat(text, pos)
    while pos < len(text) and text[pos] == "|":
        right, pos = _parse_cat(text, pos + 1)
        node = Alt(node, right)
    return node, pos


def _parse_cat(text, pos):
    node, pos = _parse_rep(text, pos)
    while pos < len(text) and text[pos] not in "|)":
        right, pos = _parse_rep(text, pos)
        node = Cat(node, right)
    return node, pos


def _parse_rep(text, pos):
    node, pos = _parse_atom(text, pos)
    while pos < len(text) and text[pos] in "*+?":
        node = {"*": Star, "+": Plus, "?": Opt}[text[pos]](node)
        pos += 1
    return node, pos


def _parse_atom(text, pos):
    if pos >= len(text):
        raise RegexSyntaxError("dangling operator", pos)
    c = text[pos]
    if c in LETTERS:
        return Letter(c), pos + 1
    if c == "&":
        return Epsilon(), pos + 1
    if c == "(":
        node, inner = _parse_alt(text, pos + 1)
        return node, inner + 1
    if c in "*+?|":
        raise RegexSyntaxError(f"dangling operator {c!r}", pos)
    raise RegexSyntaxError(f"illegal character {c!r}", pos)


def tarjan_components(n: int, successors) -> list:
    """Tarjan's algorithm, iterative.  `successors[v]` lists out-neighbours.
    Components are returned as sorted vertex lists, in the order of their
    least vertex."""
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


def scc_max_period(m, gamma) -> int:
    """The gcd of the gamma-letter counts of the cycles of the Cayley graph
    of m: per strongly connected component, the gcd of p(u) + w - p(v) over
    its edges (u, w, v), with p a potential along a spanning tree."""
    gamma = set(gamma)
    edges = [(u, 1 if a in gamma else 0, row[g])
             for u, row in enumerate(m.monoid.table) for a, g in sorted(m.eta.items())]
    successors = [[] for _ in range(m.order)]
    for u, _, v in edges:
        successors[u].append(v)
    owner = [0] * m.order
    components = tarjan_components(m.order, successors)
    for c, component in enumerate(components):
        for v in component:
            owner[v] = c
    internal = [[] for _ in range(m.order)]  # u -> (w, v) for the edges inside owner[u]
    for u, w, v in edges:
        if owner[u] == owner[v]:
            internal[u].append((w, v))
    potential = [None] * m.order
    g = 0
    for component in components:
        root = component[0]
        potential[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w, v in internal[u]:
                if potential[v] is None:
                    potential[v] = potential[u] + w
                    stack.append(v)
                else:
                    g = math.gcd(g, potential[u] + w - potential[v])
    return g


def bfs_signature(m, gammas, periods=None) -> tuple:
    """(maxima, rho_bar, classes) for the sorted letter tuples `gammas`:
    the maxima from `scc_max_period`, and rho_bar by a walk from the
    identity that adds the residual of each letter read."""
    maxima = tuple(scc_max_period(m, g) for g in gammas)
    periods = tuple(periods or maxima)
    moves = [[(a, row[g]) for a, g in sorted(m.eta.items())] for row in m.monoid.table]
    rho_bar = [None] * m.order
    rho_bar[m.monoid.identity] = tuple(0 for _ in periods)
    queue = [m.monoid.identity]
    while queue:
        x = queue.pop()
        for a, y in moves[x]:
            r = tuple((c + (a in g)) % p for c, g, p in zip(rho_bar[x], gammas, periods))
            if rho_bar[y] is None:
                rho_bar[y] = r
                queue.append(y)
            assert rho_bar[y] == r, (y, rho_bar[y], r)
    classes = {r: tuple(x for x in range(m.order) if rho_bar[x] == r)
               for r in product(*(range(p) for p in periods))}
    return maxima, tuple(rho_bar), classes


class MarkovChain(NamedTuple):
    states: tuple
    matrix: tuple  # row-stochastic, exact Fractions


def markov_chain(dfa: Dfa) -> MarkovChain:
    """Uniform-transition Markov chain of a complete DFA."""
    successors, size = dfa.targets(), len(dfa.alphabet)
    matrix = tuple(tuple(Fraction(targets.count(j), size) for j in range(dfa.n_states))
                   for targets in successors)
    return MarkovChain(tuple(dfa.states), matrix)


def mu_exact(dfa: Dfa, length: int) -> Fraction:
    """|L intersect Sigma^length| / |Sigma|^length, exactly."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return mu_series(dfa, length)[length]


def residual_table(t_r) -> FiniteMonoid:
    """The table of T_r, checked, by composing every pair of its
    transformations, numbered as `t_r.transformations` lists them."""
    elements = t_r.transformations  # built on each read
    index = {tau: i for i, tau in enumerate(elements)}
    return FiniteMonoid(tuple(tuple(index[compose(x, y)] for y in elements)
                              for x in elements))


class ReferenceResidualMonoid(NamedTuple):
    r: int
    transformations: tuple  # element index -> f_t(r) at the element's least t
    slot: dict              # t in N_0, ascending -> the index of f_t(r)


def reference_residual_monoid(dec, r: int) -> ReferenceResidualMonoid:
    """T_r = {f_t(r) : t in N_0}, numbered in ascending order of the least
    t of each element, by building every f_t(r) and deduplicating."""
    index, slot = {}, {}
    for t in dec.theta[(0,)]:
        slot[t] = index.setdefault(dec.f(t, (r,)), len(index))
    return ReferenceResidualMonoid(r, tuple(index), slot)


def reference_lw_accepting(dec, image: int, t_r: ReferenceResidualMonoid) -> frozenset:
    """The elements tau of T_r with theta_r(tau(k)) in the image of L, with
    k the position of `image` = eta(w) in N_r."""
    theta = dec.theta[(t_r.r,)]
    position = theta.index(image)
    return frozenset(i for i, tau in enumerate(t_r.transformations)
                     if theta[tau[position]] in dec.m.accepting_image)


def walk_limit_vector(dfa: Dfa, period: int) -> dict:
    """h[q] = lim_k Pr[a uniform word of length k*period read from q is
    accepted]: the Cesaro limit of R^k applied to the accepting states, with
    R the chain of `period` letters at a time, whose rows are walked from
    every state.  On each closed class of R it is the stationary mass of the
    accepting states, and on the transient states the solution of h = R h."""
    successors, n = dfa.targets(), dfa.n_states
    # rows of A = size R, A[i][j] the number of words of `period` letters from i
    # to j, in ascending order of j
    rows = [dict(sorted(next(islice(_walk_counts(successors, i), period, None)).items()))
            for i in range(n)]
    size = len(dfa.alphabet) ** period
    accepting = {i for i, q in enumerate(dfa.states) if q in dfa.accepting}
    h = {}
    for component, *_ in _cycle_classes(n, rows):  # a row's keys are its successors
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
