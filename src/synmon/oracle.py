"""Deliberately naive reference implementations.

Nothing here shares code with the main algorithms, so agreement between the
two paths is meaningful evidence.  Everything runs at desk scale only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import NamedTuple

from .dfa import Dfa
from .errors import BudgetExceeded
from .monoid import CayleyGraph, FiniteMonoid
from .regexes import Alt, Cat, Epsilon, Letter, Opt, Plus, RegexAst, Star

ENUMERATION_CAP = 10_000_000


class OracleBudget(NamedTuple):
    max_word_length: int = 12
    max_cycle_length: int = 64
    max_monoid_order: int = 30
    iso_order_cap: int = 16


def mu_enumerate(dfa: Dfa, length: int, budget: OracleBudget | None = None) -> Fraction:
    """Count acceptance over every word of the given length."""
    size = len(dfa.alphabet)
    if size ** length > ENUMERATION_CAP:
        raise BudgetExceeded(f"{size}^{length} words is past the enumeration cap")
    letters = sorted(dfa.alphabet)
    hits = sum(1 for w in product(letters, repeat=length) if dfa.accepts("".join(w)))
    return Fraction(hits, size ** length)


def regex_match(ast: RegexAst, word: str) -> bool:
    """Recursive matcher used as the round-trip oracle for compiled DFAs."""
    return len(word) in _ends(ast, word, 0)

def _ends(node, word, start):
    """All positions j such that node matches word[start:j]."""
    if isinstance(node, Letter):
        if start < len(word) and word[start] == node.symbol:
            return {start + 1}
        return set()
    if isinstance(node, Epsilon):
        return {start}
    if isinstance(node, Alt):
        return _ends(node.left, word, start) | _ends(node.right, word, start)
    if isinstance(node, Cat):
        out = set()
        for mid in _ends(node.left, word, start):
            out |= _ends(node.right, word, mid)
        return out
    if isinstance(node, Opt):
        return {start} | _ends(node.child, word, start)
    # Star / Plus: iterate the child to a fixed point; Plus takes the empty word from it
    out = {start} if isinstance(node, Star) else _ends(node.child, word, start) & {start}
    frontier = {start}
    while frontier:
        step = set()
        for pos in frontier:
            for j in _ends(node.child, word, pos):
                if j > pos:
                    step.add(j)
        frontier = step - out
        out |= step
    return out


def cycle_gcd(graph: CayleyGraph, gamma, budget: OracleBudget | None = None) -> int:
    """gcd of gamma-weights over all simple cycles, found by DFS.

    Equals the gcd over all closed walks, since every closed walk
    decomposes into simple cycles.
    """
    budget = budget or OracleBudget()
    n = len(graph.vertices)
    if n > budget.max_monoid_order:
        raise BudgetExceeded(f"graph order {n} is past the cycle budget")
    gamma = set(gamma)
    out_edges = {v: [] for v in graph.vertices}
    for u, a, v in graph.edges:
        out_edges[u].append((1 if a in gamma else 0, v))
    result = 0
    # enumerate cycles whose minimum vertex is `root`
    for root in graph.vertices:
        stack = [(root, 0, frozenset({root}))]
        while stack:
            vertex, weight, visited = stack.pop()
            if len(visited) > budget.max_cycle_length:
                raise BudgetExceeded("simple cycle length past the budget")
            for w, target in out_edges[vertex]:
                if target == root:
                    result = gcd(result, weight + w)
                elif target > root and target not in visited:
                    stack.append((target, weight + w, visited | {target}))
    return result


def _greedy_generators(m: FiniteMonoid) -> list:
    gens = []
    reached = {m.identity}
    for x in range(m.order):
        if x in reached:
            continue
        gens.append(x)
        reached = {m.identity}
        frontier = [m.identity]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = m.table[y][g]
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
    return gens


def brute_isomorphic(m1: FiniteMonoid, m2: FiniteMonoid,
                     budget: OracleBudget | None = None) -> bool:
    """Backtracking over generator images; True iff a table-preserving
    bijection exists."""
    budget = budget or OracleBudget()
    if m1.order != m2.order:
        return False
    if m1.order > budget.iso_order_cap:
        raise BudgetExceeded(f"order {m1.order} is past the isomorphism cap")
    gens = _greedy_generators(m1)
    if not gens:  # trivial monoid
        return m2.order == 1
    for images in product(range(m2.order), repeat=len(gens)):
        mapping = {m1.identity: m2.identity}
        queue = [m1.identity]
        consistent = True
        while queue and consistent:
            x = queue.pop()
            for g, img in zip(gens, images):
                y = m1.table[x][g]
                target = m2.table[mapping[x]][img]
                if y not in mapping:
                    mapping[y] = target
                    queue.append(y)
                elif mapping[y] != target:
                    consistent = False
                    break
        if not consistent or len(mapping) != m1.order:
            continue
        if len(set(mapping.values())) != m1.order:
            continue
        as_list = [mapping[i] for i in range(m1.order)]
        if all(
            as_list[m1.table[x][y]] == m2.table[as_list[x]][as_list[y]]
            for x in range(m1.order) for y in range(m1.order)
        ):
            return True
    return False


def lw_enumerate(dfa: Dfa, w: str, period: int, max_blocks: int,
                 budget: OracleBudget | None = None) -> set:
    """All block words u with at most max_blocks blocks and w+u accepted,
    by direct DFA runs."""
    size = len(dfa.alphabet)
    if size ** (period * max_blocks) > ENUMERATION_CAP:
        raise BudgetExceeded("block enumeration past the cap")
    letters = sorted(dfa.alphabet)
    blocks = ["".join(p) for p in product(letters, repeat=period)]
    accepted = set()
    for count in range(max_blocks + 1):
        for u in product(blocks, repeat=count):
            if dfa.accepts(w + "".join(u)):
                accepted.add(u)
    return accepted
