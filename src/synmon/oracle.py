"""Deliberately naive reference implementations.

Nothing here shares code with the main algorithms, so agreement between the
two paths is meaningful evidence.  Everything runs at desk scale only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .dfa import Dfa
from .errors import TooLarge
from .monoid import FiniteMonoid, SyntacticMonoid
from .regexes import Alt, Cat, Epsilon, Letter, Opt, Plus, RegexAst, Star

ENUMERATION_CAP = 10_000_000
CYCLE_ORDER_CAP = 30  # largest monoid whose Cayley graph `cycle_gcd` searches
ISOMORPHISM_ORDER_CAP = 16  # largest order `brute_isomorphic` backtracks over


def _past_cap(size: int, exponent: int) -> bool:
    """size ** exponent > ENUMERATION_CAP for size >= 2, decided before a
    power past the cap is built: 2 ** exponent is past it once exponent
    reaches ENUMERATION_CAP.bit_length()."""
    return exponent >= ENUMERATION_CAP.bit_length() or size ** exponent > ENUMERATION_CAP


def mu_enumerate(dfa: Dfa, length: int) -> Fraction:
    """Count acceptance over every word of the given length.  Over two or
    more letters the budget counts words; over one, with one word of each
    length, it counts that word's letters."""
    size = len(dfa.alphabet)
    if size > 1 and _past_cap(size, length):
        raise TooLarge(f"{size}^{length} words is past the enumeration cap")
    if size < 2 and length > ENUMERATION_CAP:
        raise TooLarge(f"{length} letters is past the enumeration cap")
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


def cycle_gcd(m: SyntacticMonoid, gamma) -> int:
    """gcd of gamma-weights over all simple cycles of the Cayley graph of m,
    found by DFS.

    Equals the gcd over all closed walks, since every closed walk
    decomposes into simple cycles.  A monoid past CYCLE_ORDER_CAP elements
    is refused, which also bounds the length of every simple cycle.
    """
    n = m.order
    if n > CYCLE_ORDER_CAP:
        raise TooLarge(f"graph order {n} is past the cycle budget")
    gamma = set(gamma)
    weights = [1 if a in gamma else 0 for a in m.alphabet]
    out_edges = [list(zip(weights, row)) for row in m.targets()]
    result = 0
    # enumerate cycles whose minimum vertex is `root`
    for root in range(n):
        stack = [(root, 0, frozenset({root}))]
        while stack:
            vertex, weight, visited = stack.pop()
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


def brute_isomorphic(m1: FiniteMonoid, m2: FiniteMonoid) -> bool:
    """Backtracking over generator images; True iff a table-preserving
    bijection exists."""
    if m1.order != m2.order:
        return False
    if m1.order > ISOMORPHISM_ORDER_CAP:
        raise TooLarge(f"order {m1.order} is past the isomorphism cap")
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


def lw_enumerate(dfa: Dfa, w: str, period: int, max_blocks: int) -> set:
    """All block words u with at most max_blocks blocks and w+u accepted,
    by direct DFA runs.  Over two or more letters the budget counts the
    longest block words; over one, with one block word per count, it counts
    the letters of every w+u run."""
    size = len(dfa.alphabet)
    if size > 1:
        past = _past_cap(size, period * max_blocks)
    else:  # sum over count <= max_blocks of len(w) + period * count
        past = (max_blocks + 1) * (2 * len(w) + period * max_blocks) // 2 > ENUMERATION_CAP
    if past:
        raise TooLarge("block enumeration past the cap")
    letters = sorted(dfa.alphabet)
    blocks = ["".join(p) for p in product(letters, repeat=period)]
    accepted = set()
    for count in range(max_blocks + 1):
        for u in product(blocks, repeat=count):
            if dfa.accepts(w + "".join(u)):
                accepted.add(u)
    return accepted
