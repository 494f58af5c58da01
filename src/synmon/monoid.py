"""Finite monoids as explicit multiplication tables.

Elements are dense indices 0..order-1 with the identity at 0; names are
display-only.  Transformations are plain tuples `t` with `t[k]` the image
of point k; products compose left to right: (x . y)(k) = y(x(k)).
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .dfa import Dfa, Frozen
from .errors import InvalidMonoid, TooLarge

# the largest order a transition monoid may have
ORDER_CAP = 5000
# order x degree points the closure may hold: the order cap at degree 4096
CLOSURE_BUDGET = ORDER_CAP * 4096


def gather(indices):
    """A callable seq -> tuple(seq[k] for k in indices) that runs at C speed.

    It is `itemgetter(*indices)` when there are two indices or more; with
    one index itemgetter returns a bare item, and with none it cannot be
    built, so those fall back to `map`."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(map(seq.__getitem__, indices))


def check_table(table) -> None:
    """Raise InvalidMonoid unless `table` satisfies the monoid laws.

    Associativity is verified at every order by Light's test on a greedy
    generating set A (`_generating_set`): (x.a).y = x.(a.y) for all x, y
    and every a in A, one row x at a time, so that row (x.a) is compared
    with row x gathered at the points of row a.

    Light's test is enough.  Let T = {t : (x.t).y = x.(t.y) for all x, y}.
    The identity is in T by the identity laws.  For s, t in T and any x, y:
      (x.(s.t)).y = ((x.s).t).y    since s is in T, at (x, t)
                  = (x.s).(t.y)    since t is in T, at (x.s, y)
                  = x.(s.(t.y))    since s is in T, at (x, t.y)
                  = x.((s.t).y)    since t is in T, at (s, y)
    so T is closed under products.  Every element is reached from the
    identity by right multiplication with elements of A, so T >= A forces
    T = M.  The cost is O(n^2 |A|) instead of O(n^3).
    """
    n = len(table)
    if n == 0:
        raise InvalidMonoid("table is empty")
    rows = tuple(map(tuple, table))  # whole rows are compared below
    for row in rows:
        if len(row) != n or min(row) < 0 or max(row) >= n:
            raise InvalidMonoid("table is not a square array of element indices")
    for i in range(n):
        if rows[0][i] != i or rows[i][0] != i:
            raise InvalidMonoid(f"identity law fails at element {i}")
    for a in _generating_set(rows):
        times_a = gather(rows[a])  # row x -> row x.(a.y) over y
        for x, row in enumerate(rows):
            if rows[row[a]] != times_a(row):
                raise InvalidMonoid(
                    f"associativity fails with left factor {x} and middle factor {a}")


def _generating_set(rows) -> list:
    """A greedy generating set: each index in ascending order that the ones
    kept so far do not reach from the identity by right multiplication."""
    kept, reached, seen = [], [0], {0}
    for x in range(len(rows)):
        if x in seen:
            continue
        kept.append(x)
        closed = len(reached)  # reached[:closed] is closed under the others
        for i, z in enumerate(reached):  # grows while it is read
            for g in kept if i >= closed else (x,):
                y = rows[z][g]
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
    return kept


class FiniteMonoid(Frozen):
    """A multiplication table, checked on construction; compared by identity.
    Element 0 is the identity."""
    __slots__ = ("table", "names")
    identity = 0

    def __init__(self, table: tuple, names: tuple | None = None):
        self._set(table, names)
        check_table(self.table)

    @property
    def order(self) -> int:
        return len(self.table)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else str(i)


class SyntacticMonoid(Frozen):
    """Transition monoid of a minimal DFA as `_close` built it: the right
    Cayley graph, the BFS tree, which witnesses that the letters generate
    the monoid, and the names; with the letter map and the image of the
    language; compared by identity.  The table is filled on first read."""
    __slots__ = ("right", "tree", "names", "eta", "accepting_image", "__dict__")

    def __init__(self, right: tuple, tree: tuple, names: tuple, eta: dict,
                 accepting_image: frozenset):
        self._set(right, tree, names, eta, accepting_image)
        n = len(right)
        for row in right:
            if len(row) != len(eta) or min(row) < 0 or max(row) >= n:
                raise InvalidMonoid("Cayley graph is not a table of element indices")
        for j in range(1, n):
            parent, g = tree[j]
            if not (0 <= parent < j and right[parent][g] == j):
                raise InvalidMonoid("generators do not generate the monoid")

    @cached_property
    def alphabet(self) -> tuple:
        return tuple(sorted(self.eta))

    @property
    def order(self) -> int:
        return len(self.right)

    @cached_property
    def monoid(self) -> FiniteMonoid:
        """The multiplication table, filled from the Cayley graph along the
        tree and checked, on first read.

        `check_table` proves that the table is a monoid; its letters'
        columns make it M's.  Once x.eta(a) = right[x][a] for every x and
        letter a, x.y is M's product for every x and y, by induction along
        the tree: x.0 = x by the identity law, and y > 0, with tree parent p
        and last letter a, is p.eta(a) in the table, so x.y = (x.p).eta(a)
        by associativity, which is the edge right[x.p][a], x.p being M's
        product by induction."""
        monoid = FiniteMonoid(_rows(self.right, self.tree), self.names)
        for a, column in zip(sorted(self.eta), zip(*self.right)):  # x -> x.a over x
            if tuple(row[column[0]] for row in monoid.table) != column:
                raise InvalidMonoid(f"table column of letter {a!r} disagrees with the Cayley graph")
        return monoid

    @cached_property
    def minimal_ideal(self) -> frozenset:
        """K(M), the minimal ideal, as the union of the closed classes of the
        right Cayley graph: M has a zero exactly when K(M) is one element.

        The class of x that no edge leaves is x.M, all that x reaches, and
        y.M = x.M for each y in it; so the closed classes are the minimal
        right ideals, and each minimal right ideal R = x.M is one.  Their
        union is K(M): R = r.k.M lies in K(M) for r in R and k in K(M), and
        K(M) lies in the ideal M.R, the union of the minimal right ideals
        s.R (a right ideal I inside s.R gives {r in R : s.r in I} = R)."""
        from .periods import _cycle_classes  # periods imports this module

        return frozenset().union(*(c for c, *_ in _cycle_classes(self.order, self.right)))

    def image_of_word(self, word: str) -> int:
        x = 0
        for a in word:
            x = self.right[x][self.alphabet.index(a)]
        return x

    def targets(self) -> tuple:
        """The right Cayley graph in the index form of `Dfa.targets`."""
        return self.right


def _close(generators):
    """Froidure-Pin closure of transformations of one degree (Froidure &
    Pin, "Algorithms for computing finite semigroups", 1997).

    Returns the elements (tuples in BFS order from the identity at 0,
    generators tried in order), the right Cayley graph (right[i][g] is
    element i times generator g) and the tree of first arrivals (element j
    > 0 is tree[j] = (parent, last generator)), both as tuples.  TooLarge is
    raised once the order would exceed ORDER_CAP, read at call time, or
    else once order x degree would exceed CLOSURE_BUDGET.
    """
    gens = [tuple(g) for g in generators]
    degree = len(gens[0])
    room = CLOSURE_BUDGET // degree  # the largest order the budget holds
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    tree, right = [(-1, -1)], []
    for x in elements:  # grows while it is read: a BFS queue
        row = []
        then = gather(x)  # gen -> x.gen
        for g, gen in enumerate(gens):
            y = then(gen)
            j = index.setdefault(y, len(elements))
            if j == len(elements):
                if j >= ORDER_CAP:
                    raise TooLarge(f"transition monoid exceeds cap {ORDER_CAP}")
                if j >= room:
                    raise TooLarge(
                        f"transition monoid of degree {degree} exceeds the closure budget "
                        f"of {CLOSURE_BUDGET} points (order x degree) at order {j + 1}")
                elements.append(y)
                tree.append((len(right), g))
            row.append(j)
        right.append(tuple(row))
    return elements, tuple(right), tuple(tree)


def _rows(right, tree) -> tuple:
    """The multiplication table of a closure, as a tuple of rows, from its
    Cayley graph `right` and tree `tree` (see `_close`).  The row of
    generator g is read off the Cayley graph along the tree, g.y =
    (g.parent(y)).last(y), and row j is row parent(j) gathered at the
    points of the row of last(j), since j.y = parent(j).(last(j).y); so
    filling the table composes no two elements."""
    times = []  # times[g]: row x -> row x.g, which is row x at the points of row g
    for g in range(len(right[0])):
        row_g = [right[0][g]]
        for parent, last in tree[1:]:
            row_g.append(right[row_g[parent]][last])
        times.append(gather(row_g))
    rows = [tuple(range(len(right)))]
    for parent, last in tree[1:]:
        rows.append(times[last](rows[parent]))
    return tuple(rows)


def transition_monoid(dfa: Dfa) -> SyntacticMonoid:
    """Word-induced transformations on the states of `dfa`, closed under
    composition and numbered in BFS order from the identity (letters
    sorted), at most ORDER_CAP of them.  The caller must pass a minimal DFA
    for the result to be the syntactic monoid.
    """
    # the letters' transformations are the columns of the DFA's index form
    elements, right, tree = _close(zip(*dfa.targets()))
    names = ["e"]  # element j is named by the word that first reached it
    for parent, last in tree[1:]:
        names.append((names[parent] if parent else "") + dfa.alphabet[last])
    eta = {a: right[0][g] for g, a in enumerate(dfa.alphabet)}
    initial = dfa.states.index(dfa.initial)
    accepting = {i for i, q in enumerate(dfa.states) if q in dfa.accepting}
    accepting_image = frozenset(
        i for i, x in enumerate(elements) if x[initial] in accepting)
    return SyntacticMonoid(right, tree, tuple(names), eta, accepting_image)


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string: backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cayley_to_dot(m: SyntacticMonoid) -> str:
    """The right Cayley graph in Graphviz DOT, each vertex labelled with
    its element's name."""
    lines = ["digraph cayley {"]
    for v in range(m.order):
        lines.append(f"  {v} [label={_dot_string(m.names[v])}];")
    for src, row in enumerate(m.targets()):
        for sym, dst in zip(m.alphabet, row):
            lines.append(f"  {src} -> {dst} [label={_dot_string(sym)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
