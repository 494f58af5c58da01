"""The paper's constructions, built only to check its statements: monoid
products and actions, Rees quotients, named families, homomorphism checks,
the target of Can and the block quotient T_r -> M_{L_w}.  Every builder
fills a table of order^2 entries, so it decides the order it would build
against monoid.ORDER_CAP, the cap on such tables, before it builds
anything (`monoid._require_cap`); a transition monoid it closes is bounded
by the closure budget, which holds every monoid within the cap, and its
table by the cap when first read.  No command imports this module; it
reads `monoid` and `decompose`, never the reverse."""

from __future__ import annotations

from itertools import product, repeat
from math import prod
from numbers import Integral

from .decompose import (CanonicalDecomposition, LwRecognizer, _require_full_alphabet,
                        lw_recognizer)
from .dfa import Dfa, block_dfa, minimize
from .errors import (InvalidArgument, NotAnAction, NotAnIdeal, ScopeError, UnknownSymbol,
                     VerificationFailure)
from .monoid import (FiniteMonoid, SyntacticMonoid, _close, _require_cap, _rows, gather,
                     transition_monoid)

Transformation = tuple


def identity_transformation(degree: int) -> Transformation:
    return tuple(range(degree))


def compose(x: Transformation, y: Transformation) -> Transformation:
    """Apply x first, then y."""
    return gather(x)(y)


def is_ideal(m: FiniteMonoid, candidate) -> bool:
    """True iff non-empty and closed under multiplication by M on both sides."""
    ideal = set(candidate)
    if not ideal or not ideal <= set(range(m.order)):
        return False
    return all(
        m.table[i][s] in ideal and m.table[s][i] in ideal
        for i in ideal for s in range(m.order)
    )


def principal_ideal(m: FiniteMonoid, x: int) -> frozenset:
    """Two-sided principal ideal {s.x.t : s, t in M}."""
    left = {row[x] for row in m.table}
    return frozenset().union(*(m.table[a] for a in left))


def minimal_ideal_element(m: FiniteMonoid) -> int:
    """z, the product of all elements in ascending order.  It lies in the
    minimal ideal K(M), since z = s.x.t lies in every ideal that holds an x,
    so K(M) is the principal ideal of z."""
    z = m.identity
    for x in range(m.order):
        z = m.table[z][x]
    return z


def find_zero(m: FiniteMonoid):
    """The unique absorbing element, or None.  A zero is the minimal ideal
    {0}, so it exists exactly when `minimal_ideal_element` is absorbing.
    The verdicts read the zero off the Cayley graph instead
    (`SyntacticMonoid.minimal_ideal`)."""
    z = minimal_ideal_element(m)
    return z if {*m.table[z], *(row[z] for row in m.table)} == {z} else None


def rees_factor(m: FiniteMonoid, ideal) -> FiniteMonoid:
    """Collapse a two-sided ideal to a single zero element."""
    if not is_ideal(m, ideal):
        raise NotAnIdeal(f"{sorted(ideal)} is not an ideal")
    ideal = set(ideal)
    survivors = [i for i in range(m.order) if i not in ideal]
    new = {old: k for k, old in enumerate(survivors)}
    sink = len(survivors)

    def image(i, j):
        p = m.table[i][j]
        return new[p] if p not in ideal else sink

    table = [[image(i, j) for j in survivors] + [sink] for i in survivors]
    table.append([sink] * (sink + 1))
    names = None
    if m.names:
        names = tuple(m.names[i] for i in survivors) + ("ι",)
    # the identity is element 0: an ideal that holds it is all of M, whose
    # sink is then 0, and otherwise it survives first, as element 0
    return FiniteMonoid(tuple(tuple(r) for r in table), names)


def _check_action(m: FiniteMonoid, n: FiniteMonoid, action) -> None:
    if len(action) != n.order or any(len(row) != m.order for row in action):
        raise NotAnAction("action table must be |N| x |M|")
    for j, row in enumerate(action):
        for x, y in enumerate(row):
            if not _is_element(m, y):
                raise NotAnAction(f"action entry ({j}, {x}) is {y}, not an element of M")
    for x in range(m.order):
        if action[n.identity][x] != x:
            raise NotAnAction(f"identity of N moves element {x}")
    for j1 in range(n.order):
        for j2 in range(n.order):
            for x in range(m.order):
                if action[j1][action[j2][x]] != action[n.table[j1][j2]][x]:
                    raise NotAnAction(f"action law fails at ({j1}, {j2}, {x})")
    for j in range(n.order):
        # non-unitary actions break the right identity law of the product
        if action[j][m.identity] != m.identity:
            raise NotAnAction(f"element {j} of N does not fix the identity of M")
        for x in range(m.order):
            for y in range(m.order):
                if action[j][m.table[x][y]] != m.table[action[j][x]][action[j][y]]:
                    raise NotAnAction(f"distributivity fails at ({j}, {x}, {y})")


def semidirect_product(m: FiniteMonoid, n: FiniteMonoid, action) -> FiniteMonoid:
    """Semidirect product on M x N:
    (m1, n1).(m2, n2) = (m1 . (n1 * m2), n1 . n2),
    where action[n][m] tabulates n * m.  Pair (i, j) gets index i*|N| + j,
    so the identity lands at 0."""
    _require_cap(f"semidirect product of orders {m.order} and {n.order}", (m.order, n.order))
    _check_action(m, n, action)

    def idx(i, j):
        return i * n.order + j

    table = [[0] * (m.order * n.order) for _ in range(m.order * n.order)]
    for i1, j1 in product(range(m.order), range(n.order)):
        for i2, j2 in product(range(m.order), range(n.order)):
            table[idx(i1, j1)][idx(i2, j2)] = idx(
                m.table[i1][action[j1][i2]], n.table[j1][j2]
            )
    names = tuple(
        f"({m.name_of(i)},{n.name_of(j)})"
        for i in range(m.order) for j in range(n.order)
    )
    return FiniteMonoid(tuple(tuple(r) for r in table), names)


def direct_product(m: FiniteMonoid, n: FiniteMonoid) -> FiniteMonoid:
    _require_cap(f"direct product of orders {m.order} and {n.order}", (m.order, n.order))
    return semidirect_product(m, n, [list(range(m.order)) for _ in range(n.order)])


def function_monoid(m: FiniteMonoid, copies: int) -> FiniteMonoid:
    """Pointwise power M^copies; elements are value tuples in lexicographic
    order, so the constant identity lands at index 0."""
    if copies < 0:
        raise InvalidArgument(f"copies must be non-negative, got {copies}")
    _require_cap(f"|M|^{copies} with |M| = {m.order}", repeat(m.order, copies))
    elements = list(product(range(m.order), repeat=copies))
    index = {f: i for i, f in enumerate(elements)}
    table = tuple(
        tuple(index[tuple(m.table[f[y]][g[y]] for y in range(copies))] for g in elements)
        for f in elements
    )
    names = tuple("[" + ",".join(m.name_of(v) for v in f) + "]" for f in elements)
    return FiniteMonoid(table, names)


def make_named(kind: str, k: int) -> FiniteMonoid:
    """Standard families: cyclic C_K, right/left zero adjunctions U_K and
    Ū_K, symmetric S_K, full transformation T_K, of orders K, K + 1, K + 1,
    K! and K^K."""
    if k < 1:
        raise InvalidArgument("K must be at least 1")
    orders = {"cyclic": (k,), "right_zero": (k + 1,), "left_zero": (k + 1,),
              "symmetric": range(1, k + 1), "full_transformation": repeat(k, k)}
    if kind not in orders:
        raise InvalidArgument(f"unknown monoid kind {kind!r}")
    _require_cap(f"{kind} monoid of degree {k}", orders[kind])
    if kind == "cyclic":
        table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
        return FiniteMonoid(table, tuple(str(i) for i in range(k)))
    if kind == "right_zero":
        table = tuple(
            tuple(j if j != 0 else i for j in range(k + 1)) for i in range(k + 1)
        )
        return FiniteMonoid(table, ("e",) + tuple(f"ι{i}" for i in range(1, k + 1)))
    if kind == "left_zero":
        table = tuple(
            tuple(i if i != 0 else j for j in range(k + 1)) for i in range(k + 1)
        )
        return FiniteMonoid(table, ("e",) + tuple(f"ι{i}" for i in range(1, k + 1)))
    # a k-cycle and a transposition generate S_k; a map of rank k-1 adds T_k
    generators = [tuple(range(1, k)) + (0,)]
    if k > 1:
        generators.append((1, 0) + tuple(range(2, k)))
        if kind == "full_transformation":
            generators.append((0, 0) + tuple(range(2, k)))
    elements, right, tree = _close(generators)
    names = tuple("".join(map(str, t)) for t in elements)
    return FiniteMonoid(_rows(right, tree), names)


def _is_element(m: FiniteMonoid, x) -> bool:
    """Whether x is an integer 0..|m|-1, an element of m."""
    return isinstance(x, Integral) and 0 <= x < m.order


def _maps_into(src: FiniteMonoid, dst: FiniteMonoid, mapping) -> bool:
    return len(mapping) == src.order and all(_is_element(dst, y) for y in mapping)


def hom_image_check(src: FiniteMonoid, dst: FiniteMonoid, mapping) -> bool:
    """True iff `mapping`, a sequence of |src| elements of dst indexed by
    the elements of src, is a monoid homomorphism from src to dst."""
    if not _maps_into(src, dst, mapping) or mapping[src.identity] != dst.identity:
        return False
    return all(
        mapping[src.table[x][y]] == dst.table[mapping[x]][mapping[y]]
        for x in range(src.order) for y in range(src.order)
    )


def hom_generator_check(src: FiniteMonoid, dst: FiniteMonoid, mapping,
                        generators) -> bool:
    """True iff `mapping`, as in `hom_image_check`, sends the identity to
    the identity and mapping(x.g) = mapping(x).mapping(g) for every element
    x and every g in `generators`.  When the generators generate src this
    is equivalent to `hom_image_check`, by induction on the length of a
    product of generators: mapping(x.y.g) = mapping(x.y).mapping(g) =
    mapping(x).mapping(y).mapping(g) = mapping(x).mapping(y.g).  False
    unless every generator is an element of src."""
    if (not _maps_into(src, dst, mapping) or mapping[src.identity] != dst.identity
            or not all(_is_element(src, g) for g in generators)):
        return False
    return all(
        mapping[src.table[x][g]] == dst.table[mapping[x]][mapping[g]]
        for x in range(src.order) for g in generators
    )


def can_product(dec: CanonicalDecomposition, s: int, s2: int):
    """Semidirect product Can(s).Can(s2) computed in the target monoid:
    first component (r, k) -> f_{s2}(r + rho(s))(f_s(r)(k))."""
    sig = dec.signature
    rho_s = sig.rho_bar[s]
    f = {r: compose(dec.f(s, r), dec.f(s2, sig.add(r, rho_s))) for r in dec.residuals}
    return f, sig.add(rho_s, sig.rho_bar[s2])


def target_order(dec: CanonicalDecomposition) -> int:
    """|T_K^G x| G| = (K^K)^g . g, with g = |G| the product of the periods."""
    g = prod(dec.signature.periods)
    return (dec.K ** dec.K) ** g * g


def lw_member(rec: LwRecognizer, blocks) -> bool:
    """Membership of a block word; equals DFA membership of w + blocks."""
    tau = identity_transformation(len(next(iter(rec.block_images.values()))))
    length = len(next(iter(rec.block_images)))
    for b in blocks:
        if len(b) != length:
            raise UnknownSymbol(f"block {b!r} does not have length {length}")
        if b not in rec.block_images:
            raise UnknownSymbol(f"{b!r} is not a block over the alphabet")
        tau = compose(tau, rec.block_images[b])
    return rec.monoid.transformations.index(tau) in rec.accepting


def syntactic_monoid_of_lw(dfa: Dfa, w: str, period: int) -> SyntacticMonoid:
    """Syntactic monoid of L_w over the alphabet of length-`period` blocks,
    via the minimized block DFA."""
    if len(w) >= period:
        raise ScopeError(f"prefix length {len(w)} must be below the period {period}")
    return transition_monoid(minimize(block_dfa(dfa, w, period)))


def lw_quotient(dec: CanonicalDecomposition, dfa: Dfa, w: str) -> tuple:
    """The map T_{rho(w)} -> M_{L_w}, eta_w(u) -> eta_{L_w}(u), onto the
    independently computed syntactic monoid of L_w, as a tuple indexed by
    the elements of T_r.  Raise VerificationFailure unless it is a
    well-defined surjective homomorphism.

    The walk from the identity is the homomorphism check: it tries every
    block b at every element x it reaches and requires mapping(x.g_b) =
    mapping(x).eta_w(b), with mapping(g_b) = eta_w(b) read at the identity.
    That is `hom_generator_check` on the block images, which generate T_r
    once the walk reaches every element; by induction on the number of
    blocks it is equivalent to checking all pairs of elements.  T_r keeps
    no table, so each product x.g_b composes the two transformations."""
    period = _require_full_alphabet(dec)
    rec = lw_recognizer(dec, w)
    lw_m = syntactic_monoid_of_lw(dfa, w, period)
    t_m, elements = rec.monoid, rec.monoid.transformations  # built on each read
    index = {tau: i for i, tau in enumerate(elements)}
    blocks = sorted(rec.block_images.items())
    mapping = {0: 0}
    queue = [0]
    while queue:
        x = queue.pop()
        y = mapping[x]
        for b, g in blocks:
            x2 = index[compose(elements[x], g)]
            y2 = lw_m.monoid.table[y][lw_m.eta[b]]
            if x2 not in mapping:
                mapping[x2] = y2
                queue.append(x2)
            elif mapping[x2] != y2:
                raise VerificationFailure(
                    f"block quotient: the map is not well defined for w = {w!r} at element "
                    f"{x} of T_{rec.r} and block {b!r}: {x2} goes to {mapping[x2]} and {y2}")
    if len(mapping) != t_m.order:
        unreached = min(set(range(t_m.order)) - set(mapping))
        raise VerificationFailure(f"block quotient: the blocks do not reach element "
                                  f"{unreached} of T_{rec.r} for w = {w!r}")
    as_list = tuple(mapping[i] for i in range(t_m.order))
    missed = set(range(lw_m.order)) - set(as_list)
    if missed:
        raise VerificationFailure(f"block quotient: the map misses element {min(missed)} "
                                  f"of the syntactic monoid of L_w for w = {w!r}")
    return as_list
