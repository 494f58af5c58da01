"""Canonical semidirect-product decomposition of a syntactic monoid.

The classes N_r, laid end to end in residual order, are the points X of
|M| elements; slot k of N_r (theta_r, its ascending enumeration) is point
start_r + k.  Each t is mapped to Can(t) = (f_t, rho_bar(t)), with f_t
stored as one flat map of X, right multiplication by t renumbered: the
point of x goes to that of x.t, in N_{r+rho_bar(t)} for x in N_r.  With
slot[i] the slot of point i in its class, f_t(r) of degree K = max |N_r| is

    f_t(r)(k) = slot[Can(t)[start_r + k]] = theta_{r+rho_bar(t)}^{-1}(theta_r(k).t)

for k < |N_r|, and k past it.  Products follow (f, r).(g, r') =
(f . (r (*) g), r + r') with (r (*) g)(c) = g(c + r); on X, Can(s.t) is
Can(s) then Can(t).  So Can is built along the Cayley graph's BFS tree
from the letters' maps, and checked at the letters: the decomposition reads
no multiplication table.  At period 1, Can(t) is right multiplication by t,
the right regular representation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .dfa import reach, words_of_length
from .errors import ScopeError, UnknownSymbol, VerificationFailure
from .monoid import SyntacticMonoid, gather
from .periods import PeriodSignature, residual_of_word


class _Can(NamedTuple):
    m: SyntacticMonoid
    signature: PeriodSignature
    flat: tuple   # element t -> Can(t) as a map of the points X, a tuple


class CanonicalDecomposition(_Can):
    """A named tuple that keeps what is read off it: the layout of X and
    each f_t(r), built on first use."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def theta(self) -> dict:
        """Residual -> ascending tuple of element indices (N_r): the
        signature's classes."""
        return self.signature.classes

    @cached_property
    def K(self) -> int:
        """The degree of T_K: the size of the largest class."""
        return max(map(len, self.signature.classes.values()))

    @property
    def residuals(self):
        return self.signature.residuals()

    def rho(self, t: int):
        return self.signature.rho_bar[t]

    @cached_property
    def _layout(self) -> tuple:
        """(r -> start_r, the point of slot 0 of N_r; point -> its slot;
        point -> its class's r; class size -> one padding every f_t(r) shares)."""
        sig = self.signature
        residuals = sig.residuals()
        sizes = list(map(len, map(sig.classes.__getitem__, residuals)))
        return (dict(zip(residuals, accumulate(sizes, initial=0))),
                tuple(chain.from_iterable(map(range, sizes))),
                tuple(chain.from_iterable(map(repeat, residuals, sizes))),
                {size: tuple(range(size, self.K)) for size in set(sizes)})

    @cached_property
    def _reads(self) -> dict:
        """(t, r) -> f_t(r) once read, so that every read is the same object."""
        return {}

    def f(self, t: int, r) -> tuple:
        """f_t(r), padded to degree K, read as the module docstring says: where
        N_r is X, as at period 1, Can(t) itself, and where N_r is empty, the
        padding; each other f_t(r) is built on its first read and kept."""
        start, slot, _, padding = self._layout
        size, reads = len(self.signature.classes[r]), self._reads
        if not 0 < size < len(slot):
            return self.flat[t] if size else padding[0]
        if (t, r) not in reads:
            reads[t, r] = gather(self.flat[t][start[r]:start[r] + size])(slot) + padding[size]
        return reads[t, r]


class ResidualMonoid(NamedTuple):
    """T_r = {f_t(r) : t in N_0}, a view of M: its elements, the slot of
    each t in N_0, and the verified decomposition, off whose maps and
    Cayley graph its ideals are read."""
    r: int
    transformations: tuple  # element index -> transformation tuple
    slot: dict              # t in N_0, ascending -> the index of f_t(r)
    dec: CanonicalDecomposition  # Can(t) and M's Cayley graph, which `ideal` reads

    @property
    def order(self) -> int:
        return len(self.transformations)

    def name_of(self, i: int) -> str:
        """"e" for the identity, else the transformation as "(k0,k1,...)"."""
        if i == 0:
            return "e"
        return "(" + ",".join(map(str, self.transformations[i])) + ")"

    def ideal(self, t: int) -> frozenset:
        """The principal ideal of f_t(r) in T_r, for t in N_0: the slots of
        N_0.t.N_0, read off Can(t) and the right Cayley graph.

        `verify_canonical` proves that t -> f_t(r) is a homomorphism from
        N_0 onto T_r: Can(s.t) = Can(s).Can(t) with rho_bar(s) = 0 gives
        f_{s.t}(r) = f_s(r) then f_t(r).  So the ideal of f_t(r) is the
        image of N_0.t.N_0 = {s.t.u : s, u in N_0}.  Can(t) sends the point
        of x to that of x.t and keeps N_0, as rho_bar(t) = 0; N_0's points
        are the first |N_0|, so N_0.t is Can(t) there, read as elements.
        For x in N_0, x.N_0 = x.M & N_0, since rho_bar is a homomorphism
        into a group and rho_bar(x.u) = rho_bar(u); and x.M is what x
        reaches in the Cayley graph.  So N_0.t.N_0 is what N_0.t reaches,
        kept in N_0.  Both Can(t) and every edge (s, a), through Can(s.a) =
        Can(s).Can(a) and the read-back, passed `verify_canonical`."""
        n_0, slot = self.dec.theta[(0,)], self.slot
        left = gather(self.dec.flat[t][:len(n_0)])(n_0)  # N_0.t
        return frozenset(map(slot.__getitem__, slot.keys() & reach(self.dec.m.right, left)))


class LwRecognizer(NamedTuple):
    w: str
    monoid: ResidualMonoid
    block_images: dict       # block string -> transformation tuple
    accepting: frozenset     # indices into `monoid`

    @property
    def r(self) -> int:
        return len(self.w)


def canonical_decomposition(m: SyntacticMonoid,
                            sig: PeriodSignature) -> CanonicalDecomposition:
    """Build Can along the Cayley graph and verify it is an injective
    homomorphism before returning (`verify_canonical` raises
    VerificationFailure otherwise).  A letter's map is its column of the
    Cayley graph relabelled by the points, and every other element's is
    its tree parent's map then its last letter's, as t = parent(t).last(t);
    so the build reads no multiplication table."""
    points = tuple(chain.from_iterable(map(sig.classes.__getitem__, sig.residuals())))
    point = sorted(range(m.order), key=points.__getitem__)
    # the column at the points, then the point of each element it holds
    by_letter = [gather(gather(points)(column))(point) for column in zip(*m.right)]
    flat = [tuple(range(m.order))]
    for parent, last in m.tree[1:]:
        flat.append(gather(flat[parent])(by_letter[last]))
    dec = CanonicalDecomposition(m, sig, tuple(flat))
    verify_canonical(dec)
    return dec


def verify_canonical(dec: CanonicalDecomposition) -> None:
    """Raise VerificationFailure unless Can is a homomorphism (checked on
    generators), reads every element back by its definition, and meets the
    letter residual condition, in that order; the message names the
    failing check and its witness.

    The homomorphism identity Can(s.a) = Can(s).Can(a) is checked for every
    element s and every letter a, together with Can(e) = (identity, 0) and
    the requirement that each letter's f_a(r) maps the class-carrying slots
    of r into those of r + rho_bar(a).  That is equivalent to checking all
    pairs.

    First, every f_t(r) then maps the slots of r into those of r +
    rho_bar(t), by induction on t from Can(e), the identity.  Elements are
    numbered in BFS order, and `SyntacticMonoid.__init__` checks that each
    t > 0 is t = p.a for its tree parent p, 0 <= p < t, and its last letter
    a.  The check at (p, a), run in p's iteration, compares Can(t) with
    Can(p).Can(a), a product of maps already checked: Can(a) by the
    letters' check, which runs first, and Can(p) by induction, so that the
    product sends the slots of r to those of r + rho_bar(p) + rho_bar(a),
    which is r + rho_bar(t) by the residual check at (p, a), run just
    before.  So Can(t) is known to keep its classes once that comparison
    passes, and it passes before Can(t) is first used as gather indices,
    in t's own iteration; no map is read at a point outside X, and none
    needs a scan of its own.

    These conditions imply the identity for every pair s, t, by induction
    on the length of a word for t = t'.a: Can(s.t'.a) = Can(s.t').Can(a) =
    (Can(s).Can(t')).Can(a) = Can(s).(Can(t').Can(a)) = Can(s).Can(t).  The
    regrouping is sound because on the class-carrying slots the target
    product composes partial maps between classes, which is associative, and
    every element is the image of a word since the letters generate the
    monoid.  Conversely the letter cases are among all pairs, and Can(e) and
    the class-to-class property hold by construction.  Only the
    class-carrying slots k < |N_r| are compared, which the flat maps hold
    alone: no check reads the padding k -> k past |N_r|.

    Each check reads the flat maps as the same check of g_s(r)(k) =
    Can(s)[start_r + k] - start_{r+rho_bar(s)} at point i = start_r + k;
    X lists points by residual, then slot, so the first point at fault
    names the first residual and slot at fault.  With c = r + rho_bar(s),
    f_s(r) keeps its class at slot k iff 0 <= g_s(r)(k) < |N_c|.  Then
    Can(a) after Can(s) sends i to g_a(c)(g_s(r)(k)) + start_{c+rho_bar(a)},
    and Can(s.a) to g_{s.a}(r)(k) + start_{r+rho_bar(s.a)}, the same offset
    once the residual check passes.  Once all pass, g = f.

    The read-back checks Can against its definition at the identity's slot
    e of N_0, point 0: theta_{rho_bar(t)}(f_t(0)(e)) = t for every t, which
    is the definition f_t(0)(e) = theta_{rho_bar(t)}^{-1}(e.t).  It implies
    that Can is injective, since t is read off Can(t): were Can(s) = Can(t)
    for s < t, the read-back at t would find s."""
    sig, m, flat, (start, slot, owner, _) = dec.signature, dec.m, dec.flat, dec._layout
    zero, n = tuple(0 for _ in sig.periods), len(owner)
    if sig.rho_bar[0] != zero:
        raise VerificationFailure(f"canonical embedding: Can(e) is not (identity, 0): "
                                  f"rho_bar(e) = {sig.rho_bar[0]}")
    if flat[0] != tuple(range(n)):
        i = next(i for i, x in enumerate(flat[0]) if x != i)
        raise VerificationFailure(f"canonical embedding: Can(e) is not (identity, 0): "
                                  f"f_e({owner[i]}) sends slot {slot[i]} to "
                                  f"{flat[0][i] - start[owner[i]]}")
    # the letters' maps keep their classes; every other map does once the
    # homomorphism check below has met it at its tree parent
    for s in sorted(set(m.eta.values())):
        for i, x in enumerate(flat[s]):
            target = sig.add(owner[i], sig.rho_bar[s])
            k, size = x - start[target], len(sig.classes[target])
            if not 0 <= k < size:
                where = f"past the {size} of" if k >= 0 else "before the first slot of"
                raise VerificationFailure(
                    f"canonical embedding: f_s(r) leaves its class at s = {s}, "
                    f"r = {owner[i]}: slot {slot[i]} goes to {k}, {where} N_{target}")
    letters = [(a, m.eta[a]) for a in m.alphabet]
    for s, image in enumerate(flat):
        rho_s, after_s = sig.rho_bar[s], gather(image)
        for (a, g), t in zip(letters, m.right[s]):
            if sig.add(rho_s, sig.rho_bar[g]) != sig.rho_bar[t]:
                raise VerificationFailure(
                    f"canonical embedding: residual of s.a at s = {s}, a = {a!r}: "
                    f"rho_bar(s.a) = {sig.rho_bar[t]}, not {sig.add(rho_s, sig.rho_bar[g])}")
            got, want = after_s(flat[g]), flat[t]
            if got != want:
                i = next(i for i, x in enumerate(want) if got[i] != x)
                offset = start[sig.add(owner[i], sig.rho_bar[t])]
                raise VerificationFailure(
                    f"canonical embedding: Can(s.a) != Can(s).Can(a) at s = {s}, "
                    f"a = {a!r}, r = {owner[i]}, slot {slot[i]}: Can(s.a) gives "
                    f"{want[i] - offset}, Can(s).Can(a) gives {got[i] - offset}")
    if 0 not in dec.theta[zero]:
        raise VerificationFailure(f"canonical embedding: the identity 0 is not in N_{zero}")
    # the element where Can(t) sends point 0, which the checks above put in X
    reads = [sig.classes[owner[p]][slot[p]] for p in (image[0] for image in flat)]
    if reads != list(range(m.order)):
        t = next(t for t, x in enumerate(reads) if x != t)
        c = sig.rho_bar[t]
        raise VerificationFailure(
            f"canonical embedding: Can(t) does not read t back at t = {t}: "
            f"f_t({zero}) sends the identity's slot to {flat[t][0] - start[c]}, "
            f"which holds {reads[t]} in N_{c}")
    for a, g in letters:
        want = residual_of_word(a, sig.gammas, sig.periods)
        if sig.rho_bar[g] != want:
            raise VerificationFailure(
                f"canonical embedding: residual condition fails at letter {a!r}: "
                f"rho_bar = {sig.rho_bar[g]}, not {want}")


def _require_full_alphabet(dec: CanonicalDecomposition) -> int:
    if not dec.signature.full_alphabet:
        raise ScopeError("residual monoids need a single period over the full alphabet")
    return dec.signature.periods[0]


def residual_monoid(dec: CanonicalDecomposition, r: int) -> ResidualMonoid:
    """T_r = {f_t(r) : rho_bar(t) = 0}, a monoid under left-to-right
    composition, numbered in ascending order of the least t of each
    element; element 0 is the identity, the image of t = 0.  It keeps the
    slot of each t in N_0 and the decomposition, so it builds no table of
    its own and fills none of M's: see `ResidualMonoid.ideal`."""
    period = _require_full_alphabet(dec)
    if not 0 <= r < period:
        raise ScopeError(f"residual {r} out of range for period {period}")
    index, slot = {}, {}
    for t in dec.signature.classes[(0,)]:
        slot[t] = index.setdefault(dec.f(t, (r,)), len(index))
    return ResidualMonoid(r, tuple(index), slot, dec)


def _prefix_residual(dec: CanonicalDecomposition, w: str) -> int:
    """|w|, after checking that w is a word over the alphabet shorter than
    the period."""
    period = _require_full_alphabet(dec)
    if len(w) >= period:
        raise ScopeError(f"prefix length {len(w)} must be below the period {period}")
    for a in w:
        if a not in dec.m.eta:
            raise UnknownSymbol(f"letter {a!r} not in alphabet")
    return len(w)


def block_images(dec: CanonicalDecomposition, r: int) -> dict:
    """Block string -> f_{eta(b)}(r), for every block b of length P."""
    period = _require_full_alphabet(dec)
    return {b: dec.f(dec.m.image_of_word(b), (r,))
            for b in words_of_length(dec.signature.alphabet, period)}


def lw_accepting(dec: CanonicalDecomposition, image: int,
                 monoid: ResidualMonoid) -> frozenset:
    """Indices of the elements of `monoid` = T_r that accept after a prefix
    w of length r with eta(w) = `image`: tau accepts iff theta_r(tau(k)) is
    in the image of L, with k the position of eta(w) in N_r.  It depends on
    w only through eta(w), so it takes eta(w)."""
    theta = dec.theta[(monoid.r,)]
    position = theta.index(image)
    return frozenset(
        i for i, tau in enumerate(monoid.transformations)
        if theta[tau[position]] in dec.m.accepting_image
    )


def lw_recognizer(dec: CanonicalDecomposition, w: str) -> LwRecognizer:
    """Recognizer for the block language L_w = {u in (Sigma^P)* : wu in L}."""
    r = _prefix_residual(dec, w)
    monoid = residual_monoid(dec, r)
    return LwRecognizer(w, monoid, block_images(dec, r),
                        lw_accepting(dec, dec.m.image_of_word(w), monoid))


def wreath_divisor(dec: CanonicalDecomposition) -> dict:
    """The map phi witnessing that the syntactic monoid, acting on itself,
    divides the wreath product of T_K with the residual group, with
    elements m acting through Can(m): phi(tau, c) = theta_c(tau(e)), with e
    the identity's slot in N_0, returned as a dict x_t -> t over the points
    x_t = (f_t(0), rho_bar(t)).

    `dec` must have passed `verify_canonical` (every decomposition that
    `canonical_decomposition` returns has), whose checks imply both facts
    about phi, so phi is read off and checked nowhere else.  phi(x_t) = t
    is the read-back at t, which makes phi well defined.  The wreath action
    (tau, c) * (g, r) = (tau then g(c), c + r) agrees with right
    multiplication, phi(x_t * Can(a)) = t.a for every letter a: the
    homomorphism check at (t, a), residual 0 and slot e gives
    f_a(rho_bar(t))(f_t(0)(e)) = f_{t.a}(0)(e), inside its class, and the
    residual check gives rho_bar(t.a) = rho_bar(t) + rho_bar(a), so phi
    reads x_t * Can(a) as it reads x_{t.a}, which is t.a by the read-back
    at t.a.  Every other element m = m'.a follows by induction on the
    length of a word for m: phi reads one class-carrying slot, on which
    Can(m'.a) = Can(m').Can(a) and x_t * Can(m') agrees with x_{t.m'}, so
    phi(x_t * Can(m'.a)) = phi(x_{t.m'} * Can(a)) = t.m'.a.
    """
    zero = tuple(0 for _ in dec.signature.periods)
    return {(dec.f(t, zero), dec.rho(t)): t for t in range(dec.m.order)}
