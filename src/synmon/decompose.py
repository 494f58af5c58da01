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
Can(s) then Can(t).  At period 1, Can(t) is column t of M's table, the
right regular representation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .dfa import words_of_length
from .errors import ScopeError, UnknownSymbol, VerificationFailure
from .monoid import FiniteMonoid, SyntacticMonoid, gather
from .periods import PeriodSignature, residual_of_word


class _Can(NamedTuple):
    m: SyntacticMonoid
    signature: PeriodSignature
    flat: tuple   # element t -> Can(t) as a map of the points X, a tuple


class CanonicalDecomposition(_Can):
    """A named tuple that keeps what is read off it: the layout of X, each
    f_t(r) and each table of a residual monoid, built on first use."""

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

    @cached_property
    def _tables(self) -> dict:
        """Slot list -> T_r's table, shared by every T_r of that list; the
        list that numbers M in order reads M's own table."""
        return {tuple(range(self.m.order)): self.m.monoid}

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
    r: int
    transformations: tuple  # element index -> transformation tuple
    monoid: FiniteMonoid

    @property
    def order(self) -> int:
        return self.monoid.order

    def name_of(self, i: int) -> str:
        """"e" for the identity, else the transformation as "(k0,k1,...)"."""
        if i == self.monoid.identity:
            return "e"
        return "(" + ",".join(map(str, self.transformations[i])) + ")"


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
    """Build Can and verify it is an injective homomorphism before returning
    (`verify_canonical` raises VerificationFailure otherwise)."""
    points = tuple(chain.from_iterable(map(sig.classes.__getitem__, sig.residuals())))
    table = m.monoid.table
    if points == tuple(range(m.order)):
        flat = tuple(zip(*table))
    else:
        # column t at the points, then the point of each element it holds
        point = sorted(range(m.order), key=points.__getitem__)
        flat = tuple(gather(column)(point) for column in zip(*gather(points)(table)))
    dec = CanonicalDecomposition(m, sig, flat)
    verify_canonical(dec)
    return dec


def verify_canonical(dec: CanonicalDecomposition) -> None:
    """Raise VerificationFailure unless Can is a homomorphism (checked on
    generators), reads every element back by its definition, and meets the
    letter residual condition, in that order; the message names the
    failing check and its witness.

    The homomorphism identity Can(s.a) = Can(s).Can(a) is checked for every
    element s and every letter a, together with Can(e) = (identity, 0) and
    the requirement that each f_s(r) maps the class-carrying slots of r into
    those of r + rho_bar(s).  That is equivalent to checking all pairs.
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
    0 <= g_s(r)(k) < |N_c| iff Can(s)[i] is in X with c's coordinates, one
    gather per coordinate.  Then Can(a) after Can(s) sends i to
    g_a(c)(g_s(r)(k)) + start_{c+rho_bar(a)}, and Can(s.a) to
    g_{s.a}(r)(k) + start_{r+rho_bar(s.a)}, the same offset once the
    residual check passes.  Once all pass, g = f.

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
    # (coordinate j of each point's class, its gather, 0..P_j-1 twice so that
    # a slice at v adds v mod P_j) for every coordinate that moves
    coordinates = [(c, gather(c), tuple(range(p)) * 2, p)
                   for c, p in zip(zip(*owner), sig.periods) if p > 1]
    letters = [(a, m.eta[a]) for a in m.alphabet]
    # a negative point indexes from the end: only the letters' maps are read
    # for one, as the homomorphism check draws every other map from theirs
    for s, image in enumerate(flat):
        rho_s, after_s = sig.rho_bar[s], gather(image)
        if max(image) >= n or (s in m.eta.values() and min(image) < 0) or any(
                after_s(c) != shifted(cycle[v:v + p])
                for (c, shifted, cycle, p), v in zip(coordinates, rho_s)):
            for i, x in enumerate(image):
                target = sig.add(owner[i], rho_s)
                k, size = x - start[target], len(sig.classes[target])
                if not 0 <= k < size:
                    where = f"past the {size} of" if k >= 0 else "before the first slot of"
                    raise VerificationFailure(
                        f"canonical embedding: f_s(r) leaves its class at s = {s}, "
                        f"r = {owner[i]}: slot {slot[i]} goes to {k}, {where} N_{target}")
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
    composition, numbered in ascending order of t; element 0 is the
    identity.  For t, s in N_0, f_{t.s}(r) = f_t(r) then f_s(r), so the
    table is M's table at one representative t per element.

    The slot list (t in N_0 -> the element holding f_t(r)) fixes the
    table: the representatives are the least t of each element, and entry
    (i, j) is the slot of their product.  So the decomposition keeps one
    table per list.  Every T_r injective on N_0, whose list numbers N_0 in
    order, shares T_0's; where that list numbers all of M (N_0 = M, as at
    period 1), every t is its own representative, and T_r shares M's
    checked monoid."""
    period = _require_full_alphabet(dec)
    if not 0 <= r < period:
        raise ScopeError(f"residual {r} out of range for period {period}")
    zero = tuple(0 for _ in dec.signature.periods)
    index, representatives = {}, []
    # slot: t in N_0 -> index of f_t(r); -1 outside N_0, which check_table rejects
    slot = [-1] * dec.m.order
    for t in dec.signature.classes[zero]:
        tau = dec.f(t, (r,))
        if tau not in index:
            index[tau] = len(representatives)
            representatives.append(t)
        slot[t] = index[tau]
    slot, tables = tuple(slot), dec._tables
    if slot not in tables:
        pick = gather(representatives)  # row x of M at the representatives, slotted
        tables[slot] = FiniteMonoid(tuple(gather(pick(x))(slot) for x in pick(dec.m.monoid.table)))
    return ResidualMonoid(r, tuple(index), tables[slot])


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


def lw_accepting(dec: CanonicalDecomposition, w: str,
                 monoid: ResidualMonoid) -> frozenset:
    """Indices of the elements of `monoid` = T_{|w|} that accept after the
    prefix w: tau accepts iff theta_r(tau(k)) is in the image of L, with k
    the position of eta(w) in N_r.  Depends on w only through eta(w)."""
    r = _prefix_residual(dec, w)
    theta = dec.theta[(r,)]
    position = theta.index(dec.m.image_of_word(w))
    return frozenset(
        i for i, tau in enumerate(monoid.transformations)
        if theta[tau[position]] in dec.m.accepting_image
    )


def lw_recognizer(dec: CanonicalDecomposition, w: str) -> LwRecognizer:
    """Recognizer for the block language L_w = {u in (Sigma^P)* : wu in L}."""
    r = _prefix_residual(dec, w)
    monoid = residual_monoid(dec, r)
    return LwRecognizer(w, monoid, block_images(dec, r), lw_accepting(dec, w, monoid))


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


def decomposition_to_json(dec: CanonicalDecomposition) -> dict:
    """The decomposition as a JSON-ready dict; the classes and the
    transformations f_t(r) are shared, not copied (tuples encode as arrays)."""
    key = {r: ",".join(map(str, r)) for r in dec.residuals}  # in residual order
    return {
        "K": dec.K,
        "G": list(dec.signature.periods),
        "theta": {key[r]: dec.theta[r] for r in key},
        "can": {
            str(t): {"f": {key[r]: dec.f(t, r) for r in key}, "r": list(dec.rho(t))}
            for t in range(dec.m.order)
        },
        # a decomposition exists only once verify_canonical has passed
        "verified": True,
    }
