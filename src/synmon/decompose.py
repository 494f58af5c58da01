"""Canonical semidirect-product decomposition of a syntactic monoid.

Every element t is mapped to Can(t) = (f_t, rho_bar(t)) where f_t assigns
to each residual r a transformation of degree K = max_r |N_r|:

    f_t(r)(k) = theta_{r+rho_bar(t)}^{-1}( theta_r(k) . t )   for k < |N_r|
    f_t(r)(k) = k                                             otherwise

with theta_r the ascending enumeration of the class N_r.  Products follow
(f, r).(g, r') = (f . (r (*) g), r + r') with (r (*) g)(c) = g(c + r) and
pointwise left-to-right composition in the first component.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .dfa import words_of_length
from .errors import ScopeError, UnknownSymbol, VerificationFailure
from .monoid import FiniteMonoid, SyntacticMonoid, gather
from .periods import PeriodSignature, residual_of_word


class CanonicalDecomposition(NamedTuple):
    m: SyntacticMonoid
    signature: PeriodSignature
    can_f: tuple   # element t -> {residual: transformation tuple of degree K}

    @property
    def theta(self) -> dict:
        """Residual -> ascending tuple of element indices (N_r): the
        signature's classes."""
        return self.signature.classes

    @property
    def K(self) -> int:
        """The degree of T_K: the size of the largest class."""
        return max(map(len, self.signature.classes.values()))

    @property
    def residuals(self):
        return self.signature.residuals()

    def rho(self, t: int):
        return self.signature.rho_bar[t]


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
    residuals, theta = sig.residuals(), sig.classes
    big_k = max(map(len, theta.values()))
    # f_t(r) is theta_{r+rho_bar(t)}^{-1} after column t of the table
    # restricted to N_r, padded.  theta^{-1} is dense: an element outside the
    # class reads `m.order`, a slot that verify_canonical rejects.
    inverse, columns = {}, {}
    for r in residuals:
        inverse[r] = [m.order] * m.order
        for k, x in enumerate(theta[r]):
            inverse[r][x] = k
        # the rows of N_r transposed lazily, one column t at a time; an
        # empty class has an empty column at every t
        columns[r] = zip(*gather(theta[r])(m.monoid.table)) if theta[r] else repeat(())
    padding = {r: tuple(range(len(theta[r]), big_k)) for r in residuals}
    can_f = []
    for t in range(m.order):
        shift, f = sig.rho_bar[t], {}
        for r in residuals:
            column = next(columns[r])
            if len(theta[r]) == m.order:
                # N_r is M, so theta_r and rho_bar are trivial: f_t(r) is
                # column t itself
                f[r] = column
            else:
                f[r] = gather(column)(inverse[sig.add(r, shift)]) + padding[r]
        can_f.append(f)
    dec = CanonicalDecomposition(m, sig, tuple(can_f))
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
    the class-to-class property hold by construction.

    The read-back checks Can against its definition at the identity's slot
    e of N_0: theta_{rho_bar(t)}(f_t(0)(e)) = t for every t, which is the
    definition f_t(0)(e) = theta_{rho_bar(t)}^{-1}(e.t).  It implies that
    Can is injective, since t is read off Can(t): were Can(s) = Can(t) for
    s < t, the read-back at t would find s.

    Only the class-carrying slots k < |N_r| of every residual r are
    compared; those slots determine the embedding (the identity pins the
    image of each class, and the read-back reads slot e of N_0).  The inert
    k -> k padding above |N_r| is a fixed convention, not part of the class
    action, and is excluded: composing across residuals whose classes
    differ in size drags padding slots of one class through class-carrying
    slots of another, so raw equality of the padded transformations is
    unattainable in general.
    """
    sig = dec.signature
    m = dec.m
    _homomorphic_on_generators(dec)
    zero, theta = tuple(0 for _ in sig.periods), dec.theta
    # N_0 is ascending, so the identity, element 0, has slot 0 in it
    if 0 not in theta[zero]:
        raise VerificationFailure(f"canonical embedding: the identity 0 is not in N_{zero}")
    for t, f_t in enumerate(dec.can_f):
        c = sig.rho_bar[t]
        k, n_c = f_t[zero][0], theta[c]
        if not (0 <= k < len(n_c) and n_c[k] == t):
            there = (f"which holds {n_c[k]} in" if 0 <= k < len(n_c)
                     else f"past the {len(n_c)} of")
            raise VerificationFailure(
                f"canonical embedding: Can(t) does not read t back at t = {t}: "
                f"f_t({zero}) sends the identity's slot to {k}, {there} N_{c}")
    for a in m.alphabet:
        want = residual_of_word(a, sig.gammas, sig.periods)
        if sig.rho_bar[m.eta[a]] != want:
            raise VerificationFailure(
                f"canonical embedding: residual condition fails at letter {a!r}: "
                f"rho_bar = {sig.rho_bar[m.eta[a]]}, not {want}")


def _homomorphic_on_generators(dec: CanonicalDecomposition) -> None:
    sig = dec.signature
    m = dec.m
    table = m.monoid.table
    sizes = {r: len(dec.theta[r]) for r in dec.residuals}
    if sig.rho_bar[0] != tuple(0 for _ in sig.periods):
        raise VerificationFailure(f"canonical embedding: Can(e) is not (identity, 0): "
                                  f"rho_bar(e) = {sig.rho_bar[0]}")
    for r in dec.residuals:
        f_e = dec.can_f[0][r]
        k = next((k for k in range(sizes[r]) if f_e[k] != k), None)
        if k is not None:
            raise VerificationFailure(f"canonical embedding: Can(e) is not (identity, 0): "
                                      f"f_e({r}) sends slot {k} to {f_e[k]}")
    letters = [(a, m.eta[a]) for a in m.alphabet]
    for s in range(m.order):
        rho_s = sig.rho_bar[s]
        f_s = dec.can_f[s]
        moves = []  # (r, f -> f_s(r) then f on the slots of N_r, r + rho_bar(s))
        for r in dec.residuals:
            image, target = f_s[r][:sizes[r]], sig.add(r, rho_s)
            if max(image, default=-1) >= sizes[target]:
                k = next(k for k, x in enumerate(image) if x >= sizes[target])
                raise VerificationFailure(
                    f"canonical embedding: f_s(r) leaves its class at s = {s}, r = {r}: "
                    f"slot {k} goes to {image[k]}, past the {sizes[target]} of N_{target}")
            moves.append((r, gather(image), target))
        for a, g in letters:
            t = table[s][g]
            if sig.add(rho_s, sig.rho_bar[g]) != sig.rho_bar[t]:
                raise VerificationFailure(
                    f"canonical embedding: residual of s.a at s = {s}, a = {a!r}: "
                    f"rho_bar(s.a) = {sig.rho_bar[t]}, not {sig.add(rho_s, sig.rho_bar[g])}")
            f_g, f_t = dec.can_f[g], dec.can_f[t]
            for r, after_s, target in moves:
                got, want = after_s(f_g[target]), f_t[r][:sizes[r]]
                if got != want:
                    k = next(k for k in range(sizes[r]) if got[k] != want[k])
                    raise VerificationFailure(
                        f"canonical embedding: Can(s.a) != Can(s).Can(a) at s = {s}, "
                        f"a = {a!r}, r = {r}, slot {k}: Can(s.a) gives {want[k]}, "
                        f"Can(s).Can(a) gives {got[k]}")


def _require_full_alphabet(dec: CanonicalDecomposition) -> int:
    if not dec.signature.full_alphabet:
        raise ScopeError("residual monoids need a single period over the full alphabet")
    return dec.signature.periods[0]


def residual_monoid(dec: CanonicalDecomposition, r: int) -> ResidualMonoid:
    """T_r = {f_t(r) : rho_bar(t) = 0}, a monoid under left-to-right
    composition, numbered in ascending order of t; element 0 is the
    identity.  For t, s in N_0, f_{t.s}(r) = f_t(r) then f_s(r), so the
    table is M's table at one representative t per element.  When every t
    is its own representative (N_0 = M with t -> f_t(r) injective, as at
    period 1) that is M's table itself, and T_r shares M's checked monoid."""
    period = _require_full_alphabet(dec)
    if not 0 <= r < period:
        raise ScopeError(f"residual {r} out of range for period {period}")
    zero = tuple(0 for _ in dec.signature.periods)
    index, representatives = {}, []
    # slot: t in N_0 -> index of f_t(r); -1 outside N_0, which check_table rejects
    slot = [-1] * dec.m.order
    for t in dec.signature.classes[zero]:
        tau = dec.can_f[t][(r,)]
        if tau not in index:
            index[tau] = len(representatives)
            representatives.append(t)
        slot[t] = index[tau]
    monoid = dec.m.monoid
    if len(representatives) < dec.m.order:
        # row i of T_r is row x of M read at the representatives y, then slotted
        pick = gather(representatives)
        monoid = FiniteMonoid(tuple(gather(pick(row))(slot) for row in pick(monoid.table)))
    return ResidualMonoid(r, tuple(index), monoid)


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
    return {
        b: dec.can_f[dec.m.image_of_word(b)][(r,)]
        for b in words_of_length(dec.signature.alphabet, period)
    }


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
    return {(f_t[zero], dec.rho(t)): t for t, f_t in enumerate(dec.can_f)}


def decomposition_to_json(dec: CanonicalDecomposition) -> dict:
    """The decomposition as a JSON-ready dict; the classes and the
    transformations f_t(r) are shared, not copied (tuples encode as JSON
    arrays)."""
    def rkey(r):
        return ",".join(map(str, r))

    return {
        "K": dec.K,
        "G": list(dec.signature.periods),
        "theta": {rkey(r): dec.theta[r] for r in dec.residuals},
        "can": {
            str(t): {
                "f": {rkey(r): dec.can_f[t][r] for r in dec.residuals},
                "r": list(dec.rho(t)),
            }
            for t in range(dec.m.order)
        },
        # a decomposition exists only once verify_canonical has passed
        "verified": True,
    }
