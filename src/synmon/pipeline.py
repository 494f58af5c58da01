"""The analysis pipeline of one regular language, stage by stage.

`Analysis(dfa)` computes each stage on first use and keeps it:

    minimal DFA -> syntactic monoid -> signature -> maximum period
    -> canonical decomposition (verified once)
    -> residual monoids T_r for every r below the period
    -> limits and zero-one verdicts, one per prefix w shorter than the period

so asking for a later stage builds each earlier one exactly once.  The
block language L_w = {u : wu in L} depends on w only through eta(w), since
wu is in L iff eta(w).eta(u) is in eta(L); its verdict is therefore computed
once per distinct eta(w) and shared by every prefix with that image.

The stages import `decompose` and `probability` when they first run, so a
command loads only the modules of the stages it asks for.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .dfa import Dfa, Frozen, minimize
from .errors import ScopeError, TooLarge
from .monoid import SyntacticMonoid, transition_monoid
from .periods import PeriodSignature, build_signature, max_period

if TYPE_CHECKING:
    from . import decompose as dc
    from . import probability as pr

PREFIX_ROWS = 1 << 20  # the most zero-one rows, one per prefix, that are built


class Analysis(Frozen):
    """Every stage of the pipeline for one DFA, compared by identity.

    `gammas` (letter subsets) and `periods` (one per subset) choose the
    signature, by default the whole alphabet at its maximum period.  Stages
    are cached attributes, each computed on first use; none has a side
    effect, so no value depends on the order in which they are read.
    """
    __slots__ = ("dfa", "gammas", "periods", "__dict__")

    def __init__(self, dfa: Dfa, gammas: list | None = None, periods: list | None = None):
        self._set(dfa, gammas, periods)

    @cached_property
    def minimal(self) -> Dfa:
        return minimize(self.dfa)

    @cached_property
    def monoid(self) -> SyntacticMonoid:
        return transition_monoid(self.minimal)

    @cached_property
    def max_period(self) -> int:
        """Maximum period with respect to the whole alphabet: the
        signature's maximum for it when the signature counts the whole
        alphabet, and a walk of its own otherwise."""
        alphabet = self.monoid.alphabet
        sig = self.signature
        if alphabet in sig.gammas:
            return sig.maxima[sig.gammas.index(alphabet)]
        return max_period(self.monoid, alphabet)

    @cached_property
    def signature(self) -> PeriodSignature:
        return build_signature(self.monoid, self.gammas or [self.monoid.alphabet],
                               self.periods)

    @cached_property
    def decomposition(self) -> dc.CanonicalDecomposition:
        """Verified on construction: a failed check raises VerificationFailure."""
        from . import decompose as dc

        return dc.canonical_decomposition(self.monoid, self.signature)

    @cached_property
    def residual_monoids(self) -> tuple:
        """T_r for every r below the period, indexed by r."""
        from . import decompose as dc

        return tuple(dc.residual_monoid(self.decomposition, r)
                     for r in range(self.signature.periods[0]))

    @cached_property
    def limit_vector(self) -> dict:
        """`probability.limit_vector` of the minimal DFA at the maximum
        period, from which every limit and verdict below is read."""
        from . import probability as pr

        return pr.limit_vector(self.minimal, self.max_period)

    @cached_property
    def accumulation(self) -> list:
        """Exact limit of mu at each residue r mod the maximum period, by r."""
        from . import probability as pr

        return pr.residue_limits(self.minimal, self.max_period, self.limit_vector)

    @cached_property
    def basic_verdict(self) -> pr.BasicZeroOne:
        from . import probability as pr

        return pr.basic_verdict(self.monoid, self.max_period, self.accumulation)

    @cached_property
    def residual_verdicts(self) -> tuple:
        """One verdict per prefix w with |w| < P, shortest first and then in
        lexicographic order, each equal to `zero_one_residual` for w.

        The prefixes are walked level by level, each with eta(w) and the
        state of the minimal DFA that w reaches: w + a takes one Cayley
        edge and one DFA edge from w, so no word is read from the start.
        Appending each letter in order to a lexicographic level gives a
        lexicographic level, so the rows keep their order."""
        from . import decompose as dc
        from . import probability as pr

        sig = self.signature
        if not sig.full_alphabet_at_maximum:
            raise ScopeError("zero-one residual verdicts need the maximum period")
        size, period = len(self.monoid.alphabet), sig.periods[0]
        n_rows = sum(size ** r for r in range(period))
        if n_rows > PREFIX_ROWS:
            raise TooLarge(f"{n_rows} prefix rows of zero-one verdicts (every word shorter "
                           f"than the period {period}) exceed the budget of {PREFIX_ROWS}")
        dec, m, delta = self.decomposition, self.monoid, self.minimal.delta
        by_image, rows, level = {}, [], [("", 0, self.minimal.initial)]
        for t_r in self.residual_monoids:
            if t_r.r:  # level r from level r - 1
                level = [(w + a, m.right[image][g], delta[q, a]) for w, image, q in level
                         for g, a in enumerate(m.alphabet)]
            for w, image, q in level:  # w, eta(w) and the state that w reaches
                if image not in by_image:
                    by_image[image] = pr.residual_verdict(
                        w, t_r, dc.lw_accepting(dec, image, t_r), self.limit_vector[q])
                rows.append(by_image[image]._replace(w=w))
        return tuple(rows)
