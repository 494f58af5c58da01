"""The analysis pipeline of one regular language, stage by stage.

`Analysis(dfa)` computes each stage on first use and keeps it:

    minimal DFA -> syntactic monoid -> maximum period, signature
    -> canonical decomposition (verified once) -> wreath divisor
    -> residual monoids T_r and block images per r -> recognizers of L_w
    -> limits and zero-one verdicts

so asking for a later stage builds each earlier one exactly once.  The
block language L_w = {u : wu in L} depends on w only through eta(w), since
wu is in L iff eta(w).eta(u) is in eta(L); its verdict is therefore computed
once per distinct eta(w) and shared by every prefix with that image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product

from . import decompose as dc
from . import probability as pr
from .dfa import Dfa, minimize
from .errors import ScopeError
from .monoid import CayleyGraph, SyntacticMonoid, cayley_graph, transition_monoid
from .periods import PeriodSignature, build_signature, max_period


@dataclass(frozen=True, eq=False)
class Analysis:
    """Every stage of the pipeline for one DFA.

    `gammas` (letter subsets) and `periods` (one per subset) choose the
    signature, by default the whole alphabet at its maximum period.  Stages
    are attributes, or methods per r and per prefix, computed on first use.
    """
    dfa: Dfa
    gammas: list | None = None
    periods: list | None = None
    _residual_monoids: dict = field(default_factory=dict, init=False, repr=False)
    _block_images: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def minimal(self) -> Dfa:
        return minimize(self.dfa)

    @cached_property
    def monoid(self) -> SyntacticMonoid:
        return transition_monoid(self.minimal)

    @cached_property
    def cayley(self) -> CayleyGraph:
        return cayley_graph(self.monoid)

    @cached_property
    def max_period(self) -> int:
        """Maximum period with respect to the whole alphabet."""
        return max_period(self.monoid, self.monoid.alphabet)

    @cached_property
    def signature(self) -> PeriodSignature:
        return build_signature(self.monoid, self.gammas or [self.monoid.alphabet],
                               self.periods)

    @cached_property
    def decomposition(self) -> dc.CanonicalDecomposition:
        """Verified on construction; the report is `decomposition.report`."""
        return dc.canonical_decomposition(self.monoid, self.signature)

    @cached_property
    def wreath(self) -> dc.WreathEmbedding:
        return dc.wreath_divisor(self.decomposition)

    @property
    def full_alphabet(self) -> bool:
        """One period over the whole alphabet: the scope of residual monoids
        and recognizers, and of verdicts when that period is the maximum."""
        sig = self.signature
        return sig.n == 1 and sig.gammas[0] == self.monoid.alphabet

    def residual_monoid(self, r: int) -> dc.ResidualMonoid:
        if r not in self._residual_monoids:
            self._residual_monoids[r] = dc.residual_monoid(self.decomposition, r)
        return self._residual_monoids[r]

    def block_images(self, r: int) -> dict:
        if r not in self._block_images:
            self._block_images[r] = dc.block_images(self.decomposition, r)
        return self._block_images[r]

    def recognizer(self, w: str) -> dc.LwRecognizer:
        """`lw_recognizer(decomposition, w)`, sharing T_r and the block
        images with every other prefix of the same length."""
        t_r = self.residual_monoid(len(w))
        return dc.LwRecognizer(w, len(w), t_r, self.block_images(len(w)),
                               dc.lw_accepting(self.decomposition, w, t_r))

    @cached_property
    def limit_vector(self) -> dict:
        """`probability.limit_vector` of the minimal DFA at the maximum
        period, from which every limit and verdict below is read."""
        return pr.limit_vector(self.minimal, self.max_period)

    @cached_property
    def accumulation(self) -> list:
        """Exact limit of mu along each residue class mod the maximum period."""
        return pr.residue_limits(self.minimal, self.max_period, self.limit_vector)

    @cached_property
    def basic_verdict(self) -> pr.BasicZeroOne:
        return pr.basic_verdict(self.monoid, self.max_period, self.accumulation)

    @cached_property
    def residual_verdicts(self) -> tuple:
        """One verdict per prefix w with |w| < P, shortest first and then in
        lexicographic order, each equal to `zero_one_residual` for w."""
        period = self.signature.periods[0]
        if period != self.max_period:
            raise ScopeError("zero-one residual verdicts need the maximum period")
        dec = self.decomposition
        by_image = {}
        rows = []
        for r in range(period):
            t_r = self.residual_monoid(r)
            for letters in product(self.monoid.alphabet, repeat=r):
                w = "".join(letters)
                image = self.monoid.image_of_word(w)
                if image not in by_image:
                    by_image[image] = pr.residual_verdict(
                        w, t_r, dc.lw_accepting(dec, w, t_r),
                        self.limit_vector[self.minimal.run(w)])
                rows.append(replace(by_image[image], w=w))
        return tuple(rows)
