"""Syntactic monoids of regular languages: periods, semidirect-product
decompositions, and exact language probabilities."""

from .dfa import Dfa, block_dfa, load_dfa, minimize
from .decompose import (CanonicalDecomposition, LwRecognizer, ResidualMonoid,
                        WreathEmbedding, canonical_decomposition,
                        lw_member, lw_quotient, lw_recognizer,
                        residual_monoid, syntactic_monoid_of_lw,
                        verify_canonical, wreath_divisor)
from .monoid import (CayleyGraph, FiniteMonoid, SyntacticMonoid,
                     cayley_graph, cayley_to_dot, direct_product, find_zero,
                     function_monoid, hom_generator_check, hom_image_check,
                     is_ideal, make_named, principal_ideal, rees_factor,
                     semidirect_product, transition_monoid)
from .periods import (PeriodSignature, build_signature, max_period,
                      residual_of_word, sink_periods)
from .probability import (MarkovChain, accumulation_points, markov_chain,
                          mu_consistency, mu_exact, mu_series,
                          zero_one_basic, zero_one_residual)
from .pipeline import Analysis
from .regexes import parse_regex, regex_to_dfa
from . import errors, oracle

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Dfa", "block_dfa", "load_dfa", "minimize",
    "CanonicalDecomposition", "LwRecognizer", "ResidualMonoid",
    "WreathEmbedding", "canonical_decomposition", "lw_member", "lw_quotient",
    "lw_recognizer", "residual_monoid", "syntactic_monoid_of_lw",
    "verify_canonical", "wreath_divisor",
    "CayleyGraph", "FiniteMonoid", "SyntacticMonoid", "cayley_graph",
    "cayley_to_dot", "direct_product", "find_zero", "function_monoid",
    "hom_generator_check", "hom_image_check", "is_ideal", "make_named",
    "principal_ideal", "rees_factor", "semidirect_product", "transition_monoid",
    "PeriodSignature", "build_signature", "max_period", "residual_of_word",
    "sink_periods",
    "MarkovChain", "accumulation_points", "markov_chain", "mu_consistency",
    "mu_exact", "mu_series", "zero_one_basic", "zero_one_residual",
    "parse_regex", "regex_to_dfa",
    "errors", "oracle",
]
