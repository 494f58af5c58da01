"""Syntactic monoids of regular languages: periods, semidirect-product
decompositions, and exact language probabilities.

The namespace is lazy (PEP 562): `import synmon` loads no submodule, and
the first access to a name imports the submodule that defines it, so a
command pays only for the modules on its own path.
"""

__version__ = "0.1.0"

# submodule -> the names of __all__ it defines, in the order of __all__
_EXPORTS = {
    "pipeline": ("Analysis",),
    "dfa": ("Dfa", "block_dfa", "load_dfa", "minimize"),
    "decompose": (
        "CanonicalDecomposition", "LwRecognizer", "ResidualMonoid",
        "canonical_decomposition", "lw_member", "lw_quotient", "lw_recognizer",
        "residual_monoid", "syntactic_monoid_of_lw", "verify_canonical",
        "wreath_divisor"),
    "monoid": (
        "FiniteMonoid", "SyntacticMonoid", "cayley_to_dot", "direct_product",
        "find_zero", "function_monoid", "hom_generator_check", "hom_image_check",
        "is_ideal", "make_named", "principal_ideal", "rees_factor",
        "semidirect_product", "transition_monoid"),
    "periods": ("PeriodSignature", "build_signature", "max_period", "residual_of_word",
                "sink_periods"),
    "probability": ("MarkovChain", "accumulation_points", "markov_chain", "mu_exact",
                    "mu_series", "zero_one_basic", "zero_one_residual"),
    "regexes": ("parse_regex", "regex_to_dfa"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["errors", "oracle"]

# name -> the submodule that defines it; a submodule's own name maps to itself
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_OWNER.update((module, module) for module in (*_EXPORTS, "cli", "errors", "oracle"))


def __getattr__(name):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{owner}")
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})
