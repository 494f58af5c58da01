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
    "dfa": ("Dfa", "block_dfa", "load_dfa", "minimize", "trim"),
    "decompose": (
        "CanonicalDecomposition", "LwRecognizer", "ResidualMonoid",
        "canonical_decomposition", "lw_recognizer", "residual_monoid",
        "verify_canonical", "wreath_divisor"),
    "monoid": (
        "FiniteMonoid", "SyntacticMonoid", "cayley_to_dot", "find_zero",
        "transition_monoid"),
    "periods": ("PeriodSignature", "build_signature", "max_period", "residual_of_word",
                "sink_periods"),
    "probability": ("accumulation_points", "mu_series", "zero_one_basic", "zero_one_residual"),
    "regexes": ("parse_regex", "regex_to_dfa"),
    "theory": (
        "direct_product", "function_monoid", "hom_generator_check", "hom_image_check",
        "is_ideal", "lw_member", "lw_quotient", "make_named", "principal_ideal",
        "rees_factor", "semidirect_product", "syntactic_monoid_of_lw"),
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
