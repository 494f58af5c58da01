"""The layers the traced run measures, and what each should move.

TRACED maps each wrapped public stage function `<module>.<function>` of
synmon to the end-to-end metric and workload a change to it should move.
Write this down before a change, and compare after it.
"""

TRACED = {
    "monoid.transition_monoid":
        "ok_per_s on kth_tail (closure kernel); .calls on blocks "
        "(monoid rebuilds, 257 per counter_n8 analyze at seed)",
    "monoid.check_table":
        "ok_per_s on kth_tail (closure kernel); .calls on blocks (rebuilds)",
    "decompose.canonical_decomposition": "ok_per_s on kth_tail; no change on series",
    "decompose.verify_canonical":
        "ok_per_s on kth_tail (2 calls per analyze at seed); no change on series",
    "decompose.wreath_divisor": "ok_per_s on kth_tail; no change on series",
    "probability.zero_one_residual": "ok_per_s on blocks (prefix dedup)",
    "probability.maximum_period_of": "ok_per_s on blocks (prefix dedup)",
    "probability.limit_mu_blocks": "ok_per_s on blocks (prefix dedup)",
    "decompose.lw_recognizer": "ok_per_s on blocks (prefix dedup)",
    "decompose.residual_monoid": "ok_per_s on blocks (prefix dedup)",
    "dfa.block_dfa": "ok_per_s on blocks (prefix dedup)",
    "probability.mu_series":
        "ok_per_s and ok_ratio on series; ok_ratio on kth_tail (exact limits)",
    "probability.accumulation_points":
        "ok_per_s and ok_ratio on series; ok_ratio on kth_tail (exact limits)",
    "probability.zero_one_basic":
        "ok_per_s and ok_ratio on series; ok_ratio on kth_tail (exact limits)",
    "cli.main":
        "ok_per_s on kth_tail (K x K tables) and series (1025 exact fractions); "
        "self time is parsing, report building and JSON",
    "periods.build_signature": "control: no planned change moves it",
    "periods.max_period": "control: no planned change moves it",
    "periods.sink_periods": "control: no planned change moves it",
    "regexes.regex_to_dfa": "control: no planned change moves it",
    "dfa.minimize": "control: no planned change moves it",
}

# size metric -> (traced function, attribute of its return value); a sized
# attribute counts its length.  Each metric is the largest value in the pass.
SIZES = {
    "monoid.order_max": ("monoid.transition_monoid", "order"),
    "decompose.K_max": ("decompose.canonical_decomposition", "K"),
    "decompose.T_r_max": ("decompose.residual_monoid", "order"),
    "dfa.block_symbols_max": ("dfa.block_dfa", "alphabet"),
}

MODULES = ("regexes", "dfa", "monoid", "periods", "decompose", "probability", "cli")


def per_layer_metrics() -> dict:
    """name -> unit of every metric the traced run reports."""
    metrics = {}
    for function in TRACED:
        metrics[f"{function}.self_s"] = "s"
        metrics[f"{function}.calls"] = "count"
    metrics["monoid.transition_monoid.calls_max"] = "count"
    for name in SIZES:
        metrics[name] = "count"
    metrics["probability.prefixes"] = "count"
    for module in MODULES:
        metrics[f"{module}.failures"] = "count"
    metrics["setup.numpy_import_s"] = "s"
    metrics["setup.synmon_import_s"] = "s"
    metrics["trace.overhead_ratio"] = "ratio"
    return metrics
