"""Command-line surface: ingestion -> analysis -> text/JSON/DOT reports.

Exit codes: 0 success, 2 input error, 3 internal verification failure
(a failed check of a constructed homomorphism or of a verdict's limit).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import decompose as dc
from . import probability as pr
from .dfa import load_dfa
from .errors import InvalidArgument, SynmonError, VerificationFailure
from .monoid import cayley_to_dot, syntactic_to_json
from .oracle import cycle_gcd, lw_enumerate, mu_enumerate
from .periods import sink_periods
from .pipeline import Analysis
from .regexes import parse_regex, regex_to_dfa, symbols_of


def _load_source(args):
    """DFA from --regex or --dfa (exactly one)."""
    if bool(args.regex) == bool(args.dfa):
        raise SynmonError("need exactly one of --regex or --dfa")
    if args.regex:
        ast = parse_regex(args.regex)
        alphabet = sorted(set(args.alphabet) if args.alphabet else symbols_of(ast))
        return regex_to_dfa(ast, alphabet)
    with open(args.dfa, encoding="utf-8") as handle:
        return load_dfa(handle.read())


def _parse_gammas(args):
    """Letter subsets from --gamma; None (the whole alphabet) without it."""
    if not getattr(args, "gamma", None):
        return None
    return [tuple(sorted(set(g.split(",")) - {""})) for g in args.gamma]


def _parse_periods(args):
    if not getattr(args, "periods", None):
        return None
    return [int(p) for p in args.periods.split(",")]


def _analysis(args) -> Analysis:
    """The analysis of the source the flags name, with their signature."""
    return Analysis(_load_source(args), _parse_gammas(args), _parse_periods(args))


def _signature_json(sig):
    return {
        "gammas": [list(g) for g in sig.gammas],
        "periods": list(sig.periods),
        "classes": {
            "(" + ",".join(map(str, r)) + ")": list(sig.classes[r])
            for r in sig.residuals()
        },
    }


def _sinks_json(sinks):
    return [{"states": [str(q) for q in comp], "period": p} for comp, p in sinks]


def _accumulation_json(points):
    return [{"r": p.r, "num": p.value.numerator, "den": p.value.denominator}
            for p in points]


def _mu_series_json(series):
    return [{"len": i, "num": v.numerator, "den": v.denominator}
            for i, v in enumerate(series)]


def _zero_one_json(basic, residuals):
    return {
        "basic": basic.verdict,
        "residual": [
            {
                "w": v.w,
                "verdict": "zero-one" if v.is_zero_or_one else "mixed",
                "witness": list(v.witness_names) if v.witness_names else [],
                "num": v.mu_lw.numerator,
                "den": v.mu_lw.denominator,
            }
            for v in residuals
        ],
    }


def _residual_zero_one_line(residuals):
    per_r = {}
    for v in residuals:
        per_r.setdefault(v.r, []).append(v)
    parts = []
    for r in sorted(per_r):
        verdicts = per_r[r]
        yes = all(v.is_zero_or_one for v in verdicts)
        if yes:
            names = verdicts[0].witness_names or ()
            parts.append(f"r={r}: yes (witness {{{','.join(names)}}})")
        else:
            parts.append(f"r={r}: no")
    return "; ".join(parts)


def _emit(args, report_json, text_lines):
    if args.json:
        print(json.dumps(report_json, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def cmd_analyze(args) -> int:
    analysis = _analysis(args)
    sm, sig, dec = analysis.monoid, analysis.signature, analysis.decomposition
    wreath = analysis.wreath
    graph = analysis.cayley
    dfa_sinks = sink_periods(analysis.dfa)
    cayley_sinks = sink_periods(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(cayley_to_dot(graph, sm.monoid.names))

    out = {
        "monoid": syntactic_to_json(sm),
        "signature": _signature_json(sig),
        "decomposition": dc.decomposition_to_json(dec, dec.report),
        "wreath": {
            "equivariant": wreath.equivariant,
            "rho_bar_surjective": wreath.rho_bar_surjective,
            "phi_domain_size": len(wreath.phi),
        },
        "sinks": {"dfa": _sinks_json(dfa_sinks), "cayley": _sinks_json(cayley_sinks)},
    }
    lines = [
        f"dfa: {analysis.minimal.n_states} states over {{{','.join(sm.alphabet)}}}",
        f"monoid: order {sm.order}",
    ]
    for gamma, period in zip(sig.gammas, sig.periods):
        lines.append(f"period w.r.t. {{{','.join(gamma)}}}: {period}")
    lines.append(
        f"decomposition: K={dec.K}, G={'x'.join(f'C{p}' for p in sig.periods)}, "
        f"verified={dec.report.ok}"
    )
    lines.append(
        f"wreath divisor: equivariant={wreath.equivariant}, "
        f"G divides monoid={wreath.rho_bar_surjective}"
    )
    for label, sinks in (("dfa", dfa_sinks), ("cayley", cayley_sinks)):
        for comp, period in sinks:
            lines.append(f"sink ({label}): {{{','.join(map(str, comp))}}} period {period}")

    if analysis.full_alphabet and sig.periods[0] == analysis.max_period:
        basic = analysis.basic_verdict
        verdicts = analysis.residual_verdicts
        residual_monoids = [analysis.residual_monoid(r) for r in range(sig.periods[0])]
        series = pr.mu_series(analysis.dfa, args.length)
        out["probability"] = {
            "mu_series": _mu_series_json(series),
            "period": basic.period,
            "accumulation": _accumulation_json(basic.accumulation),
            "sinks": _sinks_json(dfa_sinks),
            "zero_one": _zero_one_json(basic, verdicts),
        }
        out["residual_monoids"] = [
            {"r": t.r, "order": t.order, "elements": [list(x) for x in t.transformations]}
            for t in residual_monoids
        ]
        for t in residual_monoids:
            lines.append(f"residual monoid T_{t.r}: order {t.order}")
        lines.append("accumulation: " + ", ".join(
            f"r={p.r}: {p.value}" for p in basic.accumulation))
        lines.append(f"zero-one: basic: {basic.verdict}; "
                     + _residual_zero_one_line(verdicts))
    _emit(args, out, lines)
    return 0


def cmd_monoid(args) -> int:
    analysis = _analysis(args)
    sm = analysis.monoid
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(cayley_to_dot(analysis.cayley, sm.monoid.names))
    out = syntactic_to_json(sm)
    lines = [f"order {sm.order}"]
    lines += [f"eta({a}) = {sm.eta[a]}" for a in sm.alphabet]
    lines.append(f"accepting image: {sorted(sm.accepting_image)}")
    for i, row in enumerate(sm.monoid.table):
        lines.append(f"{i}: {' '.join(map(str, row))}")
    _emit(args, out, lines)
    return 0


def cmd_period(args) -> int:
    sig = _analysis(args).signature
    out = _signature_json(sig)
    lines = [
        f"gamma {{{','.join(g)}}}: period {p}" for g, p in zip(sig.gammas, sig.periods)
    ]
    for r in sig.residuals():
        lines.append(f"class ({','.join(map(str, r))}): {list(sig.classes[r])}")
    _emit(args, out, lines)
    return 0


def cmd_prob(args) -> int:
    analysis = _analysis(args)
    period = analysis.max_period
    series = pr.mu_series(analysis.dfa, args.length)
    points = pr.accumulation_points(analysis.dfa, period)
    out = {
        "mu_series": _mu_series_json(series),
        "period": period,
        "accumulation": _accumulation_json(points),
        "sinks": _sinks_json(sink_periods(analysis.dfa)),
    }
    lines = [f"{i} {v}" for i, v in enumerate(series)]
    _emit(args, out, lines)
    return 0


def cmd_decompose(args) -> int:
    analysis = _analysis(args)
    dec, sig = analysis.decomposition, analysis.signature
    out = dc.decomposition_to_json(dec, dec.report)
    lines = [
        f"K={dec.K}, G={'x'.join(f'C{p}' for p in sig.periods)}",
        f"homomorphism={dec.report.homomorphism} injective={dec.report.injective} "
        f"residual={dec.report.residual_condition}",
    ]
    _emit(args, out, lines)
    return 0


def cmd_zero_one(args) -> int:
    analysis = _analysis(args)
    basic, verdicts = analysis.basic_verdict, analysis.residual_verdicts
    out = _zero_one_json(basic, verdicts)
    lines = [f"basic: {basic.verdict}; " + _residual_zero_one_line(verdicts)]
    _emit(args, out, lines)
    return 0


def cmd_oracle(args) -> int:
    dfa = _load_source(args)
    if args.oracle_op == "mu":
        value = mu_enumerate(dfa, args.length)
        print(f"{args.length} {value}")
        return 0
    analysis = Analysis(dfa)
    if args.oracle_op == "cycle-gcd":
        for gamma in _parse_gammas(args) or [analysis.monoid.alphabet]:
            print(f"{{{','.join(gamma)}}} {cycle_gcd(analysis.cayley, gamma)}")
        return 0
    if args.oracle_op == "lw":
        words = sorted(lw_enumerate(dfa, args.w, analysis.max_period, args.blocks))
        for u in words:
            print("".join(u) if u else "&")
        return 0
    raise SynmonError(f"unknown oracle operation {args.oracle_op!r}")


def _add_source_flags(sub):
    sub.add_argument("--regex", help="regular expression source")
    sub.add_argument("--dfa", help="path to a DFA JSON document")
    sub.add_argument("--alphabet", help="explicit alphabet for --regex, e.g. 'ab'")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synmon",
        description="Syntactic monoids, periods, decompositions, and "
        "probabilities of regular languages",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="full pipeline")
    period = commands.add_parser("period", help="periods and residual classes")
    monoid = commands.add_parser("monoid", help="syntactic monoid table")
    prob = commands.add_parser("prob", help="exact and limiting probabilities")
    decompose_cmd = commands.add_parser("decompose", help="canonical decomposition")
    zero_one = commands.add_parser("zero-one", help="zero-one verdicts")
    oracle = commands.add_parser("oracle")  # hidden: brute-force reference values

    for sub in (analyze, period, monoid, prob, decompose_cmd, zero_one, oracle):
        _add_source_flags(sub)
    for sub in (analyze, period, decompose_cmd, oracle):
        sub.add_argument("--gamma", action="append",
                         help="letter subset, e.g. 'a,b' (repeatable)")
        sub.add_argument("--periods", help="comma-separated period overrides")
    for sub in (analyze, monoid):
        sub.add_argument("--dot", help="write the Cayley graph as DOT")
    for sub in (analyze, prob, oracle):
        sub.add_argument("--length", type=int, default=8,
                         help="longest exact mu value to report")
    oracle.add_argument("oracle_op", choices=["mu", "cycle-gcd", "lw"])
    oracle.add_argument("--w", default="", help="prefix word for lw")
    oracle.add_argument("--blocks", type=int, default=2, help="max blocks for lw")

    analyze.set_defaults(handler=cmd_analyze)
    period.set_defaults(handler=cmd_period)
    monoid.set_defaults(handler=cmd_monoid)
    prob.set_defaults(handler=cmd_prob)
    decompose_cmd.set_defaults(handler=cmd_decompose)
    zero_one.set_defaults(handler=cmd_zero_one)
    oracle.set_defaults(handler=cmd_oracle)
    return parser


def _check_length(args) -> None:
    if getattr(args, "length", 0) < 0:
        raise InvalidArgument(f"--length must be non-negative, got {args.length}")


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _check_length(args)
            return args.handler(args)
        except VerificationFailure as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return 3
        except (SynmonError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
