"""Command-line surface: ingestion -> analysis -> text/JSON/DOT reports.

Exit codes: 0 success, 2 input error, 3 internal verification failure: a
check of a constructed object failed (`verification failure: <stage>: ...`).

Every JSON report is built here, by one builder per verb, and `analyze`'s
report is theirs composed.  Each verb hands `_emit` two builders, unbuilt:
one for its JSON report and one for its text lines, with the monoid whose
Cayley graph `--dot` draws.  Each builder computes only what its output
prints, so a value that one output alone prints is computed inside that
builder; a value both print may be computed before.  `_emit` alone reads
`--json` and `--dot`: it calls exactly one builder, writes the DOT file
only after that, and prints last, so that a failed run prints nothing and
writes no DOT file.

Each command imports `regexes`, `probability` and `oracle` only when it
uses them, as `Analysis` does `decompose`, so that it pays at start-up only
for the modules on its path.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import chain
from math import prod
from operator import itemgetter

from .dfa import load_dfa, trim
from .errors import FormatError, InvalidArgument, SynmonError, TooLarge, VerificationFailure
from .monoid import cayley_to_dot
from .periods import sink_periods
from .pipeline import Analysis

REPORT_ROWS = 1 << 20  # the most rows f_t(r), one per element and residual, that a report lists


def _load_source(args):
    """DFA from --regex or --dfa (exactly one; --alphabet only with --regex);
    a DFA file's unreachable states are dropped with a warning."""
    if bool(args.regex) == bool(args.dfa):
        raise SynmonError("need exactly one of --regex or --dfa")
    if args.dfa and args.alphabet is not None:
        raise InvalidArgument("--alphabet applies to --regex only; a DFA file declares its own")
    if args.regex:
        from .regexes import LETTERS, parse_regex, regex_to_dfa, symbols_of

        for a in args.alphabet or "":
            if a not in LETTERS:
                raise InvalidArgument(f"--alphabet symbol {a!r} is not a letter [a-z0-9]")
        ast = parse_regex(args.regex)
        alphabet = sorted(set(args.alphabet) if args.alphabet else symbols_of(ast))
        return regex_to_dfa(ast, alphabet)
    with open(args.dfa, encoding="utf-8") as handle:
        try:
            document = handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{args.dfa} is not UTF-8: {exc}") from None
    declared = load_dfa(document)
    dfa = trim(declared)
    if dfa.n_states < declared.n_states:
        dropped = sorted(set(declared.states) - set(dfa.states))
        print(f"warning: removed unreachable states: {dropped}", file=sys.stderr)
    return dfa


def _parse_gammas(args):
    """Letter subsets from --gamma; None (the whole alphabet) without it."""
    if not getattr(args, "gamma", None):
        return None
    return [tuple(sorted(set(g.split(",")) - {""})) for g in args.gamma]


def _parse_periods(args):
    if not getattr(args, "periods", None):
        return None
    try:
        return [int(p) for p in args.periods.split(",")]
    except ValueError:
        raise InvalidArgument(
            f"--periods must be comma-separated integers, got {args.periods!r}") from None


def _analysis(args) -> Analysis:
    """The analysis of the source the flags name, with their signature."""
    return Analysis(_load_source(args), _parse_gammas(args), _parse_periods(args))


def _signature(analysis):
    """The signature stage, after the notice that every period 1 is degenerate."""
    sig = analysis.signature
    if all(p == 1 for p in sig.periods):
        print("warning: all periods are 1; the decomposition is degenerate", file=sys.stderr)
    return sig


def _monoid_json(sm):
    """`monoid`'s report; the table is shared, not copied (tuples encode
    as JSON arrays)."""
    return {
        "order": sm.order,
        "identity": sm.monoid.identity,
        "table": sm.monoid.table,
        "generators": {a: sm.eta[a] for a in sorted(sm.eta)},
        "accepting_image": sorted(sm.accepting_image),
    }


def _signature_json(sig):
    return {
        "gammas": [list(g) for g in sig.gammas],
        "periods": list(sig.periods),
        "classes": {
            "(" + ",".join(map(str, r)) + ")": list(sig.classes[r])
            for r in sig.residuals()
        },
    }


def _check_report_rows(order, periods):
    """Raise TooLarge when a decomposition report would list more than
    REPORT_ROWS rows f_t(r): one per element of a monoid of `order` and
    residual of `periods`, |M| x P1 x ... x Pn in all.  It reads only the
    signature, so a JSON builder calls it before any stage it would list."""
    residuals = prod(periods)
    if order * residuals > REPORT_ROWS:
        raise TooLarge(f"{order * residuals} rows f_t(r) of the decomposition report "
                       f"({order} elements times {residuals} residuals) exceed the "
                       f"budget of {REPORT_ROWS}")


def _decomposition_json(dec):
    """`decompose`'s report; the classes and the transformations f_t(r) are
    shared, not copied (tuples encode as arrays).  Its callers bound its
    rows with `_check_report_rows` first."""
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


def _sinks_json(sinks):
    return [{"states": [str(q) for q in comp], "period": p} for comp, p in sinks]


def _prob_json(series, period, limits, sinks):
    """`prob`'s report: mu(l) for each length l, the maximum period, the
    limit at each residue and the DFA's sink periods."""
    return {
        "mu_series": [{"len": i, "num": v.numerator, "den": v.denominator}
                      for i, v in enumerate(series)],
        "period": period,
        "accumulation": [{"r": r, "num": v.numerator, "den": v.denominator}
                         for r, v in enumerate(limits)],
        "sinks": _sinks_json(sinks),
    }


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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_CONTAINERS = (dict, list, tuple)
_SEQUENCES = (list, tuple)
_SLICE_ITEMS = 1 << 16  # about this many row items are encoded at once
_WRITE_CHARS = 1 << 16  # stdout is written about this many characters at a time


def _row_encoder(counts):
    """A function that returns `_ENCODER.encode(row)` for the rows of one
    report, at C speed for the n^2 arrays.

    A list or tuple of two or more exact non-negative ints (not bools) is
    joined from a table of decimals when every entry is below L, the length
    of the longest such row so far; any other row goes to the encoder.
    The text of a row whose id `counts` counts more than once (the same
    object, as the decomposition's row f_t(r) is also an element of T_r
    when t is the element's least t) is kept for its next use.  Object ids
    are unique only among live objects, so the function must not outlive
    the report.
    """
    decimals = ()
    memo = dict.fromkeys(key for key, count in counts.items() if count > 1)

    def encode(row):
        nonlocal decimals
        text = memo.get(id(row))
        if text is not None:
            return text
        if (not isinstance(row, _SEQUENCES) or len(row) < 2
                or set(map(type, row)) != {int} or min(row) < 0):
            return _ENCODER.encode(row)
        if len(row) > len(decimals):
            decimals = tuple(map(str, range(len(row))))
        try:
            text = "[" + ",".join(itemgetter(*row)(decimals)) + "]"
        except IndexError:  # an entry is not below len(decimals)
            return _ENCODER.encode(row)
        if id(row) in memo:
            memo[id(row)] = text
        return text

    return encode


def _dict_row_width(first):
    """The number of scalars in `first`, the first item of a list, when it
    is a dict whose values are scalars or lists and tuples of scalars, so
    that the list is encoded a slice of rows at a time; None otherwise."""
    if not isinstance(first, dict):
        return None
    width = 0
    for v in first.values():
        if isinstance(v, dict) or (isinstance(v, _SEQUENCES)
                                   and any(isinstance(x, _CONTAINERS) for x in v)):
            return None
        width += len(v) if isinstance(v, _SEQUENCES) else 1
    return width


def _json_pieces(value):
    """Yield the plan of `_ENCODER.encode(value)` for a JSON report with
    string keys: pieces of its text (str), and the lists and tuples of
    scalars themselves, for a row encoder (`_row_encoder`) to encode.  No
    piece holds more than a bounded part of a large value.

    A dict with a container among its values is walked key by key, in
    sorted order.  A list or tuple whose first item is a dict row
    (`_dict_row_width`) is encoded a slice of rows at a time; one whose
    first item is any other container is walked item by item.  Any other
    list or tuple is handed on as itself, and everything else is encoded
    whole.  Only the first item of a list is looked at, which is enough for
    the uniform rows of a report.
    """
    if isinstance(value, dict):
        if any(isinstance(v, _CONTAINERS) for v in value.values()):
            yield "{"
            for i, key in enumerate(sorted(value)):
                yield ("," if i else "") + _ENCODER.encode(key) + ":"
                yield from _json_pieces(value[key])
            yield "}"
            return
    elif isinstance(value, _SEQUENCES) and value and isinstance(value[0], _CONTAINERS):
        width = _dict_row_width(value[0])
        yield "["
        if width is None:
            for i, item in enumerate(value):
                if i:
                    yield ","
                yield from _json_pieces(item)
        else:
            step = max(1, _SLICE_ITEMS // max(1, width))
            for start in range(0, len(value), step):
                text = _ENCODER.encode(value[start:start + step])[1:-1]
                yield ("," if start else "") + text
        yield "]"
        return
    elif isinstance(value, _SEQUENCES):
        yield value
        return
    yield _ENCODER.encode(value)


def _batched(pieces):
    """The pieces joined into strings of `_WRITE_CHARS` characters or more, but for
    the last, so that a write-through stdout (`python -u`) gets one write each."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            yield "".join(batch)
            batch, size = [], 0
    if batch:
        yield "".join(batch)


def _emit(args, report, text, graph=None):
    """Call one of a verb's two builders, write its DOT file and print, in that order.

    Under --json `report()` builds the report, printed as compact JSON with
    sorted keys (the bytes of `json.dumps(report(), sort_keys=True,
    separators=(",", ":"))`, written as they are encoded); without it
    `text()` returns the text lines, which may be a lazy iterable.  Either
    builder computes every value that can fail or refuse before it returns.
    With --dot the Cayley graph of `graph` is written after the builder and
    before stdout, so that a failure leaves stdout empty and no DOT file
    behind."""
    if args.json:
        plan = list(_json_pieces(report()))  # holds every row: their ids stay unique
        row = _row_encoder(Counter(id(p) for p in plan if not isinstance(p, str)))
        pieces = chain((p if isinstance(p, str) else row(p) for p in plan), ("\n",))
    else:
        pieces = (line + "\n" for line in text())
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(cayley_to_dot(graph))
    sys.stdout.writelines(_batched(pieces))


def cmd_analyze(args) -> int:
    analysis = _analysis(args)
    sm, sig = analysis.monoid, _signature(analysis)
    dfa_sinks, cayley_sinks = sink_periods(analysis.dfa), sink_periods(sm)
    probability = sig.full_alphabet_at_maximum

    def report():
        from .probability import mu_series

        _check_report_rows(sm.order, sig.periods)
        dec = analysis.decomposition
        if probability:
            _check_digits(analysis.dfa.alphabet, args.length)
            series = mu_series(analysis.dfa, args.length)
            basic, verdicts = analysis.basic_verdict, analysis.residual_verdicts
        decomposition = _decomposition_json(dec)
        out = {
            "monoid": _monoid_json(sm),
            "signature": _signature_json(sig),
            "decomposition": decomposition,
            "wreath": {
                "equivariant": True,  # verify_canonical passed, which implies it
                "rho_bar_surjective": sig.surjective,
                "phi_domain_size": sm.order,  # the read-back makes Can injective
            },
            "sinks": {"dfa": _sinks_json(dfa_sinks), "cayley": _sinks_json(cayley_sinks)},
        }
        if probability:
            out["probability"] = {
                **_prob_json(series, basic.period, basic.accumulation, dfa_sinks),
                "zero_one": _zero_one_json(basic, verdicts),
            }
            # each element is the decomposition's row f_t(r) at its least t, the
            # same object, so that `_row_encoder` encodes it once
            can = decomposition["can"]
            out["residual_monoids"] = [
                {"r": t.r, "order": t.order,
                 "elements": [can[str(s)]["f"][str(t.r)] for s in t.least]}
                for t in analysis.residual_monoids
            ]
        return out

    def text():
        dec = analysis.decomposition
        lines = [f"dfa: {analysis.minimal.n_states} states over {{{','.join(sm.alphabet)}}}",
                 f"monoid: order {sm.order}"]
        for gamma, period in zip(sig.gammas, sig.periods):
            lines.append(f"period w.r.t. {{{','.join(gamma)}}}: {period}")
        # the decomposition exists only once verified, and its checks imply the divisor's
        lines.append(f"decomposition: K={dec.K}, G={'x'.join(f'C{p}' for p in sig.periods)}, "
                     "verified=True")
        lines.append(f"wreath divisor: equivariant=True, G divides monoid={sig.surjective}")
        for label, sinks in (("dfa", dfa_sinks), ("cayley", cayley_sinks)):
            for comp, period in sinks:
                lines.append(f"sink ({label}): {{{','.join(map(str, comp))}}} period {period}")
        if probability:
            basic, verdicts = analysis.basic_verdict, analysis.residual_verdicts
            lines.extend(f"residual monoid T_{t.r}: order {t.order}"
                         for t in analysis.residual_monoids)
            lines.append("accumulation: " + ", ".join(
                f"r={r}: {v}" for r, v in enumerate(basic.accumulation)))
            lines.append(f"zero-one: basic: {basic.verdict}; "
                         + _residual_zero_one_line(verdicts))
        return lines

    _emit(args, report, text, sm)
    return 0


def cmd_monoid(args) -> int:
    sm = _analysis(args).monoid
    table = sm.monoid.table  # filled and checked before anything is written
    lines = chain((f"order {sm.order}",), (f"eta({a}) = {sm.eta[a]}" for a in sm.alphabet),
                  (f"accepting image: {sorted(sm.accepting_image)}",),
                  (f"{i}: {' '.join(map(str, row))}" for i, row in enumerate(table)))
    _emit(args, lambda: _monoid_json(sm), lambda: lines, sm)
    return 0


def cmd_period(args) -> int:
    sig = _signature(_analysis(args))
    lines = chain((f"gamma {{{','.join(g)}}}: period {p}"
                   for g, p in zip(sig.gammas, sig.periods)),
                  (f"class ({','.join(map(str, r))}): {list(sig.classes[r])}"
                   for r in sig.residuals()))
    _emit(args, lambda: _signature_json(sig), lambda: lines)
    return 0


def cmd_prob(args) -> int:
    from .probability import accumulation_points, mu_series

    analysis = _analysis(args)
    _check_digits(analysis.dfa.alphabet, args.length)
    series = mu_series(analysis.dfa, args.length)
    _emit(args, lambda: _prob_json(series, analysis.max_period,
                                   accumulation_points(analysis.dfa),
                                   sink_periods(analysis.dfa)),
          lambda: (f"{i} {v}" for i, v in enumerate(series)))
    return 0


def cmd_decompose(args) -> int:
    analysis = _analysis(args)
    sig = _signature(analysis)

    def report():
        _check_report_rows(analysis.monoid.order, sig.periods)
        return _decomposition_json(analysis.decomposition)

    def text():
        dec = analysis.decomposition
        # a decomposition exists only once every check has passed
        return [f"K={dec.K}, G={'x'.join(f'C{p}' for p in sig.periods)}",
                "homomorphism=True injective=True residual=True"]

    _emit(args, report, text)
    return 0


def cmd_zero_one(args) -> int:
    analysis = _analysis(args)
    _signature(analysis)
    verdicts = analysis.residual_verdicts
    basic = analysis.basic_verdict
    lines = [f"basic: {basic.verdict}; " + _residual_zero_one_line(verdicts)]
    _emit(args, lambda: _zero_one_json(basic, verdicts), lambda: lines)
    return 0


def cmd_oracle(args) -> int:
    from .oracle import cycle_gcd, lw_enumerate, mu_enumerate

    dfa = _load_source(args)
    if args.oracle_op == "mu":
        value = mu_enumerate(dfa, args.length)
        print(f"{args.length} {value}")
        return 0
    analysis = Analysis(dfa)
    if args.oracle_op == "cycle-gcd":
        gammas = _parse_gammas(args) or [analysis.monoid.alphabet]
        for gamma in gammas:
            if not gamma or not set(gamma) <= set(dfa.alphabet):
                raise InvalidArgument(
                    f"gamma {list(gamma)} is not a non-empty subset of the alphabet")
        for gamma in gammas:
            print(f"{{{','.join(gamma)}}} {cycle_gcd(analysis.monoid, gamma)}")
        return 0
    if args.oracle_op == "lw":
        if args.blocks < 0:
            raise InvalidArgument(f"--blocks must be non-negative, got {args.blocks}")
        period = analysis.max_period
        if len(args.w) >= period:
            raise InvalidArgument(f"--w {args.w!r} is not shorter than the period {period}")
        for a in args.w:
            if a not in dfa.alphabet:
                raise InvalidArgument(f"--w letter {a!r} is not in the alphabet")
        words = sorted(lw_enumerate(dfa, args.w, period, args.blocks))
        for u in words:
            print("".join(u) if u else "&")
        return 0
    raise SynmonError(f"unknown oracle operation {args.oracle_op!r}")


def _add_source_flags(sub):
    sub.add_argument("--regex", help="regular expression source")
    sub.add_argument("--dfa", help="path to a DFA JSON document")
    sub.add_argument("--alphabet", help="explicit alphabet for --regex, e.g. 'ab'")


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
    for sub in (analyze, period, monoid, prob, decompose_cmd, zero_one):
        sub.add_argument("--json", action="store_true", help="emit a JSON report")
    for sub in (analyze, period, decompose_cmd, oracle):
        sub.add_argument("--gamma", action="append",
                         help="letter subset, e.g. 'a,b' (repeatable)")
    for sub in (analyze, period, decompose_cmd):
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


def _check_digits(alphabet, length: int) -> None:
    """Refuse a --length at which len(alphabet) ** length, the denominator
    of mu(length), may pass Python's limit for converting an int to text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    size = len(alphabet)
    # with size >= 2, length >= 4 * limit gives size ** length >= 16 ** limit
    if limit and size > 1 and (length >= 4 * limit or size ** length >= 10 ** limit):
        raise InvalidArgument(f"--length {length} is too long: mu({length}) may have "
                              f"{size}**{length} as denominator, past Python's limit of "
                              f"{limit} digits for converting an int to text")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
