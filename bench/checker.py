"""Reference checker: is one CLI result right?

A result passes when the command exited 0, printed a JSON report, and the
report agrees with the language's references (see workloads.py).  Limits
are accepted as a float within LIMIT_TOL (`"mu"`) or as an exact fraction
(`"num"`/`"den"`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import ORACLE_LENGTH, Command, Language

LIMIT_TOL = 1e-6
MAX_PROBLEMS = 3


class Checker:
    """Holds the reference mu values, computed once per language."""

    def __init__(self):
        self._oracle = {}
        self._closed = {}

    def check(self, command: Command, returncode: int, stdout: bytes) -> str | None:
        """None if the result is correct, else the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not a JSON report"
        verify = {"analyze": self._analyze, "decompose": self._decompose,
                  "prob": self._prob}[command.verb]
        try:
            problems = list(verify(report, command))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed report ({type(exc).__name__}: {exc})"
        return "; ".join(problems[:MAX_PROBLEMS]) or None

    # --- per verb ---

    def _decompose(self, report, command):
        lang = command.language
        yield from _expect("verified", report["verified"], True)
        yield from _expect("G", report["G"], [lang.period])
        yield from _expect("K", report["K"], lang.K)
        yield from _expect("elements", len(report["can"]), lang.order)
        yield from _expect("class sizes", sum(map(len, report["theta"].values())),
                           lang.order)

    def _analyze(self, report, command):
        lang = command.language
        yield from _expect("order", report["monoid"]["order"], lang.order)
        yield from _expect("periods", report["signature"]["periods"], [lang.period])
        yield from self._decompose(report["decomposition"], command)
        yield from _expect("equivariant", report["wreath"]["equivariant"], True)
        probability = report["probability"]
        yield from self._prob(probability, command)
        residual = probability["zero_one"]["residual"]
        yield from _expect("prefix verdicts", len(residual), lang.n_prefixes)
        if lang.all_zero_one:
            mixed = [v["w"] for v in residual if v["verdict"] != "zero-one"]
            yield from _expect("prefixes not zero-one", mixed[:3], [])
        yield from _expect("residual monoids", len(report["residual_monoids"]),
                           lang.period)

    def _prob(self, report, command):
        lang = command.language
        yield from _expect("period", report["period"], lang.period)
        yield from _limits(report["accumulation"], lang)
        yield from self._series(report["mu_series"], lang, command.length)

    # --- mu(l) ---

    def _series(self, series, lang: Language, length: int):
        yield from _expect("series length", [e["len"] for e in series],
                           list(range(length + 1)))
        oracle = self._oracle_values(lang, min(length, ORACLE_LENGTH))
        closed = self._closed_values(lang, length)
        for entry in series:
            l, value = entry["len"], Fraction(entry["num"], entry["den"])
            for label, reference in (("oracle", oracle), ("closed form", closed)):
                if l < len(reference) and value != reference[l]:
                    yield f"mu({l}) = {value}, {label} says {reference[l]}"
                    return

    def _oracle_values(self, lang: Language, upto: int) -> list:
        key = (lang.name, upto)
        if key not in self._oracle:
            from synmon.dfa import Dfa
            from synmon.oracle import mu_enumerate

            doc = lang.dfa
            dfa = Dfa(tuple(doc["alphabet"]), tuple(doc["states"]), doc["initial"],
                      frozenset(doc["accepting"]),
                      {(t["from"], t["on"]): t["to"] for t in doc["transitions"]})
            self._oracle[key] = [mu_enumerate(dfa, l) for l in range(upto + 1)]
        return self._oracle[key]

    def _closed_values(self, lang: Language, upto: int) -> list:
        if lang.mu is None:
            return []
        key = (lang.name, upto)
        if key not in self._closed:
            self._closed[key] = [lang.mu(l) for l in range(upto + 1)]
        return self._closed[key]


def _expect(label, got, want):
    """One problem if a known reference `want` differs from `got`."""
    if want is not None and got != want:
        yield f"{label} = {got!r}, expected {want!r}"


def _limits(points, lang: Language):
    by_residue = {p["r"]: p for p in points}
    yield from _expect("limit residues", sorted(by_residue), list(range(lang.period)))
    for r, want in enumerate(lang.limits):
        point = by_residue.get(r)
        if point is None:
            continue
        if "num" in point and "den" in point:
            ok = Fraction(point["num"], point["den"]) == want
            got = f"{point['num']}/{point['den']}"
        else:
            ok = abs(float(point["mu"]) - float(want)) <= LIMIT_TOL
            got = point["mu"]
        if not ok:
            yield f"limit at r={r} is {got}, expected {want}"
