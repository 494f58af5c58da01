"""Self-tests of the benchmark's own code: generators, references, checker
and tracer.  They run under pytest with synmon importable."""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from synmon import load_dfa, minimize
from synmon.oracle import mu_enumerate, regex_match
from synmon.regexes import parse_regex, regex_to_dfa

import run
from checker import Checker
from layers import per_layer_metrics
from workloads import (WORKLOADS, Command, corpus, counter, kth_tail, mod_length,
                       plan, relabel)

BENCH = Path(__file__).resolve().parent

FAMILIES = ([(kth_tail(k), 2 ** (k + 1)) for k in (3, 4, 5, 6)]
            + [(counter(n), n * n) for n in (4, 6, 8)]
            + [(mod_length(p), p) for p in (5, 6, 7)])


def as_dfa(document):
    return load_dfa(json.dumps(document))


@pytest.mark.parametrize("lang,states", FAMILIES, ids=lambda x: getattr(x, "name", ""))
def test_generated_dfas_minimise_to_closed_form(lang, states):
    assert minimize(as_dfa(lang.dfa)).n_states == states
    assert minimize(as_dfa(relabel(lang.dfa, random.Random(7)))).n_states \
        == states
    if lang.regex:
        assert regex_to_dfa(parse_regex(lang.regex), lang.alphabet).n_states == states


def test_references_agree_with_enumeration():
    for lang in corpus() + [lang for lang, _ in FAMILIES]:
        dfa = as_dfa(lang.dfa)
        upto = 6 if len(lang.alphabet) == 3 else 10
        if lang.mu is not None:
            assert [lang.mu(l) for l in range(upto + 1)] == \
                [mu_enumerate(dfa, l) for l in range(upto + 1)], lang.name
        if lang.regex:
            ast = parse_regex(lang.regex)
            for l in range(min(upto, 8) + 1):
                for word in map("".join, itertools.product(lang.alphabet, repeat=l)):
                    assert regex_match(ast, word) == dfa.accepts(word), (lang.name, word)


def test_seed_renames_but_keeps_languages(tmp_path):
    for workload in WORKLOADS:
        runs = {}
        for seed, sub in ((1, "a"), (2, "b"), (1, "c")):
            directory = tmp_path / workload / sub
            directory.mkdir(parents=True)
            runs[sub] = plan(workload, seed, directory)
        ids = [[command.id for command, _ in runs[sub]] for sub in "abc"]
        assert ids[0] == ids[1] == ids[2]
        for (_, argv_a), (_, argv_b), (_, argv_c) in zip(runs["a"], runs["b"], runs["c"]):
            if "--dfa" not in argv_a:
                continue
            text = {sub: Path(argv[argv.index("--dfa") + 1]).read_text()
                    for sub, argv in (("a", argv_a), ("b", argv_b), ("c", argv_c))}
            assert text["a"] == text["c"] != text["b"]
            a, b = as_dfa(json.loads(text["a"])), as_dfa(json.loads(text["b"]))
            assert all(a.accepts("".join(w)) == b.accepts("".join(w))
                       for n in range(7) for w in itertools.product(a.alphabet, repeat=n))


def prob_report(lang, length, limits):
    series = [{"len": l, "num": lang.mu(l).numerator, "den": lang.mu(l).denominator}
              for l in range(length + 1)]
    return json.dumps({"mu_series": series, "period": lang.period,
                       "accumulation": limits, "sinks": []}).encode()


def test_checker_accepts_both_limit_formats_and_rejects_limit_zero():
    lang = kth_tail(3)
    command = Command("prob/kth_tail_k3", "prob", lang, 64)
    checker = Checker()
    floats = prob_report(lang, 64, [{"r": 0, "mu": 0.5, "converged": True}])
    exact = prob_report(lang, 64, [{"r": 0, "num": 1, "den": 2}])
    seed_bug = prob_report(lang, 64, [{"r": 0, "mu": 0.0, "converged": True}])
    assert checker.check(command, 0, floats) is None
    assert checker.check(command, 0, exact) is None
    assert "limit at r=0" in checker.check(command, 0, seed_bug)


def test_checker_rejects_exit_3_and_wrong_series():
    lang = counter(4)
    checker = Checker()
    assert checker.check(Command("analyze/kth_tail_k3", "analyze", kth_tail(3)), 3, b"") \
        == "exit code 3"
    command = Command("prob/counter_n4", "prob", lang, 16)
    report = json.loads(prob_report(lang, 16, [{"r": r, "mu": float(v)}
                                               for r, v in enumerate(lang.limits)]))
    assert checker.check(command, 0, json.dumps(report).encode()) is None
    report["mu_series"][16]["num"] += 1
    assert "mu(16)" in checker.check(command, 0, json.dumps(report).encode())
    assert "not a JSON report" in checker.check(command, 0, b"mu 0.5")


def test_tracer_sees_calls_through_imported_aliases(tmp_path):
    plan_path, out_path = tmp_path / "plan.json", tmp_path / "out.json"
    argv = ["prob", "--json", "--regex", "(a|b)*a", "--alphabet", "ab", "--length", "4"]
    plan_path.write_text(json.dumps({"src": str(run.SRC), "commands": [["p", argv]]}))
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(plan_path),
                    str(out_path), "1"], check=True, timeout=120)
    out = json.loads(out_path.read_text())
    assert out["results"][0]["rc"] == 0
    spans = out["spans"]
    names = [span[0] for span in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    # cli.py and probability.py both call transition_monoid by imported name
    parents = {spans[span[3]][0] for span in spans if span[0] == "monoid.transition_monoid"}
    assert parents == {"cli.main", "probability.maximum_period_of"}
    metrics = run.layer_metrics(spans)
    assert metrics["monoid.transition_monoid.calls"] == names.count("monoid.transition_monoid")
    assert metrics["monoid.order_max"] == 3
    assert metrics["cli.main.self_s"] >= 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

