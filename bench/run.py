"""Benchmark of the synmon CLI, run from the root of a source checkout.

    python3 bench/run.py --workload kth_tail|blocks|series --seed N \
        --seconds S --trace 0|1

Untraced (--trace 0): each command is a fresh `python -m synmon` process,
one at a time (a closed loop with one client).  Whole passes over the
workload's commands repeat, in a seeded order, until the next pass would
end after S seconds; at least two passes run, so every command is repeated
and its stdout bytes compared.  Reported: `ok_per_s` (commands that exit 0
and pass the reference check, over the wall seconds of all passes),
`ok_ratio` (those commands over all attempted), `peak_rss_mb` (the largest
max-RSS of any child) and `setup_s` (median wall time of a fresh
`python -c "import synmon"`, sampled between commands).

Traced (--trace 1): the same command list runs in-process through
`synmon.cli.main(argv)` in two fresh worker processes, one untraced and
one with every function in layers.TRACED wrapped (see tracer.py).
Reported: self time and calls per wrapped function, sizes from returned
objects, escaped exceptions per module, the import-time split from
`python -X importtime`, and the traced over the untraced pass time.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; a summary goes to stderr.  A command fails if it
exits non-zero, times out, fails the reference check (checker.py) or
prints other stdout bytes than on an earlier pass.  `correct` is false
when a command fails that baseline.json does not list as failing at the
seed commit; the listed ones still count in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path[:0] = [str(BENCH), str(SRC)]  # the checker runs synmon.oracle
from checker import Checker  # noqa: E402
from layers import MODULES, SIZES, TRACED, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, pass_order, plan  # noqa: E402

MIN_PASSES = 2
SETUP_EVERY_S = 2.5     # spacing of the fresh imports timed for setup_s
MIN_SETUP_RUNS = 9
IMPORTTIME_RUNS = 5     # `-X importtime` runs for the traced split
COMMAND_TIMEOUT_S = 60
RUN_LIMIT_S = 150       # nothing starts after this; the run must end by 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "synmon" / "__init__.py").is_file():
        print(f"error: no synmon sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        commands = plan(args.workload, args.seed, work)
        probe_import(env)
        if args.trace:
            result = traced_run(args, commands, env, work, deadline)
        else:
            result = untraced_run(args, commands, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


# --- processes ---

def python(*args) -> list:
    return [sys.executable, *args]


def timed(argv, env, timeout) -> tuple:
    """(wall seconds, CompletedProcess, or None on timeout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter() - start, proc


def probe_import(env) -> None:
    """Fail unless children import synmon from this checkout; this first
    import also writes the bytecode caches before anything is timed."""
    _, proc = timed(python("-c", "import synmon; print(synmon.__file__)"), env, 60)
    if proc is None or proc.returncode != 0:
        raise SystemExit("error: `import synmon` fails in a child process")
    location = Path(proc.stdout.decode().strip()).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"error: children import synmon from {location}, not {SRC}")


def setup_once(env) -> float:
    wall, proc = timed(python("-c", "import synmon"), env, 60)
    if proc is None or proc.returncode != 0:
        raise SystemExit("error: `import synmon` fails in a child process")
    return wall


def import_split(env) -> dict:
    """Median cumulative import seconds of numpy, and of synmon without it."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        _, proc = timed(python("-X", "importtime", "-c", "import synmon"), env, 60)
        if proc is None or proc.returncode != 0:
            raise SystemExit("error: `import synmon` fails in a child process")
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 \
                    and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        numpy = cumulative.get("numpy", 0.0)
        samples["numpy"].append(numpy)
        samples["synmon"].append(cumulative["synmon"] - numpy)
    return {name: statistics.median(values) for name, values in samples.items()}


# --- checking ---

def known_failures() -> dict:
    with open(BENCH / "baseline.json", encoding="utf-8") as handle:
        return json.load(handle)["known_failures"]


def verdicts(commands, outcomes, checker: Checker, first_stdout: dict) -> list:
    """Failure reason (or None) per outcome (command index, rc, stdout)."""
    out = []
    for index, rc, stdout in outcomes:
        command = commands[index][0]
        if rc is None:
            reason = "timed out"
        else:
            reason = checker.check(command, rc, stdout)
        if reason is None:
            if first_stdout.setdefault(command.id, stdout) != stdout:
                reason = "stdout differs from an earlier run"
        out.append((command.id, reason))
    return out


def tally(results: list) -> dict:
    failures = {cid: reason for cid, reason in results if reason}
    unexpected = sorted(set(failures) - set(known_failures()))
    for cid in sorted(failures):
        label = "UNEXPECTED" if cid in unexpected else "known"
        print(f"failed ({label}): {cid}: {failures[cid]}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": len(results),
            "failed": sum(1 for _, reason in results if reason)}


def report(counts: dict, metrics: dict, units: dict) -> dict:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}", file=sys.stderr)
    return {**counts,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


# --- untraced ---

E2E_UNITS = {"ok_per_s": "1/s", "ok_ratio": "share", "peak_rss_mb": "MB",
             "setup_s": "s"}


def untraced_run(args, commands, env, deadline) -> dict:
    """Whole passes of fresh-process commands.  A fresh-import sample for
    setup_s is taken before a command once SETUP_EVERY_S has passed, so the
    samples span the run rather than one moment of a machine whose speed
    drifts."""
    checker = Checker()
    first_stdout = {}
    results = []
    walls, setup_walls = [], []
    next_setup = 0.0
    while True:
        order = pass_order(len(commands), args.seed, len(walls))
        outcomes = []
        wall = 0.0
        for index in order:
            if time.perf_counter() >= next_setup:
                setup_walls.append(setup_once(env))
                next_setup = time.perf_counter() + SETUP_EVERY_S
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                outcomes.append((index, None, b""))
                continue
            seconds, proc = timed(python("-m", "synmon", *commands[index][1]), env,
                                  min(COMMAND_TIMEOUT_S, remaining))
            wall += seconds
            outcomes.append((index, None, b"") if proc is None
                            else (index, proc.returncode, proc.stdout))
        walls.append(wall)
        results += verdicts(commands, outcomes, checker, first_stdout)
        elapsed, mean = sum(walls), statistics.fmean(walls)
        if time.perf_counter() + mean > deadline:
            break
        if len(walls) >= MIN_PASSES and elapsed + mean > args.seconds:
            break
    while len(setup_walls) < MIN_SETUP_RUNS:
        setup_walls.append(setup_once(env))
    ok = sum(1 for _, reason in results if reason is None)
    counts = tally(results)
    print(f"passes: {', '.join(f'{w:.2f} s' for w in walls)}; "
          f"setup samples: {len(setup_walls)}; "
          f"fail_ratio = {counts['failed'] / len(results):.4f}", file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return report(counts, {
        "ok_per_s": ok / sum(walls),
        "ok_ratio": ok / len(results),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setup_walls),
    }, E2E_UNITS)


# --- traced ---

def traced_run(args, commands, env, work, deadline) -> dict:
    split = import_split(env)
    order = pass_order(len(commands), args.seed, 0)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({
        "src": str(SRC),
        "commands": [[commands[i][0].id, commands[i][1]] for i in order],
    }))
    passes = {}
    for trace in ("0", "1"):
        out_path = work / f"pass{trace}.json"
        remaining = deadline - time.perf_counter()
        _, proc = timed(python(str(BENCH / "tracer.py"), str(plan_path), str(out_path),
                               trace), env, max(remaining, 1))
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else proc.stderr.decode()[-2000:]
            raise SystemExit(f"error: in-process worker failed: {detail}")
        passes[trace] = json.loads(out_path.read_text())
    traced = passes["1"]
    outcomes = [(i, r["rc"], r["stdout"].encode())
                for i, r in zip(order, traced["results"])]
    counts = tally(verdicts(commands, outcomes, Checker(), {}))
    print_per_command(traced["spans"], [commands[i][0].id for i in order])
    metrics = layer_metrics(traced["spans"])
    metrics["setup.numpy_import_s"] = split["numpy"]
    metrics["setup.synmon_import_s"] = split["synmon"]
    metrics["trace.overhead_ratio"] = traced["pass_s"] / passes["0"]["pass_s"]
    return report(counts, metrics, per_layer_metrics())


def print_per_command(spans: list, ids: list) -> None:
    seconds, builds = Counter(), Counter()
    for name, start, end, _parent, command, *_ in spans:
        if name == "cli.main":
            seconds[command] += end - start
        elif name == "monoid.transition_monoid":
            builds[command] += 1
    for index, cid in enumerate(ids):
        print(f"traced {cid}: {seconds[index]:.3f} s, "
              f"monoid.transition_monoid.calls = {builds[index]}", file=sys.stderr)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from spans [name, start, end, parent, command,
    size, raised]; self time is a span's duration minus its children's."""
    child_s = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s, calls, largest = Counter(), Counter(), Counter()
    per_command, failures = Counter(), Counter()
    for (name, start, end, _parent, command, size, raised), children in zip(spans, child_s):
        self_s[name] += end - start - children
        calls[name] += 1
        per_command[name, command] += 1
        if size is not None:
            largest[name] = max(largest[name], size)
        if raised:
            failures[name.split(".")[0]] += 1

    def most_per_command(function):
        return max((n for (f, _), n in per_command.items() if f == function), default=0)

    metrics = {}
    for function in TRACED:
        metrics[f"{function}.self_s"] = self_s[function]
        metrics[f"{function}.calls"] = calls[function]
    metrics["monoid.transition_monoid.calls_max"] = most_per_command("monoid.transition_monoid")
    for name, (function, _attr) in SIZES.items():
        metrics[name] = largest[function]
    metrics["probability.prefixes"] = most_per_command("probability.zero_one_residual")
    for module in MODULES:
        metrics[f"{module}.failures"] = failures[module]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
