"""Run a command list in one process through `synmon.cli.main(argv)`.

    python3 bench/tracer.py PLAN.json OUT.json TRACE

PLAN.json holds {"src": path of the synmon sources, "commands": [[id,
argv], ...]}.  With TRACE = 1 every function in layers.TRACED is wrapped,
wherever a synmon module binds it, and each call becomes a span
[name, start, end, parent span, command index, size, raised].  Spans stay
in memory and are written to OUT.json at the end, with each command's exit
code, stdout and stderr and the wall time of the whole pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback

from layers import SIZES, TRACED


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = -1

    def wrap(self, name, function, size_attr):
        spans, stack = self.spans, self.stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                    self.command, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size_attr:
                span[5] = _size(getattr(result, size_attr, None))
            return result

        return traced


def _size(value):
    if isinstance(value, int):
        return value
    return len(value) if hasattr(value, "__len__") else None


def install(recorder: Recorder) -> None:
    """Rebind each traced function in every synmon module namespace that
    holds it, so calls through `from .x import f` aliases are seen too."""
    size_attrs = dict(SIZES.values())
    for name in TRACED:
        module_name, function_name = name.split(".")
        original = getattr(importlib.import_module(f"synmon.{module_name}"), function_name)
        traced = recorder.wrap(name, original, size_attrs.get(name))
        for module in [m for key, m in sys.modules.items()
                       if key == "synmon" or key.startswith("synmon.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)


def run_pass(commands, recorder: Recorder | None) -> tuple:
    import synmon.cli

    results = []
    start = time.perf_counter()
    for index, (_id, argv) in enumerate(commands):
        if recorder:
            recorder.command = index
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = synmon.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaped bug fails this command, not the pass
                traceback.print_exc()
                code = 1
        results.append({"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return time.perf_counter() - start, results


def main(argv) -> int:
    plan_path, out_path, trace = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import synmon.cli  # noqa: F401  (load every module before rebinding)

    recorder = Recorder() if trace == "1" else None
    if recorder:
        install(recorder)
    pass_s, results = run_pass(plan["commands"], recorder)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"pass_s": pass_s, "results": results,
                   "spans": recorder.spans if recorder else []}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
