"""Outside-in layer tracer for the ntkorigin package.

The tracer wraps the public functions of each layer module from the
benchmark's side and rebinds every name through which the package reaches
them: the module attribute itself, every `from .x import f` copy in another
package module (such as `regression.ntk` or `runner.shift_set`), and the
`runner.RUNNERS` table, which `cli` holds by reference. Without the rebinding,
calls made through a copied name would escape their span and their time would
be charged to the caller.

Spans are aggregated in memory per function name: calls, total time, self
time (total minus the time covered by child spans) and calls that raised.
Parent-to-child call counts are kept too, so ratios such as kernel calls per
predictor call are measured where the work happens. The tracer keeps one span
stack, so it is only valid for single-threaded sweeps; the benchmark pins
`threads` to 1.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("geometry", "kernel", "gram", "regression", "calculus", "mlp", "runner", "cli")

# Spans named for the layer that calls them rather than the module that
# defines them: loading the config is the CLI's job, although the function
# lives in `runner`.
ALIASES = {"runner.load_config": "cli.load_config"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, failed]
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()  # work counters recorded by hooks
        self._stack: list[list] = []  # [name, time covered by children]

    def wrap(self, name, fn, hook=None):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        edges = self.edges
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                edges[stack[-1][0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                stat[3] += raised
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "counts": dict(self.counts),
        }


def _ntk_hook(counts, args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    features = getattr(mode, "features", None)
    if features is None:
        counts["kernel.ntk.analytic.calls"] += 1
    else:
        counts["kernel.ntk.mc.calls"] += 1
        counts["kernel.ntk.mc.feature_evals"] += features.count


def _sample_features_hook(counts, args, kwargs, result):
    counts["kernel.sample_features.bytes"] += result.weights.nbytes


def _assemble_gram_hook(counts, args, kwargs, result):
    n = result.n
    counts["gram.assemble_gram.entries"] += n * (n + 1) // 2  # upper triangle


def _train_hook(counts, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    steps = len(result[1]) - 1
    counts["mlp.train.steps"] += steps
    counts["mlp.train.converged"] += steps < cfg.steps


def _run_hook(counts, args, kwargs, result):
    counts["runner.failed_cells"] += result.failures


def _write_csv_hook(counts, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    counts["runner.write_csv.bytes"] += os.path.getsize(path)


HOOKS = {
    "kernel.ntk": _ntk_hook,
    "kernel.sample_features": _sample_features_hook,
    "gram.assemble_gram": _assemble_gram_hook,
    "mlp.train": _train_hook,
    "runner.write_csv": _write_csv_hook,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer and rebind all its names."""
    package = sys.modules["ntkorigin"]
    modules = [m for name, m in sys.modules.items() if name.startswith("ntkorigin.") and m is not None]
    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"ntkorigin.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            hook = HOOKS.get(name)
            if hook is None and layer == "runner" and attr.startswith("run_"):
                hook = _run_hook
            replacements[id(obj)] = tracer.wrap(ALIASES.get(name, name), obj, hook)
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replacements:
                setattr(mod, attr, replacements[id(obj)])
    runners = sys.modules["ntkorigin.runner"].RUNNERS
    for key, fn in runners.items():
        runners[key] = replacements[id(fn)]

    # Cells are counted at the runner's private isolation boundary without a
    # span of their own, so cell bookkeeping stays in the run_* self time.
    runner = sys.modules["ntkorigin.runner"]
    guard = runner._guard
    counts = tracer.counts

    @functools.wraps(guard)
    def counted_guard(*args, **kwargs):
        counts["runner.cells"] += 1
        return guard(*args, **kwargs)

    runner._guard = counted_guard


def unwrapped_bindings() -> list[str]:
    """Names of layer functions still reachable without a span (should be empty)."""
    missing = []
    for mod_name, mod in sys.modules.items():
        if not mod_name.startswith("ntkorigin") or mod is None:
            continue
        for attr, obj in vars(mod).items():
            home = getattr(obj, "__module__", "") or ""
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and home.removeprefix("ntkorigin.") in LAYERS
                and not getattr(obj, "__wrapped_by_tracer__", False)
            ):
                missing.append(f"{mod_name}.{attr}")
    for key, fn in sys.modules["ntkorigin.runner"].RUNNERS.items():
        if not getattr(fn, "__wrapped_by_tracer__", False):
            missing.append(f"RUNNERS[{key}]")
    return missing
