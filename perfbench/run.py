"""ntkorigin benchmark: four sweep workloads, end-to-end metrics, optional layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/ntkorigin`).
Each iteration runs the workload's sweeps back to back through the real CLI
entry point in a fresh interpreter (a closed loop with one client and
`threads: 1`); iterations repeat until the next one would overrun `--seconds`,
with a minimum count. The outputs of every iteration are checked, and the
medians are reported.

With `--trace 0` the last stdout line carries the end-to-end metrics
(`wall_s`, `setup_s`, `peak_rss_mb`); `failed_frac` and `checks_failed` are
printed above it and feed `correct` and `failed`. With `--trace 1` the run
alternates untraced and traced iterations and reports the per-layer metrics of
the traced ones (see layertrace.py), including the tracing overhead.

The workload seed picks one of POOL's config seeds, for which perfbench/ref
holds the CSVs written by the seed commit (regenerate with make_refs.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF = BENCH / "ref"
WORK = ROOT / ".perfbench_work"

POOL = list(range(1, 11))
CHILD_TIMEOUT_S = 170
MIN_ITERATIONS = 3  # untraced iterations with --trace 0
MIN_PAIRS = 2  # untraced + traced pairs with --trace 1
BLAS_THREADS = 1  # pinned for the run process; at or below nproc

WORKLOADS = {
    "origin-analytic": "theorem1 (analytic, n=128) then farfield (n=128): scalar kernel calls from the predictor",
    "origin-mc": "theorem1 (mc, n=8, 10k features), gram-limit, inverse-check: Monte Carlo kernel and closed forms",
    "kappa-mc": "default kappa sweep: feature sampling and the hand-rolled Monte Carlo diagonal loop",
    "mlp-train": "mlp-compare on 8 seeded points, widths 64 and 4096, 10000 steps: full-batch training",
}

IMPORT_MODULES = [
    "numpy", "scipy.linalg", "ntkorigin", "ntkorigin.errors", "ntkorigin.geometry",
    "ntkorigin.kernel", "ntkorigin.gram", "ntkorigin.regression", "ntkorigin.calculus",
    "ntkorigin.mlp", "ntkorigin.configs", "ntkorigin.runner", "ntkorigin.cli",
]


def config_seed(seed: int) -> int:
    return POOL[seed % len(POOL)]


def sweeps(workload: str, cseed: int) -> list[tuple[str, dict]]:
    """(subcommand, top-level overlay) pairs that make up one iteration."""
    base = {"seed": cseed, "threads": 1}
    if workload == "origin-analytic":
        return [
            ("theorem1", {**base, "n": 128, "mode": "analytic"}),
            ("farfield", {**base, "n": 128}),
        ]
    if workload == "origin-mc":
        return [
            ("theorem1", {**base, "mode": "mc", "n": 8, "k_features": 10000}),
            ("gram-limit", dict(base)),
            ("inverse-check", dict(base)),
        ]
    if workload == "kappa-mc":
        return [("kappa", dict(base))]
    if workload == "mlp-train":
        rng = random.Random(cseed)
        points = [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(8)]
        return [("mlp-compare", {**base, "points": points, "widths": [64, 4096], "max_steps": 10000})]
    raise KeyError(workload)


def guard_config(sub: str, overlay: dict, path: Path) -> list[str]:
    """Mismatches between the config the CLI will load and the intended one."""
    from ntkorigin.configs import default_config
    from ntkorigin.runner import load_config

    default = default_config(sub)
    loaded = load_config(sub, str(path))
    problems = [f"{sub}: key {k!r} is not a config key" for k in overlay if k not in default]
    for key in sorted(set(default) | set(loaded)):
        want = overlay.get(key, default.get(key))
        if loaded.get(key) != want:
            problems.append(f"{sub}: {key} loads as {loaded.get(key)!r}, intended {want!r}")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(spec: dict, spec_path: Path, importtime: bool) -> tuple[float, dict, str]:
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH / "child.py"), str(spec_path)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def parse_importtime(stderr: str) -> dict[str, float]:
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = (part.strip() for part in line[len("import time:"):].split("|"))
        if module in IMPORT_MODULES and cumulative.isdigit():
            out[module] = int(cumulative) / 1e6
    return out


class Run:
    """One benchmark run: its work directory, iterations and checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cseed = config_seed(seed)
        self.plan = sweeps(workload, self.cseed)
        self.dir = WORK / f"{os.getpid()}"
        self.iterations: list[dict] = []
        self.first_bytes: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.failed_checks: set[str] = set()
        self.rows = 0
        self.error_rows = 0

    def prepare(self) -> list[str]:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        problems = []
        for sub, overlay in self.plan:
            path = self.dir / f"{sub}.json"
            path.write_text(json.dumps(overlay))
            problems += guard_config(sub, overlay, path)
        return problems

    def probe(self) -> dict:
        _, facts, _ = spawn({"src": str(SRC), "probe": True}, self.dir / "probe.json", False)
        return facts

    def iterate(self, traced: bool, save_to: Path | None = None) -> None:
        k = len(self.iterations)
        out_dir = self.dir / f"iter{k}"
        out_dir.mkdir()
        spec = {
            "src": str(SRC),
            "trace": traced,
            "sweeps": [[sub, str(self.dir / f"{sub}.json"), str(out_dir / f"{sub}.csv")] for sub, _ in self.plan],
        }
        started, result, stderr = spawn(spec, out_dir / "spec.json", traced)
        it = {
            "traced": traced,
            "setup_s": result["first_call"] - started,
            "wall_s": result["end"] - result["first_call"],
            "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
            "trace": result.get("trace"),
            "imports": parse_importtime(stderr) if traced else {},
        }
        self.iterations.append(it)
        self.check_outputs(out_dir, result["codes"])
        if save_to is not None:
            for sub, _ in self.plan:
                shutil.copyfile(out_dir / f"{sub}.csv", save_to / f"{sub}.csv")
        shutil.rmtree(out_dir)

    def check_outputs(self, out_dir: Path, codes: list[int]) -> None:
        rows_by_sweep = {}
        for (sub, _), code in zip(self.plan, codes):
            path = out_dir / f"{sub}.csv"
            data = path.read_bytes()
            if sub not in self.first_bytes:
                self.first_bytes[sub] = data
                ref = REF / self.workload / f"seed{self.cseed}" / f"{sub}.csv"
                if not ref.exists():
                    self.problems.append(f"no reference CSV {ref.relative_to(ROOT)}")
                else:
                    self.problems += [f"{sub}: {d}" for d in checks.compare_to_reference(path, ref)[:5]]
            elif data != self.first_bytes[sub]:
                self.problems.append(f"{sub}: CSV bytes differ between iterations (traced or untraced)")
            if code not in (0, 2):
                self.problems.append(f"{sub}: CLI exit code {code}")
            _, rows = checks.read_csv(path)
            rows_by_sweep[sub] = rows
            self.rows += len(rows)
            self.error_rows += checks.error_rows(rows)
        self.failed_checks.update(checks.failed_checks(self.workload, rows_by_sweep))

    def baseline_failed_checks(self) -> set[str]:
        path = REF / self.workload / f"seed{self.cseed}" / "failed_checks.json"
        return set(json.loads(path.read_text())) if path.exists() else set()

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(run: Run, seconds: float, traced: bool) -> None:
    """Iterate until the next iteration (or pair) is predicted to overrun."""
    started = time.monotonic()
    rounds = 0
    while True:
        run.iterate(traced=False)
        if traced:
            run.iterate(traced=True)
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= (MIN_PAIRS if traced else MIN_ITERATIONS) and elapsed + elapsed / rounds > seconds:
            return


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def layer_metrics(it: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    snap = it["trace"]
    stats, counts = snap["stats"], snap["counts"]
    edges = {(p, c): n for p, c, n in snap["edges"]}

    def stat(name):  # [calls, total_s, self_s, failed]; zeros for a layer the workload skips
        return stats.get(name, [0, 0.0, 0.0, 0])

    def calls(name):
        return stat(name)[0]

    def self_s(name):
        return stat(name)[2]

    m: dict[str, float] = {}
    for name in ("kernel.ntk", "regression.predict", "calculus.fit_profile", "gram.assemble_gram",
                 "gram.tikhonov_solve", "geometry.shift_set", "kernel.sample_features", "mlp.train"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for key in ("kernel.ntk.analytic.calls", "kernel.ntk.mc.calls", "kernel.ntk.mc.feature_evals",
                "kernel.sample_features.bytes", "gram.assemble_gram.entries", "mlp.train.steps",
                "runner.cells", "runner.failed_cells", "runner.write_csv.bytes"):
        m[key] = counts.get(key, 0)
    predicts = calls("regression.predict")
    m["regression.predict.ntk_per_call"] = edges.get(("regression.predict", "kernel.ntk"), 0) / predicts if predicts else 0.0
    m["calculus.fit_profile.evals"] = edges.get(("calculus.fit_profile", "regression.predict"), 0)
    m["gram.tikhonov_solve.failed"] = stat("gram.tikhonov_solve")[3]
    for name in ("kernel.kappa", "kernel.agnosticism_rate", "runner.write_csv", "cli.load_config"):
        m[f"{name}.self_s"] = self_s(name)
    for sub in ("theorem1", "farfield", "gram_limit", "inverse_check", "kappa", "mlp_compare"):
        m[f"runner.run_{sub}.self_s"] = self_s(f"runner.run_{sub}")
    train_total = stat("mlp.train")[1]
    m["mlp.train.steps_per_s"] = m["mlp.train.steps"] / train_total if train_total else 0.0
    m["mlp.train.converged_frac"] = counts.get("mlp.train.converged", 0) / calls("mlp.train") if calls("mlp.train") else 0.0
    for layer in ("geometry", "kernel", "gram", "regression", "calculus", "mlp", "runner", "cli"):
        m[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
    for module in IMPORT_MODULES:
        m[f"setup.import.{module}_s"] = it["imports"].get(module, 0.0)
    return m


def per_layer(run: Run, specs: dict[str, dict]) -> dict[str, float]:
    """Medians over the traced iterations; work counts must repeat exactly."""
    traced = [it for it in run.iterations if it["traced"]]
    plain = [it for it in run.iterations if not it["traced"]]
    per_it = [layer_metrics(it) for it in traced]
    out = {}
    for key in per_it[0]:
        values = [m[key] for m in per_it]
        if specs[key]["unit"] in ("count", "B"):
            if len(set(values)) != 1:
                run.problems.append(f"work count {key} differs across traced iterations: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(it["wall_s"] for it in plain)
    return out


def load_metric_specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ntkorigin" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = load_metric_specs()

    run = Run(args.workload, args.seed)
    try:
        mismatches = run.prepare()
        if mismatches:
            print("error: refusing to run, effective config differs from the overlay:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        facts = run.probe()
        measure(run, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()

    plain = [it for it in run.iterations if not it["traced"]]
    e2e = {key: statistics.median(it[key] for it in plain) for key in ("wall_s", "setup_s", "peak_rss_mb")}
    baseline = run.baseline_failed_checks()
    new_failures = run.failed_checks - baseline
    if new_failures:
        run.problems.append(f"checks failing beyond the seed-commit baseline: {sorted(new_failures)}")
    metrics = per_layer(run, specs) if args.trace else e2e

    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"seed {args.seed} -> config seed {run.cseed}; {len(plain)} untraced iterations"
          + (f", {len(run.iterations) - len(plain)} traced" if args.trace else ""))
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        values = [it[key] for it in plain]
        print(f"  {key:<14} {e2e[key]:.4f} {specs[key]['unit']}  (median of {len(values)}, IQR {spread(values):.4f}; "
              f"{' '.join(f'{v:.3f}' for v in values)})")
    print(f"  {'failed_frac':<14} {run.error_rows / max(run.rows, 1):.4f} 1  ({run.error_rows}/{run.rows} rows)")
    print(f"  {'checks_failed':<14} {len(run.failed_checks)} count  {sorted(run.failed_checks) or ''}"
          f"  (seed-commit baseline for config seed {run.cseed}: {sorted(baseline) or 'none'})")
    if args.trace:
        wall = metrics["trace.wall_s"]
        top = sorted(((k, v) for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") >= 2),
                     key=lambda kv: -kv[1])[:5]
        print("  traced self-time shares: " + ", ".join(f"{k} {v / wall:.1%}" for k, v in top))
    for problem in run.problems:
        print(f"  problem: {problem}")

    result = {
        "correct": not run.problems,
        "attempted": run.rows,
        "failed": run.error_rows,
        "metrics": {k: {"value": v, "unit": specs[k]["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
