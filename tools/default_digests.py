"""Print the sha256 of each packaged default sweep's CSV and of each benchmark
workload's CSVs.

    python3 tools/default_digests.py

Runs every subcommand's packaged default config, plus `theorem1` in Monte
Carlo mode with 10000 features and `mlp-compare` on the benchmark's
`mlp-train` overlay at config seed 1, in process through `runner.RUNNERS`,
and prints one `sha256  name` line per CSV. The default `mlp-compare` trains
one point, so each training product sums a single term, and stops after 66
steps; the `mlp-train` case sums over eight points for 10000 steps at widths
64 and 4096. Each config is built by `overlay_config`, as the CLI builds
it, so a config rule that changes a value's type shows up in the digests.

Then, for each workload of `perfbench/run.py`, it prints one
`sha256  workload:NAME` line: the digest of the concatenated CSV texts of the
workload's sweeps, in the order `sweeps()` lists them, for every config seed
of its `POOL` (1-10) in order. These take about 50 s, most of it `kappa-mc`.
BLAS runs on one thread, as in the benchmark's runs.

Run it on two checkouts and compare the output to check that a change keeps
every default CSV and every benchmark input byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from pathlib import Path

# One BLAS thread, as the benchmark pins its runs: at n=128 a threaded BLAS
# sums some products in another order, and `origin-analytic`'s bytes move.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from ntkorigin.configs import overlay_config  # noqa: E402
from ntkorigin.runner import RUNNERS  # noqa: E402
from run import POOL, WORKLOADS, sweeps  # noqa: E402

CASES = [(sub, sub, {}) for sub in RUNNERS]
CASES.append(("theorem1-mc", "theorem1", {"mode": "mc", "k_features": 10000}))
# The `mlp-train` benchmark workload's overlay at config seed 1.
_rng = random.Random(1)
_points = [[_rng.uniform(-1.0, 1.0), _rng.uniform(-1.0, 1.0)] for _ in range(8)]
CASES.append(("mlp-train", "mlp-compare",
              {"seed": 1, "threads": 1, "points": _points, "widths": [64, 4096], "max_steps": 10000}))


def _csv(sub: str, overlay: dict) -> str:
    return RUNNERS[sub](overlay_config(sub, overlay)).csv()


def main() -> int:
    for name, sub, overlay in CASES:
        print(f"{hashlib.sha256(_csv(sub, overlay).encode()).hexdigest()}  {name}", flush=True)
    for workload in WORKLOADS:
        h = hashlib.sha256()
        for cseed in POOL:
            for sub, overlay in sweeps(workload, cseed):
                h.update(_csv(sub, overlay).encode())
        print(f"{h.hexdigest()}  workload:{workload}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
