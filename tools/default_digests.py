"""Print the sha256 of each packaged default sweep's CSV.

    python3 tools/default_digests.py

Runs every subcommand's packaged default config, plus `theorem1` in Monte
Carlo mode with 10000 features and `mlp-compare` on the benchmark's
`mlp-train` overlay at config seed 1, in process through `runner.RUNNERS`,
and prints one `sha256  name` line per CSV. The default `mlp-compare` trains
one point, so each training product sums a single term, and stops after 66
steps; the `mlp-train` case sums over eight points for 10000 steps at widths
64 and 4096. Each config is built by `overlay_config`, as the CLI builds
it, so a config rule that changes a value's type shows up in the digests.
Run it on two checkouts and compare the output to check that a change keeps
every default CSV byte-identical.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ntkorigin.configs import overlay_config  # noqa: E402
from ntkorigin.runner import RUNNERS  # noqa: E402

CASES = [(sub, sub, {}) for sub in RUNNERS]
CASES.append(("theorem1-mc", "theorem1", {"mode": "mc", "k_features": 10000}))
# The `mlp-train` benchmark workload's overlay at config seed 1.
_rng = random.Random(1)
_points = [[_rng.uniform(-1.0, 1.0), _rng.uniform(-1.0, 1.0)] for _ in range(8)]
CASES.append(("mlp-train", "mlp-compare",
              {"seed": 1, "threads": 1, "points": _points, "widths": [64, 4096], "max_steps": 10000}))


def main() -> int:
    for name, sub, overlay in CASES:
        cfg = overlay_config(sub, overlay)
        digest = hashlib.sha256(RUNNERS[sub](cfg).csv().encode()).hexdigest()
        print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
