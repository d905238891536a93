"""Helpers shared by the memory tests of the kernel and the runners, and by
the tests that need a fresh interpreter."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import ntkorigin
from ntkorigin.kernel import DIAGONAL_TILE

SRC = Path(ntkorigin.__file__).resolve().parents[1]

# Room for the interpreter's own small allocations during a call.
SLACK = 64 * 1024


def traced_peak(fn):
    """(peak bytes traced by tracemalloc while fn runs, numpy's data buffers
    included, and fn's result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def tile_bytes(columns: int) -> int:
    """Bytes of `columns` float vectors one Monte Carlo tile long: a tile of
    drawn weights has d+1 of them, and each mask one."""
    return 8 * (DIAGONAL_TILE + 1) * columns


def run_fresh(code: str, path: tuple = ()) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter whose import path is `path`, then the
    package source. Its stdout and stderr are captured as text."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, path), str(SRC)])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
