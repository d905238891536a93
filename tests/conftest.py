"""Helpers shared by the memory tests of the kernel and the runners."""

import tracemalloc

from ntkorigin.kernel import DIAGONAL_TILE

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
