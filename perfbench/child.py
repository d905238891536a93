"""One timed iteration of a workload, run in a fresh interpreter.

Usage (spawned by run.py, not meant to be run by hand):

    python3 perfbench/child.py SPEC.json

SPEC names the package source directory, whether to trace, and the sweeps to
run: a list of (subcommand, overlay config path, output CSV path). Each sweep
goes through the real CLI entry point, `ntkorigin.cli.main`. The last line of
stdout is a JSON object with monotonic timestamps (comparable with the
parent's clock), the exit codes, the peak resident set size and, when traced,
the aggregated spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    if spec.get("probe"):
        return probe()

    from ntkorigin import cli, runner

    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        missing = layertrace.unwrapped_bindings()
        if missing:
            print(f"tracer left names unwrapped: {missing}", file=sys.stderr)
            return 3

    # setup_s ends at the first call into a runner; one timestamp per sweep is
    # the only instrumentation of an untraced iteration.
    first_call = []
    for key, fn in list(runner.RUNNERS.items()):
        def stamped(cfg, fn=fn):
            if not first_call:
                first_call.append(time.monotonic())
            return fn(cfg)

        runner.RUNNERS[key] = stamped

    codes = []
    for sub, config, out in spec["sweeps"]:
        codes.append(cli.main([sub, "--config", config, "--out", out]))
    end = time.monotonic()
    result = {
        "first_call": first_call[0] if first_call else None,
        "end": end,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


def probe() -> int:
    """Import the package once (warming file and bytecode caches) and report host facts."""
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    import ntkorigin.cli  # noqa: F401

    blas_threads = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), "..", f"{pkg.__name__}.libs")
        for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    blas_threads[os.path.basename(lib)] = fn()
                    break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
