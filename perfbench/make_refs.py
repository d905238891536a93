"""Write the reference CSVs that run.py compares every workload against.

    python3 perfbench/make_refs.py

Run from the root of a checkout of the commit whose outputs are the
reference. For every workload and every config seed in run.POOL it runs one
untraced iteration and stores each sweep's CSV (error rows included), plus
the acceptance checks that already fail there, under perfbench/ref/<workload>/seed<k>/. A later
commit passes the comparison when its numbers agree within the tolerance
stated in checks.py and no further check fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in run.WORKLOADS:
        for cseed in run.POOL:
            dest = run.REF / workload / f"seed{cseed}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            bench = run.Run(workload, run.POOL.index(cseed))
            try:
                problems = bench.prepare()
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                bench.iterate(traced=False, save_to=dest)
            finally:
                bench.cleanup()
            (dest / "failed_checks.json").write_text(json.dumps(sorted(bench.failed_checks)) + "\n")
            print(f"{workload} seed {cseed}: failed checks {sorted(bench.failed_checks) or 'none'}, "
                  f"{bench.error_rows} error rows", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
