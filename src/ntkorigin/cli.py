"""Command-line entry point.

One subcommand per experiment family. Config comes from a packaged default,
optionally overlaid with a JSON file; --seed and --threads override the
corresponding config fields. The CSV goes to --out (default: <scenario>.csv in
the working directory). Exit code 0 means every cell succeeded, 2 means at
least one row failed (a failed cell or a failed check), 1 means the
configuration was rejected.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import ConfigError, NtkOriginError
from .runner import RUNNERS, load_config, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntkorigin",
        description="Origin-extrapolation experiments for the two-layer ReLU NTK.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} sweep")
        p.add_argument("--config", default=None, help="JSON config overlaying the packaged default")
        p.add_argument("--out", default=None, help="output CSV path (default: <scenario>.csv)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="override the cell thread count")
        p.add_argument("--print-config", action="store_true", help="dump the effective config and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.subcommand, args.config, args.seed, args.threads)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.print_config:
        import json

        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    started = time.perf_counter()
    # Every cell is isolated, so a library error that escapes a runner was
    # raised while it read the config.
    try:
        result = RUNNERS[args.subcommand](cfg)
    except NtkOriginError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = args.out or cfg.get("out") or f"{cfg['name']}.csv"
    write_csv(result.header, result.rows, out)
    elapsed = time.perf_counter() - started
    print(
        f"{args.subcommand}: {len(result.rows)} rows, {result.failures} failed rows, "
        f"{elapsed:.2f}s -> {out}",
        file=sys.stderr,
    )
    return 2 if result.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
