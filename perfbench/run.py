"""The repo benchmark: one seeded workload, timed end to end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lockrange-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with per-layer spans and prints the
per-layer metrics instead.  The last stdout line is the result object;
the line before it holds the details (sample counts, the tail percentile
used, the environment).  Every run works in its own scratch directory
inside the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("lockrange-warm", "tongue-cold", "serve-mix")


def _module(workload: str):
    import importlib

    return importlib.import_module(
        {
            "lockrange-warm": "wl_lockrange",
            "tongue-cold": "wl_tongue",
            "serve-mix": "wl_serve",
        }[workload]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ctx = common.prepare_checkout(args.workload, args.seed, args.seconds, args.trace)
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        correct, ops, metrics, details = _module(args.workload).run(ctx)
        details.update(
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            environment=common.environment(),
        )
    finally:
        common.cleanup(ctx)
    common.emit(correct, ops, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
