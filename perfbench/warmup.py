"""Warm the surface cache for lock-range specs, as one set-up process.

Usage: ``python perfbench/warmup.py SPECS.json`` with ``REPRO_CACHE_DIR``
and ``PYTHONPATH`` set by the caller.  Runs a default ``predict_lock_range``
call per spec, which stores its surface (or dense fallback grid) in the
cache under the key the measured calls look up.
"""

from __future__ import annotations

import json
import sys

from repro.core.lockrange import predict_lock_range
from repro.verify.scenarios import FAMILIES


def warm(specs: list[dict]) -> None:
    oscillators: dict[str, tuple] = {}
    for spec in specs:
        family = spec["family"]
        if family not in oscillators:
            oscillators[family] = FAMILIES[family]()
        nonlinearity, tank = oscillators[family]
        predict_lock_range(nonlinearity, tank, v_i=spec["v_i"], n=spec["n"])


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        warm(json.load(fh))
