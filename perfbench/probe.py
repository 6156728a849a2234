"""Run ``python -m repro ARGS`` with the benchmark's layer spans installed.

Usage: ``python perfbench/probe.py SIDECAR.json ARGS...`` with the
checkout's ``src`` on ``PYTHONPATH``.  Times ``import repro.cli``, wraps
the layer-boundary functions (see ``layers.Instrumentation``), then runs
the CLI in this process; forked serve workers inherit the wrappers.  The
import time goes to ``SIDECAR.json``, since the CLI's own trace starts
after it.  The traced run of ``serve-mix`` starts its service through
this in place of ``python -m repro``.
"""

from __future__ import annotations

import json
import sys
import time

if __name__ == "__main__":
    sidecar, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    from layers import Instrumentation

    Instrumentation().install()
    with open(sidecar, "w") as fh:
        json.dump({"import_s": import_s}, fh)
    sys.exit(repro.cli.main(argv))
