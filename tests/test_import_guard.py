"""scipy stays off the entry points and the analytic-law prediction path.

scipy is a lazy dependency: only tabulated/measured laws, ``GeneralTank``,
the non-converged-surface spline fallback and the tunnel peak/valley
helpers import it.  Each check runs in a fresh interpreter, so modules the
pytest process has already imported cannot mask a regression.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import repro

_SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Installed first in the child when blocking: any scipy import fails.
_BLOCKER = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, _NoScipy())
"""

_REPORT = """
import json
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_PREDICTION_WORK = """
import sys

import repro
import repro.cli
import repro.serve
import repro.sweep
from repro.core.lockrange import predict_lock_range
from repro.sweep import SweepSpec, run_sweep
from repro.verify.scenarios import FAMILIES

for family, n, v_i in (("tanh", 3, 0.03), ("tunnel", 3, 0.01), ("skewed", 2, 0.03)):
    nonlinearity, tank = FAMILIES[family]()
    lock = predict_lock_range(nonlinearity, tank, v_i=v_i, n=n)
    assert lock.width_hz > 0.0, (family, lock)

spec = SweepSpec.tongue("tanh", 3, [0.02, 0.03], freq_count=4)
result = run_sweep(spec)
assert result.n_points == 8, result.n_points
"""

_POOL_WORK = """
import asyncio
import sys

from repro.serve.workers import WorkerPool

PAYLOAD = {
    "kind": "lockrange", "family": "diffpair", "n": 3, "v_i": 0.03,
    "method": "fft", "n_a": 41, "n_phi": 81, "n_samples": 256,
}

async def main():
    pool = WorkerPool(1)
    pool.start()
    try:
        return await pool.run_job(PAYLOAD, timeout_s=120.0)
    finally:
        pool.shutdown()

reply = asyncio.run(main())
assert reply["ok"] and reply["result"]["outcome"] == "locked", reply
"""


def _run(source: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _scipy_modules(source: str) -> list[str]:
    proc = _run(source + _REPORT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_prediction_path_runs_with_scipy_blocked():
    assert _scipy_modules(_BLOCKER + _PREDICTION_WORK) == []


def test_help_runs_with_scipy_blocked():
    source = _BLOCKER + (
        "import runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )
    proc = _run(source)
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro" in proc.stdout


def test_prediction_path_loads_no_scipy():
    assert _scipy_modules(_PREDICTION_WORK) == []


def test_worker_pool_runs_scipy_job_without_loading_it_in_the_service():
    # The diff-pair law is tabulated, so the worker needs scipy; the
    # process that owns the pool must still not load it.
    assert _scipy_modules(_POOL_WORK) == []
