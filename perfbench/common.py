"""Shared plumbing: checkout paths, isolated state, statistics, results.

Nothing here imports ``repro``; :func:`prepare_checkout` puts the
checkout's ``src`` first on ``sys.path`` and points the surface cache at a
directory inside the run's scratch area before any workload imports it.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import pace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_tmp"

#: Percentile reported as the latency tail on every workload.  It is the
#: highest of p99/p95/p90/p75 with ten samples beyond it on lockrange-warm
#: (42 operations a run).  serve-mix runs 70-100 jobs; its p90 sits on the
#: knee between the bulk and the jobs a tongue job delays, and flips
#: between the two from run to run.  tongue-cold runs about 17 sweeps, so
#: about 4 lie beyond.  The details give the count.
TAIL_PERCENTILE = 75


class CheckoutError(RuntimeError):
    """The checkout does not hold the program's sources."""


@dataclass
class Context:
    """One benchmark run: its settings and its private scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: pathlib.Path

    @property
    def cache_dir(self) -> pathlib.Path:
        return self.workdir / "cache"

    def fresh_dir(self, name: str) -> pathlib.Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=False)
        return path

    def child_env(self, cache_dir: pathlib.Path | None = None) -> dict:
        """Environment of a program process: checkout sources, isolated cache."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache_dir or self.cache_dir)
        env["XDG_CACHE_HOME"] = str(self.workdir / "xdg")
        env.pop("REPRO_NO_CACHE", None)
        return env


def prepare_checkout(workload: str, seed: int, seconds: float, trace: bool) -> Context:
    """Validate the checkout and create the run's isolated scratch dir."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program sources under {SRC}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir()
    ctx = Context(workload, int(seed), float(seconds), bool(trace), workdir)
    ctx.cache_dir.mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(ctx.cache_dir)
    os.environ["XDG_CACHE_HOME"] = str(workdir / "xdg")
    os.environ.pop("REPRO_NO_CACHE", None)
    sys.path.insert(0, str(SRC))
    return ctx


def assert_checkout_import() -> None:
    """Fail unless ``repro`` was imported from this checkout."""
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise CheckoutError(f"repro imported from {origin}, not from {SRC}")


def cleanup(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


# -- measurement -----------------------------------------------------------------


class Ops:
    """Per-operation record of one measured loop.

    Latencies are scaled to the reference host speed (see :mod:`pace`);
    the raw wall times ride along for the details line.  A failed
    operation (typed error, wrong result, refusal) contributes no latency
    and no throughput; an output check run after the loop can still turn
    a success into a failure with :meth:`fail`.
    """

    def __init__(self) -> None:
        self.entries: list[list] = []  # [latency_s, failure or None, units, raw_s]
        self.elapsed_s = 0.0  # scaled time the throughput is taken over
        self.window_s = 0.0  # raw wall time from the first operation to the last

    def record(
        self, latency_s: float, failure: str | None, units: float = 1.0, raw_s: float | None = None
    ) -> int:
        self.entries.append([latency_s, failure, units, latency_s if raw_s is None else raw_s])
        return len(self.entries) - 1

    def fail(self, index: int, reason: str) -> None:
        if self.entries[index][1] is None:
            self.entries[index][1] = reason

    @property
    def busy_s(self) -> float:
        """Summed operation time: the elapsed time of a one-caller loop."""
        return sum(entry[0] for entry in self.entries)

    @property
    def attempted(self) -> int:
        return len(self.entries)

    @property
    def latencies(self) -> list[float]:
        return [entry[0] for entry in self.entries if entry[1] is None]

    @property
    def raw_latencies(self) -> list[float]:
        return [entry[3] for entry in self.entries if entry[1] is None]

    @property
    def failures(self) -> list[str]:
        return [entry[1] for entry in self.entries if entry[1] is not None]

    @property
    def units_done(self) -> float:
        return sum(entry[2] for entry in self.entries if entry[1] is None)

    @property
    def correct(self) -> bool:
        """No operation returned a wrong answer (refusals are not wrong)."""
        return not any(f.startswith("wrong") for f in self.failures)


def out_of_time(spent_s: float, seconds: float, latencies: list[float]) -> bool:
    """True once another operation of median length would take ``spent_s`` past ``seconds``."""
    budget = statistics.median(latencies) if latencies else 0.0
    return spent_s + budget > seconds


@dataclass
class Finished:
    """A process run to completion, with its own high-water resident set."""

    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def timed_subprocess(
    argv: list[str], timeout_s: float = 170.0, **kwargs
) -> tuple[pace.Interval, Finished]:
    """Run a process to completion; return its wall time and result.

    The process is reaped with ``wait4``, so its peak RSS is its own and
    not the high-water mark over every child this process has waited for.
    """
    with pace.Timer() as interval:
        finished = _run_to_end(argv, timeout_s, **kwargs)
    return interval, finished


def _run_to_end(argv: list[str], timeout_s: float, **kwargs) -> Finished:
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    stderr: list[str] = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Finished(proc.returncode, stdout, stderr[0], usage.ru_maxrss / 1024.0)


def fresh_import_s(ctx: Context, modules: str, samples: int = 3) -> list[pace.Interval]:
    """Wall times of fresh interpreters that import ``modules`` and exit."""
    code = f"import {modules}" if modules else "pass"
    out = []
    for _ in range(samples):
        wall, proc = timed_subprocess(
            [sys.executable, "-c", code], env=ctx.child_env(), cwd=ctx.workdir
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import of {modules!r} failed: {proc.stderr[-500:]}")
        out.append(wall)
    return out


def tail(values: list[float]) -> tuple[float, int]:
    """``(value, samples_beyond)`` of the latency tail, :data:`TAIL_PERCENTILE`."""
    if len(values) == 1:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for v in values if v > value)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_pid_mb(pid: int) -> float:
    """High-water resident set of a live process (Linux ``VmHWM``)."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    from repro.odesim.kernels import available_backends

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "c_transient_backend": "c" in available_backends(),
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def end_to_end(
    ops: Ops, setup_samples: list[pace.Interval], peak_rss_mb: float
) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts reported beside them."""
    if not ops.latencies:
        raise RuntimeError("no operation succeeded; nothing to report")
    tail_value, beyond = tail(ops.latencies)
    metrics = {
        "setup_s": (statistics.median(s.raw_s for s in setup_samples) * pace.run_factor(), "s"),
        "latency_p50_s": (statistics.median(ops.latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_per_s": (ops.units_done / ops.elapsed_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    facts = {
        "latency_samples": len(ops.latencies),
        "raw_latency_p50_s": statistics.median(ops.raw_latencies),
        "latency_tail_percentile": TAIL_PERCENTILE,
        "latency_tail_samples_beyond": beyond,
        "run_scale": pace.run_factor(),
        "setup_samples_s": [round(s.raw_s * pace.run_factor(), 6) for s in setup_samples],
        "raw_setup_samples_s": [round(s.raw_s, 6) for s in setup_samples],
        "measured_s": round(ops.elapsed_s, 6),
        "measured_window_s": round(ops.window_s, 6),
        "failed_ratio": len(ops.failures) / ops.attempted,
        "failures": ops.failures[:10],
        "latencies_s": [round(lat, 4) for lat in ops.latencies],
        "raw_latencies_s": [round(lat, 4) for lat in ops.raw_latencies],
    }
    return metrics, facts


def emit(correct: bool, ops: Ops, metrics: dict, details: dict) -> None:
    """Print the details line, then the result as the last stdout line."""
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": ops.attempted,
                "failed": len(ops.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
