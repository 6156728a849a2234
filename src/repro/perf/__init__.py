"""Performance subsystem: pre-characterisation caching and phase timing.

The paper's pitch is that describing-function surfaces are "pre-characterised
computationally, at minimal cost, for any given nonlinearity" — which only
pays off if the pre-characterisation is computed *once* and reused.  This
package supplies the plumbing that makes that true across processes:

* :mod:`repro.perf.fingerprint` — content-addressed identity for
  nonlinearities (a hash of the sampled I/V content, not of the Python
  object), plus stable hashes for grid arrays;
* :mod:`repro.perf.surface_cache` — the one on-disk ``.npz`` store for
  :class:`~repro.core.two_tone.TwoToneSurface` records, keyed by the
  fingerprint/grid hashes, so repeated ``characterize()`` / isoline /
  lock-range calls and sweeps warm-start across processes and CLI runs
  (sweeps build their misses under in-process single-flight);
* :mod:`repro.perf.timers` — near-zero-overhead phase timers and the
  machine-readable ``BENCH_*.json`` emitter behind the CLI ``--profile``
  flag.
"""

from repro.perf.fingerprint import (
    array_hash,
    combine_keys,
    nonlinearity_fingerprint,
    payload_fingerprint,
)
from repro.perf.surface_cache import SurfaceCache, cache_disabled, default_cache
from repro.perf.timers import (
    PhaseTimer,
    Stopwatch,
    profiler,
    timed,
    write_bench_json,
)

__all__ = [
    "array_hash",
    "combine_keys",
    "nonlinearity_fingerprint",
    "payload_fingerprint",
    "cache_disabled",
    "SurfaceCache",
    "default_cache",
    "PhaseTimer",
    "Stopwatch",
    "profiler",
    "timed",
    "write_bench_json",
]
