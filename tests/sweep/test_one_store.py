"""Sweeps and scalar solves share one surface store.

A sweep's stacked build and a scalar ``predict_lock_range`` compute the
same record under the same key, so whichever runs second must read the
first one's record instead of rebuilding it — and ``repro cache`` must
see (and clear) what a sweep wrote.
"""

import threading

import pytest

from repro.core.lockrange import predict_lock_range
from repro.obs import metrics
from repro.perf import default_cache
from repro.sweep import SweepPoint, SweepSpec, run_sweep
from repro.verify.scenarios import FAMILIES

GRID = dict(n_a=41, n_phi=81, n_samples=256)


@pytest.fixture()
def fresh_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def _spec(*v_is: float) -> SweepSpec:
    points = tuple(SweepPoint(family="tanh", n=3, v_i=v_i) for v_i in v_is)
    return SweepSpec(name="one-store", points=points, **GRID)


def _scalar_solve(v_i: float):
    nonlinearity, tank = FAMILIES["tanh"]()
    return predict_lock_range(nonlinearity, tank, v_i=v_i, n=3, **GRID)


def _records(root):
    return sorted(root.rglob("*.npz"))


class TestOneStore:
    def test_scalar_solve_after_sweep_hits(self, fresh_root):
        swept = run_sweep(_spec(0.03))
        assert swept.surface_builds == 1
        misses = metrics.counter("cache.misses")
        lock = _scalar_solve(0.03)
        assert metrics.counter("cache.misses") == misses
        assert len(_records(fresh_root)) == 1
        assert lock.width_hz == swept.outcomes[0].lock.width_hz

    def test_sweep_after_scalar_solve_builds_nothing(self, fresh_root):
        _scalar_solve(0.03)
        swept = run_sweep(_spec(0.03))
        assert swept.surface_builds == 0
        assert len(_records(fresh_root)) == 1

    def test_cache_command_sees_and_clears_sweep_records(self, fresh_root):
        run_sweep(_spec(0.02, 0.03))
        cache = default_cache()
        assert len(cache) == 2
        assert cache.fingerprint_coverage()["records"] == 2
        assert cache.clear() == 2
        assert _records(fresh_root) == []

    def test_concurrent_sweeps_build_each_surface_once(self, fresh_root):
        spec = _spec(0.02, 0.03, 0.04)
        builds = metrics.counter("sweep.surface_builds")
        start = threading.Barrier(4)
        results, errors = [], []

        def sweep():
            start.wait()
            try:
                results.append(run_sweep(spec))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=sweep) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        assert len(results) == 4
        assert metrics.counter("sweep.surface_builds") - builds == 3
        assert default_cache().inflight_count == 0
        widths = {tuple(o.lock.width_hz for o in r.outcomes) for r in results}
        assert len(widths) == 1
