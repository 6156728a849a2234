"""Tier-1 tests for the surface store's batched single-flight path.

Two threads asking for the same uncharacterised key must produce exactly
one characterisation (observed through the ``cache.*`` metrics), built
records must come back with the stamped meta, and a ``.corrupt`` record
must never wedge a sweep.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import metrics
from repro.perf import SurfaceCache, payload_fingerprint
from repro.perf.surface_cache import SCHEMA_VERSION


def _arrays(seed: int = 0, size: int = 64) -> dict:
    rng = np.random.default_rng(seed)
    return {"coefficients": rng.standard_normal(size)}


@pytest.fixture()
def cache(tmp_path):
    return SurfaceCache(tmp_path / "store")


class TestShardLayout:
    def test_round_trip_meta_is_stamped(self, cache):
        arrays = _arrays()
        cache.put("a" * 64, arrays, {"v_i": 0.03})
        got_arrays, meta = cache.get("a" * 64)
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["fingerprint"] == payload_fingerprint(arrays)
        assert meta["v_i"] == 0.03
        np.testing.assert_array_equal(
            got_arrays["coefficients"], arrays["coefficients"]
        )


class TestSingleFlight:
    def test_two_threads_one_build(self, cache):
        builds_before = metrics.counter("cache.singleflight_builds")
        build_calls = []
        release = threading.Event()
        key = "a" * 64

        def builder_many(tokens):
            build_calls.append(threading.get_ident())
            release.wait(timeout=5.0)
            return {key: (_arrays(), {"v_i": 0.03})}

        results = [None, None]

        def worker(slot):
            results[slot] = cache.get_or_build_many({key: 0.03}, builder_many)[key]

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        # Give the loser time to park on the leader's flight, then let
        # the build finish.
        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert len(build_calls) == 1
        assert metrics.counter("cache.singleflight_builds") == builds_before + 1
        for arrays, meta in results:
            assert meta["fingerprint"] == payload_fingerprint(arrays)

    def test_get_or_build_many_builds_once_cold_zero_warm(self, cache):
        calls = []
        items = {"a" * 64: 0.01, "b" * 64: 0.02, "c" * 64: 0.03}
        key_of = {token: key for key, token in items.items()}

        def builder_many(tokens):
            calls.append(sorted(tokens))
            return {
                key_of[token]: (_arrays(int(token * 1000)), {"token": token})
                for token in tokens
            }
        cold = cache.get_or_build_many(items, builder_many)
        assert len(calls) == 1
        assert set(cold) == set(items)
        warm = cache.get_or_build_many(items, builder_many)
        assert len(calls) == 1  # nothing rebuilt
        assert set(warm) == set(items)
        assert len(cache) == len(items)

    def test_get_or_build_many_rejects_partial_builders(self, cache):
        omitting = {}  # omits every requested key
        unrequested = {"b" * 64: (_arrays(), {})}
        for built in (omitting, unrequested):
            with pytest.raises(ValueError):
                cache.get_or_build_many({"a" * 64: 1}, lambda tokens: built)
            assert cache.inflight_count == 0

    def test_built_records_carry_the_stamped_meta(self, cache):
        arrays = _arrays(3)
        key = "a" * 64
        built = cache.get_or_build_many(
            {key: 0}, lambda tokens: {key: (arrays, {"v_i": 0.03})}
        )
        got_arrays, meta = built[key]
        assert got_arrays is arrays  # handed back as built, not re-read
        assert meta == cache.get(key)[1]

    def test_no_cache_switch_still_builds_and_stamps(self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        key = "a" * 64
        built = cache.get_or_build_many(
            {key: 0}, lambda tokens: {key: (_arrays(), {})}
        )
        arrays, meta = built[key]
        assert meta["fingerprint"] == payload_fingerprint(arrays)
        monkeypatch.delenv("REPRO_NO_CACHE")
        assert len(cache) == 0


class TestCorruption:
    def test_corrupt_shard_record_recovers(self, cache):
        key = "a" * 64
        cache.put(key, _arrays(), {"v_i": 0.03})
        path = cache.path_for(key)
        path.write_bytes(b"not an npz")
        assert cache.get(key) is None
        assert path.with_suffix(path.suffix + ".corrupt").exists()

        # get_or_build_many recovers by rebuilding — the sweep never wedges.
        rebuilt = []

        def builder_many(tokens):
            rebuilt.append(True)
            return {key: (_arrays(7), {"v_i": 0.03})}

        arrays, meta = cache.get_or_build_many({key: 0.03}, builder_many)[key]
        assert rebuilt == [True]
        assert meta["fingerprint"] == payload_fingerprint(arrays)
