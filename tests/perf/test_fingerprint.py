"""Tier-1 tests for output fingerprinting of cached surface records."""

import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf import payload_fingerprint
from repro.perf.surface_cache import SurfaceCache

KEY = "ab" * 32


def _arrays() -> dict:
    return {
        "amplitudes": np.linspace(0.1, 1.0, 16),
        "coefficients": np.arange(32, dtype=float).reshape(4, 8),
    }


class TestPayloadFingerprint:
    def test_deterministic(self):
        assert payload_fingerprint(_arrays()) == payload_fingerprint(_arrays())

    def test_insertion_order_does_not_matter(self):
        arrays = _arrays()
        reordered = dict(reversed(list(arrays.items())))
        assert payload_fingerprint(arrays) == payload_fingerprint(reordered)

    def test_value_sensitivity(self):
        arrays = _arrays()
        mutated = {k: v.copy() for k, v in arrays.items()}
        mutated["coefficients"][0, 0] += 1e-16
        assert payload_fingerprint(arrays) != payload_fingerprint(mutated)

    def test_name_sensitivity(self):
        arrays = _arrays()
        renamed = {
            ("renamed" if k == "coefficients" else k): v
            for k, v in arrays.items()
        }
        assert payload_fingerprint(arrays) != payload_fingerprint(renamed)


#: Arbitrary named-array payloads: what any surface serialises to.  Names
#: exclude the reserved ``__meta__`` npz slot; values are small float64
#: arrays (the hash is over raw bytes, so shape/size diversity is what
#: matters, not magnitude).
_payloads = st.dictionaries(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).filter(
        lambda name: name != "__meta__"
    ),
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(max_dims=2, max_side=8),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    min_size=1,
    max_size=4,
)


class TestPayloadFingerprintProperties:
    """Hypothesis laws for the content hash every regression gate trusts."""

    @given(data=st.data())
    def test_permutation_invariant(self, data):
        arrays = data.draw(_payloads)
        permuted = dict(data.draw(st.permutations(list(arrays.items()))))
        assert payload_fingerprint(permuted) == payload_fingerprint(arrays)

    @given(data=st.data())
    def test_every_element_bit_is_load_bearing(self, data):
        arrays = data.draw(_payloads)
        name = data.draw(st.sampled_from(sorted(arrays)))
        index = data.draw(st.integers(0, arrays[name].size - 1))
        bit = data.draw(st.integers(0, 63))
        mutated = {key: value.copy() for key, value in arrays.items()}
        flat = mutated[name].reshape(-1).view(np.uint64)
        flat[index] ^= np.uint64(1) << np.uint64(bit)
        assert payload_fingerprint(mutated) != payload_fingerprint(arrays)

    @given(arrays=_payloads)
    @settings(max_examples=15, deadline=None)
    def test_stable_across_sharded_cache_roundtrip(self, arrays):
        fingerprint = payload_fingerprint(arrays)
        with tempfile.TemporaryDirectory(prefix="repro-fp-prop-") as tmp:
            SurfaceCache(tmp).put(fingerprint, arrays)
            # A fresh instance reads the record back from the npz file.
            record = SurfaceCache(tmp).get(fingerprint)
            assert record is not None
            loaded, meta = record
            assert meta["fingerprint"] == fingerprint
            assert payload_fingerprint(loaded) == fingerprint


class TestCacheStamping:
    def test_put_stamps_fingerprint(self, tmp_path):
        cache = SurfaceCache(tmp_path)
        arrays = _arrays()
        cache.put(KEY, arrays, {"v_i": 0.03})
        _, meta = cache.get(KEY)
        assert meta["fingerprint"] == payload_fingerprint(arrays)
        assert meta["v_i"] == 0.03

    def test_coverage_counts_verified(self, tmp_path):
        cache = SurfaceCache(tmp_path)
        for index, key in enumerate((KEY, "cd" * 32)):
            cache.put(key, {"coefficients": np.full(8, float(index))})
        coverage = cache.fingerprint_coverage()
        assert coverage == {
            "records": 2,
            "fingerprinted": 2,
            "legacy": 0,
            "verified": 2,
            "mismatched": 0,
        }

    def test_coverage_flags_bit_rot(self, tmp_path):
        cache = SurfaceCache(tmp_path)
        cache.put(KEY, _arrays())
        # Rewrite the record's arrays while keeping the stored meta —
        # exactly the silent drift the fingerprint exists to catch.
        path = cache.path_for(KEY)
        with np.load(path, allow_pickle=False) as record:
            meta_blob = str(record["__meta__"])
        np.savez(
            path,
            __meta__=np.asarray(meta_blob),
            amplitudes=np.zeros(3),
            coefficients=np.zeros(3),
        )
        coverage = cache.fingerprint_coverage()
        assert coverage["records"] == 1
        assert coverage["mismatched"] == 1
        assert coverage["verified"] == 0

    def test_prefingerprint_records_counted_as_legacy(self, tmp_path):
        cache = SurfaceCache(tmp_path)
        cache.put(KEY, _arrays())
        # Simulate a record written before the fingerprint field existed.
        path = cache.path_for(KEY)
        with np.load(path, allow_pickle=False) as record:
            meta = json.loads(str(record["__meta__"]))
            arrays = {
                name: record[name]
                for name in record.files
                if name != "__meta__"
            }
        meta.pop("fingerprint")
        np.savez(path, __meta__=np.asarray(json.dumps(meta)), **arrays)
        coverage = cache.fingerprint_coverage()
        assert coverage == {
            "records": 1,
            "fingerprinted": 0,
            "legacy": 1,
            "verified": 0,
            "mismatched": 0,
        }
