"""Bounded memory under sustained distinct traffic.

A long-lived service sees an open-ended stream of distinct specs.  Every
per-job structure it keeps (terminal job records, the per-fingerprint
result tier behind stale-cache degradation, each record's event ring)
must stay within its configured bound however many jobs pass through.
"""

from repro.serve import ServeClient, ServeConfig, ServiceThread, TenantPolicy

_HISTORY_LIMIT = 8
_JOBS = 40


def _spec(index: int) -> dict:
    return {
        "kind": "lockrange",
        "family": "tanh",
        "n": 3,
        "v_i": 0.02 + 0.0005 * index,
        "n_a": 41,
        "n_phi": 81,
        "n_samples": 128,
        "deadline_s": 60.0,
    }


def test_distinct_specs_keep_every_tier_bounded():
    config = ServeConfig(
        workers=1,
        history_limit=_HISTORY_LIMIT,
        tenants={"default": TenantPolicy(rate_per_s=1000.0, burst=500)},
    )
    with ServiceThread(config) as host:
        client = ServeClient(port=host.port, timeout_s=120.0)
        for index in range(_JOBS):
            status, record = client.submit(_spec(index), wait=True)
            assert status == 200 and record["status"] == "completed", record
        service = host.service
        assert len(service._stale_results) == _HISTORY_LIMIT
        assert len(service.store) == _HISTORY_LIMIT
        for job_id in list(service.store._records):
            ring = service.store.get(job_id).events
            events, _, _ = ring.since(0)
            assert len(events) <= ring.limit
        assert service.unhandled_errors == []
