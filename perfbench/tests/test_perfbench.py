"""Tests of the benchmark itself: names, seeding, failure accounting.

Run from the checkout root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import http.server
import json
import threading
import time
from types import SimpleNamespace

import pytest

import common
import inputs
import layers
import pace
import run
import wl_lockrange
import wl_serve
import wl_tongue

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


# -- names -------------------------------------------------------------------------


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS)
    assert sorted(names) == sorted(inputs.PLAN["workloads"])
    assert sorted(names) == sorted(inputs.GENERATORS)


def test_end_to_end_names_and_units_match_benchmark_json():
    ops = common.Ops()
    for latency in (0.1, 0.2, 0.3):
        ops.record(latency, None)
    ops.elapsed_s = 1.0
    setups = [pace.Interval(raw_s=s, scaled_s=s) for s in (1.0, 2.0, 3.0)]
    metrics, _ = common.end_to_end(ops, setups, 50.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_per_layer_names_and_units_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    names = [name for name, _ in declared] + [m["name"] for m in BENCHMARK["end_to_end"]]
    assert len(names) == len(set(names))


def test_layer_metrics_reports_every_per_layer_metric():
    extra = {
        "cli.interpreter_s": 0.1,
        "cli.import_s": 1.0,
        "lockrange.edge_err_rel_max": 0.0,
        "failed_ratio": 0.0,
        "trace.overhead_s": 0.0,
        "trace.coverage": 1.0,
    }
    out = layers.layer_metrics(layers.SpanTable([]), 1, {}, 1, extra)
    assert list(out) == [name for name, _ in layers.PER_LAYER]
    # No operation reached the escalation ladder: no perfect useful ratio.
    assert out["robust.attempts"][0] == 0.0 and out["robust.useful_ratio"][0] == 0.0
    counters = {"ladder.attempts{outcome=ok}": 3, "ladder.attempts{outcome=failed}": 1}
    out = layers.layer_metrics(layers.SpanTable([]), 2, counters, 2, extra)
    assert out["robust.attempts"][0] == 2.0 and out["robust.useful_ratio"][0] == 0.75


# -- seeding -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_lockrange_specs_are_distinct_and_balanced():
    specs = inputs.lockrange_warm(3)
    keys = [(s["family"], s["n"], s["v_i"]) for s in specs]
    assert len(keys) == len(set(keys))
    p = inputs.params("lockrange-warm")
    assert len(specs) == len(p["groups"]) * p["specs_per_group"]
    assert p["specs_per_group"] % p["setups"] == 0  # every set-up warms whole rounds
    for group in p["groups"]:
        lo, hi = group["v_i"]
        mine = [s for s in specs if (s["family"], s["n"]) == (group["family"], group["n"])]
        assert len(mine) == p["specs_per_group"]
        assert all(lo <= s["v_i"] <= hi for s in mine)


def test_serve_mix_has_repeats_and_tongues():
    jobs = inputs.serve_mix(1)
    fingerprints = [json.dumps(j, sort_keys=True) for j in jobs]
    assert len(set(fingerprints)) < len(fingerprints)
    assert any(j["kind"] == "tongue" for j in jobs)


# -- failure accounting ------------------------------------------------------------


def test_tail_is_the_fixed_percentile_with_its_count_beyond():
    values = [float(v) for v in range(1, 201)]
    value, beyond = common.tail(values)
    assert common.TAIL_PERCENTILE == 75
    assert 150.0 <= value <= 151.0 and beyond == 50
    assert common.tail([1.0]) == (1.0, 0)


def test_wrong_result_counts_as_failed():
    ops = common.Ops()
    op = ops.record(0.1, None)
    ops.record(0.2, None)
    ops.fail(op, "wrong: injected")
    assert (ops.attempted, len(ops.failures), ops.latencies) == (2, 1, [0.2])
    assert not ops.correct


def test_injected_wrong_lock_range_fails_sanity_and_referee():
    f_tank = 159154.9
    good = SimpleNamespace(injection_lower_hz=3 * f_tank - 800, injection_upper_hz=3 * f_tank + 800)
    shifted = SimpleNamespace(injection_lower_hz=3 * f_tank + 10, injection_upper_hz=3 * f_tank + 900)
    assert wl_lockrange._sanity(good, 3, f_tank) is None
    assert wl_lockrange._sanity(shifted, 3, f_tank).startswith("wrong")
    assert wl_lockrange.edge_error(shifted, good) > 0.1


def test_injected_wrong_tongue_row_fails_the_check():
    lock = SimpleNamespace(width=10.0, contains=lambda w: w < 5.0)
    point = SimpleNamespace(family="tanh", n=3, v_i=0.03, w_injection=4.0)
    spec = SimpleNamespace(points=[point])
    good = SimpleNamespace(outcomes=[SimpleNamespace(point=point, status="ok", lock=lock, locked=True)])
    assert wl_tongue.check_sweep(good, spec, lambda *a: lock, 1e-9)[0] is None
    off = SimpleNamespace(width=10.0 * (1 + 1e-6), contains=lock.contains)
    bad = SimpleNamespace(outcomes=[SimpleNamespace(point=point, status="ok", lock=off, locked=True)])
    assert wl_tongue.check_sweep(bad, spec, lambda *a: lock, 1e-9)[0].startswith("wrong")
    nolock = SimpleNamespace(outcomes=[SimpleNamespace(point=point, status="no-lock", lock=None, locked=False)])
    assert wl_tongue.check_sweep(nolock, spec, lambda *a: lock, 1e-9)[0].startswith("wrong")


def test_serve_answer_classification():
    ok = {"status": "completed", "degraded": False, "result": {"outcome": "locked"}}
    assert wl_serve.classify(200, ok) is None
    assert wl_serve.classify(429, {"reason": "rate-limited"}).startswith("refused")
    assert wl_serve.classify(503, {}).startswith("refused")
    assert wl_serve.classify(200, {**ok, "degraded": True}).startswith("degraded")
    assert wl_serve.classify(200, {**ok, "result": {"outcome": "no-lock"}}) is not None


class _Refuser(http.server.BaseHTTPRequestHandler):
    """Answers every job submission with a typed 429."""

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = json.dumps({"error": "rate-limited", "reason": "rate-limited", "retry_after_s": 0.01})
        self.send_response(429)
        self.send_header("Content-Type", "application/json")
        self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body.encode())

    def log_message(self, *args):
        pass


def test_429_refusal_counts_as_failed():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Refuser)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        jobs = [{"kind": "lockrange", "family": "tanh", "n": 3, "v_i": 0.03}] * 3
        ops, answers = wl_serve.drive(server.server_address[1], jobs, seconds=30.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert ops.attempted == 3 and len(ops.failures) == 3
    assert all(f.startswith("refused: HTTP 429") for f in ops.failures)
    assert ops.correct  # a refusal is a failure, not a wrong answer


def test_serve_answer_differing_from_in_process_solve_is_wrong():
    from repro.serve import execute_job, parse_job

    job = {"kind": "lockrange", "family": "tanh", "n": 3, "v_i": 0.03}
    result = execute_job(parse_job(job).to_payload())["result"]
    injected = dict(result, injection_upper_hz=result["injection_upper_hz"] * (1 + 1e-6))
    ops = common.Ops()
    ops.record(0.1, None)
    ops.record(0.1, None)
    answers = [(0, job, {"result": result}, 0.1), (1, job, {"result": injected}, 0.1)]
    wl_serve.check_answers(ops, answers)
    assert len(ops.failures) == 1 and ops.failures[0].startswith("wrong")
    assert not ops.correct


# -- set-up and layer accounting ---------------------------------------------------


def test_warm_up_writes_the_record_the_measured_call_reads(tmp_path, monkeypatch):
    import warmup
    from repro.core.lockrange import predict_lock_range
    from repro.obs import metrics
    from repro.verify.scenarios import FAMILIES

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    spec = {"family": "tanh", "n": 3, "v_i": 0.03}
    warmup.warm([spec])
    misses = metrics.counter("cache.misses")
    nonlinearity, tank = FAMILIES["tanh"]()
    predict_lock_range(nonlinearity, tank, v_i=spec["v_i"], n=spec["n"])
    assert metrics.counter("cache.misses") == misses


def test_timed_subprocess_reports_the_child_own_peak_rss(tmp_path):
    import sys

    # A child's figure starts from this process's resident set at spawn,
    # so the small child is compared with the large one, not with a constant.
    big = "b = bytearray(250 * 1024 * 1024); b[::4096] = b'x' * len(b[::4096])"
    _, large = common.timed_subprocess([sys.executable, "-c", big], cwd=tmp_path)
    _, small = common.timed_subprocess([sys.executable, "-c", "print('ok')"], cwd=tmp_path)
    assert large.returncode == 0 and small.stdout == "ok\n"
    assert large.peak_rss_mb > 250
    assert small.peak_rss_mb < large.peak_rss_mb - 100



# -- host-speed scaling ------------------------------------------------------------


def test_timer_scales_by_the_calibrations_around_the_interval(monkeypatch):
    samples = iter([pace.REFERENCE_S, 3 * pace.REFERENCE_S])  # host at half speed on average
    monkeypatch.setattr(pace, "calibration", lambda: next(samples))
    with pace.Timer() as interval:
        time.sleep(0.02)
    assert interval.raw_s >= 0.02
    assert interval.scaled_s == pytest.approx(interval.raw_s / 2)


def test_all_cpu_calibration_averages_every_cpu_and_restores_affinity(monkeypatch):
    import os

    cpus = os.sched_getaffinity(0)
    samples = iter(range(1, len(cpus) + 1))
    monkeypatch.setattr(pace, "calibration", lambda: float(next(samples)))
    assert pace.calibration_all_cpus() == pytest.approx((len(cpus) + 1) / 2)
    assert os.sched_getaffinity(0) == cpus


def test_scaled_latencies_feed_the_metrics_and_raw_ones_the_details(monkeypatch):
    # The run's calibrations read the host at twice the reference speed.
    monkeypatch.setattr(pace, "_run_calibrations", [pace.REFERENCE_S / 2] * 3)
    ops = common.Ops()
    for scaled, raw in ((0.1, 0.2), (0.2, 0.4), (0.3, 0.6)):
        ops.record(scaled, None, raw_s=raw)
    ops.elapsed_s = 0.6
    metrics, facts = common.end_to_end(ops, [pace.Interval(raw_s=0.5, scaled_s=9.0)], 50.0)
    assert metrics["latency_p50_s"][0] == 0.2 and facts["raw_latency_p50_s"] == 0.4
    assert metrics["throughput_per_s"][0] == pytest.approx(5.0)
    # A set-up is scaled by the run's mean calibration.
    assert metrics["setup_s"][0] == pytest.approx(1.0) and facts["raw_setup_samples_s"] == [0.5]
