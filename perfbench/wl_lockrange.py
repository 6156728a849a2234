"""``lockrange-warm``: in-process ``predict_lock_range`` on a warm cache."""

from __future__ import annotations

import json
import math
import sys
import time

import common
import inputs
import layers
import pace


def _sanity(lock, n: int, f_tank: float) -> str | None:
    lo, hi = lock.injection_lower_hz, lock.injection_upper_hz
    centre = n * f_tank
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "wrong: non-finite edge"
    if not lo < centre < hi:
        return f"wrong: range {lo:.6g}..{hi:.6g} Hz misses n*f_tank {centre:.6g}"
    if abs(lo / centre - 1) > 0.02 or abs(hi / centre - 1) > 0.02:
        return "wrong: edge more than 2% from n*f_tank"
    return None


def edge_error(lock, referee) -> float:
    """Largest edge deviation from the referee, relative to its width."""
    width = referee.injection_upper_hz - referee.injection_lower_hz
    return max(
        abs(lock.injection_lower_hz - referee.injection_lower_hz),
        abs(lock.injection_upper_hz - referee.injection_upper_hz),
    ) / width


def warm_cache(ctx: common.Context, specs: list[dict], name: str) -> pace.Interval:
    """Warm the cache for ``specs`` in one fresh process; its wall time."""
    path = ctx.workdir / f"{name}.json"
    path.write_text(json.dumps(specs))
    wall, proc = common.timed_subprocess(
        [sys.executable, str(common.BENCH_DIR / "warmup.py"), str(path)],
        env=ctx.child_env(),
        cwd=ctx.workdir,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cache warm-up failed: {proc.stderr[-800:]}")
    return wall


def run(ctx: common.Context):
    p = inputs.params("lockrange-warm")
    specs = inputs.lockrange_warm(ctx.seed)
    referee_idx = inputs.lockrange_referees(ctx.seed, specs)

    from repro.core.lockrange import predict_lock_range
    from repro.obs import metrics
    from repro.verify.scenarios import FAMILIES

    common.assert_checkout_import()
    oscillators = {spec["family"]: FAMILIES[spec["family"]]() for spec in specs}

    ops, loop = common.Ops(), layers.OpLoop(ctx.trace)
    results = {}  # spec index -> (op index, lock)
    setup_samples = []
    start = time.perf_counter()
    # Each set-up warms an equal run of whole rounds (every group alike) and
    # is followed by the operations on the specs it warmed, so the measured
    # operations spread over the whole run.
    chunk = len(specs) // p["setups"]
    for k in range(p["setups"]):
        part = range(k * chunk, (k + 1) * chunk)
        setup_samples.append(warm_cache(ctx, [specs[i] for i in part], f"warm-{k}"))
        for index in part:
            if common.out_of_time(ops.busy_s, ctx.seconds, loop.traced + loop.untraced):
                break
            spec, lock = specs[index], None
            nonlinearity, tank = oscillators[spec["family"]]
            misses = metrics.counter("cache.misses")
            try:
                with loop.op(index):
                    lock = predict_lock_range(nonlinearity, tank, v_i=spec["v_i"], n=spec["n"])
                failure = _sanity(lock, spec["n"], tank.center_frequency / (2 * math.pi))
            except Exception as exc:  # a typed solver error is a failed operation
                failure = f"error: {type(exc).__name__}: {exc}"
            if failure is None and metrics.counter("cache.misses") != misses:
                failure = "error: surface cache miss on a pre-warmed spec"
            results[index] = (ops.record(loop.latency, failure, raw_s=loop.raw_latency), lock)
    ops.window_s = time.perf_counter() - start
    ops.elapsed_s = ops.busy_s
    peak_rss = common.peak_rss_self_mb()

    # Untimed referee pass: the dense quadrature path on seeded specs.
    err_max = 0.0
    for index in referee_idx:
        op, lock = results.get(index, (None, None))
        if lock is None:
            continue
        spec = specs[index]
        nonlinearity, tank = oscillators[spec["family"]]
        referee = predict_lock_range(
            nonlinearity, tank, v_i=spec["v_i"], n=spec["n"], method="dense"
        )
        err = edge_error(lock, referee)
        err_max = max(err_max, err)
        if err > p["edge_tol_rel_width"]:
            ops.fail(op, f"wrong: {spec} edge error {err:.3g} of width vs dense referee")

    details = {"referee_specs": [specs[i] for i in referee_idx], "edge_err_rel_max": err_max}
    if ctx.trace:
        return ops.correct, ops, loop.layer_metrics(ctx, ops, err_max), details
    metrics_out, facts = common.end_to_end(ops, setup_samples, peak_rss)
    details.update(facts)
    return ops.correct, ops, metrics_out, details
