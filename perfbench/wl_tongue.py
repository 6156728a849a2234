"""``tongue-cold``: in-process ``run_sweep`` tongue maps on an empty cache."""

from __future__ import annotations

import os
import time

import common
import inputs
import layers

#: A set-up sample (fresh ``import repro.sweep``) before every this many sweeps.
SETUP_EVERY = 5


def _spec(groups: list[dict]):
    from repro.sweep import SweepSpec

    points = []
    for group in groups:
        points.extend(
            SweepSpec.tongue(
                group["family"],
                group["n"],
                group["v_is"],
                freq_rel_span=group["freq_rel_span"],
                freq_count=group["freq_count"],
            ).points
        )
    return SweepSpec(name="perfbench-tongue", points=tuple(points))


def check_sweep(result, spec, scalar, tolerance_rel: float) -> tuple[str | None, float]:
    """Compare every V_i row with the scalar solve of that row.

    ``scalar(family, n, v_i)`` returns a ``LockRange`` or ``None`` for a
    proven no-lock.  Returns ``(failure or None, max width deviation)``.
    """
    rows: dict[tuple, list] = {}
    for outcome in result.outcomes:
        p = outcome.point
        rows.setdefault((p.family, p.n, p.v_i), []).append(outcome)
    if sum(len(r) for r in rows.values()) != len(spec.points):
        return "wrong: sweep returned a different number of points", 0.0
    worst = 0.0
    for (family, n, v_i), outcomes in rows.items():
        lock = scalar(family, n, v_i)
        for outcome in outcomes:
            expected_status = "ok" if lock is not None else "no-lock"
            if outcome.status != expected_status:
                return f"wrong: {family} n={n} v_i={v_i} status {outcome.status} != {expected_status}", worst
            if lock is None:
                continue
            deviation = abs(outcome.lock.width - lock.width) / abs(lock.width)
            worst = max(worst, deviation)
            if deviation > tolerance_rel:
                return f"wrong: {family} n={n} v_i={v_i} width deviation {deviation:.3g}", worst
            if outcome.locked != lock.contains(outcome.point.w_injection):
                return f"wrong: {family} n={n} v_i={v_i} locked flag differs", worst
    return None, worst


def run(ctx: common.Context):
    p = inputs.params("tongue-cold")
    planned = inputs.tongue_cold(ctx.seed)

    from repro.core.lockrange import NoLockError, predict_lock_range
    from repro.sweep import run_sweep
    from repro.verify.scenarios import FAMILIES

    common.assert_checkout_import()
    oscillators = {}

    def scalar(family, n, v_i):
        if family not in oscillators:
            oscillators[family] = FAMILIES[family]()
        nonlinearity, tank = oscillators[family]
        try:
            return predict_lock_range(nonlinearity, tank, v_i=v_i, n=n)
        except NoLockError:
            return None

    ops, loop = common.Ops(), layers.OpLoop(ctx.trace)
    setup_samples, worst = [], 0.0
    start = time.perf_counter()
    for index, groups in enumerate(planned):
        if common.out_of_time(ops.busy_s, ctx.seconds, loop.traced + loop.untraced):
            break
        if index % SETUP_EVERY == 0:  # set-up samples spread over the run
            setup_samples += common.fresh_import_s(ctx, "repro.sweep", samples=1)
        spec = _spec(groups)
        os.environ["REPRO_CACHE_DIR"] = str(ctx.fresh_dir(f"cold-{index}"))
        result = None
        try:
            with loop.op(index):
                result = run_sweep(spec)
            faults = result.counts().get("fault", 0)
            failure = f"error: {faults} faulted points" if faults else None
        except Exception as exc:  # a typed error is a failed operation
            failure = f"error: {type(exc).__name__}: {exc}"
        if failure is None:
            # Untimed referee: one scalar predict_lock_range per V_i row, run
            # between sweeps so the measured sweeps spread over the run.
            os.environ["REPRO_CACHE_DIR"] = str(ctx.fresh_dir(f"referee-{index}"))
            failure, deviation = check_sweep(result, spec, scalar, p["tolerance_rel"])
            worst = max(worst, deviation)
        ops.record(loop.latency, failure, units=len(spec.points), raw_s=loop.raw_latency)
    ops.window_s = time.perf_counter() - start
    ops.elapsed_s = ops.busy_s
    peak_rss = common.peak_rss_self_mb()
    setup_samples += common.fresh_import_s(ctx, "repro.sweep", samples=1)

    details = {"width_deviation_rel_max": worst, "points_per_op": len(_spec(planned[0]).points)}
    if ctx.trace:
        return ops.correct, ops, loop.layer_metrics(ctx, ops, worst), details
    metrics_out, facts = common.end_to_end(ops, setup_samples, peak_rss)
    details.update(facts)
    return ops.correct, ops, metrics_out, details
