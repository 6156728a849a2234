"""Per-layer measurement for the traced run.

The benchmark times each layer from outside: :class:`Instrumentation`
wraps the public functions at layer boundaries in spans of the program's
own tracer (``repro.obs``) and counts calls in its metrics registry.  The
program's existing phase spans (``lockrange``, ``characterize``,
``curve-extraction``, ``curve-solve``, ``edge-refine``, ``sweep``,
``sweep.group``, ``serve.*``) and counters are read as they are.

:func:`layer_metrics` folds span records and counter totals into the
``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics

import pace
from common import fresh_import_s

#: (module path, attribute) pairs bound to the natural-oscillation solve.
_NATURAL_BINDINGS = (
    ("repro.core.natural", "predict_natural_oscillation"),
    ("repro.core.lockrange", "predict_natural_oscillation"),
    ("repro.sweep.engine", "predict_natural_oscillation"),
)
_STACKED_BINDINGS = (
    ("repro.core.two_tone", "two_tone_surfaces_stacked"),
    ("repro.sweep.engine", "two_tone_surfaces_stacked"),
)

#: Per-layer metric names, in BENCHMARK.json order, with units.
PER_LAYER = (
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("natural.calls", "count/op"),
    ("natural.busy_s", "s/op"),
    ("two_tone.characterize.busy_s", "s/op"),
    ("two_tone.stacked_build.busy_s", "s/op"),
    ("two_tone.stacked_build.surfaces", "count/op"),
    ("two_tone.df_evaluations", "count/solve"),
    ("two_tone.harmonic_at.calls", "count/solve"),
    ("curves.extract.busy_s", "s/op"),
    ("lockrange.self_s", "s/op"),
    ("lockrange.curve_solve_s", "s/op"),
    ("lockrange.edge_refine_s", "s/op"),
    ("lockrange.edge_err_rel_max", "ratio"),
    ("surface_cache.get.busy_s", "s/op"),
    ("surface_cache.hits", "count/op"),
    ("surface_cache.misses", "count/op"),
    ("surface_cache.hit_ratio", "ratio"),
    ("surface_cache.put.busy_s", "s/op"),
    ("surface_cache.puts", "count/op"),
    ("sharded_cache.get_or_build_many.busy_s", "s/op"),
    ("sharded_cache.lru_hits", "count/op"),
    ("sharded_cache.singleflight_builds", "count/op"),
    ("sweep.self_s", "s/op"),
    ("sweep.lock_solves", "count/op"),
    ("sweep.escalations", "count/op"),
    ("sweep.ok_ratio", "ratio"),
    ("robust.attempts", "count/op"),
    ("robust.escalations", "count/op"),
    ("robust.useful_ratio", "ratio"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.worker_solve_s.p50", "s"),
    ("serve.overhead_s.p50", "s"),
    ("serve.deduped", "count"),
    ("serve.retried", "count"),
    ("serve.rejected", "count"),
    ("serve.degraded", "count"),
    ("serve.worker_restarts", "count"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


def _span_wrapper(fn, name: str, result_counter: str | None = None):
    """``fn`` inside a span; optionally count the items it returns."""
    from repro.obs import metrics, tracer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, kind="bench"):
            result = fn(*args, **kwargs)
        if result_counter is not None:
            metrics.inc(result_counter, len(result))
        return result

    return wrapper


def _counting_wrapper(fn, counter: str):
    from repro.obs import metrics

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        metrics.inc(counter)
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Wraps layer-boundary functions; :meth:`remove` restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Instrumentation":
        import importlib

        from repro.core.two_tone import TwoToneSurface
        from repro.perf.sharded_cache import ShardedSurfaceCache
        from repro.perf.surface_cache import SurfaceCache

        natural = importlib.import_module("repro.core.natural").predict_natural_oscillation
        wrapped = _span_wrapper(natural, "bench.natural")
        for module, attr in _NATURAL_BINDINGS:
            self._patch(importlib.import_module(module), attr, wrapped)
        stacked = importlib.import_module("repro.core.two_tone").two_tone_surfaces_stacked
        wrapped = _span_wrapper(
            stacked, "bench.stacked-build", result_counter="bench.stacked_build.surfaces"
        )
        for module, attr in _STACKED_BINDINGS:
            self._patch(importlib.import_module(module), attr, wrapped)
        self._patch(
            TwoToneSurface,
            "harmonic_at",
            _counting_wrapper(TwoToneSurface.harmonic_at, "bench.harmonic_at.calls"),
        )
        self._patch(SurfaceCache, "get", _span_wrapper(SurfaceCache.get, "bench.surface-cache.get"))
        self._patch(SurfaceCache, "put", _span_wrapper(SurfaceCache.put, "bench.surface-cache.put"))
        self._patch(
            ShardedSurfaceCache,
            "get_or_build_many",
            _span_wrapper(ShardedSurfaceCache.get_or_build_many, "bench.sharded-cache.get_or_build_many"),
        )
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def counter_total(counters: dict, name: str, **labels) -> float:
    """Sum a counter family over its label sets (``name`` or ``name{...}``)."""
    total = 0.0
    for key, value in counters.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if labels and not all(f"{k}={v}" in rest for k, v in labels.items()):
            continue
        total += value
    return total


class SpanTable:
    """Inclusive and self time per span name over a set of span records."""

    def __init__(self, records: list[dict]):
        children: dict[int, float] = {}
        for r in records:
            if r.get("parent_id") is not None:
                children[r["parent_id"]] = children.get(r["parent_id"], 0.0) + r["dur_s"]
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.covered: dict[int, float] = children
        for r in records:
            name = r["name"]
            self.incl[name] = self.incl.get(name, 0.0) + r["dur_s"]
            own = max(r["dur_s"] - children.get(r["span_id"], 0.0), 0.0)
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.count[name] = self.count.get(name, 0) + 1


def layer_metrics(
    spans: SpanTable,
    span_ops: int,
    counters: dict,
    counter_ops: int,
    extra: dict,
) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Span-derived values are per traced operation (``span_ops``), counter
    values per operation the counters cover (``counter_ops``).  Where no
    operation reached the escalation ladder, ``robust.attempts`` is 0 and
    ``robust.useful_ratio`` reads 0, not a perfect 1.  ``extra`` supplies
    the values measured outside spans and counters (start-up, serve
    percentiles, output checks, tracing overhead and coverage).
    """
    span_ops = max(span_ops, 1)
    counter_ops = max(counter_ops, 1)

    def per_span_op(name, table):
        return table.get(name, 0.0) / span_ops

    def per_op(name, **labels):
        return counter_total(counters, name, **labels) / counter_ops

    solves = counter_total(counters, "lockrange.solves")
    hits, misses = counter_total(counters, "cache.hits"), counter_total(counters, "cache.misses")
    points = counter_total(counters, "sweep.points")
    attempts = counter_total(counters, "ladder.attempts")
    ok_attempts = counter_total(counters, "ladder.attempts", outcome="ok")
    values = {
        "natural.calls": spans.count.get("bench.natural", 0) / span_ops,
        "natural.busy_s": per_span_op("bench.natural", spans.incl),
        "two_tone.characterize.busy_s": per_span_op("characterize", spans.incl),
        "two_tone.stacked_build.busy_s": per_span_op("bench.stacked-build", spans.incl),
        "two_tone.stacked_build.surfaces": per_op("bench.stacked_build.surfaces"),
        "two_tone.df_evaluations": (
            counter_total(counters, "df.evaluations") / solves if solves else 0.0
        ),
        "two_tone.harmonic_at.calls": (
            counter_total(counters, "bench.harmonic_at.calls") / solves if solves else 0.0
        ),
        "curves.extract.busy_s": per_span_op("curve-extraction", spans.incl),
        "lockrange.self_s": per_span_op("lockrange", spans.self_s),
        "lockrange.curve_solve_s": per_span_op("curve-solve", spans.incl),
        "lockrange.edge_refine_s": per_span_op("edge-refine", spans.incl),
        "surface_cache.get.busy_s": per_span_op("bench.surface-cache.get", spans.incl),
        "surface_cache.hits": per_op("cache.hits"),
        "surface_cache.misses": per_op("cache.misses"),
        "surface_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "surface_cache.put.busy_s": per_span_op("bench.surface-cache.put", spans.incl),
        "surface_cache.puts": per_op("cache.puts"),
        "sharded_cache.get_or_build_many.busy_s": per_span_op(
            "bench.sharded-cache.get_or_build_many", spans.incl
        ),
        "sharded_cache.lru_hits": per_op("cache.lru_hits"),
        "sharded_cache.singleflight_builds": per_op("cache.singleflight_builds"),
        "sweep.self_s": (
            spans.self_s.get("sweep", 0.0) + spans.self_s.get("sweep.group", 0.0)
        ) / span_ops,
        "sweep.lock_solves": per_op("sweep.lock_solves"),
        "sweep.escalations": per_op("sweep.escalations"),
        "sweep.ok_ratio": (
            counter_total(counters, "sweep.points", status="ok") / points if points else 0.0
        ),
        "robust.escalations": (attempts - ok_attempts) / counter_ops,
        "robust.attempts": attempts / counter_ops,
        "robust.useful_ratio": ok_attempts / attempts if attempts else 0.0,
        "serve.queue_wait_s.p50": 0.0,
        "serve.worker_solve_s.p50": 0.0,
        "serve.overhead_s.p50": 0.0,
        "serve.deduped": counter_total(counters, "serve.deduped"),
        "serve.retried": counter_total(counters, "serve.retried"),
        "serve.rejected": counter_total(counters, "serve.rejected"),
        "serve.degraded": counter_total(counters, "serve.degraded"),
        "serve.worker_restarts": counter_total(counters, "serve.worker_restarts"),
    }
    values.update(extra)
    units = dict(PER_LAYER)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: (float(values[name]), units[name]) for name, _ in PER_LAYER}


def overhead(traced: list[float], untraced: list[float]) -> float:
    """Traced minus untraced median latency."""
    return statistics.median(traced) - statistics.median(untraced or traced)


def offset_records(records: list[dict], index: int) -> list[dict]:
    """Span records with ids moved into operation ``index``'s own range."""
    offset = index * 10_000_000
    out = []
    for r in records:
        r = dict(r)
        r["span_id"] += offset
        if r.get("parent_id") is not None:
            r["parent_id"] += offset
        out.append(r)
    return out


class OpLoop:
    """Times the operations of an in-process loop; traces every other one.

    With ``trace`` off nothing is wrapped or recorded.  With it on,
    even-numbered operations run with :class:`Instrumentation` installed
    and the tracer buffering under a ``bench.op`` root span, and odd ones
    run the plain program, so one run yields both medians.  Counters are
    summed over the traced operations only.  ``latency`` is the last
    operation's wall time scaled to the reference speed (:mod:`pace`),
    ``raw_latency`` the same unscaled.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.records: list[dict] = []
        self.counters: dict[str, float] = {}
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.latency = 0.0
        self.raw_latency = 0.0

    @contextlib.contextmanager
    def op(self, index: int):
        from repro.obs import metrics, tracer

        traced = self.trace and index % 2 == 0
        if traced:
            instrumentation = Instrumentation().install()
            before = metrics.snapshot()["counters"]
            tracer.enable()
        timer = pace.Timer()
        try:
            with timer, tracer.span("bench.op", kind="bench"):
                yield
        finally:
            self.latency, self.raw_latency = timer.interval.scaled_s, timer.interval.raw_s
            (self.traced if traced else self.untraced).append(self.latency)
            if traced:
                from repro.verify import counter_deltas

                tracer.disable()
                instrumentation.remove()
                for key, value in counter_deltas(before, metrics.snapshot()["counters"]).items():
                    self.counters[key] = self.counters.get(key, 0) + value
                self.records.extend(offset_records(tracer.records(), index))

    def layer_metrics(self, ctx, ops, edge_err: float) -> dict:
        """Per-layer metrics of the loop; coverage is over the root spans."""
        table = SpanTable(self.records)
        roots = [r for r in self.records if r["name"] == "bench.op"]
        wall = sum(r["dur_s"] for r in roots)
        covered = sum(table.covered.get(r["span_id"], 0.0) for r in roots)
        extra = startup_metrics(ctx)
        extra.update(
            {
                "lockrange.edge_err_rel_max": edge_err,
                "failed_ratio": len(ops.failures) / ops.attempted,
                "trace.overhead_s": overhead(self.traced, self.untraced),
                "trace.coverage": covered / wall,
            }
        )
        return layer_metrics(table, len(roots), self.counters, len(roots), extra)


def startup_metrics(ctx) -> dict:
    """Fresh-interpreter start-up, and ``import repro.cli`` on top of it."""
    interpreter = statistics.median(s.raw_s for s in fresh_import_s(ctx, ""))
    with_import = statistics.median(s.raw_s for s in fresh_import_s(ctx, "repro.cli"))
    interpreter, with_import = (t * pace.run_factor() for t in (interpreter, with_import))
    return {"cli.interpreter_s": interpreter, "cli.import_s": with_import - interpreter}
