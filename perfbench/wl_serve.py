"""``serve-mix``: a ``repro serve --workers 1`` process under 2 closed-loop clients."""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import inputs
import layers
import pace

_BANNER = "repro serve listening on http://127.0.0.1:"
#: Result fields that describe execution, not the answer.
_VOLATILE = ("wall_s", "surface_builds")


#: Closed-loop time between two calibrations of the host speed.
STRETCH_S = 2.0

#: Untimed first job: loads the worker's solver modules, shares no result
#: or surface with the measured mix.
_WARMUP_JOB = {"kind": "natural", "family": "tanh"}


class Service:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: common.Context, name: str, probe: bool = False):
        self.dir = ctx.fresh_dir(name)
        self.cache_dir = self.dir / "cache"
        argv = [sys.executable, "-m", "repro"]
        if probe:
            argv = [sys.executable, str(common.BENCH_DIR / "probe.py"), str(self.dir / "probe.json")]
            argv += ["--trace", "TRACE.jsonl"]
        argv += ["serve", "--port", "0", "--workers", "1", "--report", "SERVE_REPORT.json"]
        self._stderr = open(self.dir / "stderr.txt", "w")
        with pace.Timer() as boot:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv,
                cwd=self.dir,
                env=ctx.child_env(cache_dir=self.cache_dir),
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
                start_new_session=True,
            )
            self._lines: list[str] = []
            self._banner = threading.Event()
            self._reader = threading.Thread(target=self._read, daemon=True)
            self._reader.start()
            try:
                self.port = self._await_ready(t0)
            except BaseException:
                self.stop()
                raise
        self.boot = boot

    def warm_up(self) -> None:
        from repro.serve import ServeClient

        status, body = ServeClient(port=self.port).submit_and_wait(_WARMUP_JOB, max_resubmits=0)
        if classify(status, body, outcomes=("oscillates",)) is not None:
            raise RuntimeError(f"warm-up job failed: HTTP {status} {body}")

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)
            if line.startswith(_BANNER):
                self._banner.set()
        self._banner.set()

    def _await_ready(self, t0: float) -> int:
        from repro.serve import ServeClient, ServeUnavailableError

        if not self._banner.wait(120) or self.proc.poll() is not None:
            raise RuntimeError(f"service did not start: {(self.dir / 'stderr.txt').read_text()[-800:]}")
        banner = next(line for line in self._lines if line.startswith(_BANNER))
        port = int(banner[len(_BANNER):].split(" ")[0])
        client = ServeClient(port=port, timeout_s=10)
        while time.perf_counter() - t0 < 120:
            try:
                status, body = client.ready()
                if status == 200 and body.get("ready"):
                    return port
            except ServeUnavailableError:
                pass
            time.sleep(0.005)
        raise RuntimeError("service never became ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)  # the service and its workers
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()


def classify(status: int, body: dict, outcomes=("locked", "tongue")) -> str | None:
    """Failure reason of one answered submission, or ``None``."""
    if status in (429, 503):
        return f"refused: HTTP {status} {body.get('reason', '')}".rstrip()
    if status != 200:
        return f"error: HTTP {status}"
    if body.get("degraded"):
        return f"degraded: {body.get('degraded_mode')}"
    if body.get("status") != "completed":
        return f"error: job {body.get('status')}"
    outcome = (body.get("result") or {}).get("outcome")
    if outcome not in outcomes:
        return f"error: outcome {outcome}"
    return None


def same_result(got: dict, want: dict, rel: float = 1e-9) -> bool:
    """Answer fields equal; floats within ``rel``."""
    keys = (set(got) | set(want)) - set(_VOLATILE)
    for key in keys:
        a, b = got.get(key), want.get(key)
        if isinstance(a, float) and isinstance(b, float):
            if not math.isclose(a, b, rel_tol=rel, abs_tol=0.0):
                return False
        elif a != b:
            return False
    return True


def drive(port: int, jobs: list[dict], seconds: float, clients: int = 2):
    """Closed loop of ``clients`` threads over ``jobs``; ``(ops, answers)``.

    The loop runs in stretches of about :data:`STRETCH_S`.  Each stretch
    drains before the next starts, so the calibrations around it (see
    :mod:`pace`) run on an idle service; its latencies and its wall time
    are scaled by them.  ``answers`` keep the raw latencies, which the
    traced run splits into queue wait, worker solve and overhead.
    """
    ops = common.Ops()
    answers = []  # (op index, job, body, raw latency)
    cursor = iter(enumerate(jobs))
    more = True
    while more and not common.out_of_time(ops.elapsed_s, seconds, ops.latencies):
        first = len(ops.entries)
        with pace.Timer(all_cpus=True) as stretch:
            budget = min(STRETCH_S, seconds - ops.elapsed_s)
            more = _stretch(port, cursor, budget, clients, ops, answers)
        factor = stretch.scaled_s / stretch.raw_s
        for entry in ops.entries[first:]:
            entry[0] *= factor
        ops.elapsed_s += stretch.scaled_s
        ops.window_s += stretch.raw_s
    return ops, answers


def _stretch(port: int, cursor, budget: float, clients: int, ops: common.Ops, answers: list) -> bool:
    """One closed-loop stretch; False once the job list is used up."""
    from repro.serve import ServeClient, ServeUnavailableError

    lock = threading.Lock()
    more = [True]
    start = time.perf_counter()

    def client_loop() -> None:
        client = ServeClient(port=port, timeout_s=120)
        while True:
            with lock:
                if common.out_of_time(time.perf_counter() - start, budget, ops.latencies):
                    return
                item = next(cursor, None)
                if item is None:
                    more[0] = False
                    return
            _, job = item
            t0 = time.perf_counter()
            try:
                status, body = client.submit_and_wait(job, max_resubmits=0)
                failure = classify(status, body)
            except ServeUnavailableError as exc:
                body, failure = {}, f"error: {exc}"
            latency = time.perf_counter() - t0
            with lock:
                index = ops.record(latency, failure)
                answers.append((index, job, body, latency))

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("client threads did not finish")
    return more[0]


def check_answers(ops: common.Ops, answers: list, cache_dir=None) -> float:
    """Compare every completed answer with the in-process solve.

    ``cache_dir`` is the service's surface cache: the in-process solves
    read the surfaces the service stored and redo the rest of the solve.
    Returns the largest lock-range edge deviation relative to the width.
    """
    own_cache = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        return _compare(ops, answers)
    finally:
        if own_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = own_cache


def _compare(ops: common.Ops, answers: list) -> float:
    from repro.serve import execute_job, parse_job

    referees: dict[str, dict] = {}
    worst = 0.0
    for index, job, body, _ in answers:
        if ops.entries[index][1] is not None:
            continue
        spec = parse_job(job)
        key = spec.fingerprint()
        if key not in referees:
            referees[key] = execute_job(spec.to_payload())
        reply = referees[key]
        if not reply.get("ok") or not same_result(body["result"], reply["result"]):
            ops.fail(index, f"wrong: {job} answer differs from the in-process solve")
        elif job["kind"] == "lockrange":
            got, want = body["result"], reply["result"]
            worst = max(
                worst,
                max(
                    abs(got[edge] - want[edge])
                    for edge in ("injection_lower_hz", "injection_upper_hz")
                ) / want["width_hz"],
            )
    return worst


def _boot(ctx: common.Context, name: str) -> pace.Interval:
    """Time to ready of one service that is stopped straight away."""
    service = Service(ctx, name)
    service.stop()
    return service.boot


def run(ctx: common.Context):
    jobs = inputs.serve_mix(ctx.seed)
    common.assert_checkout_import()

    # Five set-ups: two boots before the serving one and two after the
    # loop, so the set-up samples bracket the measured operations.
    setup_samples = [_boot(ctx, f"boot-{k}") for k in range(2)]
    service = Service(ctx, "service", probe=False)
    setup_samples.append(service.boot)
    try:
        service.warm_up()
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        ops, answers = drive(service.port, jobs, seconds)
        peak_rss = common.peak_rss_pid_mb(service.proc.pid)
    finally:
        service.stop()
    setup_samples += [_boot(ctx, f"boot-{k}") for k in range(2, 4)]
    edge_err = check_answers(ops, answers, service.cache_dir)
    if not ctx.trace:
        metrics_out, facts = common.end_to_end(ops, setup_samples, peak_rss)
        facts["job_mix"] = _mix(answers)
        facts["edge_err_rel_max"] = edge_err
        return ops.correct, ops, metrics_out, facts

    # Traced half: the same job list against a service started through the probe.
    untraced = ops
    traced_service = Service(ctx, "traced", probe=True)
    try:
        traced_service.warm_up()
        ops, answers = drive(traced_service.port, jobs, ctx.seconds / 2)
        from repro.serve import ServeClient

        _, snapshot = ServeClient(port=traced_service.port).metrics()
    finally:
        traced_service.stop()
    edge_err = max(edge_err, check_answers(ops, answers, traced_service.cache_dir))
    trace = [
        json.loads(line)
        for line in (traced_service.dir / "TRACE.jsonl").read_text().splitlines()[1:]
    ]
    extra = layers.startup_metrics(ctx)
    extra.update(serve_layer_metrics(trace, ops, answers))
    extra["trace.overhead_s"] = layers.overhead(ops.latencies, untraced.latencies)
    extra["lockrange.edge_err_rel_max"] = edge_err
    job_traces = {body.get("trace_id") for _, _, body, _ in answers}
    table = layers.SpanTable([r for r in trace if r.get("trace_id") in job_traces])
    traced_ops = ops.attempted
    ops.entries = untraced.entries + ops.entries  # the result counts both halves
    extra["failed_ratio"] = len(ops.failures) / ops.attempted
    metrics_out = layers.layer_metrics(
        table, traced_ops, snapshot["counters"], traced_ops, extra
    )
    return ops.correct, ops, metrics_out, {"job_mix": _mix(answers)}


def serve_layer_metrics(trace: list[dict], ops: common.Ops, answers: list) -> dict:
    """Queue wait, worker solve and service overhead per job, plus coverage."""
    by_id = {r["span_id"]: r for r in trace}
    worker: dict[str, float] = {}
    request: dict[str, float] = {}
    for r in trace:
        parent = by_id.get(r.get("parent_id"))
        if r.get("process") == "worker" and parent is not None and parent["name"] == "serve.attempt":
            worker[r["trace_id"]] = worker.get(r["trace_id"], 0.0) + r["dur_s"]
        if r["name"] == "serve.request" and r.get("trace_id"):
            request[r["trace_id"]] = request.get(r["trace_id"], 0.0) + r["dur_s"]
    waits, solves, overheads, covered, wall = [], [], [], 0.0, 0.0
    seen = set()  # a deduplicated submission shares the first one's job and trace
    for index, _, body, latency in answers:
        trace_id = body.get("trace_id")
        if ops.entries[index][1] is not None or trace_id not in worker or trace_id in seen:
            continue
        seen.add(trace_id)
        wait = float(body.get("queue_wait_s") or 0.0)
        waits.append(wait)
        solves.append(worker[trace_id])
        overheads.append(latency - wait - worker[trace_id])
        covered += request.get(trace_id, 0.0)
        wall += latency
    return {
        "serve.queue_wait_s.p50": statistics.median(waits),
        "serve.worker_solve_s.p50": statistics.median(solves),
        "serve.overhead_s.p50": statistics.median(overheads),
        "trace.coverage": covered / wall,
    }


def _mix(answers: list) -> dict:
    mix: dict[str, int] = {}
    for _, job, _, _ in answers:
        mix[job["kind"]] = mix.get(job["kind"], 0) + 1
    return mix
