"""The job service: admission -> queue -> workers -> retry -> degradation.

:class:`JobService` owns the whole lifecycle of an admitted job and
enforces the service's one load-bearing invariant: **every admitted job
terminates in exactly one of** ``completed`` / ``degraded`` /
``dead-lettered``.  The state machine (DESIGN.md §13):

.. code-block:: text

    submit --(admission: rate/quota/queue)--> queued --> running
      running --worker reply ok------------------------> completed
      running --worker crash (transient)---> retrying --> running
      running --stall / permanent fault----> degrade:
          stale-cache answer?  --> degraded (degraded_mode=stale-cache)
          coarse estimate ok?  --> degraded (degraded_mode=coarse-estimate)
          neither              --> dead-lettered
      running --cancel / client disconnect-------------> dead-lettered

Degradation speaks the PR 3 fault vocabulary: the fault kinds that drove
a job off the happy path (``worker-crash``, ``worker-stall``,
``budget-exhausted``, ...) are accumulated on the record and carried into
the response and the dead-letter log.  The *coarse estimate* is the
generalised-Adler lock range — the paper's cheap analytic baseline — so a
degraded answer is still physically meaningful, just visibly marked
``degraded: true``.

:class:`ServiceThread` hosts a service (plus its HTTP front) on a
background event loop for the chaos harness, the test suite, and any
caller that wants the sync client against an in-process service.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs import (
    current_trace_id,
    get_logger,
    metrics,
    new_trace_id,
    trace,
    tracer,
)
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.events import EventRing
from repro.serve.jobs import JobRecord, JobStore, MalformedJobError, parse_job
from repro.serve.retry import RetryPolicy
from repro.serve.workers import WorkerCrashError, WorkerPool, WorkerStallError

__all__ = ["ServeConfig", "JobService", "ServiceThread"]

log = get_logger("serve")

#: Grace added to the parent-side kill timer over the job's own budget, so
#: the worker's in-band ``budget-exhausted`` path usually wins the race
#: and the hammer only falls on genuinely wedged workers.
_STALL_GRACE_S = 0.25


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance (CLI flags map 1:1 onto these)."""

    workers: int = 2
    queue_limit: int = 16
    tenants: dict = field(default_factory=dict)  # name -> TenantPolicy
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    default_deadline_s: float = 30.0
    allow_chaos: bool = False
    history_limit: int = 1024
    health_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1 or self.queue_limit < 1:
            raise ValueError("workers and queue_limit must be >= 1")
        for name, policy in self.tenants.items():
            if not isinstance(policy, TenantPolicy):
                raise TypeError(
                    f"tenant {name!r} must map to a TenantPolicy"
                )


class JobService:
    """The asyncio job service (see module docstring for the state machine)."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.store = JobStore(history_limit=self.config.history_limit)
        self.admission = AdmissionController(
            self.config.queue_limit, self.config.tenants
        )
        self.pool = WorkerPool(self.config.workers)
        self.retry_policy = self.config.retry
        self.started_unix_s = time.time()
        #: Exceptions that escaped a dispatcher or handler — must stay
        #: empty under chaos (the suite asserts on it).
        self.unhandled_errors: list[str] = []
        self._queue: asyncio.Queue[JobRecord] = asyncio.Queue(
            maxsize=self.config.queue_limit
        )
        self._tenant_inflight: dict[str, int] = {}
        #: Last completed result per spec fingerprint, most recent last;
        #: the stale-cache rung of :meth:`_degrade`.  Bounded like the
        #: job history, so a long-lived service holds at most
        #: ``history_limit`` results.
        self._stale_results: OrderedDict[str, dict] = OrderedDict()
        self._inflight_by_fp: dict[str, str] = {}
        self._dispatchers: list[asyncio.Task] = []
        self._health_task: asyncio.Task | None = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self.pool.start()
        for index in range(self.config.workers):
            self._dispatchers.append(
                asyncio.create_task(
                    self._dispatch(), name=f"serve-dispatch-{index}"
                )
            )
        self._health_task = asyncio.create_task(
            self._health_loop(), name="serve-health"
        )
        metrics.gauge("serve.workers_alive", self.pool.alive_count)
        metrics.gauge("serve.workers_healthy", self.pool.alive_count)
        metrics.gauge("serve.queue_depth", self._queue.qsize())
        log.info(
            "serve-start",
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop intake, cancel work, stop the pool."""
        self._stopping = True
        if self._health_task is not None:
            self._health_task.cancel()
        for task in self._dispatchers:
            task.cancel()
        pending = [t for t in self._dispatchers if not t.done()]
        if self._health_task is not None:
            pending.append(self._health_task)
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        # Anything still queued dead-letters explicitly — shutdown must not
        # leave admitted jobs in limbo.
        while not self._queue.empty():
            record = self._queue.get_nowait()
            if not record.terminal:
                self._dead_letter(record, "service shut down before the job ran")
        self.pool.shutdown()
        log.info("serve-stop", restarts=self.pool.restarts)

    # -- admission + submission -----------------------------------------------

    def submit(self, payload, tenant: str) -> tuple[int, dict, JobRecord | None]:
        """Admit (or reject) one submission.

        Returns ``(http_status, body, record)`` — record is ``None`` for
        every rejection.  Order of gates: rate -> quota -> queue (all in
        :class:`AdmissionController`), then spec validation, then
        single-flight dedup, then enqueue.
        """
        if self._stopping:
            return (
                503,
                _rejection("shutting-down", 1.0, "service is shutting down"),
                None,
            )
        decision = self.admission.decide(
            tenant,
            queue_depth=self._queue.qsize(),
            tenant_in_flight=self._tenant_inflight.get(tenant, 0),
        )
        if not decision.admitted:
            return (
                decision.status,
                _rejection(decision.reason, decision.retry_after_s, decision.detail),
                None,
            )
        try:
            spec = parse_job(payload, allow_chaos=self.config.allow_chaos)
        except MalformedJobError as exc:
            metrics.inc("serve.rejected", reason="malformed-spec")
            return (
                400,
                {
                    "error": "malformed-spec",
                    "fault_kind": "malformed-spec",
                    "field": exc.field,
                    "detail": str(exc),
                },
                None,
            )
        fingerprint = spec.fingerprint()
        existing_id = self._inflight_by_fp.get(fingerprint)
        if existing_id is not None:
            existing = self.store.get(existing_id)
            if existing is not None and not existing.terminal:
                metrics.inc("serve.deduped")
                return (
                    202,
                    {
                        "job_id": existing.job_id,
                        "status": existing.status,
                        "deduped": True,
                        "fingerprint": fingerprint,
                    },
                    existing,
                )
        record = JobRecord(
            job_id=self.store.new_id(),
            spec=spec,
            tenant=tenant,
            deadline_mono=time.monotonic() + spec.deadline_s,
        )
        # Adopt the ingress-minted trace id (or mint one for direct
        # submitters) so everything the job produces — spans on both sides
        # of the worker boundary, events, the status document — correlates
        # back to the originating request.
        record.trace_id = current_trace_id() or new_trace_id()
        record.enqueued_mono = time.monotonic()
        record.events = EventRing()
        record.done = asyncio.Event()
        try:
            self._queue.put_nowait(record)
        except asyncio.QueueFull:
            # Race between the admission check and the put; shed honestly.
            metrics.inc("serve.rejected", reason="queue-full")
            return (
                503,
                _rejection("queue-full", 1.0, "job queue filled during admission"),
                None,
            )
        self.store.add(record)
        self._inflight_by_fp[fingerprint] = record.job_id
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        metrics.inc("serve.admitted")
        metrics.gauge("serve.queue_depth", self._queue.qsize())
        metrics.gauge(
            "serve.tenant_inflight", self._tenant_inflight[tenant], tenant=tenant
        )
        record.events.push("queued", job_id=record.job_id, tenant=tenant)
        return (
            202,
            {
                "job_id": record.job_id,
                "status": record.status,
                "deduped": False,
                "fingerprint": fingerprint,
            },
            record,
        )

    def cancel(self, job_id: str, *, reason: str = "cancelled") -> bool:
        """Cancel a queued or running job (it dead-letters with ``reason``).

        Returns False when the job is unknown or already terminal.
        """
        record = self.store.get(job_id)
        if record is None or record.terminal:
            return False
        record.cancel_requested = True
        if record.status == "queued":
            # The dispatcher will skip it; settle it now so waiters wake.
            self._dead_letter(record, reason)
            metrics.inc("serve.cancelled")
            return True
        if record.task is not None:
            record.reason = reason
            record.task.cancel()
            metrics.inc("serve.cancelled")
            return True
        return False  # pragma: no cover - running jobs always carry a task

    # -- the dispatch/execute pipeline ----------------------------------------

    async def _dispatch(self) -> None:
        """One dispatcher: pull a record, run it as a child task.

        The job runs as its *own* task so ``cancel()`` aims at the job,
        not the dispatcher; the dispatcher survives every outcome and
        pulls the next record.
        """
        while True:
            record = await self._queue.get()
            metrics.gauge("serve.queue_depth", self._queue.qsize())
            if record.terminal or record.cancel_requested:
                if not record.terminal:
                    self._dead_letter(record, record.reason or "cancelled")
                continue
            task = asyncio.create_task(
                self._run_one(record), name=f"serve-job-{record.job_id}"
            )
            record.task = task
            try:
                await task
            except asyncio.CancelledError:
                if not task.cancelled():
                    raise  # the dispatcher itself is being stopped
            except Exception as exc:  # noqa: BLE001 - invariant backstop
                self._note_unhandled(exc)
                if not record.terminal:
                    self._dead_letter(record, f"internal error: {exc}")
            finally:
                record.task = None

    async def _run_one(self, record: JobRecord) -> None:
        """Attempt loop of one job: worker dispatch, retry, degradation."""
        record.status = "running"
        record.queue_wait_s = max(0.0, time.monotonic() - record.enqueued_mono)
        metrics.observe(
            "serve.queue_wait_s", record.queue_wait_s, tenant=record.tenant
        )
        fingerprint = record.spec.fingerprint()
        ambient = (
            tracer.ambient(record.trace_id)
            if record.trace_id is not None
            else contextlib.nullcontext()
        )
        with ambient, trace(
            "serve.job",
            attrs={
                "job_id": record.job_id,
                "kind": record.spec.kind,
                "tenant": record.tenant,
                "queue_wait_s": round(record.queue_wait_s, 6),
            },
        ) as span:
            try:
                while True:
                    record.attempts += 1
                    remaining = record.remaining_s()
                    if remaining <= 0:
                        _note_fault(record, "budget-exhausted")
                        await self._degrade(
                            record,
                            "budget-exhausted",
                            "wall-clock deadline expired before the solve "
                            "could finish",
                        )
                        break
                    payload = record.spec.to_payload()
                    payload["attempt"] = record.attempts
                    payload["budget_s"] = remaining
                    record.events.push("attempt-start", attempt=record.attempts)
                    reply: dict | None = None
                    failure: tuple[str, str] | None = None
                    with trace(
                        "serve.attempt", attrs={"attempt": record.attempts}
                    ) as attempt_sp:
                        if attempt_sp.recording and record.trace_id is not None:
                            # The propagation envelope: the worker roots its
                            # own span tree at this (trace_id, span_id) pair.
                            payload["trace"] = {
                                "trace_id": record.trace_id,
                                "span_id": attempt_sp.span_id,
                                "process": "serve",
                            }
                        try:
                            reply = await self.pool.run_job(
                                payload,
                                timeout_s=remaining + _STALL_GRACE_S,
                                progress=lambda event: self._on_progress(
                                    record, event
                                ),
                            )
                        except WorkerCrashError as exc:
                            # The worker died mid-span: its subtree is lost,
                            # but the attempt span closes cleanly with the
                            # outcome, so the stitched trace stays valid
                            # with no orphan spans.
                            failure = ("worker-crash", str(exc))
                            attempt_sp.set(outcome="crashed")
                        except WorkerStallError as exc:
                            failure = ("worker-stall", str(exc))
                            attempt_sp.set(outcome="stalled")
                        if reply is not None:
                            self._absorb_telemetry(record, reply, attempt_sp)
                            attempt_sp.set(
                                outcome="ok" if reply.get("ok") else "fault"
                            )
                    if failure is not None:
                        fault_kind, message = failure
                        _note_fault(record, fault_kind)
                        if fault_kind == "worker-crash" and await self._maybe_retry(
                            record, fingerprint, fault_kind
                        ):
                            continue
                        # A stalled attempt consumed the budget; retrying
                        # would just burn a second worker. Degrade.
                        await self._degrade(record, fault_kind, message)
                        break
                    for kind in reply.get("fault_kinds", ()):
                        _note_fault(record, kind)
                    if reply.get("ok"):
                        self._complete(
                            record,
                            reply.get("result") or {},
                            recovered_via=reply.get("recovered_via"),
                        )
                        break
                    fault_kind = reply.get("fault_kind", "unexpected-error")
                    if await self._maybe_retry(record, fingerprint, fault_kind):
                        continue
                    await self._degrade(
                        record, fault_kind, reply.get("message", "")
                    )
                    break
                span.set(status=record.status, attempts=record.attempts)
            except asyncio.CancelledError:
                self._dead_letter(record, record.reason or "cancelled")
                span.set(status="cancelled", attempts=record.attempts)
                raise

    def _on_progress(self, record: JobRecord, event: dict) -> None:
        """Relay one worker progress event into the job's ring + status."""
        metrics.inc("serve.progress_events")
        kind = event.get("event") or "progress"
        fields = {k: v for k, v in event.items() if k != "event"}
        if kind == "point":
            record.progress = {
                "phase": "sweep",
                "done": fields.get("done"),
                "total": fields.get("total"),
            }
        elif kind in ("rung-start", "rung-done"):
            record.progress = {
                "phase": "ladder",
                "stage": fields.get("stage"),
                "rung": fields.get("rung"),
                "outcome": fields.get("outcome"),
            }
        if record.events is not None:
            record.events.push(kind, **fields)

    def _absorb_telemetry(self, record: JobRecord, reply: dict, attempt_sp) -> None:
        """Merge a worker reply's shipped telemetry into the parent's view.

        Metrics deltas always merge (the fleet aggregate on ``/metricz``
        includes worker-side solver counters); the span tree grafts under
        the live attempt span only while a trace is being recorded.
        """
        telemetry = reply.pop("telemetry", None)
        if not isinstance(telemetry, dict):
            return
        snapshot = telemetry.get("metrics")
        if isinstance(snapshot, dict):
            metrics.merge_snapshot(snapshot)
        spans = telemetry.get("spans")
        if spans and attempt_sp.recording:
            grafted = tracer.graft(
                spans,
                parent=attempt_sp,
                process="worker",
                epoch_unix_s=telemetry.get("epoch_unix_s"),
            )
            attempt_sp.set(worker_spans=grafted)

    async def _maybe_retry(
        self, record: JobRecord, fingerprint: str, fault_kind: str
    ) -> bool:
        """Back off and report True when the fault earns another attempt."""
        if not self.retry_policy.should_retry(record.attempts, fault_kind):
            return False
        remaining = record.remaining_s()
        if remaining <= 0:
            return False
        record.status = "retrying"
        metrics.inc("serve.retried", fault=fault_kind)
        delay = min(
            self.retry_policy.delay_s(fingerprint, record.attempts), remaining
        )
        log.info(
            "serve-retry",
            job_id=record.job_id,
            attempt=record.attempts,
            fault=fault_kind,
            delay_s=round(delay, 4),
        )
        await asyncio.sleep(delay)
        record.status = "running"
        return True

    # -- terminal transitions -------------------------------------------------

    def _complete(
        self, record: JobRecord, result: dict, *, recovered_via=None
    ) -> None:
        record.result = dict(result)
        if recovered_via:
            record.result["recovered_via"] = recovered_via
        record.status = "completed"
        fingerprint = record.spec.fingerprint()
        self._stale_results[fingerprint] = dict(record.result)
        self._stale_results.move_to_end(fingerprint)
        while len(self._stale_results) > self.config.history_limit:
            self._stale_results.popitem(last=False)
        metrics.inc("serve.completed", kind=record.spec.kind)
        self._finalise(record)

    async def _degrade(self, record: JobRecord, fault_kind: str, message: str) -> None:
        """The degradation chain: stale cache -> coarse estimate -> dead-letter."""
        _note_fault(record, fault_kind)
        record.reason = f"{fault_kind}: {message}" if message else fault_kind
        fingerprint = record.spec.fingerprint()
        stale = self._stale_results.get(fingerprint)
        if stale is not None:
            self._stale_results.move_to_end(fingerprint)
            record.result = dict(stale)
            record.degraded = True
            record.degraded_mode = "stale-cache"
            record.status = "degraded"
            metrics.inc("serve.degraded", mode="stale-cache")
            self._finalise(record)
            return
        if record.spec.kind == "lockrange":
            estimate = await asyncio.get_running_loop().run_in_executor(
                None, _coarse_lock_estimate, record.spec
            )
            if estimate is not None:
                record.result = estimate
                record.degraded = True
                record.degraded_mode = "coarse-estimate"
                record.status = "degraded"
                metrics.inc("serve.degraded", mode="coarse-estimate")
                self._finalise(record)
                return
        self._dead_letter(record, record.reason)

    def _dead_letter(self, record: JobRecord, reason: str) -> None:
        record.reason = reason
        record.status = "dead-lettered"
        self.store.add_dead_letter(record, reason)
        metrics.inc("serve.dead_lettered", kind=record.spec.kind)
        log.warning(
            "serve-dead-letter",
            job_id=record.job_id,
            reason=reason,
            faults=",".join(record.fault_kinds) or "-",
        )
        self._finalise(record)

    def _finalise(self, record: JobRecord) -> None:
        self.store.mark_terminal(record)
        count = self._tenant_inflight.get(record.tenant, 0)
        self._tenant_inflight[record.tenant] = max(count - 1, 0)
        fingerprint = record.spec.fingerprint()
        if self._inflight_by_fp.get(fingerprint) == record.job_id:
            del self._inflight_by_fp[fingerprint]
        # Per-tenant SLO accounting: end-to-end latency, outcome tallies,
        # and deadline hits (jobs pushed off the happy path by their own
        # wall-clock budget rather than by a solver fault).
        metrics.observe(
            "serve.e2e_s",
            max(0.0, (record.finished_unix_s or time.time()) - record.submitted_unix_s),
            tenant=record.tenant,
        )
        metrics.inc("serve.outcomes", tenant=record.tenant, status=record.status)
        if any(
            kind in ("budget-exhausted", "worker-stall")
            for kind in record.fault_kinds
        ):
            metrics.inc("serve.deadline_hits", tenant=record.tenant)
        metrics.gauge(
            "serve.tenant_inflight",
            self._tenant_inflight[record.tenant],
            tenant=record.tenant,
        )
        if record.events is not None:
            record.events.push(
                "terminal",
                status=record.status,
                attempts=record.attempts,
                degraded=record.degraded,
            )
        if record.done is not None:
            record.done.set()

    # -- health ---------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            try:
                replaced = await self.pool.health_check()
                # After the sweep every pool slot holds a live, ping-clean
                # worker — alive_count *is* the healthy count here.
                metrics.gauge("serve.workers_healthy", self.pool.alive_count)
                if replaced:
                    log.warning("serve-health-replace", workers=replaced)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - health must not die
                self._note_unhandled(exc)

    def readiness(self) -> tuple[bool, dict]:
        """The ``/readyz`` verdict: serving capacity actually exists."""
        reasons = []
        if self._stopping:
            reasons.append("shutting-down")
        if self.pool.alive_count < 1:
            reasons.append("no-live-workers")
        if self._queue.full():
            reasons.append("queue-full")
        return not reasons, {
            "ready": not reasons,
            "reasons": reasons,
            "workers_alive": self.pool.alive_count,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
        }

    def _note_unhandled(self, exc: BaseException) -> None:
        detail = f"{type(exc).__name__}: {exc}"
        self.unhandled_errors.append(detail)
        metrics.inc("serve.unhandled_errors")
        log.error("serve-unhandled", error=detail)


def _note_fault(record: JobRecord, kind: str) -> None:
    if kind and kind not in record.fault_kinds:
        record.fault_kinds.append(kind)


def _rejection(reason: str, retry_after_s: float, detail: str) -> dict:
    return {
        "error": reason,
        "fault_kind": "queue-saturated",
        "retry_after_s": retry_after_s,
        "detail": detail,
    }


def _coarse_lock_estimate(spec) -> dict | None:
    """The generalised-Adler estimate used as the coarse degraded answer.

    Runs in the *service* process (it is orders of magnitude cheaper than
    the graphical solve) on an executor thread; any failure simply ends
    the degradation chain — this is a best-effort fallback, never a new
    fault source.
    """
    try:
        from repro.baselines.adler import adler_shil_lock_range
        from repro.serve.workers import _materialise, lockrange_to_dict

        nonlinearity, tank = _materialise(spec.family, spec.q_scale)
        lock = adler_shil_lock_range(
            nonlinearity,
            tank,
            v_i=spec.v_i,
            n=spec.n,
            n_phi=min(spec.n_phi, 181),
            n_samples=min(spec.n_samples, 256),
        )
        result = lockrange_to_dict(lock)
        result["estimator"] = "adler-shil"
        return result
    except Exception:  # noqa: BLE001 - best-effort by contract
        return None


class ServiceThread:
    """A service + HTTP front on a background event loop (tests, chaos).

    Usage::

        with ServiceThread(ServeConfig(workers=1)) as host:
            client = ServeClient(port=host.port)
            ...

    ``host.service`` is the live :class:`JobService` for white-box
    assertions (worker restarts, unhandled errors, dead letters).
    """

    def __init__(self, config: ServeConfig | None = None, *, port: int = 0):
        self.config = config or ServeConfig()
        self.requested_port = port
        self.port: int | None = None
        self.service: JobService | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    async def _main(self) -> None:
        from repro.serve.httpd import start_http_server

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = JobService(self.config)
        try:
            await self.service.start()
            server = await start_http_server(
                self.service, port=self.requested_port
            )
        except BaseException as exc:  # noqa: BLE001 - surface to starter
            self._startup_error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self.service.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException:  # noqa: BLE001 - reported via _startup_error
            if not self._ready.is_set():
                self._ready.set()

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve thread failed to become ready in 30 s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._startup_error}"
            )
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
