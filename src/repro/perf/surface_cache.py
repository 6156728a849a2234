"""Persistent on-disk store for pre-characterised describing-function surfaces.

Layout
------
One ``.npz`` file per record under the cache root::

    <root>/<key[:2]>/<key>.npz

where ``key`` is the sha256 content address built from the nonlinearity
fingerprint, the grid hashes and the scalar parameters (see
:meth:`repro.core.two_tone.TwoToneDF.characterize`).  Each file holds the
record's numpy arrays plus a ``__meta__`` JSON blob (schema version,
human-readable provenance).  Records are independent; deleting any file —
or the whole directory — is always safe and merely re-triggers
pre-characterisation.

Root resolution (first hit wins):

1. the ``root`` constructor argument,
2. ``$REPRO_CACHE_DIR``,
3. ``$XDG_CACHE_HOME/repro-shil``,
4. ``~/.cache/repro-shil``.

Setting ``REPRO_NO_CACHE=1`` disables reads and writes globally (every
lookup misses, every store is a no-op) — useful for benchmarking the cold
path and in sandboxed CI.

Eviction: the store is bounded by :data:`MAX_ENTRIES` records.  When a
put would exceed the bound the oldest records by modification time are
removed — access refreshes the mtime, so this is an LRU in practice.

One store serves every caller: the scalar solver's ``get``/``put`` and
the sweep engine's batched :meth:`SurfaceCache.get_or_build_many` read
and write the same records under the same keys, so a scalar solve after
a sweep (or the reverse) is a hit.  ``get_or_build_many`` adds
**single-flight** builds: concurrent callers in one process that miss
the same key produce exactly one build — the first caller builds while
the rest wait on its flight and then re-probe.  There is no
single-flight across processes; two processes may build the same record
at once, which is safe because puts are atomic.

Metrics: ``cache.hits`` / ``cache.misses`` / ``cache.puts`` /
``cache.corrupt`` count disk traffic; ``cache.singleflight_builds`` /
``cache.singleflight_waits`` / ``cache.singleflight_takeovers`` count
stampede suppression.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading

import numpy as np

from repro.obs import get_logger, metrics
from repro.perf.fingerprint import payload_fingerprint

__all__ = ["SurfaceCache", "default_cache", "cache_disabled"]

_log = get_logger(__name__)

#: Bump when the on-disk record layout changes; old records then miss.
SCHEMA_VERSION = 1

#: Bound on the number of records kept on disk (the LRU eviction limit).
MAX_ENTRIES = 512

#: How long a waiter trusts another caller's single-flight latch before
#: assuming the leader died without releasing it (a killed worker thread,
#: an interpreter-level cancellation that skipped the ``finally``) and
#: taking the build over itself.  Generous against real build times; the
#: takeover only costs a duplicate build, never correctness (disk puts
#: are atomic).
FLIGHT_TIMEOUT_S = 30.0


def cache_disabled() -> bool:
    """True when ``REPRO_NO_CACHE`` requests a cache-free run."""
    return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("", "0", "false")


def _default_root() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-shil"


class SurfaceCache:
    """Content-addressed ``.npz`` store for named numpy-array payloads.

    The cache is deliberately payload-agnostic: callers pass a mapping of
    array names to arrays plus a JSON-able ``meta`` dict, and get the same
    back.  (De)serialisation to richer objects lives with their owners —
    e.g. :class:`repro.core.two_tone.TwoToneSurface` — which keeps this
    module import-cycle-free and reusable for future cached artefacts.

    Parameters
    ----------
    root:
        Cache directory; resolved per the module docstring when omitted.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = pathlib.Path(root) if root is not None else _default_root()
        #: Per-instance tally of (hits, misses, puts, corrupt) — handy in
        #: benchmarks and asserted on by the fault-injection harness.  The
        #: canonical process-wide counts live in the metrics registry
        #: (``cache.hits`` etc. — see :meth:`_count`) and feed
        #: ``repro cache --stats`` and ``OBS_REPORT.json``.
        self.stats = {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}
        # Single-flight registry: key -> Event set when the leader's build
        # (or failure) completes.
        self._flights: dict[str, threading.Event] = {}
        self._mutex = threading.Lock()

    def _count(self, stat: str) -> None:
        """Bump one cache statistic, instance-local and registry-wide."""
        self.stats[stat] += 1
        metrics.inc(f"cache.{stat}")

    # -- paths ----------------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of a record (whether or not it exists)."""
        self._check_key(key)
        return self.root / key[:2] / f"{key}.npz"

    @staticmethod
    def _check_key(key: str) -> None:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")

    # -- record I/O -----------------------------------------------------------

    def get(self, key: str) -> tuple[dict[str, np.ndarray], dict] | None:
        """Load a record; returns ``(arrays, meta)`` or ``None`` on a miss.

        Two distinct unreadable-record paths, both of which count as a
        miss (the caller transparently recomputes):

        * **schema mismatch** — an old-layout record after a
          ``SCHEMA_VERSION`` bump; expected, silently removed;
        * **corruption** — a truncated write, bit rot, or a non-npz file
          squatting at the record path; the file is quarantined to
          ``<name>.npz.corrupt`` (preserving the evidence for inspection)
          with a logged warning, and ``stats["corrupt"]`` is bumped.
        """
        if cache_disabled():
            self._count("misses")
            return None
        path = self.path_for(key)
        if not path.is_file():
            self._count("misses")
            return None
        try:
            with np.load(path, allow_pickle=False) as record:
                meta = json.loads(str(record["__meta__"]))
                schema = meta.get("schema")
                arrays = {
                    name: record[name] for name in record.files if name != "__meta__"
                }
        except Exception as exc:
            self._quarantine(path, exc)
            self._count("misses")
            return None
        if schema != SCHEMA_VERSION:
            # Not corruption — just an older (or newer) writer's record.
            path.unlink(missing_ok=True)
            self._count("misses")
            return None
        try:
            path.touch()  # refresh mtime -> LRU recency
        except OSError:  # pragma: no cover - best effort only
            pass
        self._count("hits")
        return arrays, meta

    def put(
        self, key: str, arrays: dict[str, np.ndarray], meta: dict | None = None
    ) -> dict:
        """Store a record atomically (write to a temp file, then rename).

        Every record is stamped with a ``fingerprint`` meta field — the
        :func:`~repro.perf.fingerprint.payload_fingerprint` of the stored
        arrays — so readers can verify the payload still hashes to what
        was computed (records written before the field existed simply
        lack it; ``schema`` is unchanged because old records stay
        readable).  Returns the stamped meta, which is what :meth:`get`
        would hand back for this record.
        """
        payload = dict(arrays)
        if "__meta__" in payload:
            raise ValueError("'__meta__' is a reserved payload name")
        full_meta = {
            "schema": SCHEMA_VERSION,
            "fingerprint": payload_fingerprint(arrays),
            **(meta or {}),
        }
        if cache_disabled():
            return full_meta
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload["__meta__"] = np.asarray(json.dumps(full_meta))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("puts")
        self._evict()
        return full_meta

    def _quarantine(self, path: pathlib.Path, cause: Exception) -> None:
        """Move an unreadable record aside as ``<name>.corrupt``.

        Quarantined files keep the evidence for post-mortem inspection
        (they no longer match the ``*.npz`` record glob, so they are
        invisible to lookups, ``__len__`` and eviction) while the record
        slot is freed for a clean recompute.
        """
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - racing cleanup; drop instead
            path.unlink(missing_ok=True)
            quarantined = None
        self._count("corrupt")
        _log.warning(
            "cache.quarantined",
            file=path.name,
            quarantined=quarantined.name if quarantined is not None else "(removed)",
            fault="cache-corruption",
            error=type(cause).__name__,
            detail=str(cause),
        )

    # -- single-flight --------------------------------------------------------

    @property
    def inflight_count(self) -> int:
        """Single-flight latches currently held (0 when the store is idle).

        A healthy cache returns to 0 after every batch — the concurrency
        regression tests assert on this to catch leaked latches.
        """
        with self._mutex:
            return len(self._flights)

    def _acquire_flight(self, key: str) -> threading.Event | None:
        """Return ``None`` when this caller leads; else the event to wait on."""
        with self._mutex:
            event = self._flights.get(key)
            if event is not None:
                metrics.inc("cache.singleflight_waits")
                return event
            self._flights[key] = threading.Event()
            return None

    def _release_flight(self, key: str) -> None:
        with self._mutex:
            event = self._flights.pop(key, None)
        if event is not None:
            event.set()

    def _await_flight(self, key: str, event: threading.Event) -> None:
        """Wait on another caller's flight, with a leaked-latch backstop.

        Normally the leader's ``finally`` releases the flight even when its
        build raises.  But a leader that dies *without* unwinding (a worker
        thread killed by its host process, an interpreter shutdown racing
        the build) would otherwise wedge every waiter forever on a latch
        nobody will ever set.  After :data:`FLIGHT_TIMEOUT_S` the waiter
        stops trusting the latch: if it is still the registered flight, the
        waiter evicts it (waking any other waiters parked on it) and
        returns, at which point the caller's re-probe elects a new leader.
        The cost of a wrong guess — a slow-but-alive leader — is one
        duplicate build against an atomic disk put, never corruption.
        """
        if event.wait(FLIGHT_TIMEOUT_S):
            return
        with self._mutex:
            if self._flights.get(key) is event:
                del self._flights[key]
                metrics.inc("cache.singleflight_takeovers")
        # Wake any other waiters parked behind the same presumed-dead
        # leader so they re-probe too instead of waiting out their own
        # full timeouts.
        event.set()

    def get_or_build_many(self, items: dict[str, object], builder_many):
        """Fetch records, building all misses in one call, once across threads.

        Parameters
        ----------
        items:
            Mapping of cache key to an opaque per-item token (whatever the
            builder needs to identify the item — e.g. a ``v_i`` value).
        builder_many:
            Called once with the list of tokens still missing after the
            flights are held; must return ``{key: (arrays, meta)}`` for
            exactly those keys.

        Returns
        -------
        dict
            ``{key: (arrays, meta)}`` for every requested key.  Built
            records come back as built, with the meta :meth:`put` stamped.

        Flights for the missing keys are acquired in sorted-key order (a
        deterministic order cannot deadlock against another batch doing
        the same), each key is re-probed once its flight is held, and the
        still-missing remainder is built in ONE ``builder_many`` call —
        this is what lets a sweep characterise a whole injection grid in
        one stacked FFT pass even with concurrent workers.  If the build
        raises, every held flight is released and the next caller builds.
        """
        results: dict[str, tuple[dict, dict]] = {}
        missing: list[str] = []
        for key in items:
            record = self.get(key)
            if record is not None:
                results[key] = record
            else:
                missing.append(key)
        if not missing:
            return results

        held: list[str] = []
        try:
            for key in sorted(missing):
                while (event := self._acquire_flight(key)) is not None:
                    self._await_flight(key, event)
                # Another flight may have stored it while we waited.
                record = self.get(key)
                if record is not None:
                    results[key] = record
                    self._release_flight(key)
                else:
                    held.append(key)
            if held:
                metrics.inc("cache.singleflight_builds", len(held))
                built = builder_many([items[key] for key in held])
                unexpected = set(built) - set(held)
                if unexpected:
                    raise ValueError(
                        f"builder_many returned unrequested keys: {sorted(unexpected)}"
                    )
                for key in held:
                    if key not in built:
                        raise ValueError(f"builder_many omitted key {key!r}")
                    arrays, meta = built[key]
                    results[key] = (arrays, self.put(key, arrays, meta))
        finally:
            for key in held:
                self._release_flight(key)
        return results

    # -- maintenance ----------------------------------------------------------

    def _records(self) -> list[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return [p for p in self.root.glob("??/*.npz") if p.is_file()]

    def __len__(self) -> int:
        return len(self._records())

    def _evict(self) -> None:
        records = self._records()
        excess = len(records) - MAX_ENTRIES
        if excess <= 0:
            return
        records.sort(key=lambda p: p.stat().st_mtime)
        for stale in records[:excess]:
            stale.unlink(missing_ok=True)

    def fingerprint_coverage(self) -> dict[str, int]:
        """How many on-disk records carry (and satisfy) output fingerprints.

        Returns counts for ``repro cache --stats``::

            {"records": N, "fingerprinted": F, "legacy": L,
             "verified": V, "mismatched": M}

        ``verified`` re-hashes each fingerprinted record's arrays and
        compares; a mismatch means the bytes on disk no longer hash to
        what was computed (bit rot that np.load alone cannot see).
        ``legacy`` counts records written before output fingerprints
        existed (their meta has no ``fingerprint`` field) — they are
        reported separately rather than against coverage, because an old
        record is not a missing fingerprint in *today's* write path.
        Unreadable records are skipped here — ordinary :meth:`get` traffic
        quarantines them.
        """
        counts = {
            "records": 0,
            "fingerprinted": 0,
            "legacy": 0,
            "verified": 0,
            "mismatched": 0,
        }
        for path in self._records():
            try:
                with np.load(path, allow_pickle=False) as record:
                    meta = json.loads(str(record["__meta__"]))
                    arrays = {
                        name: record[name]
                        for name in record.files
                        if name != "__meta__"
                    }
            except Exception:
                continue
            counts["records"] += 1
            stored = meta.get("fingerprint")
            if not stored:
                counts["legacy"] += 1
                continue
            counts["fingerprinted"] += 1
            if payload_fingerprint(arrays) == stored:
                counts["verified"] += 1
            else:
                counts["mismatched"] += 1
        return counts

    def clear(self) -> int:
        """Remove every record; returns how many were deleted."""
        records = self._records()
        for record in records:
            record.unlink(missing_ok=True)
        return len(records)


_DEFAULT_CACHE: SurfaceCache | None = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> SurfaceCache:
    """The process-wide cache instance (created lazily).

    Creation happens under a module lock, so concurrent first callers
    share one instance — and with it one single-flight registry.  A fresh
    instance is returned whenever the resolved root changed — tests flip
    ``REPRO_CACHE_DIR`` to point at temporary directories and must not
    keep writing into a stale root.
    """
    global _DEFAULT_CACHE
    root = _default_root()
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None or _DEFAULT_CACHE.root != root:
            _DEFAULT_CACHE = SurfaceCache(root)
        return _DEFAULT_CACHE
