"""Retry policy for transient service faults: capped exponential backoff.

Only *transient* faults earn a retry — today that means a worker crash
(the solve may well succeed on a fresh worker) and a corrupt cache record
(the surface store quarantines and recomputes, so the retry is clean).  A
stall is **not** retried: the job's wall-clock budget is what the stalled
attempt just consumed, so the honest next step is degradation, not a
second burn.  Deterministic faults (``no-lock`` proofs, malformed specs,
budget exhaustion) never retry.

Jitter is deterministic — a hash of ``(job fingerprint, attempt)`` — so a
chaos run replays bit-identically while distinct jobs still decorrelate
their retry storms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["RetryPolicy", "TRANSIENT_FAULTS"]

#: Fault kinds a retry can plausibly clear.
TRANSIENT_FAULTS = frozenset({"worker-crash", "cache-corruption"})


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Delay for attempt *k* (1-based, the attempt that just failed):
    ``min(base_delay_s * factor**(k-1), max_delay_s)`` plus up to
    ``jitter_frac`` of itself, derived from the job key.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.factor < 1.0 or not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("need factor >= 1 and jitter_frac in [0, 1]")

    def should_retry(self, attempt: int, fault_kind: str) -> bool:
        """Whether a failed ``attempt`` (1-based) with ``fault_kind`` retries."""
        return attempt < self.max_attempts and fault_kind in TRANSIENT_FAULTS

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (deterministic for a key)."""
        base = min(
            self.base_delay_s * self.factor ** max(attempt - 1, 0),
            self.max_delay_s,
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = digest[0] / 255.0
        return base * (1.0 + self.jitter_frac * fraction)
