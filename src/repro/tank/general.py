"""Generic tank characterised from sampled frequency-response data.

The paper notes that for complex LC tank topologies the filter can be
"pre-characterized computationally".  :class:`GeneralTank` implements that:
it accepts samples of ``H(jw)`` — from a closed-form expression, a
measurement, or a :mod:`repro.spice.ac` small-signal analysis of an
arbitrary passive network — and exposes the same interface as
:class:`repro.tank.rlc.ParallelRLC`, including the numeric inverse map
``phi_d -> w`` required by the lock-range procedure.
"""

from __future__ import annotations

import numpy as np

from repro.tank.base import PhaseInversionError, Tank
from repro.utils.validation import check_finite, check_monotonic, check_shape_match

__all__ = ["GeneralTank"]


class GeneralTank(Tank):
    """Tank defined by sampled complex transfer data.

    Parameters
    ----------
    w:
        Strictly increasing angular-frequency samples (rad/s).  The window
        must bracket the resonance (phase zero crossing with positive
        magnitude peak).
    h:
        Complex ``H(jw)`` samples.

    Notes
    -----
    * Magnitude and (unwrapped) phase are interpolated separately with
      PCHIP, which preserves the monotone fall of the phase through
      resonance and therefore keeps ``frequency_for_phase`` single-valued.
    * The centre frequency is defined by the phase zero crossing — the same
      operational definition the paper uses (``phi_d(w_c) = 0``), not the
      magnitude peak (they differ for asymmetric tanks).
    """

    def __init__(self, w: np.ndarray, h: np.ndarray):
        w = check_monotonic("w", np.asarray(w, dtype=float))
        h = np.asarray(h, dtype=complex)
        check_shape_match("w", w, "h", h)
        check_finite("h (magnitude)", np.abs(h))
        if w.size < 8:
            raise ValueError(f"need at least 8 frequency samples, got {w.size}")
        self._w = w
        self._mag = np.abs(h)
        self._phase = np.unwrap(np.angle(h))
        if np.any(self._mag <= 0.0):
            raise ValueError("|H| must be positive at every sample")
        from scipy.interpolate import PchipInterpolator

        self._mag_interp = PchipInterpolator(w, self._mag, extrapolate=False)
        self._phase_interp = PchipInterpolator(w, self._phase, extrapolate=False)
        self._w_c = self._find_center()
        self._r_peak = float(self._mag_interp(self._w_c))
        if not np.all(np.diff(self._phase) < 0.0):
            # Phase must fall monotonically through the characterised band
            # for phi_d -> w to be single-valued; reject ambiguous data
            # early rather than return an arbitrary branch later.
            raise ValueError(
                "sampled phase is not monotonically decreasing across the "
                "band; narrow the window around one resonance"
            )
        # Inverse map: phase is strictly decreasing, so flip for PCHIP.
        self._inv_interp = PchipInterpolator(
            self._phase[::-1], w[::-1], extrapolate=False
        )

    def _find_center(self) -> float:
        sign = np.sign(self._phase)
        crossings = np.nonzero(np.diff(sign) != 0)[0]
        if crossings.size == 0:
            raise ValueError(
                "no phase zero crossing in the sampled window; the samples "
                "do not bracket the tank resonance"
            )
        k = int(crossings[0])
        w0, w1 = self._w[k], self._w[k + 1]
        p0, p1 = self._phase[k], self._phase[k + 1]
        if p0 == p1:
            return float(0.5 * (w0 + w1))
        return float(w0 - p0 * (w1 - w0) / (p1 - p0))

    # -- Tank interface ----------------------------------------------------

    @property
    def center_frequency(self) -> float:
        return self._w_c

    @property
    def peak_resistance(self) -> float:
        return self._r_peak

    @property
    def frequency_window(self) -> tuple[float, float]:
        """Characterised angular-frequency window ``(w_min, w_max)``."""
        return float(self._w[0]), float(self._w[-1])

    def transfer(self, w: np.ndarray) -> np.ndarray:
        scalar = np.ndim(w) == 0
        w = np.atleast_1d(np.asarray(w, dtype=float))
        lo, hi = self.frequency_window
        if np.any((w < lo) | (w > hi)):
            raise ValueError(
                f"frequency outside characterised window [{lo:g}, {hi:g}] rad/s"
            )
        out = self._mag_interp(w) * np.exp(1j * self._phase_interp(w))
        return out[0] if scalar else out

    def phase(self, w: np.ndarray) -> np.ndarray:
        scalar = np.ndim(w) == 0
        w = np.atleast_1d(np.asarray(w, dtype=float))
        lo, hi = self.frequency_window
        if np.any((w < lo) | (w > hi)):
            raise ValueError(
                f"frequency outside characterised window [{lo:g}, {hi:g}] rad/s"
            )
        out = self._phase_interp(w)
        return float(out[0]) if scalar else out

    def frequency_for_phase(self, phi_d: float) -> float:
        phi_lo = float(self._phase[-1])  # most negative (high frequency)
        phi_hi = float(self._phase[0])  # most positive (low frequency)
        if not phi_lo <= phi_d <= phi_hi:
            raise PhaseInversionError(
                f"phi_d={phi_d:g} outside characterised phase range "
                f"[{phi_lo:g}, {phi_hi:g}]"
            )
        return float(self._inv_interp(phi_d))

    @classmethod
    def from_tank(cls, tank: Tank, span: float = 0.5, n: int = 2001) -> "GeneralTank":
        """Sample another tank into a :class:`GeneralTank`.

        Mostly for testing — the sampled tank must reproduce the analytic
        one's lock-range predictions to grid accuracy.

        Parameters
        ----------
        tank:
            Source tank.
        span:
            Half-width of the sampling window as a fraction of ``w_c``.
        n:
            Number of samples.
        """
        w_c = tank.center_frequency
        w = np.linspace((1.0 - span) * w_c, (1.0 + span) * w_c, n)
        return cls(w, tank.transfer(w))
