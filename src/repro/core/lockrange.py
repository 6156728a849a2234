"""Lock-range prediction (paper Fig. 10 / Figs. 14, 18 and the two tables).

The paper's key computational observation: when the operating frequency
``w_i`` changes, the magnitude-condition curve ``C_{T_f,1}`` in the
``(phi, A)`` plane is *invariant* — only the phase condition
``angle(-I_1) = -phi_d(w_i)`` moves.  So instead of re-solving lock states
per frequency, walk once along ``C_{T_f,1}``:

* every point ``(phi, A)`` on the curve is a lock state *at the frequency
  whose tank phase satisfies* ``phi_d = -angle(-I_1(A, V_i, phi))``;
* the tank's monotone phase map converts each point's required ``phi_d``
  into an operating frequency;
* the lock range is the frequency interval spanned by the *stable* points,
  with the boundaries refined to sub-grid accuracy: both edges solve the
  fold condition ``d phi_d / d phi = 0`` along the curve in one batched
  pass (docs/THEORY.md section 4.1).

This finds the complete lock range in exactly one pass — "it does not
involve many iterations ... but finds solutions in exactly one pass".  The
naive alternative (bisection over frequency, one full lock-state solve per
probe) is also provided for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.averaging import SlowFlow
from repro.core.curves import extract_level_curves
from repro.core.describing_function import DEFAULT_SAMPLES
from repro.core.natural import predict_natural_oscillation
from repro.core.shil import solve_lock_states
from repro.core.stability import classify_by_jacobian
from repro.core.two_tone import TwoToneDF
from repro.nonlin.base import Nonlinearity
from repro.obs import metrics, trace
from repro.perf.timers import timed
from repro.robust.diagnostics import record_fault
from repro.robust.faults import SolveFault
from repro.tank.base import PhaseInversionError, Tank
from repro.utils.grids import refine_bracket
from repro.utils.validation import check_positive

__all__ = ["LockRangePoint", "LockRange", "predict_lock_range", "lock_range_by_frequency_scan"]

#: Tank phases closer to +-pi/2 than this are outside any physical lock for
#: the topologies considered (cos(phi_d) -> 0 starves the loop gain).
_PHI_D_LIMIT = 0.49 * np.pi

#: Bracket width in phi (radians) at which an edge search stops.
_EDGE_PHI_TOL = 1e-10


@dataclass(frozen=True)
class LockRangePoint:
    """One point of the invariant ``T_f = 1`` curve, viewed as a lock state.

    Attributes
    ----------
    phi, amplitude:
        Reduced coordinates of the state.
    phi_d:
        Tank phase this state requires (``= -angle(-I_1)``), radians.
    w_i:
        Operating (oscillation) angular frequency realising that phase.
    stable:
        Averaged-Jacobian stability at this state.
    """

    phi: float
    amplitude: float
    phi_d: float
    w_i: float
    stable: bool


@dataclass
class LockRange:
    """Predicted n-th sub-harmonic lock range.

    Frequencies are *injection-signal* frequencies (``n`` times the
    oscillation frequency), matching the paper's tables.
    """

    n: int
    v_i: float
    injection_lower: float
    injection_upper: float
    phi_d_at_lower: float
    phi_d_at_upper: float
    amplitude_at_lower: float
    amplitude_at_upper: float
    samples: list[LockRangePoint] = field(default_factory=list)

    @property
    def injection_lower_hz(self) -> float:
        """Lower lock limit of the injection signal, Hz."""
        return self.injection_lower / (2.0 * np.pi)

    @property
    def injection_upper_hz(self) -> float:
        """Upper lock limit of the injection signal, Hz."""
        return self.injection_upper / (2.0 * np.pi)

    @property
    def width(self) -> float:
        """Lock range width (angular, injection-referred)."""
        return self.injection_upper - self.injection_lower

    @property
    def width_hz(self) -> float:
        """Lock range width ``Delta f`` in Hz — the tables' last column."""
        return self.width / (2.0 * np.pi)

    def contains(self, w_injection: float) -> bool:
        """Whether an injection frequency falls inside the predicted range."""
        return self.injection_lower <= w_injection <= self.injection_upper

    def amplitude_vs_frequency(self) -> tuple[np.ndarray, np.ndarray]:
        """The locked amplitude across the range — ``(w_i, A)`` arrays.

        Built from the *stable* invariant-curve samples, sorted by
        operating frequency.  This is the quantitative version of the
        paper's Fig. 14/18 observation that "A (and phi) decreases with
        increasing |w_c - w_i| till a cut-off point is reached".
        """
        stable = sorted((p for p in self.samples if p.stable), key=lambda p: p.w_i)
        if not stable:
            return np.empty(0), np.empty(0)
        return (
            np.array([p.w_i for p in stable]),
            np.array([p.amplitude for p in stable]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LockRange(n={self.n}, Vi={self.v_i:g} V, "
            f"[{self.injection_lower_hz:.6g}, {self.injection_upper_hz:.6g}] Hz, "
            f"df={self.width_hz:.6g} Hz)"
        )


class NoLockError(RuntimeError):
    """Raised when no stable lock exists at any frequency for this injection."""


def _solve_amplitude_on_curve(
    df: TwoToneDF,
    tank_r: float,
    phi: float,
    a_seed: float,
    a_window: tuple[float, float],
) -> float | None:
    """Re-solve ``T_f(A, phi) = 1`` in A near a seed (exact quadrature)."""

    def residual(a: float) -> float:
        return float(df.tf(a, phi, tank_r)) - 1.0

    lo, hi = a_window
    span = 0.05 * (hi - lo)
    a_lo = max(lo, a_seed - span)
    a_hi = min(hi, a_seed + span)
    r_lo, r_hi = residual(a_lo), residual(a_hi)
    for _ in range(6):
        if np.sign(r_lo) != np.sign(r_hi):
            return refine_bracket(residual, a_lo, a_hi, tol=1e-13)
        a_lo = max(lo, a_lo - span)
        a_hi = min(hi, a_hi + span)
        r_lo, r_hi = residual(a_lo), residual(a_hi)
        if a_lo == lo and a_hi == hi:
            break
    return None


def _point_at_phi(
    df: TwoToneDF,
    tank: Tank,
    phi: float,
    a_seed: float,
    a_window: tuple[float, float],
) -> LockRangePoint | None:
    """Build the lock-range point of the invariant curve at abscissa ``phi``."""
    tank_r = tank.peak_resistance
    amplitude = _solve_amplitude_on_curve(df, tank_r, phi, a_seed, a_window)
    if amplitude is None:
        return None
    i1 = complex(df.i1(amplitude, phi))
    phi_d = float(-np.angle(-i1))
    if abs(phi_d) >= _PHI_D_LIMIT:
        return None
    try:
        w_i = tank.frequency_for_phase(phi_d)
    except PhaseInversionError as exc:
        # The point exists on the invariant curve but no operating
        # frequency realises its tank phase: drop it, but leave a trace.
        record_fault(
            SolveFault(
                "phase-inversion-out-of-range",
                "lock-range",
                str(exc),
                context={"phi": float(phi), "phi_d": phi_d},
            )
        )
        return None
    flow = SlowFlow(df, tank, w_i)
    verdict = classify_by_jacobian(flow, amplitude, phi)
    return LockRangePoint(
        phi=float(phi),
        amplitude=float(amplitude),
        phi_d=phi_d,
        w_i=float(w_i),
        stable=verdict.stable,
    )


def _solve_amplitudes_batched(
    evaluate,
    tank_r: float,
    phis: np.ndarray,
    seeds: np.ndarray,
    a_window: tuple[float, float],
    *,
    tol: float = 1e-13,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorised ``T_f(A, phi) = 1`` solve for many curve points at once.

    Bracket expansion around each seed, as in
    :func:`_solve_amplitude_on_curve`, then a safeguarded Newton iteration
    (``rtsafe``): a Newton step on the evaluator's analytic ``dI_1/dA``,
    replaced by bisection whenever it would leave the bracket or fails to
    halve the previous step.  Every point runs in lock step through the
    (zero-nonlinearity-call) surface evaluator, so the whole curve costs a
    handful of small vector operations.  Unbracketable points come back
    as NaN.

    Returns ``(amplitudes, evaluation)``; ``evaluation`` is the evaluator's
    ``(I_1, dI_1/dA, dI_1/dphi)`` at each point's last Newton iterate,
    within ``tol`` of the returned amplitude.
    """

    def residual(a: np.ndarray, p: np.ndarray) -> np.ndarray:
        return -tank_r * np.real(evaluate(a, p)) / (a / 2.0) - 1.0

    size = phis.size
    lo, hi = a_window
    span = 0.05 * (hi - lo)
    a_lo = np.maximum(lo, seeds - span)
    a_hi = np.minimum(hi, seeds + span)
    # Both bracket ends in one evaluator call.
    ends = residual(np.concatenate([a_lo, a_hi]), np.concatenate([phis, phis]))
    r_lo, r_hi = ends[:size], ends[size:]
    for _ in range(6):
        open_ = np.sign(r_lo) == np.sign(r_hi)
        grow = open_ & ~((a_lo <= lo) & (a_hi >= hi))
        if not grow.any():
            break
        a_lo = np.where(grow, np.maximum(lo, a_lo - span), a_lo)
        a_hi = np.where(grow, np.minimum(hi, a_hi + span), a_hi)
        idx = np.nonzero(grow)[0]
        ends = residual(np.concatenate([a_lo[idx], a_hi[idx]]), np.tile(phis[idx], 2))
        r_lo[idx], r_hi[idx] = ends[: idx.size], ends[idx.size :]
    bracketed = np.sign(r_lo) != np.sign(r_hi)

    x = np.where((seeds > a_lo) & (seeds < a_hi), seeds, 0.5 * (a_lo + a_hi))
    step_old = a_hi - a_lo
    roots = np.full(size, np.nan)
    evaluation = tuple(np.zeros(size, dtype=complex) for _ in range(3))
    active = bracketed.copy()
    for _ in range(100):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xi = x[idx]
        values = evaluate(xi, phis[idx], grad=True)
        for store, value in zip(evaluation, values):
            store[idx] = value
        i1x, d_a_i1x = np.real(values[0]), np.real(values[1])
        g = -tank_r * i1x / (xi / 2.0) - 1.0
        g_a = -2.0 * tank_r * (d_a_i1x - i1x / xi) / xi
        # Shrink the bracket onto the root's side of the iterate.
        low_side = np.sign(g) == np.sign(r_lo[idx])
        a_lo[idx] = np.where(low_side, xi, a_lo[idx])
        r_lo[idx] = np.where(low_side, g, r_lo[idx])
        a_hi[idx] = np.where(low_side, a_hi[idx], xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / g_a
        newton = xi - step
        take_newton = (
            np.isfinite(newton)
            & (newton >= a_lo[idx])
            & (newton <= a_hi[idx])
            & (np.abs(step) <= 0.5 * np.abs(step_old[idx]))
        )
        x_new = np.where(take_newton, newton, 0.5 * (a_lo[idx] + a_hi[idx]))
        step_old[idx] = x_new - xi
        x[idx] = x_new
        done = np.abs(x_new - xi) <= tol * np.maximum(1.0, np.abs(x_new))
        roots[idx[done]] = x_new[done]
        active[idx[done]] = False
    roots[active] = x[active]
    return roots, evaluation


def _points_at_phis_batched(
    df: TwoToneDF,
    tank: Tank,
    evaluate,
    phis: np.ndarray,
    seeds: np.ndarray,
    a_window: tuple[float, float],
) -> list[LockRangePoint | None]:
    """Vectorised :func:`_point_at_phi` over many curve points.

    Amplitude solve, ``phi_d`` extraction and the stability Jacobian all
    run batched through the surface evaluator; only the (cheap, analytic)
    tank phase inversion stays per point.  The stability rule is the same
    eigenvalue criterion as :func:`classify_by_jacobian`, expressed as
    ``trace < 0 and det > 0`` — equivalent for a real 2x2 system.
    """
    phis = np.asarray(phis, dtype=float)
    seeds = np.asarray(seeds, dtype=float)
    tank_r = tank.peak_resistance
    tank_c = tank.effective_capacitance()
    amplitudes, _ = _solve_amplitudes_batched(evaluate, tank_r, phis, seeds, a_window)
    valid = np.isfinite(amplitudes)
    safe_a = np.where(valid, amplitudes, 1.0)

    i1 = evaluate(safe_a, phis)
    phi_d = -np.angle(-i1)
    valid &= np.abs(phi_d) < _PHI_D_LIMIT

    w_i = np.full(phis.shape, np.nan)
    for j in np.nonzero(valid)[0]:
        try:
            w_i[j] = tank.frequency_for_phase(float(phi_d[j]))
        except PhaseInversionError as exc:
            record_fault(
                SolveFault(
                    "phase-inversion-out-of-range",
                    "lock-range",
                    str(exc),
                    context={"phi": float(phis[j]), "phi_d": float(phi_d[j])},
                )
            )
            valid[j] = False

    # Batched finite-difference Jacobian of the slow flow (same stencil
    # as SlowFlow.jacobian: central differences, rel_step 1e-5), all four
    # stencil points in one evaluator call.
    rel_step = 1e-5
    h_a = rel_step * safe_a
    h_p = rel_step * 2.0 * np.pi
    a_st = np.concatenate([safe_a + h_a, safe_a - h_a, safe_a, safe_a])
    p_st = np.concatenate([phis, phis, phis + h_p, phis - h_p])
    i1_st = evaluate(a_st, p_st)
    tf = -tank_r * np.real(i1_st) / (a_st / 2.0)
    f_a = (a_st / (2.0 * tank_r * tank_c) * (tf - 1.0)).reshape(4, -1)
    f_phi = (
        df.n
        / (2.0 * tank_c)
        * (2.0 * np.imag(i1_st) / a_st - np.tile(np.tan(phi_d), 4) / tank_r)
    ).reshape(4, -1)
    j00 = (f_a[0] - f_a[1]) / (2.0 * h_a)
    j01 = (f_a[2] - f_a[3]) / (2.0 * h_p)
    j10 = (f_phi[0] - f_phi[1]) / (2.0 * h_a)
    j11 = (f_phi[2] - f_phi[3]) / (2.0 * h_p)
    trace = j00 + j11
    det = j00 * j11 - j01 * j10
    stable = (trace < 0.0) & (det > 0.0)

    points: list[LockRangePoint | None] = []
    for j in range(phis.size):
        if not valid[j]:
            points.append(None)
            continue
        points.append(
            LockRangePoint(
                phi=float(phis[j]),
                amplitude=float(amplitudes[j]),
                phi_d=float(phi_d[j]),
                w_i=float(w_i[j]),
                stable=bool(stable[j]),
            )
        )
    return points


def _edge_bracket(
    samples: list[LockRangePoint], best: LockRangePoint, count: int = 5
) -> tuple[list[float], list[LockRangePoint]]:
    """The ``count`` samples nearest ``best`` in phi, unwrapped about it.

    ``phi`` is an angle: samples either side of the ``0 / 2 pi`` seam are
    neighbours.  Returns their abscissae as ``best.phi`` plus the wrapped
    offset, sorted, with the matching samples — so ``[phis[0], phis[-1]]``
    is a bracket of a few grid cells around ``best`` even when it
    straddles the seam.
    """
    offsets = [float(np.angle(np.exp(1j * (p.phi - best.phi)))) for p in samples]
    nearest = sorted(range(len(samples)), key=lambda j: abs(offsets[j]))[:count]
    nearest.sort(key=lambda j: offsets[j])
    return [best.phi + offsets[j] for j in nearest], [samples[j] for j in nearest]


def _fold_slope(evaluation, amplitude: np.ndarray, tank_r: float) -> np.ndarray:
    """``D = d phi_d / d phi`` along the ``T_f = 1`` curve.

    ``evaluation`` is the evaluator's ``(I_1, dI_1/dA, dI_1/dphi)`` at
    points of the curve.  With ``G = T_f - 1`` and
    ``H = phi_d = -angle(-I_1)`` the curve's slope is
    ``dA/dphi = -G_phi / G_A``, so ``D = H_phi - H_A G_phi / G_A``
    (docs/THEORY.md section 4.1).  A lock-range edge is a zero of ``D``.
    """
    i1, d_a, d_phi = evaluation
    h_a = -np.imag(d_a / i1)
    h_phi = -np.imag(d_phi / i1)
    g_a = -2.0 * tank_r * (np.real(d_a) - np.real(i1) / amplitude) / amplitude
    g_phi = -2.0 * tank_r * np.real(d_phi) / amplitude
    return h_phi - h_a * g_phi / g_a


def _refine_edges(
    df: TwoToneDF,
    tank: Tank,
    evaluate,
    samples: list[LockRangePoint],
    stable: list[LockRangePoint],
    a_window: tuple[float, float],
) -> list[LockRangePoint]:
    """Both lock-range edges by one batched solve of ``D(phi) = 0``.

    Edge ``e`` maximises ``sign_e * phi_d`` (``+1`` lower, ``-1`` upper
    edge) near the most extreme stable sample, over the
    :func:`_edge_bracket` of its neighbours.  The curve is followed on that
    sample's branch: every point, the bracket ends included, re-solves
    ``A`` by the safeguarded Newton of :func:`_solve_amplitudes_batched`,
    seeded from the sample (at the ends) or from the edge's previous
    probe.  An end the branch does not reach (it leaves the amplitude
    window first) retreats to the branch's last solvable phi.  When
    ``sign_e * D`` falls from positive to negative over the bracket it
    holds a maximum, found by Illinois (regula falsi) iteration with both
    edges as one length-2 array.  Otherwise (or if a probe fails) the edge
    is the better of the best sample and the bracket ends, where a search
    for the maximum over the bracket would converge.
    """
    tank_r = tank.peak_resistance
    signs = np.array([1.0, -1.0])
    bests = [max(stable, key=lambda p: sign * p.phi_d) for sign in signs]
    brackets = [_edge_bracket(samples, best)[0] for best in bests]
    # Ends as [lower edge lo, upper edge lo, lower edge hi, upper edge hi].
    ends_phi = np.array([b[0] for b in brackets] + [b[-1] for b in brackets])
    amp = np.array([best.amplitude for best in bests])
    seeds = np.tile(amp, 2)
    ends_a, evaluation = _solve_amplitudes_batched(
        evaluate, tank_r, ends_phi, seeds, a_window
    )
    lost = ~np.isfinite(ends_a)
    if lost.any():
        # The sample's branch leaves the amplitude window before this end:
        # bisect towards the sample for the branch's last solvable phi,
        # where a search for the maximum over the bracket would stop.
        reach = np.tile([best.phi for best in bests], 2)
        for _ in range(60):
            idx = np.nonzero(lost & (np.abs(ends_phi - reach) > _EDGE_PHI_TOL))[0]
            if idx.size == 0:
                break
            mid = 0.5 * (reach[idx] + ends_phi[idx])
            a_mid, _ = _solve_amplitudes_batched(
                evaluate, tank_r, mid, seeds[idx], a_window
            )
            solved = np.isfinite(a_mid)
            reach[idx] = np.where(solved, mid, reach[idx])
            ends_phi[idx] = np.where(solved, ends_phi[idx], mid)
        ends_phi = np.where(lost, reach, ends_phi)
        ends_a, evaluation = _solve_amplitudes_batched(
            evaluate, tank_r, ends_phi, seeds, a_window
        )
    with np.errstate(invalid="ignore"):
        slopes = np.tile(signs, 2) * _fold_slope(evaluation, ends_a, tank_r)
    x_lo, x_hi = ends_phi[:2].copy(), ends_phi[2:].copy()
    f_lo, f_hi = slopes[:2], slopes[2:]

    active = (f_lo > 0.0) & (f_hi < 0.0)
    converged = np.zeros(2, dtype=bool)
    phi = np.zeros(2)
    last_side = np.zeros(2)
    for _ in range(60):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        c = (x_lo[idx] * f_hi[idx] - x_hi[idx] * f_lo[idx]) / (f_hi[idx] - f_lo[idx])
        a_c, evaluation = _solve_amplitudes_batched(
            evaluate, tank_r, c, amp[idx], a_window
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            f_c = signs[idx] * _fold_slope(evaluation, a_c, tank_r)
        failed = ~np.isfinite(f_c)
        phi[idx] = c
        amp[idx] = np.where(failed, amp[idx], a_c)
        # Illinois: when the same end moves twice running, halve the value
        # held at the other end so the bracket closes from both sides.
        to_hi = f_c < 0.0
        to_lo = f_c > 0.0
        f_lo[idx] = np.where(to_hi & (last_side[idx] < 0), 0.5 * f_lo[idx], f_lo[idx])
        f_hi[idx] = np.where(to_lo & (last_side[idx] > 0), 0.5 * f_hi[idx], f_hi[idx])
        x_hi[idx] = np.where(to_hi, c, x_hi[idx])
        f_hi[idx] = np.where(to_hi, f_c, f_hi[idx])
        x_lo[idx] = np.where(to_lo, c, x_lo[idx])
        f_lo[idx] = np.where(to_lo, f_c, f_lo[idx])
        last_side[idx] = np.where(to_hi, -1.0, np.where(to_lo, 1.0, 0.0))
        done = (f_c == 0.0) | (x_hi[idx] - x_lo[idx] <= _EDGE_PHI_TOL)
        converged[idx] = done & ~failed
        active[idx] = ~done & ~failed

    # One batched point build: the extremum of each converged edge, both
    # bracket ends of every other edge.
    builds = []
    for e in range(2):
        if converged[e]:
            builds.append((e, phi[e], amp[e]))
            continue
        metrics.inc("lockrange.edge_endpoint_rule")
        builds += [
            (e, ends_phi[k], ends_a[k]) for k in (e, 2 + e) if np.isfinite(ends_a[k])
        ]
    candidates = [[best] for best in bests]
    if builds:
        owners, at_phi, at_a = (np.array(column) for column in zip(*builds))
        points = _points_at_phis_batched(df, tank, evaluate, at_phi, at_a, a_window)
        for e, point in zip(owners, points):
            if point is not None:
                candidates[e].append(point)
    return [
        max(found, key=lambda p: sign * p.phi_d)
        for found, sign in zip(candidates, signs)
    ]


def _refine_extremum(
    df: TwoToneDF,
    tank: Tank,
    phi_lo: float,
    phi_hi: float,
    a_seed: float,
    a_window: tuple[float, float],
    sign: float,
) -> LockRangePoint | None:
    """Golden-section maximisation of ``sign * phi_d`` along the curve.

    The ``method="dense"`` referee's edge search: every probe is an exact
    quadrature point (:func:`_point_at_phi`).
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    cache: dict[float, LockRangePoint | None] = {}

    def value(phi: float) -> float:
        if phi not in cache:
            cache[phi] = _point_at_phi(df, tank, phi, a_seed, a_window)
        point = cache[phi]
        if point is None:
            return -np.inf
        return sign * point.phi_d

    a, b = float(phi_lo), float(phi_hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(80):
        if abs(b - a) < _EDGE_PHI_TOL:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(d)
    return cache[c if fc > fd else d]


def predict_lock_range(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    n: int,
    amplitude_window: tuple[float, float] | None = None,
    n_a: int = 121,
    n_phi: int = 241,
    n_samples: int = DEFAULT_SAMPLES,
    method: str = "fft",
    df: TwoToneDF | None = None,
) -> LockRange:
    """Predict the n-th sub-harmonic lock range — one pass, no iteration.

    Parameters
    ----------
    nonlinearity, tank:
        The oscillator.
    v_i:
        Injection phasor magnitude, volts.
    n:
        Sub-harmonic order.
    amplitude_window:
        Search window for A; defaults to 0.3x..1.4x the natural amplitude.
    n_a, n_phi:
        Grid resolution for the invariant-curve extraction.  The final
        limits are refined to sub-grid accuracy, so moderate grids
        suffice.
    n_samples:
        Fourier quadrature resolution.
    method:
        ``"fft"`` (default): FFT-factorised pre-characterisation plus the
        batched curve solver — every ``I_1`` query after the surface build
        costs zero nonlinearity calls.  ``"dense"``: the direct-quadrature
        referee path (scalar solves, exact ``I_1`` everywhere) kept as the
        ablation baseline; both methods agree to solver tolerance on
        smooth laws.
    df:
        A pre-built :class:`~repro.core.two_tone.TwoToneDF` to reuse
        instead of constructing one — the sweep engine's amortisation
        seam.  Must match ``(v_i, n, n_samples, method)`` exactly; an
        adopted surface on the injected instance makes the solve bitwise
        identical to the scalar path while skipping the FFT build.

    Raises
    ------
    NoLockError
        When no stable lock exists at any frequency (injection too weak to
        produce a lockable phase rotation).
    """
    check_positive("v_i", v_i)
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    if method not in ("fft", "dense"):
        raise ValueError(f"method must be 'fft' or 'dense', got {method!r}")
    with trace(
        "lockrange",
        attrs={"n": n, "v_i": v_i, "method": method, "n_a": n_a, "n_phi": n_phi},
    ) as sp:
        tank_r = tank.peak_resistance
        if amplitude_window is None:
            natural = predict_natural_oscillation(
                nonlinearity, tank, n_samples=n_samples
            )
            amplitude_window = (0.3 * natural.amplitude, 1.4 * natural.amplitude)
        a_lo, a_hi = amplitude_window
        check_positive("amplitude_window[0]", a_lo)

        if df is None:
            df = TwoToneDF(nonlinearity, v_i, n, n_samples=n_samples, method=method)
        else:
            mismatches = [
                name
                for name, have, want in (
                    ("v_i", df.v_i, v_i),
                    ("n", df.n, n),
                    ("n_samples", df.n_samples, n_samples),
                    ("method", df.method, method),
                )
                if have != want
            ]
            if mismatches:
                raise ValueError(
                    "injected df does not match the requested solve: "
                    + ", ".join(
                        f"{name}={getattr(df, name)!r} != {want!r}"
                        for name, want in (
                            ("v_i", v_i),
                            ("n", n),
                            ("n_samples", n_samples),
                            ("method", method),
                        )
                        if name in mismatches
                    )
                )
        amplitudes = np.linspace(a_lo, a_hi, n_a)
        # Half-cell offset keeps symmetric-nonlinearity zero lines off the
        # sampling columns (see solve_lock_states).
        half_cell = np.pi / (n_phi - 1)
        phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, n_phi)
        grid = df.characterize(amplitudes, phis, tank_r)
        with timed("curve-extraction"):
            tf_curves = extract_level_curves(grid, "tf", 1.0)
        if not tf_curves:
            raise NoLockError(
                "the T_f = 1 curve does not exist in the amplitude window; "
                "check that the oscillator sustains oscillation at this V_i"
            )

        evaluate = df.i1_evaluator(amplitudes, phis) if method == "fft" else None
        samples: list[LockRangePoint] = []
        with timed("curve-solve"):
            if evaluate is not None:
                curve_phis = np.concatenate(
                    [np.asarray(c.x, dtype=float) for c in tf_curves]
                )
                curve_seeds = np.concatenate(
                    [np.asarray(c.y, dtype=float) for c in tf_curves]
                )
                for point in _points_at_phis_batched(
                    df, tank, evaluate, curve_phis, curve_seeds, amplitude_window
                ):
                    if point is not None:
                        samples.append(point)
            else:
                for curve in tf_curves:
                    for j in range(len(curve)):
                        point = _point_at_phi(
                            df,
                            tank,
                            float(curve.x[j]),
                            float(curve.y[j]),
                            amplitude_window,
                        )
                        if point is not None:
                            samples.append(point)
        sp.set(samples=len(samples))
        metrics.inc("lockrange.solves", method=method)
        stable = [p for p in samples if p.stable]
        if not stable:
            raise NoLockError(
                "no stable lock state exists on the T_f = 1 curve for this "
                "injection"
            )

        # Extremal stable tank phases -> lock-range edges; refine around each.
        def refine_edge(sign: float) -> LockRangePoint:
            best = max(stable, key=lambda p: sign * p.phi_d)
            phis, _ = _edge_bracket(samples, best)
            if phis[-1] - phis[0] < 1e-12:
                return best
            refined = _refine_extremum(
                df, tank, phis[0], phis[-1], best.amplitude, amplitude_window, sign
            )
            if refined is None or sign * refined.phi_d < sign * best.phi_d:
                return best
            return refined

        with timed("edge-refine"):
            if evaluate is not None:
                edge_low, edge_high = _refine_edges(
                    df, tank, evaluate, samples, stable, amplitude_window
                )
            else:
                edge_low = refine_edge(+1.0)  # largest positive phi_d -> lowest freq
                edge_high = refine_edge(-1.0)  # most negative phi_d -> highest freq

        return LockRange(
            n=n,
            v_i=v_i,
            injection_lower=n * edge_low.w_i,
            injection_upper=n * edge_high.w_i,
            phi_d_at_lower=edge_low.phi_d,
            phi_d_at_upper=edge_high.phi_d,
            amplitude_at_lower=edge_low.amplitude,
            amplitude_at_upper=edge_high.amplitude,
            samples=sorted(samples, key=lambda p: p.phi),
        )


def lock_range_by_frequency_scan(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    n: int,
    rel_span: float = 0.05,
    rel_tol: float = 1e-6,
    **solver_kwargs,
) -> LockRange:
    """Naive lock range: bisection over frequency with a full solve per probe.

    This is the "binary search over different frequencies" the paper
    describes for simulation-based lock-range extraction, applied to the
    predictor instead — kept as the ablation baseline for the
    invariant-curve shortcut (ABL / design-choice 2 in DESIGN.md).
    """
    check_positive("rel_span", rel_span)
    w_c = tank.center_frequency

    def locked(w_i: float) -> bool:
        solution = solve_lock_states(
            nonlinearity,
            tank,
            v_i=v_i,
            w_injection=n * w_i,
            n=n,
            **solver_kwargs,
        )
        return solution.locked

    if not locked(w_c):
        raise NoLockError("no stable lock even at the tank centre frequency")

    def edge(direction: float) -> float:
        inner = w_c
        outer = w_c * (1.0 + direction * rel_span)
        if locked(outer):
            raise NoLockError(
                f"lock persists at the scan edge {outer:g} rad/s; "
                "increase rel_span"
            )
        while (abs(outer - inner) / w_c) > rel_tol:
            mid = 0.5 * (inner + outer)
            if locked(mid):
                inner = mid
            else:
                outer = mid
        return 0.5 * (inner + outer)

    w_low = edge(-1.0)
    w_high = edge(+1.0)
    return LockRange(
        n=int(n),
        v_i=v_i,
        injection_lower=n * w_low,
        injection_upper=n * w_high,
        phi_d_at_lower=float(tank.phase(np.asarray(w_low))),
        phi_d_at_upper=float(tank.phase(np.asarray(w_high))),
        amplitude_at_lower=float("nan"),
        amplitude_at_upper=float("nan"),
    )
