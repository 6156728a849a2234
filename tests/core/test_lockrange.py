"""Tests for the one-pass lock-range predictor (Fig. 10 procedure)."""

import numpy as np
import pytest

from repro.core import predict_lock_range, solve_lock_states
from repro.core.lockrange import (
    LockRangePoint,
    NoLockError,
    _edge_bracket,
    lock_range_by_frequency_scan,
)
from repro.core.two_tone import TwoToneSurface
from repro.nonlin import NegativeTanh
from repro.tank import ParallelRLC


@pytest.fixture(scope="module")
def setup():
    return (
        NegativeTanh(gm=2.5e-3, i_sat=1e-3),
        ParallelRLC(r=1000.0, l=100e-6, c=10e-9),
    )


@pytest.fixture(scope="module")
def lock_range(setup):
    tanh, tank = setup
    return predict_lock_range(tanh, tank, v_i=0.03, n=3)


class TestPredictLockRange:
    def test_brackets_center(self, setup, lock_range):
        _, tank = setup
        center = 3 * tank.center_frequency
        assert lock_range.injection_lower < center < lock_range.injection_upper

    def test_phi_d_symmetry(self, lock_range):
        # Appendix VI-B3: the lock range is symmetric in phase deviation.
        assert lock_range.phi_d_at_lower == pytest.approx(
            -lock_range.phi_d_at_upper, abs=1e-6
        )

    def test_phi_d_signs(self, lock_range):
        # Lower frequency <-> positive tank phase (inductive side).
        assert lock_range.phi_d_at_lower > 0.0
        assert lock_range.phi_d_at_upper < 0.0

    def test_amplitude_decreases_toward_edges(self, setup, lock_range):
        # Section IV-A: "A (and phi) decreases with increasing |w_c - w_i|".
        from repro.core import predict_natural_oscillation

        tanh, tank = setup
        natural = predict_natural_oscillation(tanh, tank)
        assert lock_range.amplitude_at_lower < natural.amplitude
        assert lock_range.amplitude_at_upper < natural.amplitude

    def test_consistent_with_pointwise_solver(self, setup, lock_range):
        # Locks exist just inside the predicted edges, none just outside.
        tanh, tank = setup
        margin = 3e-4
        inside_lo = lock_range.injection_lower * (1 + margin)
        outside_lo = lock_range.injection_lower * (1 - margin)
        inside_hi = lock_range.injection_upper * (1 - margin)
        outside_hi = lock_range.injection_upper * (1 + margin)
        assert solve_lock_states(tanh, tank, v_i=0.03, w_injection=inside_lo, n=3).locked
        assert not solve_lock_states(
            tanh, tank, v_i=0.03, w_injection=outside_lo, n=3
        ).locked
        assert solve_lock_states(tanh, tank, v_i=0.03, w_injection=inside_hi, n=3).locked
        assert not solve_lock_states(
            tanh, tank, v_i=0.03, w_injection=outside_hi, n=3
        ).locked

    def test_width_grows_with_injection(self, setup):
        tanh, tank = setup
        weak = predict_lock_range(tanh, tank, v_i=0.01, n=3)
        strong = predict_lock_range(tanh, tank, v_i=0.05, n=3)
        assert strong.width > weak.width

    def test_contains(self, setup, lock_range):
        _, tank = setup
        assert lock_range.contains(3 * tank.center_frequency)
        assert not lock_range.contains(3 * tank.center_frequency * 1.2)

    def test_samples_populated(self, lock_range):
        assert len(lock_range.samples) > 50
        stable = [p for p in lock_range.samples if p.stable]
        unstable = [p for p in lock_range.samples if not p.stable]
        assert stable and unstable

    def test_samples_are_locks_at_their_own_frequency(self, setup, lock_range):
        # Spot-check the invariant-curve interpretation: a sample point is
        # a lock state at the frequency its phi_d maps to.
        tanh, tank = setup
        sample = lock_range.samples[len(lock_range.samples) // 3]
        solution = solve_lock_states(
            tanh, tank, v_i=0.03, w_injection=3 * sample.w_i, n=3
        )
        amplitudes = [lock.amplitude for lock in solution.locks]
        assert any(abs(a - sample.amplitude) < 2e-3 for a in amplitudes)

    def test_grid_resolution_insensitivity(self, setup, lock_range):
        # Sub-grid refinement should make the edges nearly grid-independent.
        tanh, tank = setup
        coarse = predict_lock_range(tanh, tank, v_i=0.03, n=3, n_a=61, n_phi=121)
        assert coarse.injection_lower == pytest.approx(
            lock_range.injection_lower, rel=2e-5
        )
        assert coarse.injection_upper == pytest.approx(
            lock_range.injection_upper, rel=2e-5
        )

    def test_rejects_zero_injection(self, setup):
        tanh, tank = setup
        with pytest.raises(ValueError):
            predict_lock_range(tanh, tank, v_i=0.0, n=3)

    def test_fhil_special_case(self, setup):
        tanh, tank = setup
        fhil = predict_lock_range(tanh, tank, v_i=0.03, n=1)
        assert fhil.injection_lower < tank.center_frequency < fhil.injection_upper


class TestFrequencyScanParity:
    def test_scan_matches_one_pass(self, setup):
        # The naive per-frequency bisection must agree with the
        # invariant-curve shortcut (design-choice ablation, DESIGN.md).
        tanh, tank = setup
        one_pass = predict_lock_range(tanh, tank, v_i=0.03, n=3)
        scanned = lock_range_by_frequency_scan(
            tanh,
            tank,
            v_i=0.03,
            n=3,
            rel_tol=1e-5,
            n_a=81,
            n_phi=121,
        )
        assert scanned.injection_lower == pytest.approx(
            one_pass.injection_lower, rel=3e-5
        )
        assert scanned.injection_upper == pytest.approx(
            one_pass.injection_upper, rel=3e-5
        )

    def test_scan_raises_when_window_too_small(self, setup):
        # The scan window must bracket the lock range: if the oscillator
        # is still locked at the window edge, the bisection cannot start.
        tanh, tank = setup
        with pytest.raises(NoLockError, match="scan edge"):
            lock_range_by_frequency_scan(
                tanh, tank, v_i=0.03, n=3, rel_span=1e-4, n_a=61, n_phi=121
            )


def _sample(phi: float, phi_d: float = 0.0) -> LockRangePoint:
    return LockRangePoint(phi=phi, amplitude=1.0, phi_d=phi_d, w_i=1.0, stable=True)


class TestEdgeBracket:
    def test_bracket_is_local_away_from_the_seam(self):
        samples = [_sample(0.1 * k) for k in range(1, 60)]
        phis, points = _edge_bracket(samples, samples[29])
        assert phis == pytest.approx([2.8, 2.9, 3.0, 3.1, 3.2])
        assert [p.phi for p in points] == pytest.approx(phis)

    @pytest.mark.parametrize("best_phi", [0.03, 2.0 * np.pi - 0.03])
    def test_bracket_straddling_the_seam_is_unwrapped(self, best_phi):
        # Samples either side of phi = 0 / 2 pi: the raw min/max of the
        # neighbours' phi would span almost the whole period.
        phis_raw = [0.03, 0.08, 0.13, 2.0 * np.pi - 0.03, 2.0 * np.pi - 0.08, 3.0]
        samples = [_sample(p) for p in phis_raw]
        best = next(p for p in samples if p.phi == best_phi)
        phis, points = _edge_bracket(samples, best)
        assert phis[-1] - phis[0] < 0.3
        assert phis == sorted(phis)
        assert best_phi in phis
        assert all(p.phi != 3.0 for p in points)
        for phi, point in zip(phis, points):
            assert np.exp(1j * phi) == pytest.approx(np.exp(1j * point.phi))


#: fft-vs-dense lock-edge deviation bounds (relative to the width) from
#: BENCH_SPEED.json (FIG10 tanh, FIG14 diffpair, FIG18 tunnel); the skewed
#: family, which that bench does not run, takes the tanh bound.
_EDGE_DEVIATION_BOUNDS = {
    ("tanh", 3): 4.5e-11,
    ("skewed", 2): 4.5e-11,
    ("diffpair", 3): 1.2e-6,
    ("tunnel", 3): 1.6e-9,
}


class TestEdgeIsTheExtremum:
    """The batched edge solve finds the extremum of phi_d on the curve."""

    @pytest.fixture(scope="class", params=sorted(_EDGE_DEVIATION_BOUNDS))
    def family_case(self, request):
        from repro.verify.scenarios import FAMILIES

        family, n = request.param
        nonlinearity, tank = FAMILIES[family]()
        fast = predict_lock_range(nonlinearity, tank, v_i=0.03, n=n)
        dense = predict_lock_range(nonlinearity, tank, v_i=0.03, n=n, method="dense")
        return request.param, fast, dense

    def test_fft_edges_match_the_dense_referee(self, family_case):
        key, fast, dense = family_case
        deviation = max(
            abs(fast.injection_lower - dense.injection_lower),
            abs(fast.injection_upper - dense.injection_upper),
        ) / dense.width
        assert deviation <= _EDGE_DEVIATION_BOUNDS[key]

    def test_no_stable_sample_lies_beyond_an_edge(self, family_case):
        _, fast, _ = family_case
        stable = [p.phi_d for p in fast.samples if p.stable]
        assert max(stable) <= fast.phi_d_at_lower
        assert min(stable) >= fast.phi_d_at_upper

    def test_edge_where_the_curve_leaves_the_amplitude_window(self):
        # Tunnel n = 1 at V_i = 0.08: past the extreme samples the T_f = 1
        # branch exits the amplitude window while phi_d still grows, so
        # each edge is the branch's last solvable point, as for the referee.
        from repro.obs import metrics
        from repro.verify.scenarios import FAMILIES

        nonlinearity, tank = FAMILIES["tunnel"]()
        before = metrics.counter("lockrange.edge_endpoint_rule")
        fast = predict_lock_range(nonlinearity, tank, v_i=0.08, n=1)
        assert metrics.counter("lockrange.edge_endpoint_rule") - before == 2
        dense = predict_lock_range(nonlinearity, tank, v_i=0.08, n=1, method="dense")
        assert fast.injection_lower == pytest.approx(
            dense.injection_lower, abs=1e-8 * dense.width
        )
        assert fast.injection_upper == pytest.approx(
            dense.injection_upper, abs=1e-8 * dense.width
        )

    def test_warm_solve_harmonic_at_budget(self, setup, monkeypatch):
        # A nested scalar refinement (a root solve in A per probe of a
        # search over phi) takes about 630 calls here.
        tanh, tank = setup
        predict_lock_range(tanh, tank, v_i=0.03, n=3)
        calls = []
        original = TwoToneSurface.harmonic_at

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TwoToneSurface, "harmonic_at", counting)
        predict_lock_range(tanh, tank, v_i=0.03, n=3)
        assert 0 < len(calls) <= 150
