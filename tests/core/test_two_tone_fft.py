"""FFT-factorised two-tone path against the dense quadrature referee.

The fast path must be an *implementation* change only: on every shipped
nonlinearity class and every paper order (including n = 1, i.e. FHIL) the
factorised ``I_1(A, phi)`` grid has to agree with the direct dense
quadrature to 1e-9 absolute — the ISSUE's acceptance bound.  Laws that
cannot meet the bound (piecewise-linear tables, whose psi-spectrum decays
too slowly) must be detected and routed to the dense fallback
automatically.
"""

import numpy as np
import pytest

from repro.core.describing_function import fundamental_coefficient
from repro.core.two_tone import (
    TwoToneDF,
    TwoToneSurface,
    two_tone_fundamental,
    two_tone_surface,
)
from repro.nonlin import (
    BiasedTunnelDiode,
    CrossCoupledDiffPair,
    LinearTableNonlinearity,
    NegativeTanh,
    TabulatedNonlinearity,
)

N_SAMPLES = 512
ACCEPTANCE_ATOL = 1e-9


def _tabulated_tanh() -> TabulatedNonlinearity:
    law = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
    v = np.linspace(-2.5, 2.5, 41)
    return TabulatedNonlinearity(v, law(v), name="tanh-table")


#: (constructor, amplitude window, v_i) per shipped nonlinearity class.
CASES = [
    pytest.param(NegativeTanh(gm=2.5e-3, i_sat=1e-3), (0.4, 1.7), 0.03, id="tanh"),
    pytest.param(CrossCoupledDiffPair(), (0.05, 0.35), 0.02, id="diffpair"),
    pytest.param(BiasedTunnelDiode(v_bias=0.25), (0.06, 0.28), 0.005, id="tunnel"),
    pytest.param(_tabulated_tanh(), (0.4, 1.6), 0.03, id="tabulated"),
]


class TestDenseEquivalence:
    @pytest.mark.parametrize("nonlinearity, window, v_i", CASES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_surface_matches_dense_referee(self, nonlinearity, window, v_i, n):
        amplitudes = np.linspace(window[0], window[1], 16)
        phis = np.linspace(0.0, 2.0 * np.pi, 33)
        surface = two_tone_surface(
            nonlinearity, amplitudes, v_i, n, N_SAMPLES
        )
        assert surface.converged
        fast = surface.i1_grid(phis)
        dense = two_tone_fundamental(
            nonlinearity, amplitudes[:, None], v_i, phis[None, :], n, N_SAMPLES
        )
        assert np.max(np.abs(fast - dense)) <= ACCEPTANCE_ATOL

    def test_higher_harmonics_match_quadrature(self):
        df = TwoToneDF(NegativeTanh(gm=2.5e-3, i_sat=1e-3), 0.03, 3,
                       n_samples=N_SAMPLES)
        amplitudes = np.linspace(0.5, 1.6, 8)
        surface = df.surface(amplitudes)
        phi = 1.234
        exact = df.harmonic_phasors(amplitudes[3], phi, 5)
        for m in range(1, 6):
            grid = surface.harmonic_grid(np.asarray([phi]), m=m)
            assert abs(grid[3, 0] - exact[m - 1]) <= ACCEPTANCE_ATOL

    def test_zero_injection_reduces_to_single_tone(self):
        law = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        amplitudes = np.linspace(0.4, 1.7, 9)
        surface = two_tone_surface(law, amplitudes, 0.0, 3, N_SAMPLES)
        i1 = surface.i1_grid(np.linspace(0.0, 2.0 * np.pi, 7))
        single = fundamental_coefficient(law, amplitudes)
        assert np.allclose(i1.real, single[:, None], atol=1e-14)
        assert np.max(np.abs(i1.imag)) < 1e-14
        # phi-independent by construction
        assert np.max(np.abs(i1 - i1[:, :1])) == 0.0


class TestNonConvergedFallback:
    def test_piecewise_linear_law_is_flagged(self):
        table = LinearTableNonlinearity.from_nonlinearity(
            NegativeTanh(gm=2.5e-3, i_sat=1e-3), -2.5, 2.5, 257
        )
        amplitudes = np.linspace(0.4, 1.7, 12)
        surface = two_tone_surface(table, amplitudes, 0.03, 3, N_SAMPLES)
        assert not surface.converged

    def test_characterize_falls_back_to_dense(self):
        table = LinearTableNonlinearity.from_nonlinearity(
            NegativeTanh(gm=2.5e-3, i_sat=1e-3), -2.5, 2.5, 257
        )
        amplitudes = np.linspace(0.4, 1.7, 12)
        half_cell = np.pi / 20.0
        phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, 21)
        fast = TwoToneDF(table, 0.03, 3, n_samples=N_SAMPLES, method="fft")
        dense = TwoToneDF(table, 0.03, 3, n_samples=N_SAMPLES, method="dense")
        g_fast = fast.characterize(amplitudes, phis, 1000.0)
        g_dense = dense.characterize(amplitudes, phis, 1000.0)
        for name in ("i1x", "i1y", "tf"):
            assert np.max(
                np.abs(g_fast.surfaces[name] - g_dense.surfaces[name])
            ) <= 1e-12


class TestCharacterizeCaching:
    def test_repeat_call_returns_same_object(self, tanh_nonlinearity):
        df = TwoToneDF(tanh_nonlinearity, 0.03, 3, n_samples=N_SAMPLES)
        amplitudes = np.linspace(0.4, 1.7, 10)
        phis = np.linspace(0.1, 2.0 * np.pi + 0.1, 11)
        first = df.characterize(amplitudes, phis, 1000.0)
        assert df.characterize(amplitudes, phis, 1000.0) is first

    def test_same_endpoints_different_spacing_not_conflated(
        self, tanh_nonlinearity
    ):
        # Regression: the memo used to key on (endpoints, size) only, so a
        # geometric grid sharing the endpoints of a linear one silently
        # reused the wrong surfaces.
        df = TwoToneDF(tanh_nonlinearity, 0.03, 3, n_samples=N_SAMPLES)
        phis = np.linspace(0.1, 2.0 * np.pi + 0.1, 11)
        linear = np.linspace(0.4, 1.7, 10)
        geometric = np.geomspace(0.4, 1.7, 10)
        g_lin = df.characterize(linear, phis, 1000.0)
        g_geo = df.characterize(geometric, phis, 1000.0)
        assert g_geo is not g_lin
        assert not np.array_equal(
            g_lin.surfaces["i1mag"], g_geo.surfaces["i1mag"]
        )
        # Each keeps its own identity on repeat calls.
        assert df.characterize(linear, phis, 1000.0) is g_lin
        assert df.characterize(geometric, phis, 1000.0) is g_geo


class TestSurfaceRoundTrip:
    def test_to_from_arrays(self, tanh_nonlinearity):
        amplitudes = np.linspace(0.4, 1.7, 8)
        surface = two_tone_surface(tanh_nonlinearity, amplitudes, 0.03, 3,
                                   N_SAMPLES)
        arrays, meta = surface.to_arrays()
        clone = TwoToneSurface.from_arrays(arrays, meta)
        phis = np.linspace(0.0, 2.0 * np.pi, 17)
        assert np.array_equal(clone.i1_grid(phis), surface.i1_grid(phis))
        assert clone.converged == surface.converged
        assert clone.n == surface.n
        assert clone.v_i == surface.v_i

    def test_marker_surface_round_trips_non_converged(self):
        table = LinearTableNonlinearity.from_nonlinearity(
            NegativeTanh(gm=2.5e-3, i_sat=1e-3), -2.5, 2.5, 257
        )
        surface = two_tone_surface(
            table, np.linspace(0.4, 1.7, 6), 0.03, 3, N_SAMPLES
        )
        arrays, meta = surface.to_arrays()
        clone = TwoToneSurface.from_arrays(arrays, meta)
        assert not clone.converged


class TestEvaluator:
    def test_off_grid_evaluator_tracks_quadrature(self, tanh_nonlinearity):
        df = TwoToneDF(tanh_nonlinearity, 0.03, 3, n_samples=N_SAMPLES)
        amplitudes = np.linspace(0.4, 1.7, 40)
        phis = np.linspace(0.05, 2.0 * np.pi + 0.05, 41)
        evaluate = df.i1_evaluator(amplitudes, phis)
        a = np.asarray([0.55, 0.9712, 1.433])
        p = np.asarray([0.3, 2.111, 5.9])
        got = evaluate(a, p)
        want = df.i1(a, p)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def _central_differences(evaluate, a, p, h_a=1e-6, h_p=1e-6):
    d_a = (evaluate(a + h_a, p) - evaluate(a - h_a, p)) / (2.0 * h_a)
    d_p = (evaluate(a, p + h_p) - evaluate(a, p - h_p)) / (2.0 * h_p)
    return d_a, d_p


class TestCoefficientTable:
    """``harmonic_at`` reads a numpy table of the coefficient spline."""

    @pytest.fixture(scope="class")
    def surface(self, tanh_nonlinearity):
        return two_tone_surface(
            tanh_nonlinearity, np.linspace(0.4, 1.7, 40), 0.03, 3, N_SAMPLES
        )

    @staticmethod
    def _assert_equals_cubic_spline(surface):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(7)
        lo, hi = surface.amplitudes[0], surface.amplitudes[-1]
        # Interior points, the knots themselves and a little extrapolation.
        a = np.concatenate(
            [rng.uniform(lo - 0.05, hi + 0.05, 200), surface.amplitudes, [lo, hi]]
        )
        p = rng.uniform(-1.0, 2.0 * np.pi + 1.0, a.size)
        spline = CubicSpline(surface.amplitudes, surface.coefficients[0], axis=0)
        basis = np.exp(1j * p[:, None] * surface.k_orders[None, :])
        want = np.einsum("pk,pk->p", spline(a), basis)
        got = surface.harmonic_at(a, p)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_table_equals_cubic_spline(self, surface):
        self._assert_equals_cubic_spline(surface)

    @pytest.mark.parametrize(
        "amplitudes",
        [
            np.linspace(0.5, 1.6, 4),
            np.linspace(0.5, 1.6, 5),
            np.geomspace(0.4, 1.7, 25),
            np.asarray([0.4, 0.45, 0.6, 0.62, 0.9, 1.3, 1.35, 1.7]),
        ],
        ids=["n4", "n5", "geometric", "irregular"],
    )
    def test_small_and_nonuniform_grids_equal_cubic_spline(
        self, tanh_nonlinearity, amplitudes
    ):
        surface = two_tone_surface(tanh_nonlinearity, amplitudes, 0.03, 3, N_SAMPLES)
        self._assert_equals_cubic_spline(surface)

    def test_surfaces_on_one_grid_share_the_coefficient_map(self, tanh_nonlinearity):
        from repro.core.two_tone import _not_a_knot_map

        amplitudes = np.linspace(0.45, 1.65, 17)
        first, second = (
            two_tone_surface(tanh_nonlinearity, amplitudes, v_i, 3, N_SAMPLES)
            for v_i in (0.02, 0.04)
        )
        _not_a_knot_map.cache_clear()
        for surface in (first, second):
            self._assert_equals_cubic_spline(surface)
        info = _not_a_knot_map.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_gradients_match_central_differences(self, surface):
        a = np.asarray([0.55, 0.9712, 1.433, 1.69])
        p = np.asarray([0.3, 2.111, 5.9, -0.4])
        value, d_a, d_p = surface.harmonic_at(a, p, grad=True)
        assert np.array_equal(value, surface.harmonic_at(a, p))
        fd_a, fd_p = _central_differences(surface.i1_at, a, p)
        assert np.max(np.abs(d_a - fd_a)) <= 1e-7 * np.max(np.abs(d_a))
        assert np.max(np.abs(d_p - fd_p)) <= 1e-7 * np.max(np.abs(d_p))

    def test_short_grids_interpolate_linearly(self, tanh_nonlinearity):
        amplitudes = np.asarray([0.5, 0.9, 1.6])
        surface = two_tone_surface(tanh_nonlinearity, amplitudes, 0.03, 3, N_SAMPLES)
        a = np.asarray([0.3, 0.5, 0.7, 1.2, 1.6, 1.9])
        p = np.full(a.size, 0.8)
        basis = np.exp(1j * 0.8 * surface.k_orders)
        ys = surface.coefficients[0] @ basis
        want = np.interp(a, amplitudes, ys.real) + 1j * np.interp(
            a, amplitudes, ys.imag
        )
        value, d_a, _ = surface.harmonic_at(a, p, grad=True)
        assert np.max(np.abs(value - want)) <= 1e-14 * np.max(np.abs(want))
        slope = (ys[2] - ys[1]) / (amplitudes[2] - amplitudes[1])
        assert d_a[3] == pytest.approx(slope, rel=1e-12)
        assert d_a[0] == 0.0 and d_a[-1] == 0.0


class TestFallbackEvaluatorGradients:
    """The non-converged (diff-pair table) evaluator's gradients and seam."""

    @pytest.fixture(scope="class")
    def evaluator(self):
        from repro.experiments.circuits import diffpair_oscillator

        setup = diffpair_oscillator()
        df = TwoToneDF(setup.nonlinearity, 0.03, 3, n_samples=256)
        amplitudes = np.linspace(0.15, 0.7, 31)
        assert not df.surface(amplitudes).converged
        half_cell = np.pi / 60
        phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, 61)
        return df.i1_evaluator(amplitudes, phis)

    def test_gradients_match_central_differences(self, evaluator):
        a = np.asarray([0.31, 0.4444, 0.52, 0.61])
        p = np.asarray([0.4, 1.7, 3.3, 5.1])
        value, d_a, d_p = evaluator(a, p, grad=True)
        assert np.array_equal(value, evaluator(a, p))
        fd_a, fd_p = _central_differences(evaluator, a, p)
        assert np.max(np.abs(d_a - fd_a)) <= 1e-6 * np.max(np.abs(d_a))
        assert np.max(np.abs(d_p - fd_p)) <= 1e-6 * np.max(np.abs(d_p))

    def test_phi_wraps_into_the_grid_span(self, evaluator):
        a = np.asarray([0.3, 0.45, 0.6])
        p = np.asarray([0.02, 1.0, 6.2])
        want = evaluator(a, p)
        for shift in (-2.0 * np.pi, 2.0 * np.pi):
            got = evaluator(a, p + shift)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
