"""Backend parity for the chunked RK4 kernels (C / numpy)."""

import numpy as np
import pytest

from repro.nonlin import (
    BiasedTunnelDiode,
    CrossCoupledDiffPair,
    CubicNonlinearity,
    LinearTableNonlinearity,
    NegativeTanh,
    PiecewiseLinearNegativeResistance,
    TabulatedNonlinearity,
    TunnelDiode,
)
from repro.odesim.kernels import (
    LAW_KINDS,
    available_backends,
    best_compiled_backend,
    build_stepper,
)
from repro.tank import ParallelRLC

TANK = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)


def _table_pair():
    v = np.linspace(-2.0, 2.0, 41)
    return v, -1e-3 * np.tanh(2.5 * v)


#: One representative per CompiledLaw kind (the table entry covers both
#: the direct LinearTableNonlinearity and the shifted composition).
LAWS = {
    "tanh": NegativeTanh(gm=2.5e-3, i_sat=1e-3),
    "cubic": CubicNonlinearity(a=2.5e-3, b=1e-3),
    "pwl": PiecewiseLinearNegativeResistance(g=2.5e-3, v_knee=0.4),
    "tunnel": BiasedTunnelDiode(TunnelDiode(), v_bias=0.25),
    "table": LinearTableNonlinearity(*_table_pair()),
}


def _stepper_kwargs(h):
    return dict(
        v_i2=2.0 * 0.03,
        phase=0.0,
        pulses=(),
        inv_c=1.0 / TANK.c,
        inv_l=1.0 / TANK.l,
        inv_rc=1.0 / (TANK.r * TANK.c),
        h=h,
    )


def _run(stepper, w, n_steps):
    batch = w.size
    v = np.full(batch, 1e-3)
    il = np.zeros(batch)
    out_v = np.empty((n_steps, batch))
    out_il = np.empty((n_steps, batch))
    stepper.step(v, il, w, 0, n_steps, out_v=out_v, out_il=out_il)
    return v, il, out_v, out_il


class TestBackendDiscovery:
    def test_numpy_always_available(self):
        backends = available_backends()
        assert backends[-1] == "numpy"

    def test_best_compiled_consistent(self):
        best = best_compiled_backend()
        if best is not None:
            assert best in available_backends()
        else:
            assert available_backends() == ("numpy",)

    def test_unknown_backend_rejected(self):
        for backend in ("fortran", "numba"):
            with pytest.raises(ValueError):
                build_stepper(LAWS["tanh"], backend=backend, **_stepper_kwargs(1e-9))


class TestLawCoverage:
    @pytest.mark.parametrize("kind", LAW_KINDS)
    def test_every_kind_has_a_family(self, kind):
        law = LAWS[kind].compiled_law()
        assert law is not None and law.kind == kind

    def test_diffpair_maps_to_tanh(self):
        law = CrossCoupledDiffPair(i_ee=5e-4).compiled_law()
        assert law is not None and law.kind == "tanh"

    def test_pchip_table_has_no_compiled_law(self):
        v, i = _table_pair()
        assert TabulatedNonlinearity(v, i).compiled_law() is None


class TestBackendParity:
    """Every available backend integrates every law kind identically."""

    @pytest.mark.parametrize("kind", LAW_KINDS)
    def test_compiled_matches_numpy(self, kind):
        best = best_compiled_backend()
        if best is None:
            pytest.skip("no compiled backend in this environment")
        nl = LAWS[kind]
        w = 3.0 * TANK.center_frequency * np.array([0.999, 1.0, 1.001])
        h = (2.0 * np.pi / w.max()) / 64.0
        kwargs = _stepper_kwargs(h)
        ref = _run(build_stepper(nl, backend="numpy", **kwargs), w, 50 * 64)
        fast = _run(build_stepper(nl, backend=best, **kwargs), w, 50 * 64)
        scale = np.max(np.abs(ref[2]))
        for a, b in zip(ref, fast):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * scale)

    def test_numpy_fallback_runs_uncompilable_laws(self):
        v, i = _table_pair()
        nl = TabulatedNonlinearity(v, i)
        stepper = build_stepper(nl, backend="auto", **_stepper_kwargs(1e-8))
        assert stepper.backend == "numpy"
        w = np.array([3.0 * TANK.center_frequency])
        vf, ilf, out_v, _ = _run(stepper, w, 64)
        assert np.all(np.isfinite(out_v)) and np.isfinite(vf[0]) and np.isfinite(ilf[0])

    def test_compiled_backend_refuses_uncompilable_law(self):
        best = best_compiled_backend()
        if best is None:
            pytest.skip("no compiled backend in this environment")
        v, i = _table_pair()
        with pytest.raises(RuntimeError):
            build_stepper(TabulatedNonlinearity(v, i), backend=best, **_stepper_kwargs(1e-8))

    def test_chunked_equals_single_call(self):
        stepper = build_stepper(LAWS["tanh"], backend="numpy", **_stepper_kwargs(1e-8))
        w = np.array([3.0 * TANK.center_frequency, 3.1 * TANK.center_frequency])
        v1, il1, _, _ = _run(stepper, w, 1000)
        v2 = np.full(2, 1e-3)
        il2 = np.zeros(2)
        done = 0
        for size in (137, 263, 600):
            stepper.step(v2, il2, w, done, size)
            done += size
        np.testing.assert_allclose(v1, v2, rtol=1e-12)
        np.testing.assert_allclose(il1, il2, rtol=1e-12)
