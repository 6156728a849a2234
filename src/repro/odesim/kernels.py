"""Compiled RK4 stepping kernels for the fast transient engine.

The reference integrator in :func:`repro.odesim.oscillator.simulate_oscillator`
calls the :class:`~repro.nonlin.base.Nonlinearity` Python object four times
per RK4 step.  At the batch sizes a lock-range bisection uses (~12) the
numpy dispatch overhead of those calls dominates the run time — the flops
are trivial.  This module removes the per-stage Python round-trip by
compiling the whole chunked inner loop, driven by the declarative
:class:`~repro.nonlin.base.CompiledLaw` description of the nonlinearity.

Backends, best first:

``"c"``
    C source generated from the law templates below, compiled once with the
    system C compiler into a single shared object holding one ``rk4_<kind>``
    entry point per law kind, loaded through :mod:`ctypes`.  The ``.so`` is
    cached under the same cache root as the describing-function surfaces
    (``~/.cache/repro-shil/kernels`` by default), keyed by a hash of the
    generated source, so the compiler runs at most once per source version.
``"numpy"``
    Fused in-place vectorised stepper.  Works for *any* nonlinearity via
    its Python ``__call__`` (no :class:`CompiledLaw` needed), so it is the
    universal fallback; it is faster than the reference loop mainly through
    preallocated scratch and in-place ufuncs.

All backends advance the same state equations as the reference loop::

    C dv/dt   = -v/R - i_L - f(v + v_inj(t)) + i_pulse(t)
    L di_L/dt = v

with identical stage times (``t = (step0 + s) * h`` computed from the
*global* integer step index, never accumulated) and identical operation
association, so compiled trajectories agree with the referee to fp
round-off (~1e-14 over hundreds of cycles) — the engine-equivalence tests
pin this down.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nonlin.base import CompiledLaw, Nonlinearity
from repro.obs import get_logger
from repro.perf.surface_cache import _default_root, cache_disabled

__all__ = [
    "KernelStepper",
    "build_stepper",
    "available_backends",
    "best_compiled_backend",
    "c_compiler",
]

_log = get_logger(__name__)

#: Law kinds with a compiled template; must match ``CompiledLaw.kind`` values.
LAW_KINDS = ("tanh", "cubic", "pwl", "tunnel", "table")

# --------------------------------------------------------------------------
# Generated C backend
# --------------------------------------------------------------------------
#
# One source file holds every law kind so a single compiler invocation (ever,
# per source hash) covers the whole suite.  Law parameter layout is uniform:
# p[0] = v_shift, p[1] = i_shift, p[2:] = kind parameters; the optional
# table arrays travel as separate pointers.  The loop body is written out
# stage by stage in exactly the reference loop's association order.

_C_PREAMBLE = r"""
#include <math.h>

static double pulse_at(double t, long n, const double* t0,
                       const double* t1, const double* cur) {
    double ip = 0.0;
    for (long k = 0; k < n; ++k)
        if (t0[k] <= t && t < t1[k]) ip += cur[k];
    return ip;
}

/* p layout: [v_shift, i_shift, kind params...]; kx/ky/nt only for "table". */

static double law_tanh(double x, const double* p,
                       const double* kx, const double* ky, long nt) {
    (void)kx; (void)ky; (void)nt;
    return -p[3] * tanh(p[2] * x / p[3]);
}

static double law_cubic(double x, const double* p,
                        const double* kx, const double* ky, long nt) {
    (void)kx; (void)ky; (void)nt;
    return -p[2] * x + p[3] * x * x * x;
}

static double law_pwl(double x, const double* p,
                      const double* kx, const double* ky, long nt) {
    (void)kx; (void)ky; (void)nt;
    double vk = p[3];
    double cx = x < -vk ? -vk : (x > vk ? vk : x);
    return -p[2] * cx;
}

static double law_tunnel(double x, const double* p,
                         const double* kx, const double* ky, long nt) {
    (void)kx; (void)ky; (void)nt;
    double i_s = p[2], eta = p[3], v_th = p[4], m = p[5], v0 = p[6], r0 = p[7];
    double ex = pow(fabs(x / v0), m);
    if (ex > 200.0) ex = 200.0;
    double de = x / (eta * v_th);
    if (de > 200.0) de = 200.0; else if (de < -200.0) de = -200.0;
    return (x / r0) * exp(-ex) + i_s * (exp(de) - 1.0);
}

static double law_table(double x, const double* p,
                        const double* kx, const double* ky, long nt) {
    /* np.interp's bracketed linear interpolation plus the end-slope
       extrapolation of LinearTableNonlinearity (slopes in p[2]/p[3]). */
    if (x <= kx[0]) return ky[0] + p[2] * (x - kx[0]);
    if (x >= kx[nt - 1]) return ky[nt - 1] + p[3] * (x - kx[nt - 1]);
    long lo = 0, hi = nt - 1;
    while (hi - lo > 1) {
        long mid = (lo + hi) >> 1;
        if (kx[mid] <= x) lo = mid; else hi = mid;
    }
    double s = (ky[lo + 1] - ky[lo]) / (kx[lo + 1] - kx[lo]);
    return ky[lo] + s * (x - kx[lo]);
}
"""

_C_LOOP_TEMPLATE = r"""
void rk4_KIND(
    long batch, double* v, double* il,
    long step0, double h, long n_steps,
    const double* w, double v_i2, double phase,
    const double* p,
    const double* kx, const double* ky, long nt,
    long n_pulses, const double* pt0, const double* pt1, const double* pcur,
    double inv_c, double inv_l, double inv_rc,
    double* out_v, double* out_il, int write_out)
{
    double half = 0.5 * h, sixth = h / 6.0;
    double vs = p[0], ish = p[1];
    for (long s = 0; s < n_steps; ++s) {
        double t = (double)(step0 + s) * h;
        double t2 = t + half, t4 = t + h;
        double ip1 = 0.0, ip2 = 0.0, ip4 = 0.0;
        if (n_pulses) {
            ip1 = pulse_at(t, n_pulses, pt0, pt1, pcur);
            ip2 = pulse_at(t2, n_pulses, pt0, pt1, pcur);
            ip4 = pulse_at(t4, n_pulses, pt0, pt1, pcur);
        }
        for (long j = 0; j < batch; ++j) {
            double vv = v[j], ii = il[j], wj = w[j];
            double dv1, di1, dv2, di2, dv3, di3, dv4, di4, vt, av, ai;

            vt = vv + v_i2 * cos(wj * t + phase);
            dv1 = -vv * inv_rc
                - (ii + (law_KIND(vt + vs, p, kx, ky, nt) - ish) - ip1) * inv_c;
            di1 = vv * inv_l;

            av = vv + half * dv1; ai = ii + half * di1;
            vt = av + v_i2 * cos(wj * t2 + phase);
            dv2 = -av * inv_rc
                - (ai + (law_KIND(vt + vs, p, kx, ky, nt) - ish) - ip2) * inv_c;
            di2 = av * inv_l;

            av = vv + half * dv2; ai = ii + half * di2;
            vt = av + v_i2 * cos(wj * t2 + phase);
            dv3 = -av * inv_rc
                - (ai + (law_KIND(vt + vs, p, kx, ky, nt) - ish) - ip2) * inv_c;
            di3 = av * inv_l;

            av = vv + h * dv3; ai = ii + h * di3;
            vt = av + v_i2 * cos(wj * t4 + phase);
            dv4 = -av * inv_rc
                - (ai + (law_KIND(vt + vs, p, kx, ky, nt) - ish) - ip4) * inv_c;
            di4 = av * inv_l;

            vv = vv + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4);
            ii = ii + sixth * (di1 + 2.0 * di2 + 2.0 * di3 + di4);
            v[j] = vv; il[j] = ii;
            if (write_out) {
                out_v[s * batch + j] = vv;
                out_il[s * batch + j] = ii;
            }
        }
    }
}
"""


def _c_source() -> str:
    parts = [_C_PREAMBLE]
    for kind in LAW_KINDS:
        parts.append(_C_LOOP_TEMPLATE.replace("KIND", kind))
    return "\n".join(parts)


def c_compiler() -> str | None:
    """Path/name of a usable C compiler, or ``None``."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


_c_lib = None
_c_lib_failed = False

_c_double_p = ctypes.POINTER(ctypes.c_double)
_C_ARGTYPES = [
    ctypes.c_long, _c_double_p, _c_double_p,
    ctypes.c_long, ctypes.c_double, ctypes.c_long,
    _c_double_p, ctypes.c_double, ctypes.c_double,
    _c_double_p,
    _c_double_p, _c_double_p, ctypes.c_long,
    ctypes.c_long, _c_double_p, _c_double_p, _c_double_p,
    ctypes.c_double, ctypes.c_double, ctypes.c_double,
    _c_double_p, _c_double_p, ctypes.c_int,
]


def _ptr(a: np.ndarray | None):
    if a is None:
        return None
    return a.ctypes.data_as(_c_double_p)


def _compile_c_library() -> ctypes.CDLL:
    src = _c_source()
    key = hashlib.sha256(src.encode()).hexdigest()[:16]
    cc = c_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (tried $CC, cc, gcc, clang)")
    if cache_disabled():
        # REPRO_NO_CACHE: build into a throwaway dir, keep nothing on disk
        # beyond process lifetime (tempdir is cleaned by the OS).
        root = pathlib.Path(tempfile.mkdtemp(prefix="repro-rk4-"))
        so = root / f"rk4-{key}.so"
    else:
        root = _default_root() / "kernels"
        root.mkdir(parents=True, exist_ok=True)
        so = root / f"rk4-{key}.so"
    if not so.exists():
        with tempfile.TemporaryDirectory(dir=root) as td:
            csrc = pathlib.Path(td) / "rk4.c"
            csrc.write_text(src)
            tmp_so = pathlib.Path(td) / "rk4.so"
            proc = subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp_so), str(csrc), "-lm"],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"kernel compile failed: {proc.stderr[-2000:]}")
            os.replace(tmp_so, so)
        _log.info("kernels.compiled", path=str(so), compiler=cc)
    lib = ctypes.CDLL(str(so))
    for kind in LAW_KINDS:
        fn = getattr(lib, f"rk4_{kind}")
        fn.restype = None
        fn.argtypes = _C_ARGTYPES
    return lib


def _load_c_library() -> ctypes.CDLL | None:
    """Compile-on-first-use loader; returns ``None`` when unavailable."""
    global _c_lib, _c_lib_failed
    if _c_lib is not None or _c_lib_failed:
        return _c_lib
    try:
        _c_lib = _compile_c_library()
    except Exception as exc:  # missing compiler, sandboxed fs, bad toolchain
        _c_lib_failed = True
        _log.warning("kernels.c_unavailable", error=str(exc))
    return _c_lib


# --------------------------------------------------------------------------
# Fused-numpy fallback (any Python nonlinearity)
# --------------------------------------------------------------------------


def _make_numpy_step(
    f: Callable[[np.ndarray], np.ndarray],
    v_i2: float,
    phase: float,
    pulses,
    inv_c: float,
    inv_l: float,
    inv_rc: float,
    h: float,
):
    half = 0.5 * h
    sixth = h / 6.0
    pulse_list = tuple(pulses)
    if pulse_list:
        win_lo = min(p.t_start for p in pulse_list)
        win_hi = max(p.t_start + p.duration for p in pulse_list)
    else:
        win_lo = win_hi = 0.0
    scratch: dict[int, list[np.ndarray]] = {}

    def pulse_sum(t: float) -> float:
        ip = 0.0
        for p in pulse_list:
            ip += p.value(t)
        return ip

    def step(v, il, w, step0, n_steps, out_v=None, out_il=None):
        n = v.size
        bufs = scratch.get(n)
        if bufs is None:
            bufs = scratch[n] = [np.empty(n) for _ in range(12)]
        arg, tmp, av, ai, dv1, di1, dv2, di2, dv3, di3, dv4, di4 = bufs

        def stage(tt, vv, ii, ip, dv, di):
            # dv = -vv/RC - (ii + f(vv + v_inj) - ip)/C, fused in place.
            if v_i2 != 0.0:
                np.multiply(w, tt, out=arg)
                np.add(arg, phase, out=arg)
                np.cos(arg, out=arg)
                np.multiply(arg, v_i2, out=arg)
                np.add(arg, vv, out=arg)
                i_nl = f(arg)
            else:
                i_nl = f(vv)
            np.add(ii, i_nl, out=dv)
            if ip != 0.0:
                dv -= ip
            dv *= inv_c
            np.multiply(vv, inv_rc, out=tmp)
            dv += tmp
            np.negative(dv, out=dv)
            np.multiply(vv, inv_l, out=di)

        for s in range(n_steps):
            t = (step0 + s) * h
            t2 = t + half
            t4 = t + h
            if pulse_list and t4 >= win_lo and t < win_hi:
                ip1, ip2, ip4 = pulse_sum(t), pulse_sum(t2), pulse_sum(t4)
            else:
                ip1 = ip2 = ip4 = 0.0

            stage(t, v, il, ip1, dv1, di1)

            np.multiply(dv1, half, out=av); av += v
            np.multiply(di1, half, out=ai); ai += il
            stage(t2, av, ai, ip2, dv2, di2)

            np.multiply(dv2, half, out=av); av += v
            np.multiply(di2, half, out=ai); ai += il
            stage(t2, av, ai, ip2, dv3, di3)

            np.multiply(dv3, h, out=av); av += v
            np.multiply(di3, h, out=ai); ai += il
            stage(t4, av, ai, ip4, dv4, di4)

            # v += h/6 * (dv1 + 2 dv2 + 2 dv3 + dv4), reusing av/ai.
            np.add(dv2, dv3, out=av); av *= 2.0; av += dv1; av += dv4
            av *= sixth
            v += av
            np.add(di2, di3, out=ai); ai *= 2.0; ai += di1; ai += di4
            ai *= sixth
            il += ai

            if out_v is not None:
                out_v[s] = v
                out_il[s] = il

    return step


# --------------------------------------------------------------------------
# Public stepper factory
# --------------------------------------------------------------------------


@dataclass
class KernelStepper:
    """A ready-to-run chunked RK4 stepper.

    ``step(v, il, w, step0, n_steps, out_v=None, out_il=None)`` advances the
    batch state ``(v, il)`` **in place** by ``n_steps`` from global step
    index ``step0``; when ``out_v``/``out_il`` (shape ``(n_steps, batch)``)
    are given, every post-step state is written out for the caller's
    recording mask.  Arrays must be C-contiguous float64; ``w`` may shrink
    between calls (batch compaction) as long as ``v``/``il`` shrink with it.
    """

    backend: str
    law_kind: str | None
    step: Callable


_EMPTY = np.empty(0)


def best_compiled_backend() -> str | None:
    """The compiled backend usable right now (``"c"``), or ``None`` when
    only the numpy fallback is available."""
    if _load_c_library() is not None:
        return "c"
    return None


def available_backends() -> tuple[str, ...]:
    """Backends usable right now, best first (always ends with ``"numpy"``)."""
    out = []
    if _load_c_library() is not None:
        out.append("c")
    out.append("numpy")
    return tuple(out)


def build_stepper(
    nonlinearity: Nonlinearity,
    *,
    v_i2: float,
    phase: float,
    pulses=(),
    inv_c: float,
    inv_l: float,
    inv_rc: float,
    h: float,
    backend: str = "auto",
) -> KernelStepper:
    """Build the best (or requested) chunk stepper for this nonlinearity.

    ``backend``:

    - ``"auto"`` — best compiled backend when the law is compilable, else
      the fused-numpy fallback;
    - ``"c"`` — force the C backend, raising ``RuntimeError`` when it is
      unavailable or the law is not compilable;
    - ``"numpy"`` — force the fallback (always available).
    """
    if backend not in ("auto", "c", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}")

    law = nonlinearity.compiled_law()
    if law is not None and law.kind not in LAW_KINDS:
        raise ValueError(
            f"{nonlinearity.name}: unknown CompiledLaw kind {law.kind!r}"
        )

    choice = backend
    if choice == "auto":
        choice = (best_compiled_backend() or "numpy") if law is not None else "numpy"
    if choice == "c" and law is None:
        raise RuntimeError(
            f"nonlinearity {nonlinearity.name!r} has no CompiledLaw; "
            "only the 'numpy' backend can run it"
        )

    pulse_list = tuple(pulses)
    pt0 = np.ascontiguousarray([p.t_start for p in pulse_list], dtype=float)
    pt1 = np.ascontiguousarray(
        [p.t_start + p.duration for p in pulse_list], dtype=float
    )
    pcur = np.ascontiguousarray([p.current for p in pulse_list], dtype=float)

    if choice == "numpy":
        step = _make_numpy_step(
            nonlinearity, v_i2, phase, pulse_list, inv_c, inv_l, inv_rc, h
        )
        return KernelStepper(backend="numpy", law_kind=None, step=step)

    params = np.ascontiguousarray(
        [law.v_shift, law.i_shift, *law.params], dtype=float
    )
    if law.kind == "table":
        kx = np.ascontiguousarray(law.arrays[0], dtype=float)
        ky = np.ascontiguousarray(law.arrays[1], dtype=float)
    else:
        kx = ky = _EMPTY

    lib = _load_c_library()
    if lib is None:
        raise RuntimeError("C kernel backend unavailable (no working compiler)")
    fn = getattr(lib, f"rk4_{law.kind}")
    n_pulses = len(pulse_list)
    nt = kx.size

    def step(v, il, w, step0, n_steps, out_v=None, out_il=None):
        fn(
            v.size, _ptr(v), _ptr(il),
            int(step0), h, int(n_steps),
            _ptr(w), v_i2, phase,
            _ptr(params),
            _ptr(kx) if nt else None, _ptr(ky) if nt else None, nt,
            n_pulses,
            _ptr(pt0) if n_pulses else None,
            _ptr(pt1) if n_pulses else None,
            _ptr(pcur) if n_pulses else None,
            inv_c, inv_l, inv_rc,
            _ptr(out_v), _ptr(out_il), 1 if out_v is not None else 0,
        )

    return KernelStepper(backend="c", law_kind=law.kind, step=step)
