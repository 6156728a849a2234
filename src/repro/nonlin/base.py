"""Base interface for memoryless nonlinearities.

A nonlinearity is the static I/V law ``i = f(v)`` of the active
(negative-resistance) element seen across the LC tank terminals.  The
describing-function machinery only ever *evaluates* ``f`` on arrays of
voltage samples, so the interface is intentionally tiny: a vectorised
``__call__`` plus a derivative used by Newton solvers and by the
small-signal start-up criterion.

Subclasses should be immutable value objects — analyses cache harmonic
coefficients keyed by the nonlinearity instance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CompiledLaw", "Nonlinearity", "FunctionNonlinearity"]


@dataclass(frozen=True)
class CompiledLaw:
    """Declarative description of an ``i = f(v)`` law for kernel codegen.

    The transient kernels (:mod:`repro.odesim.kernels`) cannot call back
    into Python per RK stage — that callback is exactly the cost they
    exist to remove — so a nonlinearity that wants the compiled fast path
    describes itself as one of a small set of *law kinds* plus numeric
    parameters.  The same description drives every backend (generated C
    and the fused-numpy fallback), which keeps their arithmetic
    in lock-step with the :meth:`Nonlinearity.__call__` referee.

    Attributes
    ----------
    kind:
        Law family: ``"tanh"``, ``"cubic"``, ``"pwl"``, ``"tunnel"`` or
        ``"table"`` (uniform/non-uniform linear interpolation with
        end-slope extrapolation).
    params:
        Kind-specific scalar parameters (see the kernel source templates
        for the exact layout).
    arrays:
        Kind-specific sample arrays (``"table"``: knots and currents);
        float64, read-only from the kernel's point of view.
    v_shift, i_shift:
        Bias-point recentring applied *around* the core law:
        ``f(v) = core(v + v_shift) - i_shift``.  This is how
        :meth:`Nonlinearity.shifted` and :class:`BiasedTunnelDiode`
        compose with any kind without new kernel code.
    """

    kind: str
    params: tuple[float, ...]
    arrays: tuple = field(default_factory=tuple)
    v_shift: float = 0.0
    i_shift: float = 0.0

    def shifted(self, v_bias: float, i_bias: float) -> "CompiledLaw":
        """Compose an additional recentring on top of this law."""
        return CompiledLaw(
            kind=self.kind,
            params=self.params,
            arrays=self.arrays,
            v_shift=self.v_shift + float(v_bias),
            i_shift=self.i_shift + float(i_bias),
        )


class Nonlinearity(abc.ABC):
    """Abstract memoryless I/V law ``i = f(v)``.

    Attributes
    ----------
    name:
        Human-readable identifier used in reports and plots.
    """

    name: str = "nonlinearity"

    @abc.abstractmethod
    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Evaluate ``i = f(v)`` elementwise.  Must accept scalars and arrays."""

    def derivative(self, v: np.ndarray) -> np.ndarray:
        """Differential conductance ``df/dv``.

        The default implementation uses a central difference with a
        voltage-scaled step; subclasses with analytic derivatives should
        override it (Newton convergence in :mod:`repro.spice` is noticeably
        better with exact derivatives).
        """
        v = np.asarray(v, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(v))
        return (self(v + h) - self(v - h)) / (2.0 * h)

    def small_signal_conductance(self, v0: float = 0.0) -> float:
        """Differential conductance at the operating point ``v0``.

        Negative-resistance oscillators start up iff this is more negative
        than ``-1/R`` of the tank loss (linearised start-up criterion).
        """
        return float(self.derivative(np.asarray(v0, dtype=float)))

    def is_negative_resistance(self, v0: float = 0.0) -> bool:
        """True when the device presents negative differential resistance at v0."""
        return self.small_signal_conductance(v0) < 0.0

    def compiled_law(self) -> CompiledLaw | None:
        """Kernel-compilable description of this law, or ``None``.

        Laws that return a :class:`CompiledLaw` are eligible for the
        compiled transient engines (:mod:`repro.odesim.kernels`); the
        default ``None`` keeps arbitrary Python laws working through the
        vectorised fallback path.  Implementations must describe *exactly*
        the arithmetic of :meth:`__call__` — the engine-equivalence tests
        compare the two paths to tight tolerance.
        """
        return None

    def shifted(self, v_bias: float, i_bias: float | None = None) -> "Nonlinearity":
        """Return ``f`` re-centred around a bias point.

        ``g(v) = f(v + v_bias) - i_bias``; when ``i_bias`` is omitted it
        defaults to ``f(v_bias)`` so the shifted curve passes through the
        origin.  This is exactly the biasing step the paper applies to the
        tunnel diode ("shifts the i = f(v) curve to the left by 0.25 V").
        """
        if i_bias is None:
            i_bias = float(self(np.asarray(v_bias, dtype=float)))
        return _ShiftedNonlinearity(self, float(v_bias), float(i_bias))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionNonlinearity(Nonlinearity):
    """Wrap a plain vectorised Python function as a :class:`Nonlinearity`.

    Parameters
    ----------
    func:
        Vectorised callable ``f(v) -> i``.
    dfunc:
        Optional analytic derivative; a central difference is used when
        omitted.
    name:
        Identifier for reports.

    Examples
    --------
    >>> import numpy as np
    >>> f = FunctionNonlinearity(lambda v: -1e-3 * np.tanh(10 * v), name="mytanh")
    >>> f.is_negative_resistance()
    True
    """

    def __init__(self, func, dfunc=None, name: str = "function"):
        if not callable(func):
            raise TypeError("func must be callable")
        if dfunc is not None and not callable(dfunc):
            raise TypeError("dfunc must be callable or None")
        self._func = func
        self._dfunc = dfunc
        self.name = name

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self._func(np.asarray(v, dtype=float)), dtype=float)

    def derivative(self, v: np.ndarray) -> np.ndarray:
        if self._dfunc is None:
            return super().derivative(v)
        return np.asarray(self._dfunc(np.asarray(v, dtype=float)), dtype=float)


class _ShiftedNonlinearity(Nonlinearity):
    """``g(v) = f(v + v_bias) - i_bias`` — bias-point recentring."""

    def __init__(self, inner: Nonlinearity, v_bias: float, i_bias: float):
        self._inner = inner
        self._v_bias = v_bias
        self._i_bias = i_bias
        self.name = f"{inner.name}@bias={v_bias:g}V"

    @property
    def v_bias(self) -> float:
        """Bias voltage the curve was re-centred around."""
        return self._v_bias

    @property
    def i_bias(self) -> float:
        """Bias current subtracted so the curve passes through the origin."""
        return self._i_bias

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self._inner(v + self._v_bias) - self._i_bias

    def derivative(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self._inner.derivative(v + self._v_bias)

    def compiled_law(self) -> CompiledLaw | None:
        inner = self._inner.compiled_law()
        if inner is None:
            return None
        return inner.shifted(self._v_bias, self._i_bias)
