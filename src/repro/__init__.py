"""repro — graphical describing-function analysis of sub-harmonic injection
locking (SHIL) in LC oscillators.

A complete open-source implementation of the technique of

    P. Bhushan, "A Rigorous Graphical Technique for Predicting
    Sub-harmonic Injection Locking in LC Oscillators", DAC 2014

plus every substrate the paper's validation flow needs: a SPICE-like MNA
circuit simulator, a fast batched transient engine, waveform measurement,
and the Adler/PPV baseline predictors.

Quick tour
----------

>>> from repro import (
...     NegativeTanh, ParallelRLC,
...     predict_natural_oscillation, solve_lock_states, predict_lock_range,
... )
>>> osc = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
>>> tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
>>> natural = predict_natural_oscillation(osc, tank)
>>> locks = solve_lock_states(osc, tank, v_i=0.03,
...                           w_injection=3 * tank.center_frequency, n=3)
>>> lock_range = predict_lock_range(osc, tank, v_i=0.03, n=3)

Sub-packages
------------

=====================  =====================================================
``repro.core``         the paper's technique (describing functions, lock
                       states, stability, lock range)
``repro.nonlin``       memoryless ``i = f(v)`` device laws and extraction
``repro.tank``         resonator models (analytic RLC and sampled general)
``repro.spice``        from-scratch SPICE-like simulator (MNA, DC, AC,
                       transient, netlists)
``repro.odesim``       fast batched transient integration of the canonical
                       oscillator
``repro.measure``      waveform measurements, lock detection, simulated
                       lock range, the n-states experiment
``repro.baselines``    Adler and PPV lock-range baselines
``repro.experiments``  one driver per paper figure/table
``repro.viz``          ASCII (and optional matplotlib) rendering
=====================  =====================================================
"""

import time as _time

#: ``perf_counter`` when this package began importing; ``repro --profile``
#: reports the time from here to ``main()`` as ``import_s``.
_IMPORT_STARTED = _time.perf_counter()

from repro.core import (  # noqa: E402
    FhilLock,
    LockRange,
    LockState,
    NaturalOscillation,
    ShilSolution,
    enumerate_states,
    fhil_lock_range,
    predict_lock_range,
    predict_natural_oscillation,
    solve_fhil,
    solve_lock_states,
)
from repro.nonlin import (
    BiasedTunnelDiode,
    CrossCoupledDiffPair,
    CubicNonlinearity,
    FunctionNonlinearity,
    NegativeTanh,
    Nonlinearity,
    PiecewiseLinearNegativeResistance,
    TabulatedNonlinearity,
    TunnelDiode,
    extract_iv_curve,
)
from repro.tank import GeneralTank, ParallelRLC, Tank

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "predict_natural_oscillation",
    "solve_lock_states",
    "predict_lock_range",
    "solve_fhil",
    "fhil_lock_range",
    "enumerate_states",
    "NaturalOscillation",
    "ShilSolution",
    "LockState",
    "LockRange",
    "FhilLock",
    # nonlinearities
    "Nonlinearity",
    "FunctionNonlinearity",
    "NegativeTanh",
    "CubicNonlinearity",
    "PiecewiseLinearNegativeResistance",
    "CrossCoupledDiffPair",
    "TunnelDiode",
    "BiasedTunnelDiode",
    "TabulatedNonlinearity",
    "extract_iv_curve",
    # tanks
    "Tank",
    "ParallelRLC",
    "GeneralTank",
]
