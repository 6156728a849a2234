"""Experiment drivers — one per paper figure/table (see DESIGN.md index).

Each driver module exposes ``run(...) -> ExperimentResult``; the registry
maps the experiment ids (``FIG3`` ... ``TAB2``, ``SPEED``, ``ABL*``) to
those callables.  The benchmark suite is a thin timing wrapper around this
package, and the examples import the same canonical circuits from
:mod:`repro.experiments.circuits` so everything in the repository analyses
literally the same oscillators.
"""

from repro.experiments.circuits import (
    OscillatorSetup,
    diffpair_extraction_circuit,
    diffpair_oscillator,
    diffpair_oscillator_circuit,
    tanh_oscillator,
    tunnel_extraction_circuit,
    tunnel_oscillator,
    tunnel_oscillator_circuit,
)
from repro.experiments.result import ExperimentResult

__all__ = [
    "OscillatorSetup",
    "tanh_oscillator",
    "diffpair_oscillator",
    "tunnel_oscillator",
    "diffpair_extraction_circuit",
    "diffpair_oscillator_circuit",
    "tunnel_extraction_circuit",
    "tunnel_oscillator_circuit",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
]


def __getattr__(name: str):
    # The registry imports every experiment driver (and through them the
    # SPICE, measurement and baseline stacks); load it on first use, so a
    # solve that only needs the canonical circuits starts faster.
    if name in ("EXPERIMENTS", "run_experiment"):
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
