"""The n physical states of an n-th sub-harmonic lock (Appendix VI-B4).

A lock state found in the reduced ``(phi, A)`` coordinates — where the
fundamental is pinned at zero phase and ``phi`` is the injection phase
relative to it — corresponds to ``n`` distinct *physical* states of the
oscillator.  Shifting time by one period of the injection,
``t -> t + 2 pi / (n w_i)``, leaves the injection untouched but rotates the
oscillator fundamental by ``2 pi / n``; iterating gives ``n`` equally
spaced oscillator phases relative to any reference derived from the
injection (e.g. the ``w_inj / n`` reference signal the paper uses in
Figs. 15/19).

This is why injection-locked frequency dividers have n-fold output-phase
ambiguity, and why the paper's pulse-perturbation experiments can kick the
oscillator between exactly n distinct settled phases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["enumerate_states", "state_index_of_phase"]


def enumerate_states(
    phi_lock: float,
    n: int,
    injection_phase: float = 0.0,
) -> np.ndarray:
    """Oscillator phases (radians, in ``[0, 2 pi)``) of the n states of a lock.

    The oscillator output is ``A cos(w_i t + psi)``; with the injection
    ``2 V_i cos(n w_i t + injection_phase)`` and the lock's relative phase
    ``phi_lock = injection_phase - n psi  (mod 2 pi)``, the admissible
    oscillator phases are::

        psi_k = (injection_phase - phi_lock + 2 pi k) / n,   k = 0..n-1

    Parameters
    ----------
    phi_lock:
        Relative phase of the lock state (the plot abscissa).
    n:
        Sub-harmonic order.
    injection_phase:
        Absolute phase of the injection tone.

    Returns
    -------
    numpy.ndarray
        ``n`` oscillator phases, sorted ascending, spaced exactly
        ``2 pi / n`` apart.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    k = np.arange(n)
    psi = (injection_phase - phi_lock + 2.0 * np.pi * k) / n
    return np.sort(np.mod(psi, 2.0 * np.pi))


def state_index_of_phase(psi: float, states: np.ndarray) -> int:
    """Which of the n states a measured oscillator phase is closest to.

    Distances are taken on the circle.  Used by the pulse-perturbation
    experiments to label the settled state after each kick.
    """
    states = np.asarray(states, dtype=float)
    if states.size == 0:
        raise ValueError("states must be non-empty")
    deltas = np.angle(np.exp(1j * (psi - states)))
    return int(np.argmin(np.abs(deltas)))
