"""Published reference pulse parameters, embedded as data.

Single-qubit tables give two loops per gate as (drive frequency ratio w/D,
initial phase). Frequencies are in units of the detuning magnitude; the
drive amplitude follows from the zero-dynamical-phase condition. The
published single-qubit listings count precession and drive phase with the
opposite handedness relative to this package's Hamiltonian convention, so
ingestion mirrors them: (w, D, f) -> (-w, -D, pi - f). The alternate
fast-phase-gate row is the lone exception: it verifies un-mirrored with its
two loops applied in reverse listed order (see `fast_phase_sequence`).

Two-qubit tables give per-pulse (W1, W2, w, f1, f2, D1, D2); the published
columns are in units of half the Ising coupling constant, so with the
drive+Zeeman+Ising model used here (coupling term J/4 zz) they verify with
J = 2 in table units. Handedness is immaterial for the two-qubit checks
(the targets and scores are conjugation-invariant). All angles are radians.
"""
from __future__ import annotations

import numpy as np

from .model import TWO_PI, LoopSequence, PulseParams
from .propagation import zero_dynamical_phase_amplitude

#: Two-loop single-qubit gates: gate name -> ((w/D, phase), (w/D, phase)).
SINGLE_QUBIT_LOOPS = {
    "X": ((1.591, 2.253), (1.755, 4.180)),
    "H": ((1.411, 0.720), (1.298, 5.063)),
    "P": ((1.492, 3.725), (1.492, 2.940)),
    "T": ((1.398, 3.695), (1.398, 3.302)),
}

#: Shorter alternate realization of the phase gate (larger drive frequency).
FAST_PHASE_LOOPS = ((3.757, 2.921), (3.757, 5.277))

#: Published total gate lengths in units of 1/D.
PUBLISHED_GATE_LENGTHS = {
    "X": 7.5268,
    "H": 9.2908,
    "P": 8.4213,
    "T": 8.9875,
    "P_fast": 3.3448,
}

#: Coupling value reproducing the published two-qubit tables (see module
#: docstring on the unit convention).
TWO_QUBIT_TABLE_COUPLING = 2.0

#: Single-loop entangling gate: (W1, W2, w, f1, f2, D1, D2).
ENTANGLER_ROW = (0.0000, 2.7610, 15.0000, 5.7264, 0.0000, 0.5000, 0.5002)

#: Five-pulse controlled-NOT (control on qubit 0), one row per pulse.
CNOT_ROWS = (
    (1.446, 4.131, 8.478, 3.111, 1.590, 0.268, 4.168),
    (1.956, 3.819, 7.837, 4.437, 1.431, 0.561, 3.761),
    (3.394, 4.339, 8.745, 2.053, 3.467, 1.836, 3.702),
    (1.807, 3.591, 7.394, 5.127, 4.532, 0.510, 3.555),
    (2.551, 4.015, 8.183, 1.172, 4.864, 0.967, 3.797),
)


def single_qubit_loop(ratio: float, phase: float, mirror: bool = True) -> PulseParams:
    """One published-style loop with unit detuning magnitude and amplitude
    pinned by the zero-dynamical-phase condition. `mirror` applies the
    handedness transform the published listings assume."""
    sign = -1.0 if mirror else 1.0
    omega = sign * ratio
    det = sign * 1.0
    return PulseParams(
        n=1,
        omega_drive=(zero_dynamical_phase_amplitude(omega, det),),
        omega_rot=(omega,),
        phase=(np.pi - phase if mirror else phase,),
        detuning=(det,),
        duration=TWO_PI / ratio,
    )


def single_qubit_sequence(gate: str) -> LoopSequence:
    loops = SINGLE_QUBIT_LOOPS[gate]
    return LoopSequence(tuple(single_qubit_loop(r, f) for r, f in loops))


def fast_phase_sequence() -> LoopSequence:
    # this row was published un-mirrored and with its loops listed in
    # reverse application order
    loops = [single_qubit_loop(r, f, mirror=False) for r, f in reversed(FAST_PHASE_LOOPS)]
    return LoopSequence(tuple(loops))


def two_qubit_pulse(row, coupling: float = TWO_QUBIT_TABLE_COUPLING) -> PulseParams:
    o1, o2, w, f1, f2, d1, d2 = row
    return PulseParams(
        n=2,
        omega_drive=(o1, o2),
        omega_rot=(w, w),
        phase=(f1, f2),
        detuning=(d1, d2),
        couplings={(0, 1): coupling},
        duration=TWO_PI / w,
    )


def cnot_sequence(coupling: float = TWO_QUBIT_TABLE_COUPLING) -> LoopSequence:
    return LoopSequence(tuple(two_qubit_pulse(row, coupling) for row in CNOT_ROWS))


def entangler_params(coupling: float = TWO_QUBIT_TABLE_COUPLING) -> PulseParams:
    return two_qubit_pulse(ENTANGLER_ROW, coupling)
