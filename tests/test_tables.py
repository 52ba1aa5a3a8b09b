import numpy as np
import pytest

from hologate import (
    named_gate,
    sequence_phases,
    sequence_propagator,
    unitary_fidelity,
)
from hologate import PulseParams, tables, zero_dynamical_phase_amplitude
from hologate.synthesis import (
    gate_length,
    single_qubit_sequence_from_vector,
    two_qubit_sequence_from_vector,
)

TWO_PI = 2.0 * np.pi


def listed_loop(ratio, phase, mirror):
    """One single-qubit loop written out from its listing, unit detuning
    magnitude, mirrored as the module docstring describes."""
    sign = -1.0 if mirror else 1.0
    return PulseParams(
        n=1,
        omega_drive=(zero_dynamical_phase_amplitude(sign * ratio, sign),),
        omega_rot=(sign * ratio,),
        phase=(np.pi - phase if mirror else phase,),
        detuning=(sign,),
        duration=TWO_PI / ratio,
    )


def listed_pulse(row, coupling):
    """One two-qubit pulse written out from its (W1, W2, w, f1, f2, D1, D2) row."""
    o1, o2, w, f1, f2, d1, d2 = row
    return PulseParams(n=2, omega_drive=(o1, o2), omega_rot=(w, w), phase=(f1, f2),
                       detuning=(d1, d2), couplings={(0, 1): coupling}, duration=TWO_PI / w)


@pytest.mark.parametrize("gate", ["X", "H", "P", "T"])
def test_published_two_loop_gates(gate):
    seq = tables.single_qubit_sequence(gate)
    u = sequence_propagator(seq)
    assert unitary_fidelity(named_gate(gate), u) >= 0.999
    for rec in sequence_phases(seq):
        assert max(abs(g) for g in rec.gamma_dynamical) < 1e-4
    published = tables.PUBLISHED_GATE_LENGTHS[gate]
    assert gate_length(seq) == pytest.approx(published, rel=1e-2)


def test_fast_phase_gate_row():
    seq = tables.fast_phase_sequence()
    assert unitary_fidelity(named_gate("P"), sequence_propagator(seq)) >= 0.999
    assert gate_length(seq) == pytest.approx(
        tables.PUBLISHED_GATE_LENGTHS["P_fast"], rel=1e-2
    )


def test_cnot_sequence_units():
    seq = tables.cnot_sequence()
    assert len(seq) == 5
    for seg, row in zip(seq, tables.CNOT_ROWS):
        assert seg.couplings[(0, 1)] == tables.TWO_QUBIT_TABLE_COUPLING
        assert seg.omega_rot == (row[2], row[2])
        assert seg.duration == pytest.approx(2 * np.pi / row[2])


def test_entangler_params_row():
    p = tables.entangler_params()
    assert p.omega_drive == (0.0, 2.7610)
    assert p.detuning == (0.5000, 0.5002)
    assert p.is_cyclic()


def test_cnot_first_pulse_frame():
    from hologate import invariant
    from reference import build_eigenframe

    seg = tables.cnot_sequence().segments[0]
    frame = build_eigenframe(seg, 4096)
    assert frame.min_step_overlap() > 0.999
    for t in np.linspace(0.0, seg.duration, 9):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(invariant(seg, t)), frame.values, atol=1e-9
        )


def test_cnot_through_integration_oracle():
    from hologate import named_gate, ode_propagator, unitary_fidelity

    u = np.eye(4, dtype=complex)
    for seg in tables.cnot_sequence():
        u = ode_propagator(seg) @ u
    assert unitary_fidelity(named_gate("CNOT"), u) >= 0.99


def test_table_sequences_are_the_listed_pulses():
    for gate, loops in tables.SINGLE_QUBIT_LOOPS.items():
        expected = tuple(listed_loop(r, f, mirror=True) for r, f in loops)
        assert tables.single_qubit_sequence(gate).segments == expected
    expected = tuple(listed_loop(r, f, mirror=False) for r, f in reversed(tables.FAST_PHASE_LOOPS))
    assert tables.fast_phase_sequence().segments == expected
    for coupling in (tables.TWO_QUBIT_TABLE_COUPLING, 0.7):
        expected = tuple(listed_pulse(row, coupling) for row in tables.CNOT_ROWS)
        assert tables.cnot_sequence(coupling).segments == expected
        assert tables.entangler_params(coupling) == listed_pulse(tables.ENTANGLER_ROW, coupling)


def test_vector_sequences_are_the_listed_pulses():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_loops = int(rng.integers(1, 6))
        loops = np.column_stack([rng.uniform(1.0 + 1e-6, 6.0, n_loops),
                                 rng.uniform(0.0, TWO_PI, n_loops)])
        expected = tuple(listed_loop(r, f, mirror=False) for r, f in loops)
        assert single_qubit_sequence_from_vector(loops.ravel()).segments == expected
        rows = rng.uniform(0.0, 10.0, (n_loops, 7))
        rows[:, 2] = rng.uniform(0.5, 10.0, n_loops)
        coupling = rng.uniform(0.3, 2.0)
        expected = tuple(listed_pulse(row, coupling) for row in rows)
        assert two_qubit_sequence_from_vector(rows.ravel(), coupling).segments == expected
