import numpy as np
import pytest

from hologate import (
    named_gate,
    sequence_phases,
    sequence_propagator,
    unitary_fidelity,
)
from hologate import tables
from hologate.synthesis import gate_length


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
    from hologate.propagation import build_eigenframe

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
