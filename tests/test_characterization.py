import dataclasses

import numpy as np
import pytest

from hologate import (
    CLIFFORD_1Q,
    ChannelSequence,
    DepolarizingChannel,
    LoopSequence,
    RBRecord,
    TransferMatrix,
    UnitaryChannel,
    ValidationError,
    fit_decay,
    named_gate,
    pauli_transfer,
    process_fidelity,
    qpt_setting_count,
    rb_gate_fidelity,
    rb_run,
    sequence_propagator,
    simulate_qpt,
)
from hologate import tables
from hologate.linalg import PAULI_1Q, pauli_basis

SX, SZ = PAULI_1Q["X"], PAULI_1Q["Z"]


def brute_force_transfer(u: np.ndarray) -> np.ndarray:
    """Element-by-element reconstruction used as the independent oracle."""
    n = int(np.log2(u.shape[0]))
    _, basis = pauli_basis(n)
    d = 2 ** n
    out = np.zeros((4 ** n, 4 ** n))
    for i in range(4 ** n):
        rho = u @ basis[i] @ u.conj().T
        for j in range(4 ** n):
            out[i, j] = np.trace(basis[j] @ rho).real / d
    return out


def density_matrix_rb(impl, ideal, eps_clifford, eps_target, m_values, n_sequences,
                      seed, interleave):
    """Per-m mean and standard error of the Z survival, evolving explicit
    density matrices through the channel of each seeded sequence."""
    cliffords = [u for _, u in CLIFFORD_1Q]
    means, errs = [], []
    for mi, m in enumerate(m_values):
        vals = []
        for si in range(n_sequences):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, int(interleave), mi, si]))
            channels, net = [], np.eye(2, dtype=complex)
            for k in rng.integers(0, len(cliffords), size=m):
                channels += [UnitaryChannel(cliffords[k]), DepolarizingChannel(eps_clifford)]
                net = cliffords[k] @ net
                if interleave:
                    channels += [UnitaryChannel(impl), DepolarizingChannel(eps_target)]
                    net = ideal @ net
            channels += [UnitaryChannel(net.conj().T), DepolarizingChannel(eps_clifford)]
            rho = ChannelSequence(channels).apply(SZ)
            vals.append(np.trace(SZ @ rho).real / 2.0)
        means.append(np.mean(vals))
        errs.append(np.std(vals, ddof=1) / np.sqrt(n_sequences))
    return np.array(means), np.array(errs)


class TestPauliTransfer:
    def test_identity_channel(self):
        t = pauli_transfer(np.eye(2, dtype=complex))
        np.testing.assert_allclose(t.matrix, np.eye(4), atol=1e-14)

    def test_x_conjugation_signs(self):
        t = pauli_transfer(SX)
        np.testing.assert_allclose(t.matrix, np.diag([1, 1, -1, -1]), atol=1e-14)

    def test_identity_row_trace_preserving(self):
        channel = ChannelSequence([
            UnitaryChannel(named_gate("H")),
            DepolarizingChannel(0.13, 1),
        ])
        t = pauli_transfer(channel)
        np.testing.assert_allclose(t.matrix[0], [1, 0, 0, 0], atol=1e-14)

    def test_cnot_against_brute_force(self):
        t = pauli_transfer(named_gate("CNOT"))
        np.testing.assert_allclose(t.matrix, brute_force_transfer(named_gate("CNOT")),
                                   atol=1e-12)

    def test_synthesized_cnot_close_to_ideal(self):
        from hologate import sequence_propagator

        u = sequence_propagator(tables.cnot_sequence())
        t = pauli_transfer(u)
        ideal = brute_force_transfer(named_gate("CNOT"))
        assert np.abs(t.matrix - ideal).max() < 0.02

    def test_unitary_channel_is_orthogonal(self, rng):
        from hologate import unitary_exp

        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = unitary_exp(h + h.conj().T, 0.7)
        t = pauli_transfer(u).matrix
        np.testing.assert_allclose(t.T @ t, np.eye(16), atol=1e-10)

    def test_composition_order(self, rng):
        from hologate import unitary_exp

        h1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u1 = unitary_exp(h1 + h1.conj().T, 0.9)
        chans = [UnitaryChannel(u1), DepolarizingChannel(0.05, 1),
                 UnitaryChannel(named_gate("H"))]
        composed = pauli_transfer(ChannelSequence(chans)).matrix
        prod = np.eye(4)
        for c in chans:
            prod = prod @ pauli_transfer(c).matrix  # row convention: left-to-right
        np.testing.assert_allclose(composed, prod, atol=1e-8)

    def test_unitality(self):
        for channel in (UnitaryChannel(named_gate("T")), DepolarizingChannel(0.2, 1)):
            t = pauli_transfer(channel)
            np.testing.assert_allclose(t.matrix[0], [1, 0, 0, 0], atol=1e-14)


class TestProcessFidelity:
    def test_self_fidelity(self):
        t = pauli_transfer(named_gate("T"))
        assert process_fidelity(t, t) == pytest.approx(1.0)

    def test_x_versus_identity(self):
        f = process_fidelity(pauli_transfer(np.eye(2, dtype=complex)),
                             pauli_transfer(named_gate("X")))
        assert f == pytest.approx(1.0 / 3.0)

    def test_synthesized_cnot(self):
        from hologate import sequence_propagator

        u = sequence_propagator(tables.cnot_sequence())
        f = process_fidelity(pauli_transfer(u), pauli_transfer(named_gate("CNOT")))
        assert f >= 0.99

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            process_fidelity(pauli_transfer(np.eye(2, dtype=complex)),
                             pauli_transfer(np.eye(4, dtype=complex)))


class TestQptBookkeeping:
    def test_setting_counts(self):
        assert qpt_setting_count(1) == 12
        assert qpt_setting_count(2) == 240

    def test_simulated_settings_match(self):
        t1, n1 = simulate_qpt(named_gate("H"))
        assert n1 == 12
        t2, n2 = simulate_qpt(named_gate("CNOT"))
        assert n2 == 240
        np.testing.assert_allclose(t1.matrix, pauli_transfer(named_gate("H")).matrix,
                                   atol=1e-12)
        np.testing.assert_allclose(t2.matrix, pauli_transfer(named_gate("CNOT")).matrix,
                                   atol=1e-12)


class TestCliffordSet:
    def test_six_elements_mapping_paulis_to_paulis(self):
        assert len(CLIFFORD_1Q) == 6
        paulis = [PAULI_1Q[a] for a in "XYZ"]
        for _, u in CLIFFORD_1Q:
            for p in paulis:
                out = u @ p @ u.conj().T
                # out must be +/- a single Pauli
                overlaps = [abs(np.trace(q @ out)) / 2 for q in paulis]
                assert max(overlaps) == pytest.approx(1.0, abs=1e-12)


class TestFitDecay:
    def test_constant_data_short_circuit(self):
        fit, err, ok = fit_decay([2, 4, 8], [1.0, 1.0, 1.0])
        assert ok and fit == (0.0, 1.0, 1.0)

    def test_exact_exponential_recovery(self):
        m = np.array([2, 4, 8, 16, 32, 64])
        y = 0.7 * 0.97 ** m + 0.25
        fit, err, ok = fit_decay(m, y)
        assert ok
        assert fit[0] == pytest.approx(0.7, abs=1e-6)
        assert fit[1] == pytest.approx(0.97, abs=1e-8)
        assert fit[2] == pytest.approx(0.25, abs=1e-6)


class TestRb:
    def test_noiseless_is_flat(self):
        run = rb_run(m_values=(2, 4, 8), n_sequences=5, seed=1)
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in run.reference.mean_fidelity)
        assert run.reference.fit[1] == 1.0
        assert run.interleaved is None

    @pytest.mark.parametrize("eps", [0.01, 0.02])
    def test_depolarizing_decay(self, eps):
        run = rb_run(eps_clifford=eps, m_values=(2, 4, 8, 16, 32), n_sequences=4, seed=2)
        a, p, b = run.reference.fit
        sigma_p = run.reference.fit_stderr[1]
        assert abs(p - (1.0 - eps)) <= 2 * sigma_p + 1e-9

    def test_decay_monotone_in_noise(self):
        ps = []
        for eps in (0.005, 0.01, 0.02):
            run = rb_run(eps_clifford=eps, m_values=(2, 4, 8, 16), n_sequences=3, seed=3)
            ps.append(run.reference.fit[1])
        assert ps[0] > ps[1] > ps[2]
        assert all(p < 1.0 for p in ps)

    def test_noisy_target_over_ideal_cliffords(self):
        eps = 0.02
        run = rb_run(target="X", eps_target=eps,
                     m_values=(2, 4, 8, 16, 32), n_sequences=4, seed=4)
        f = rb_gate_fidelity(run.reference, run.interleaved, n=1)
        assert f == pytest.approx(1.0 - eps / 2, abs=1e-6)

    def test_synthesized_target_interleaved(self):
        seq = tables.single_qubit_sequence("T")
        run = rb_run(target=seq, target_ideal="T",
                     m_values=(2, 4, 8, 16), n_sequences=8, seed=5)
        f = rb_gate_fidelity(run.reference, run.interleaved, n=1)
        assert f >= 0.999

    def test_matches_density_matrix_simulation(self):
        # a miscalibrated, non-Clifford loop-sequence target
        seq = LoopSequence(tuple(
            dataclasses.replace(seg, omega_drive=tuple(1.05 * w for w in seg.omega_drive))
            for seg in tables.single_qubit_sequence("T")
        ))
        impl = sequence_propagator(seq)
        eps_c, eps_t, m_values, n_seq, seed = 0.01, 0.02, (1, 3, 8), 5, 6
        run = rb_run(target=seq, target_ideal="T", eps_clifford=eps_c, eps_target=eps_t,
                     m_values=m_values, n_sequences=n_seq, seed=seed)
        for record, interleave in ((run.reference, False), (run.interleaved, True)):
            means, errs = density_matrix_rb(impl, named_gate("T"), eps_c, eps_t,
                                            m_values, n_seq, seed, interleave)
            np.testing.assert_allclose(record.mean_fidelity, means, rtol=0, atol=1e-12)
            np.testing.assert_allclose(record.stderr, errs, rtol=0, atol=1e-12)
        # the miscalibrated target is visibly worse than the ideal gate
        assert run.interleaved.mean_fidelity[-1] < run.reference.mean_fidelity[-1] - 0.01

    def test_csv_format(self):
        run = rb_run(m_values=(2, 4), n_sequences=2, seed=0)
        lines = run.reference.to_csv().strip().splitlines()
        assert lines[0] == "m,mean_fidelity,stderr"
        assert len(lines) == 3
        assert lines[1].startswith("2,")

    def test_validation(self):
        with pytest.raises(ValidationError):
            rb_run(m_values=(0,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(target=named_gate("CNOT"), m_values=(2,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(eps_clifford=1.5, m_values=(2,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(target="X", eps_target=float("nan"), m_values=(2,), n_sequences=2)


class TestRbGateFidelity:
    def _record(self, p):
        return RBRecord(variant="reference", m_values=(2, 4), mean_fidelity=(1.0, 0.9),
                        stderr=(0.0, 0.0), n_sequences=2, fit=(0.5, p, 0.5),
                        fit_stderr=(0.0, 0.0, 0.0), converged=True)

    def test_equal_decays(self):
        assert rb_gate_fidelity(self._record(0.97), self._record(0.97), 1) == 1.0

    def test_direct_formula(self):
        assert rb_gate_fidelity(self._record(1.0), self._record(0.99), 1) == pytest.approx(0.995)
        # general dimension factor
        assert rb_gate_fidelity(self._record(1.0), self._record(0.99), 2) == pytest.approx(
            1.0 - 0.01 * 3.0 / 4.0
        )

    def test_clamped_and_invalid(self):
        assert rb_gate_fidelity(self._record(0.5), self._record(1.0), 1) == 1.0
        with pytest.raises(ValidationError):
            rb_gate_fidelity(self._record(0.0), self._record(0.5), 1)
        bad = RBRecord(variant="reference", m_values=(2,), mean_fidelity=(1.0,),
                       stderr=(0.0,), n_sequences=1, fit=None, fit_stderr=None,
                       converged=False)
        with pytest.raises(ValidationError):
            rb_gate_fidelity(bad, self._record(0.9), 1)


def test_transfer_matrix_shape_validation():
    with pytest.raises(ValidationError):
        TransferMatrix(n=1, matrix=np.eye(3))


def test_depolarizing_strength_validation():
    with pytest.raises(ValidationError):
        DepolarizingChannel(1.5, 1)
