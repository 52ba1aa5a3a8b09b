import json

import numpy as np
import pytest

from hologate import (
    LoopSequence,
    PulseParams,
    ValidationError,
    di_residual,
    hamiltonian,
    invariant,
)
from hologate import tables
from hologate.linalg import PAULI_1Q, kron, pauli_on
from hologate.model import _invariant_rate, frame_frequencies
from conftest import assemble_hamiltonian, assemble_invariant, random_cyclic_params

TWO_PI = 2.0 * np.pi
SX, SY, SZ = PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"]
I2 = np.eye(2, dtype=complex)


class TestHamiltonian:
    def test_drive_off(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        np.testing.assert_allclose(hamiltonian(p, 0.37), SZ / 2, atol=1e-15)

    def test_static_drive(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(1.0,), phase=(0.0,),
                        detuning=(0.0,), duration=TWO_PI)
        np.testing.assert_allclose(hamiltonian(p, 0.0), SX / 2, atol=1e-15)

    def test_published_row_hand_assembled(self):
        # first pulse of the five-pulse controlled-NOT table
        p = PulseParams(
            n=2,
            omega_drive=(1.446, 4.131),
            omega_rot=(8.478, 8.478),
            phase=(3.111, 1.590),
            detuning=(0.268, 4.168),
            couplings={(0, 1): 1.0},
            duration=TWO_PI / 8.478,
        )
        h = hamiltonian(p, 0.0)
        expected = (
            0.5 * 1.446 * np.cos(3.111) * kron(SX, I2)
            + 0.5 * 1.446 * np.sin(3.111) * kron(SY, I2)
            + 0.5 * 4.131 * np.cos(1.590) * kron(I2, SX)
            + 0.5 * 4.131 * np.sin(1.590) * kron(I2, SY)
            + 0.5 * 0.268 * kron(SZ, I2)
            + 0.5 * 4.168 * kron(I2, SZ)
            + 0.25 * kron(SZ, SZ)
        )
        np.testing.assert_allclose(h, expected, atol=1e-14)
        assert abs(np.trace(h)) < 1e-14

    def test_hermitian_traceless(self, rng):
        for n in (1, 2):
            p = random_cyclic_params(rng, n)
            h = hamiltonian(p, 0.3 * p.duration)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
            assert abs(np.trace(h)) < 1e-12

    def test_time_window(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        with pytest.raises(ValidationError):
            hamiltonian(p, -0.1)
        with pytest.raises(ValidationError):
            hamiltonian(p, p.duration + 1e-9)


class TestInvariant:
    def test_matches_direct_assembly(self, rng):
        for n in (1, 2):
            for _ in range(10):
                p = random_cyclic_params(rng, n)
                t = rng.uniform(0.0, p.duration)
                np.testing.assert_allclose(
                    invariant(p, t), assemble_invariant(p, t), atol=1e-12
                )

    def test_identity_with_hamiltonian(self, rng):
        # I = 2 H - sum_i w_i sz_i, with both sides assembled independently
        for n in (1, 2):
            p = random_cyclic_params(rng, n)
            t = 0.41 * p.duration
            zrot = sum(
                p.omega_rot[i] * pauli_on(n, i, "Z") for i in range(n)
            )
            lhs = assemble_invariant(p, t)
            rhs = 2.0 * assemble_hamiltonian(p, t) - zrot
            assert np.linalg.norm(lhs - rhs) < 1e-12
            assert np.linalg.norm(invariant(p, t) - rhs) < 1e-12

    def test_rotating_frame(self, rng):
        # H(t) = R(t) H(0) R(t)^dag and I(t) = 2 R(t) H_eff R(t)^dag with
        # R(t) = exp(-i t Z / 2), H_eff = H(0) - Z / 2, Z = sum_i w_i sz_i
        for n in (1, 2):
            p = random_cyclic_params(rng, n)
            zrot = sum(p.omega_rot[i] * pauli_on(n, i, "Z") for i in range(n))
            np.testing.assert_array_equal(np.diag(frame_frequencies(p)), zrot)
            h0 = assemble_hamiltonian(p, 0.0)
            for t in rng.uniform(0.0, p.duration, 3):
                r = np.diag(np.exp(-0.5j * t * frame_frequencies(p)))
                np.testing.assert_allclose(
                    hamiltonian(p, t), r @ h0 @ r.conj().T, atol=1e-12)
                np.testing.assert_allclose(
                    invariant(p, t), r @ (2.0 * h0 - zrot) @ r.conj().T, atol=1e-12)

    def test_drive_off_static(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        for t in (0.0, 0.4, 1.1):
            np.testing.assert_allclose(invariant(p, t), -1.0 * SZ, atol=1e-15)

    def test_constant_spectrum_example(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        for t in np.linspace(0.0, p.duration, 7):
            vals = np.linalg.eigvalsh(invariant(p, t))
            np.testing.assert_allclose(vals, [-np.sqrt(2), np.sqrt(2)], atol=1e-12)

    def test_constant_spectrum_random(self, rng):
        for n in (1, 2):
            p = random_cyclic_params(rng, n)
            ref = np.linalg.eigvalsh(invariant(p, 0.0))
            worst = max(
                np.abs(np.linalg.eigvalsh(invariant(p, t)) - ref).max()
                for t in np.linspace(0.0, p.duration, 13)
            )
            assert worst < 1e-9


def _di_bound(p, t):
    """1e-13 max(1, ||H|| ||I||): rounding in the commutator [H, I]."""
    return 1e-13 * max(1.0, float(np.linalg.norm(hamiltonian(p, t))
                                  * np.linalg.norm(invariant(p, t))))


class TestDiResidual:
    def test_random_small(self, rng):
        for n in (1, 2, 3):
            for _ in range(5):
                p = random_cyclic_params(rng, n)
                for t in (0.0, 0.37 * p.duration, p.duration):
                    assert di_residual(p, t) <= _di_bound(p, t)

    def test_drive_off_exact(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        assert di_residual(p, 0.5 * p.duration) == 0.0

    def test_published_cnot_row(self):
        # third pulse of the controlled-NOT table, in table units (J = 2)
        p = PulseParams(
            n=2,
            omega_drive=(3.394, 4.339),
            omega_rot=(8.745, 8.745),
            phase=(2.053, 3.467),
            detuning=(1.836, 3.702),
            couplings={(0, 1): 2.0},
            duration=TWO_PI / 8.745,
        )
        assert di_residual(p, 0.5 * p.duration) <= _di_bound(p, 0.5 * p.duration)

    def test_quadratic_order(self, rng):
        # the closed-form dI/dt against central differences of I(t), whose
        # error falls as dt^2
        p = random_cyclic_params(rng, 2)
        t = 0.5 * p.duration
        errors = [np.linalg.norm((invariant(p, t + dt) - invariant(p, t - dt)) / (2 * dt)
                                 - _invariant_rate(p, t)) for dt in (2e-3, 1e-3)]
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)

    def test_validation(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        for t in (-1e-3, np.pi + 1e-3, float("nan"), float("inf"), "0.5"):
            with pytest.raises(ValidationError):
                di_residual(p, t)


class TestPulseParams:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            PulseParams(n=1, omega_drive=(-1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)

    def test_phase_normalized(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(7.0,),
                        detuning=(1.0,), duration=np.pi)
        assert 0.0 <= p.phase[0] < TWO_PI
        assert p.phase[0] == pytest.approx(7.0 - TWO_PI)

    def test_cyclicity(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        assert p.is_cyclic()
        q = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi * 1.3)
        assert not q.is_cyclic()
        with pytest.raises(ValidationError):
            q.require_cyclic()

    def test_negative_frequency_cyclic(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(-2.0,), phase=(0.0,),
                        detuning=(-1.0,), duration=np.pi)
        assert p.is_cyclic()

    def test_undriven_qubit_unconstrained(self):
        # a qubit with zero drive amplitude places no cyclicity constraint
        p = PulseParams(n=2, omega_drive=(0.0, 2.0), omega_rot=(99.0, 4.0),
                        phase=(0.0, 0.0), detuning=(1.0, 1.0),
                        couplings={(0, 1): 1.0}, duration=np.pi / 2)
        assert p.is_cyclic()

    @pytest.mark.parametrize("field,value", [
        ("omega_drive", (np.nan, 1.0)), ("omega_rot", (2.0, np.inf)),
        ("phase", (np.nan, 0.0)), ("detuning", (1.0, -np.inf)),
        ("couplings", {(0, 1): np.nan}), ("duration", np.inf), ("duration", np.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        doc = dict(n=2, omega_drive=(1.0, 1.0), omega_rot=(2.0, 2.0),
                   phase=(0.0, 0.0), detuning=(1.0, 1.0),
                   couplings={(0, 1): 1.0}, duration=np.pi)
        with pytest.raises(ValidationError, match="finite"):
            PulseParams(**(doc | {field: value}))

    @pytest.mark.parametrize("field,value", [
        ("n", 1.9), ("n", True), ("n", "1"), ("duration", "x"), ("duration", None),
        ("omega_drive", ("abc",)), ("phase", (True,)), ("detuning", [[1.0]]),
        ("couplings", [1.0]),
    ])
    def test_mistyped_field_rejected(self, field, value):
        doc = dict(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                   detuning=(1.0,), duration=np.pi)
        with pytest.raises(ValidationError, match=field.rstrip("s")):
            PulseParams(**(doc | {field: value}))

    def test_coupling_key_validation(self):
        with pytest.raises(ValidationError):
            PulseParams(n=2, omega_drive=(1.0, 1.0), omega_rot=(2.0, 2.0),
                        phase=(0.0, 0.0), detuning=(1.0, 1.0),
                        couplings={(1, 0): 1.0}, duration=np.pi)

    @pytest.mark.parametrize("key", [" 0, 1", "00,1", (0, 1)])
    def test_coupling_pair_named_twice_rejected(self, key):
        # the last value would silently win
        with pytest.raises(ValidationError, match="twice"):
            PulseParams(n=2, omega_drive=(1.0, 1.0), omega_rot=(2.0, 2.0),
                        phase=(0.0, 0.0), detuning=(1.0, 1.0),
                        couplings={"0,1": 1.0, key: 2.0}, duration=np.pi)
        doc = tables.entangler_params().to_dict()
        doc["couplings"] = {"0,1": 2.0, key: 2.0}
        with pytest.raises(ValidationError, match="twice"):
            PulseParams.from_dict(doc)


class TestLoopSequence:
    def _loop(self, ratio=2.0, phi=0.0):
        return PulseParams(n=1, omega_drive=(1.0,), omega_rot=(ratio,),
                           phase=(phi,), detuning=(1.0,), duration=TWO_PI / ratio)

    def test_requires_cyclic_segments(self):
        bad = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                          detuning=(1.0,), duration=1.0)
        with pytest.raises(ValidationError):
            LoopSequence((bad,))

    def test_requires_nonempty_same_n(self):
        with pytest.raises(ValidationError):
            LoopSequence(())
        two = PulseParams(n=2, omega_drive=(1.0, 1.0), omega_rot=(2.0, 2.0),
                          phase=(0.0, 0.0), detuning=(1.0, 1.0),
                          couplings={(0, 1): 1.0}, duration=np.pi)
        with pytest.raises(ValidationError):
            LoopSequence((self._loop(), two))

    def test_json_round_trip(self):
        seq = LoopSequence((self._loop(2.0, 0.5), self._loop(4.0, 1.5)))
        doc = seq.to_dict()
        assert set(doc) == {"n", "segments"}
        again = LoopSequence.from_dict(doc)
        assert again == seq
        assert LoopSequence.loads(seq.dumps()) == seq

    def test_json_two_qubit_couplings(self):
        p = PulseParams(n=2, omega_drive=(1.0, 2.0), omega_rot=(4.0, 4.0),
                        phase=(0.1, 0.2), detuning=(0.5, 0.7),
                        couplings={(0, 1): 2.0}, duration=TWO_PI / 4.0)
        seq = LoopSequence((p,))
        doc = json.loads(seq.dumps())
        assert doc["segments"][0]["couplings"] == {"0,1": 2.0}
        assert LoopSequence.from_dict(doc) == seq

    def test_bad_unit_rejected(self):
        # files written with the former unit key load when it reads
        # "absolute"; "J" was never applied to the numbers, so it is refused
        doc = LoopSequence((self._loop(),)).to_dict()
        assert LoopSequence.from_dict(doc | {"unit": "absolute"}) == LoopSequence.from_dict(doc)
        for unit in ("J", "Hz", None):
            with pytest.raises(ValidationError):
                LoopSequence.from_dict(doc | {"unit": unit})

    def test_round_trip_of_tables_and_random_sequences(self):
        rng = np.random.default_rng(5)
        seqs = [tables.single_qubit_sequence(g) for g in tables.SINGLE_QUBIT_LOOPS]
        seqs += [tables.fast_phase_sequence(), tables.cnot_sequence(),
                 LoopSequence((tables.entangler_params(),))]
        seqs += [LoopSequence(tuple(random_cyclic_params(rng, 1 + k % 2)
                                    for _ in range(1 + k % 4))) for k in range(20)]
        for seq in seqs:
            text = seq.dumps()
            again = LoopSequence.loads(text)
            assert again == seq
            assert again.dumps() == text
