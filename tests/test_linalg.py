import numpy as np
import pytest

import hologate
from hologate import (
    ValidationError,
    characterization,
    kron,
    linalg,
    named_gate,
    pauli_string,
    unitary_fidelity,
)
from hologate.linalg import PAULI_1Q, _ordered_product, pauli_labels
from reference import unitary_exp

SX, SY, SZ = PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"]


@pytest.mark.parametrize("name", [
    "herm_eig", "unitary_exp", "require_hermitian", "is_hermitian", "HERMITICITY_RTOL",
    "_rotation", "CLIFFORD_1Q", "CLIFFORD_1Q_PTM", "CLIFFORD_1Q_GROUP_PTM",
    "_CLIFFORD_1Q_ROTATIONS",
])
def test_removed_names_are_gone(name):
    # the Hermitian eigensolver and exponential served only the Clifford
    # generators, which the package now writes as signed permutations
    for module in (hologate, linalg, characterization):
        assert not hasattr(module, name)


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz(self):
        np.testing.assert_allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_xy_properties(self):
        m = kron(SX, SY)
        assert abs(np.trace(m)) < 1e-14
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-14)


class TestPauliStrings:
    @pytest.mark.parametrize("label", ["X", "ZZ", "XY", "IZX", "YIY"])
    def test_invariants(self, label):
        m = pauli_string(label)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        np.testing.assert_allclose(m @ m, np.eye(2 ** len(label)), atol=1e-14)
        assert abs(np.trace(m)) < 1e-14

    def test_identity_trace(self):
        assert np.trace(pauli_string("II")) == pytest.approx(4.0)

    def test_labels(self):
        labels = pauli_labels(2)
        assert labels[:4] == ["II", "IX", "IY", "IZ"]
        assert len(labels) == 16

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            pauli_string("Q")


class TestUnitaryFidelity:
    def test_self(self, rng):
        u = unitary_exp(SX + 0.3 * SZ, 0.7)
        assert unitary_fidelity(u, u) == pytest.approx(1.0)

    def test_orthogonal_paulis(self):
        assert unitary_fidelity(np.eye(2), SX) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5, np.pi])
    def test_z_rotation(self, theta):
        u = unitary_exp(SZ, theta / 2)
        assert unitary_fidelity(np.eye(2), u) == pytest.approx(abs(np.cos(theta / 2)), abs=1e-12)

    def test_symmetry_and_phase_invariance(self, rng):
        u = unitary_exp(SX + 0.2 * SY, 0.9)
        v = unitary_exp(SZ - 0.4 * SX, 1.7)
        assert unitary_fidelity(u, v) == pytest.approx(unitary_fidelity(v, u))
        assert unitary_fidelity(u, np.exp(1.23j) * v) == pytest.approx(
            unitary_fidelity(u, v)
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            unitary_fidelity(np.eye(2), np.eye(4))


def test_named_gates():
    assert named_gate("CNOT").shape == (4, 4)
    np.testing.assert_allclose(named_gate("P") @ named_gate("P"), SZ, atol=1e-15)
    np.testing.assert_allclose(named_gate("T") @ named_gate("T"), named_gate("P"), atol=1e-15)
    with pytest.raises(ValidationError):
        named_gate("SWAP")


@pytest.mark.parametrize("first_on_left", [True, False])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_ordered_product_is_the_sequential_product(first_on_left, batch, rng):
    for count in range(1, 10):
        shape = (*batch, count, 4, 4)
        factors = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
        expected = factors[..., 0, :, :]
        for k in range(1, count):
            step = factors[..., k, :, :]
            expected = expected @ step if first_on_left else step @ expected
        out = _ordered_product(factors, first_on_left=first_on_left)
        assert out.shape == (*batch, 4, 4)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)
