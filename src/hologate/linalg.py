"""Dense complex linear algebra kernel: Pauli strings, validation, the tree
product of stacked matrices, named gates and the gate fidelity.

Everything here is a pure function of its arguments; dimensions are small
(up to three qubits), so dense numpy throughout.
"""
from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def _integer(value, name: str) -> int:
    """`value` as an int; any integral number but a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """`value` as a float; any finite real number but a bool."""
    # a plain float skips the abstract-class check, which costs ~0.7 us
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not real or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _ordered_product(factors: np.ndarray, *, first_on_left: bool) -> np.ndarray:
    """Product of the matrices stacked along axis -3, by pairwise tree
    reduction: f[0] f[1] ... f[-1] when `first_on_left`, else f[-1] ... f[0].
    Leading axes are a batch. An odd factor left over at a level is
    multiplied into the last pair's product, so no level is copied."""
    while factors.shape[-3] > 1:
        m = factors.shape[-3] // 2
        even, odd = factors[..., 0 : 2 * m : 2, :, :], factors[..., 1 : 2 * m : 2, :, :]
        head = even @ odd if first_on_left else odd @ even
        if 2 * m < factors.shape[-3]:  # a named view would keep this level alive
            head[..., -1, :, :] = (head[..., -1, :, :] @ factors[..., -1, :, :] if first_on_left
                                   else factors[..., -1, :, :] @ head[..., -1, :, :])
        factors = head
    return factors[..., 0, :, :]


PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

PAULI_AXES = "IXYZ"


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more matrices, left factor most significant."""
    if not ops:
        raise ValidationError("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def pauli_string(labels: str | Sequence[str]) -> np.ndarray:
    """Materialize a Pauli string such as "XY" or ["X", "Y"] as a matrix."""
    labels = list(labels)
    if not labels:
        raise ValidationError("empty Pauli string")
    try:
        return kron(*(PAULI_1Q[a] for a in labels))
    except KeyError as exc:
        raise ValidationError(f"unknown Pauli label {exc.args[0]!r}") from None


def pauli_on(n: int, qubit: int, label: str) -> np.ndarray:
    """Single-qubit Pauli acting on one wire of an n-qubit register."""
    if not 0 <= qubit < n:
        raise ValidationError(f"qubit {qubit} out of range for n={n}")
    labels = ["I"] * n
    labels[qubit] = label
    return pauli_string(labels)


def pauli_labels(n: int) -> list[str]:
    """All length-n Pauli labels in lexicographic (I, X, Y, Z) order."""
    labels = [""]
    for _ in range(n):
        labels = [s + a for s in labels for a in PAULI_AXES]
    return labels


_PAULI_STACKS: dict[int, np.ndarray] = {}  # n -> read-only `pauli_basis` stack


def pauli_basis(n: int) -> tuple[list[str], np.ndarray]:
    """Labels and a stacked (4^n, 2^n, 2^n) array of all n-qubit Paulis; the
    array is built on the first request for n, then shared read-only."""
    labels = pauli_labels(n)
    if n not in _PAULI_STACKS:
        _PAULI_STACKS[n] = np.stack([pauli_string(s) for s in labels])
        _PAULI_STACKS[n].setflags(write=False)
    return labels, _PAULI_STACKS[n]


def require_unitary(u: np.ndarray) -> np.ndarray:
    """`u` as a finite complex square matrix with ||U^dag U - I|| <= 1e-8."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {u.shape}")
    if not (np.isfinite(u).all() and np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= 1e-8):
        raise ValidationError("matrix is not a finite unitary within 1e-8")
    return u


def unitary_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate fidelity |tr(U^dag V)| / d.

    Equals 1 exactly when V = e^{i a} U. Symmetric in its arguments.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])


def _cnot() -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = PAULI_1Q["X"]
    return m


#: Named target gates. "CNOT" flips the second qubit conditioned on the first.
GATES = {
    "I": np.eye(2, dtype=complex),
    "X": PAULI_1Q["X"].copy(),
    "Y": PAULI_1Q["Y"].copy(),
    "Z": PAULI_1Q["Z"].copy(),
    "H": (PAULI_1Q["X"] + PAULI_1Q["Z"]) / np.sqrt(2.0),
    "P": np.diag([1.0, 1.0j]).astype(complex),
    "T": np.diag([1.0, np.exp(1.0j * np.pi / 4)]).astype(complex),
    "CNOT": _cnot(),
}


def named_gate(name: str) -> np.ndarray:
    try:
        return GATES[name].copy()
    except KeyError:
        raise ValidationError(
            f"unknown gate {name!r}; known: {sorted(GATES)}"
        ) from None
