"""Simulated process tomography in the Pauli basis and Clifford randomized
benchmarking with an optional depolarizing noise injector.

Transfer matrices follow the row-as-input convention: row i holds the Pauli
expansion coefficients of the channel output for input Pauli i, so the
identity row of a trace-preserving channel is (1, 0, ..., 0) and composition
"E1 then E2" multiplies as T(E1) @ T(E2).
"""
from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .linalg import (
    ValidationError,
    named_gate,
    pauli_basis,
    pauli_labels,
    unitary_exp,
    PAULI_1Q,
)
from .model import LoopSequence
from .propagation import sequence_propagator


class UnitaryChannel:
    """Conjugation by a fixed unitary: rho -> U rho U^dag."""

    def __init__(self, u: np.ndarray):
        u = np.asarray(u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] not in (2, 4, 8):
            raise ValidationError(f"not a qubit-register unitary: shape {u.shape}")
        self.u = u
        self.n = int(np.log2(u.shape[0]))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.u @ rho @ self.u.conj().T


class DepolarizingChannel:
    """rho -> (1 - eps) rho + eps tr(rho) I / d."""

    def __init__(self, eps: float, n: int = 1):
        if not 0.0 <= eps <= 1.0:
            raise ValidationError("depolarizing strength must lie in [0, 1]")
        self.eps = float(eps)
        self.n = int(n)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = 2 ** self.n
        return (1.0 - self.eps) * rho + self.eps * np.trace(rho) * np.eye(d) / d


class ChannelSequence:
    """Composition of channels; the first channel acts first."""

    def __init__(self, channels: Sequence):
        channels = [as_channel(c) for c in channels]
        if not channels:
            raise ValidationError("empty channel sequence")
        if len({c.n for c in channels}) != 1:
            raise ValidationError("channels act on different qubit counts")
        self.channels = channels
        self.n = channels[0].n

    def apply(self, rho: np.ndarray) -> np.ndarray:
        for c in self.channels:
            rho = c.apply(rho)
        return rho


def as_channel(obj) -> UnitaryChannel | DepolarizingChannel | ChannelSequence:
    if hasattr(obj, "apply") and hasattr(obj, "n"):
        return obj
    return UnitaryChannel(np.asarray(obj))


@dataclass(frozen=True)
class TransferMatrix:
    """Real Pauli-basis process matrix; row = input Pauli, column = output."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4 ** self.n,) * 2:
            raise ValidationError(f"transfer matrix shape {m.shape} for n={self.n}")
        object.__setattr__(self, "matrix", m)

    @property
    def labels(self) -> list[str]:
        return pauli_labels(self.n)

    def to_dict(self) -> dict:
        return {"n": self.n, "labels": self.labels, "matrix": self.matrix.tolist()}


def pauli_transfer(channel) -> TransferMatrix:
    """Transfer matrix a[i, j] = tr(sigma_j E(sigma_i)) / 2^n."""
    channel = as_channel(channel)
    _, basis = pauli_basis(channel.n)
    outs = np.stack([channel.apply(sigma) for sigma in basis])
    mat = np.einsum("jab,iba->ij", basis, outs) / 2 ** channel.n
    if np.abs(mat.imag).max() > 1e-10:
        raise ValidationError("channel has a non-real Pauli transfer matrix")
    return TransferMatrix(n=channel.n, matrix=mat.real)


def qpt_setting_count(n: int) -> int:
    """Experiment settings for full reconstruction: 4^n inputs times 4^n - 1
    measured output coefficients (the identity coefficient follows from
    normalization)."""
    return 4 ** n * (4 ** n - 1)


def simulate_qpt(channel) -> tuple[TransferMatrix, int]:
    """Measurement-by-setting tomography: prepare each Pauli input, apply the
    channel, measure every non-identity output coefficient one setting at a
    time. The noiseless reconstruction is the channel's transfer matrix;
    returns it and the number of settings consumed."""
    transfer = pauli_transfer(channel)
    return transfer, qpt_setting_count(transfer.n)


def process_fidelity(exp: TransferMatrix, ideal: TransferMatrix) -> float:
    """Average gate fidelity between two transfer matrices:
    (d * tr(ideal^T exp) / d^2 + 1) / (d + 1) with d = 2^n."""
    if exp.n != ideal.n:
        raise ValidationError("transfer matrices act on different qubit counts")
    d = 2 ** exp.n
    f_pro = float(np.trace(ideal.matrix.T @ exp.matrix)) / d ** 2
    return (d * f_pro + 1.0) / (d + 1.0)


def _rotation(axis: str, angle: float) -> np.ndarray:
    return unitary_exp(PAULI_1Q[axis], angle / 2.0)


#: The single-qubit benchmarking set: identity plus x/y quarter- and
#: half-turns, all mapping Pauli operators to signed Pauli operators.
CLIFFORD_1Q: tuple[tuple[str, np.ndarray], ...] = (
    ("I", np.eye(2, dtype=complex)),
    ("Rx(+pi/2)", _rotation("X", np.pi / 2)),
    ("Rx(-pi/2)", _rotation("X", -np.pi / 2)),
    ("Rx(pi)", _rotation("X", np.pi)),
    ("Ry(+pi/2)", _rotation("Y", np.pi / 2)),
    ("Ry(-pi/2)", _rotation("Y", -np.pi / 2)),
)

#: Transfer matrices of `CLIFFORD_1Q`, stacked in the same order.
CLIFFORD_1Q_PTM: np.ndarray = np.stack(
    [pauli_transfer(UnitaryChannel(u)).matrix for _, u in CLIFFORD_1Q]
)


@dataclass(frozen=True)
class RBRecord:
    """Decay data and exponential fit for one benchmarking variant."""

    variant: str
    m_values: tuple[int, ...]
    mean_fidelity: tuple[float, ...]
    stderr: tuple[float, ...]
    n_sequences: int
    fit: tuple[float, float, float] | None  # (A, p, B)
    fit_stderr: tuple[float, float, float] | None
    converged: bool

    @property
    def decay_p(self) -> float:
        if self.fit is None:
            raise ValidationError("fit did not converge; no decay constant")
        return self.fit[1]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "m_values": list(self.m_values),
            "mean_fidelity": list(self.mean_fidelity),
            "stderr": list(self.stderr),
            "n_sequences": self.n_sequences,
            "fit": None if self.fit is None else {
                "A": self.fit[0], "p": self.fit[1], "B": self.fit[2],
            },
            "fit_stderr": None if self.fit_stderr is None else {
                "A": self.fit_stderr[0], "p": self.fit_stderr[1], "B": self.fit_stderr[2],
            },
            "converged": self.converged,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m,mean_fidelity,stderr\n")
        for m, f, s in zip(self.m_values, self.mean_fidelity, self.stderr):
            buf.write(f"{m},{f:.12g},{s:.12g}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class RBRun:
    reference: RBRecord
    interleaved: RBRecord | None = None


def fit_decay(
    m_values: Sequence[int], mean_fidelity: Sequence[float]
) -> tuple[tuple[float, float, float] | None, tuple[float, float, float] | None, bool]:
    """Least-squares fit of F(m) = A p^m + B.

    Constant data (a noiseless run) short-circuits to p = 1 exactly.
    Returns (params, standard errors, converged).
    """
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(mean_fidelity, dtype=float)
    if np.ptp(y) < 1e-12:
        return (0.0, 1.0, float(y.mean())), (0.0, 0.0, 0.0), True
    model = lambda mm, a, p, b: a * p ** mm + b
    guesses = [
        (0.5, 0.99, 0.5),
        (max(y[0] - y[-1], 1e-3), 0.95, y[-1]),
    ]
    for p0 in guesses:
        try:
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", OptimizeWarning)
                popt, pcov = curve_fit(
                    model, m, y, p0=p0, xtol=1e-12, ftol=1e-12, maxfev=20000
                )
            err = np.sqrt(np.abs(np.diag(pcov)))
            return tuple(float(v) for v in popt), tuple(float(e) for e in err), True
        except (RuntimeError, TypeError):
            continue
    return None, None, False


def _resolve_target(target, target_ideal, n_t):
    """Implemented unitary and the intended unitary used for recovery."""
    impl = _plain_unitary(target, n_t)
    ideal = impl if target_ideal is None else _plain_unitary(target_ideal, n_t)
    if impl.shape != (2, 2) or ideal.shape != (2, 2):
        raise ValidationError("benchmarking is implemented for single-qubit gates")
    return impl, ideal


def _plain_unitary(obj, n_t):
    if isinstance(obj, str):
        return named_gate(obj)
    if isinstance(obj, LoopSequence):
        return sequence_propagator(obj, n_t)
    return np.asarray(obj, dtype=complex)


def _chain(steps: np.ndarray) -> np.ndarray:
    """Ordered product along axis 1 of an (n, m, 4, 4) stack of transfer
    matrices, the first step acting first (leftmost, as rows are inputs)."""
    while steps.shape[1] > 1:
        half = steps.shape[1] // 2
        head = steps[:, 0 : 2 * half : 2] @ steps[:, 1 : 2 * half : 2]
        steps = np.concatenate([head, steps[:, 2 * half :]], axis=1)
    return steps[:, 0]


def rb_run(
    target=None,
    target_ideal=None,
    eps_clifford: float = 0.0,
    eps_target: float = 0.0,
    m_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
    n_sequences: int = 40,
    seed: int = 0,
    n_t: int | None = None,
) -> RBRun:
    """Reference and interleaved randomized benchmarking on the Z observable.

    Each sequence draws m gates uniformly from `CLIFFORD_1Q`, optionally
    interleaves the target after each one, appends the exact inverse of the
    intended sequence as the recovery gate, and records <Z>. A depolarizing
    channel of strength `eps_clifford` follows every Clifford (and the
    recovery); `eps_target` follows every interleaved target. Both strengths
    must lie in [0, 1]. Survival curves are averaged per m and fitted to
    A p^m + B.

    Every sequence is simulated exactly with 4x4 Pauli transfer matrices
    (`pauli_transfer`): the per-step matrices of the noisy implementation and
    of the intended gates are chained with batched products over all
    sequences of one length, the recovery is the transpose of the intended
    product (the transfer matrix of a unitary is orthogonal), and the
    survival is the [Z, Z] entry of implementation, recovery, then
    depolarizing. Sequence draws are seeded per (seed, variant, m, sequence).

    `target` may be a gate name, an explicit unitary, or a LoopSequence (its
    propagator is taken as the implementation). `target_ideal` sets the
    intended gate used for the recovery; it defaults to the implementation
    itself (for a gate name, the named unitary).
    """
    m_values = tuple(int(m) for m in m_values)
    if any(m < 1 for m in m_values) or n_sequences < 1:
        raise ValidationError("m values and n_sequences must be positive")
    dep_clifford = pauli_transfer(DepolarizingChannel(eps_clifford)).matrix
    dep_target = pauli_transfer(DepolarizingChannel(eps_target)).matrix
    impl = ideal = None
    if target is not None:
        impl, ideal = _resolve_target(target, target_ideal, n_t)
    z = pauli_labels(1).index("Z")

    def run_variant(interleave: bool, noisy: np.ndarray, intended: np.ndarray) -> RBRecord:
        """`noisy[k]` and `intended[k]` are the transfer matrices of one step
        that draws Clifford k."""
        means, errs = [], []
        for mi, m in enumerate(m_values):
            draws = np.stack([
                np.random.default_rng(
                    np.random.SeedSequence([seed, 1 if interleave else 0, mi, si])
                ).integers(0, len(CLIFFORD_1Q), size=m)
                for si in range(n_sequences)
            ])
            recovery = np.swapaxes(_chain(intended[draws]), 1, 2)
            vals = (_chain(noisy[draws]) @ recovery @ dep_clifford)[:, z, z]
            means.append(float(vals.mean()))
            errs.append(float(vals.std(ddof=1) / np.sqrt(n_sequences)) if n_sequences > 1 else 0.0)
        fit, fit_err, ok = fit_decay(m_values, means)
        return RBRecord(
            variant="interleaved" if interleave else "reference",
            m_values=m_values,
            mean_fidelity=tuple(means),
            stderr=tuple(errs),
            n_sequences=n_sequences,
            fit=fit,
            fit_stderr=fit_err,
            converged=ok,
        )

    noisy_clifford = CLIFFORD_1Q_PTM @ dep_clifford
    reference = run_variant(False, noisy_clifford, CLIFFORD_1Q_PTM)
    interleaved = None
    if target is not None:
        noisy_target = pauli_transfer(UnitaryChannel(impl)).matrix @ dep_target
        intended_target = pauli_transfer(UnitaryChannel(ideal)).matrix
        interleaved = run_variant(
            True, noisy_clifford @ noisy_target, CLIFFORD_1Q_PTM @ intended_target
        )
    return RBRun(reference=reference, interleaved=interleaved)


def rb_gate_fidelity(ref: RBRecord, inter: RBRecord, n: int = 1) -> float:
    """Interleaved-benchmarking gate fidelity
    F = 1 - (1 - p_gate / p_ref) (d - 1) / d, clamped to [0, 1]."""
    if not (ref.converged and inter.converged):
        raise ValidationError("both fits must have converged")
    p_ref, p_gate = ref.decay_p, inter.decay_p
    if p_ref <= 0.0:
        raise ValidationError("reference decay constant must be positive")
    d = 2 ** n
    f = 1.0 - (1.0 - p_gate / p_ref) * (d - 1) / d
    return float(min(1.0, max(0.0, f)))
