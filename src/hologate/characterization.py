"""Simulated process tomography in the Pauli basis and Clifford randomized
benchmarking with an optional depolarizing noise injector.

Every channel is held as its Pauli transfer matrix, a `TransferMatrix`; the
channel constructors return one. Row i holds the Pauli expansion
coefficients of the channel output for input Pauli i, so the identity row of
a trace-preserving channel is (1, 0, ..., 0) and composition "E1 then E2"
multiplies as T(E1) @ T(E2). Benchmarking needs only the 3x3 rotation
blocks of unitary channels, and holds the Clifford group as those alone.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    ValidationError,
    _integer,
    _number,
    _ordered_product,
    named_gate,
    pauli_basis,
    pauli_labels,
    require_unitary,
)
from .model import LoopSequence
from .propagation import sequence_propagator


@dataclass(frozen=True)
class TransferMatrix:
    """Real Pauli-basis process matrix; row = input Pauli, column = output."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        n, m = _integer(self.n, "qubit count"), np.asarray(self.matrix, dtype=float)
        if not (1 <= n <= 3 and m.shape == (4 ** n,) * 2 and np.isfinite(m).all()):
            raise ValidationError(f"not a finite transfer matrix for n={n}: shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def labels(self) -> list[str]:
        return pauli_labels(self.n)

    def to_dict(self) -> dict:
        return {"n": self.n, "labels": self.labels, "matrix": self.matrix.tolist()}


def _unitary_transfers(us: np.ndarray) -> np.ndarray:
    """Transfer matrices a[i, j] = tr(sigma_j U sigma_i U^dag) / d of a
    (k, d, d) stack of unitaries, shape (k, 4^n, 4^n). Each trace is real,
    since sigma_j and U sigma_i U^dag are Hermitian."""
    d = us.shape[-1]
    _, basis = pauli_basis(int(np.log2(d)))
    outs = us[:, None] @ basis @ np.swapaxes(us.conj(), 1, 2)[:, None]
    return (np.einsum("jab,kiba->kij", basis, outs) / d).real


def UnitaryChannel(u: np.ndarray) -> TransferMatrix:
    """Transfer matrix of conjugation by a unitary, rho -> U rho U^dag, on one
    to three qubits."""
    u = np.asarray(u, dtype=complex)
    if u.shape not in ((2, 2), (4, 4), (8, 8)):
        raise ValidationError(f"not a qubit-register unitary: shape {u.shape}")
    matrix = _unitary_transfers(require_unitary(u)[None])[0]
    return TransferMatrix(n=int(np.log2(len(u))), matrix=matrix)


def DepolarizingChannel(eps: float, n: int = 1) -> TransferMatrix:
    """Transfer matrix diag(1, 1 - eps, ..., 1 - eps) of
    rho -> (1 - eps) rho + eps tr(rho) I / d on one to three qubits."""
    eps = _number(eps, "depolarizing strength")
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("depolarizing strength must lie in [0, 1]")
    n = _integer(n, "qubit count")
    if not 1 <= n <= 3:
        raise ValidationError(f"qubit count must be 1..3, got {n}")
    diagonal = np.full(4 ** n, 1.0 - eps)
    diagonal[0] = 1.0
    return TransferMatrix(n=n, matrix=np.diag(diagonal))


def ChannelSequence(channels: Sequence) -> TransferMatrix:
    """Transfer matrix of a composition of channels (transfer matrices or
    unitaries); the first channel acts first."""
    transfers = [pauli_transfer(c) for c in channels]
    if len({t.n for t in transfers}) != 1:
        raise ValidationError("need one or more channels, all on one qubit count")
    product = _ordered_product(np.stack([t.matrix for t in transfers]), first_on_left=True)
    return TransferMatrix(n=transfers[0].n, matrix=product)


def pauli_transfer(channel) -> TransferMatrix:
    """Transfer matrix a[i, j] = tr(sigma_j E(sigma_i)) / 2^n: `channel`
    itself when it is one, else that of the unitary `channel`."""
    return channel if isinstance(channel, TransferMatrix) else UnitaryChannel(channel)


def qpt_setting_count(n: int) -> int:
    """Settings for full reconstruction: 4^n inputs times 4^n - 1 measured
    output coefficients (the identity one follows from normalization)."""
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


def _closure(gens: np.ndarray) -> np.ndarray:
    """The group generated by a stack of integer signed-permutation
    matrices: the generators, then each element found so far times each
    generator, in order of discovery. In integers every product is exact."""
    group = list(gens)
    seen = {g.tobytes() for g in group}
    for a in group:  # grows while it is walked: a breadth-first closure
        for g in gens:
            b = a @ g
            key = b.tobytes()
            if key not in seen:
                seen.add(key)
                group.append(b)
    return np.stack(group).astype(float)


#: The 24-element single-qubit Clifford group as the 3x3 rotation blocks O
#: (rows the input Pauli X, Y, Z, columns the output, as in `TransferMatrix`)
#: of its transfer matrices diag-block(1, O): the closure of six generators,
#: which come first. Randomized benchmarking draws from it: twirling over a
#: group that is a unitary 2-design turns any error channel into a
#: depolarizing one, which is what the single-exponential decay model assumes.
CLIFFORD_1Q_ROTATIONS: np.ndarray = _closure(np.array([
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # I
    [[1, 0, 0], [0, 0, 1], [0, -1, 0]],  # Rx(+pi/2): Y -> +Z, Z -> -Y
    [[1, 0, 0], [0, 0, -1], [0, 1, 0]],  # Rx(-pi/2): Y -> -Z, Z -> +Y
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],  # Rx(pi): Y -> -Y, Z -> -Z
    [[0, 0, -1], [0, 1, 0], [1, 0, 0]],  # Ry(+pi/2): X -> -Z, Z -> +X
    [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],  # Ry(-pi/2): X -> +Z, Z -> -X
]))


@dataclass(frozen=True)
class RBRecord:
    """Decay data and exponential fit for one benchmarking variant.

    `fit` is (A, p, B) of F(m) = A p^m + B and `fit_stderr` their standard
    errors, both as `fit_decay` returns them: finite numbers, the errors
    None when three m values leave no residual, and both None when
    `converged` is False (the data are not a decay, or too few m values).
    `rb_run`'s reference record carries its closed form instead.
    """

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


#: Survival curves that span less than this and lie within it of 1 read as
#: no decay (p = 1); flat curves elsewhere decayed before the first m and are
#: not fitted. It is far below the shot noise of a benchmarking experiment,
#: and a fit to a smaller fall finds a fast decay of tiny amplitude instead:
#: for the published X loops (average gate fidelity 0.9999992), at the
#: default m values and 40 sequences, the fitted p gives an interleaved
#: fidelity 0.991.
FLAT_SPAN = 1e-4
#: r max(m) at the slow end of the decay-rate search (`_decay_constant`).
SLOWEST_RATE = 1e-3

#: Log-spaced fractions of a decay-rate interval, for the scan of the whole
#: search interval and for the finer scan around its best point.
_DECAY_GRID = np.linspace(0.0, 1.0, 48)


def _decay_constant(m: np.ndarray, yc: np.ndarray) -> float | None:
    """The p in (0, 1) that minimises the residual sum of squares of
    A p^m + B against the centred data `yc`, with A and B solved for each p.

    That SSR is yc.yc - (yc.c)^2 / (c.c) for c = p^m centred, so the search
    maximises the second term. It scans the decay rate r = -ln p from
    SLOWEST_RATE / max(m), where p^m is a straight line over the data to
    about 1e-4 of its fall, to 40 / min(m), where it has vanished by the
    first point; scans again around the best point; then takes Newton steps
    on the derivative in p.

    None when the best rate is the fastest, or the slowest under data that
    do not fall monotonically in m: A diverges there, and the data are not
    a decay. A monotone fall that no rate fits better than the slowest one
    (a fall that steepens with m, as coherent errors give) is fitted at that
    rate.
    """
    def explained(r):
        c = np.exp(-np.multiply.outer(r, m))
        c -= c.mean(axis=1, keepdims=True)
        return (c @ yc) ** 2 / (c * c).sum(axis=1)

    lo, hi = SLOWEST_RATE / m.max(), 40.0 / max(m.min(), 1.0)
    r = lo * (hi / lo) ** _DECAY_GRID
    k = int(np.argmax(explained(r)))
    if k == 0 and np.all(np.diff(yc[np.argsort(m)]) <= 0.0):
        return float(np.exp(-lo))
    if not 0 < k < r.size - 1:
        return None
    r = r[k - 1] * (r[k + 1] / r[k - 1]) ** _DECAY_GRID
    j = int(np.argmax(explained(r)))
    p_min, p, p_max = np.exp(-r[[min(j + 1, r.size - 1), j, max(j - 1, 0)]])
    for _ in range(20):
        # p^m and its first two derivatives in p, centred, give those of
        # S = yc.c and Q = c.c, and so the first two of S^2 / Q
        x = p ** m
        dx = m * x / p
        rows = np.stack([x, dx, (m - 1.0) * dx / p])
        rows -= rows.mean(axis=1, keepdims=True)
        s, s1, s2 = rows @ yc
        g = rows @ rows.T
        q, q1, q2 = g[0, 0], 2.0 * g[0, 1], 2.0 * (g[1, 1] + g[0, 2])
        num = 2.0 * s * s1 * q - s * s * q1
        d1 = num / q**2
        d2 = (2.0 * (s1 * s1 + s * s2) * q - s * s * q2) / q**2 - 2.0 * num * q1 / q**3
        if not d2 < 0.0:
            break
        step = min(max(p - d1 / d2, p_min), p_max) - p
        p += step
        if abs(step) <= 1e-10 * p:
            break
    return float(p)


def fit_decay(
    m_values: Sequence[int], mean_fidelity: Sequence[float]
) -> tuple[tuple[float, float, float] | None, tuple[float, float, float] | None, bool]:
    """Least-squares fit of F(m) = A p^m + B with p in (0, 1).

    The model is linear in A and B for a fixed p, so the fit is a search over
    p alone (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10,
    413 (1973); see `_decay_constant`). The standard errors are the square
    roots of the diagonal of s^2 (J^T J)^-1, with s^2 = SSR / (N - 3) and J
    the Jacobian columns (p^m, A m p^(m-1), 1): the covariance that
    `scipy.optimize.curve_fit` reports. They are finite and near zero for
    exact data, and None when N = 3 leaves no residual to scale them by.

    Data that span less than `FLAT_SPAN` and lie within it of 1, the
    survival with no error (a noiseless run, or a gate whose error no
    experiment could resolve), short-circuit to p = 1 exactly. The fit has
    not converged, and params and errors are None, when other data span less
    than `FLAT_SPAN` (they decayed before the first m), when fewer than
    three distinct m values leave it undetermined, when the data are
    not a decay (A diverges at an end of (0, 1); see `_decay_constant`), or
    when J^T J is singular. Returns (params, standard errors, converged).
    """
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(mean_fidelity, dtype=float)
    if np.ptp(y) < FLAT_SPAN:
        if np.abs(y - 1.0).max() < FLAT_SPAN:
            return (0.0, 1.0, float(y.mean())), (0.0, 0.0, 0.0), True
        return None, None, False
    yc = y - y.mean()
    p = _decay_constant(m, yc) if len(set(m.tolist())) >= 3 else None
    if p is None:
        return None, None, False
    x = p ** m
    c = x - x.mean()
    a = (c @ yc) / (c @ c)
    b = y.mean() - a * x.mean()
    _, sv, vt = np.linalg.svd(np.column_stack([x, a * m * x / p, np.ones_like(m)]),
                              full_matrices=False)
    if sv[-1] <= np.finfo(float).eps * m.size * sv[0]:
        return None, None, False
    fit = (float(a), p, float(b))
    if m.size == 3:
        return fit, None, True
    resid = y - (a * x + b)
    cov = (vt.T / sv**2) @ vt * (resid @ resid / (m.size - 3))
    return fit, tuple(float(e) for e in np.sqrt(np.diag(cov))), True


def _target_rotation(obj) -> np.ndarray:
    """3x3 rotation block of the transfer matrix of a benchmarking target: a
    gate name, a single-qubit unitary, or a LoopSequence (its propagator)."""
    if isinstance(obj, str):
        obj = named_gate(obj)
    elif isinstance(obj, LoopSequence):
        obj = sequence_propagator(obj)
    transfer = UnitaryChannel(obj)
    if transfer.n != 1:
        raise ValidationError("benchmarking is implemented for single-qubit gates")
    return transfer.matrix[1:, 1:]


#: Most Cliffords, n_sequences * sum(m_values), an `rb_run` draws. Its peak
#: (tracemalloc) is about 225 B per drawn Clifford, for odd m as for even:
#: 0.9 GiB at most.
RB_MAX_CLIFFORDS = 2 ** 22


def rb_run(
    target=None,
    target_ideal=None,
    eps_clifford: float = 0.0,
    eps_target: float = 0.0,
    m_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
    n_sequences: int = 40,
    seed: int = 0,
) -> RBRun:
    """Reference and interleaved randomized benchmarking on the Z observable.

    Each sequence draws m gates uniformly from the 24-element Clifford
    group (`CLIFFORD_1Q_ROTATIONS`), optionally interleaves the target after
    each one, appends the exact inverse of the intended sequence as the
    recovery gate, and records <Z>. A depolarizing channel of strength
    `eps_clifford` follows every Clifford (and the recovery); `eps_target`
    follows every interleaved target. Both strengths must lie in [0, 1].
    Survival curves are averaged per m and fitted to A p^m + B.

    The noise factors out of every sequence exactly: diag(1, l, l, l),
    l = 1 - eps, commutes with the transfer matrix diag-block(1, O) of every
    unitary. So every reference sequence survives with l_c^(m+1): the
    reference curve is that closed form, with standard errors 0, fit by
    (l_c, l_c, 0) with errors 0 (unconverged at l_c = 0: nothing survives),
    and draws nothing. An interleaved one survives with
    l_c^(m+1) l_t^m (A B^T)[Z, Z], A and B the ordered products of the 3x3
    rotation blocks of the implemented and the intended steps, each a
    Clifford's block times the target's (the recovery is B^T, as a
    unitary's transfer matrix is orthogonal). Each m takes one
    generator, `np.random.default_rng([seed, 1, i])` with i the index of m,
    and draws its sequences at once, a row of m group indices each; at most
    `RB_MAX_CLIFFORDS` in all.

    `target` may be a gate name, an explicit unitary (finite and unitary
    within 1e-8, as `UnitaryChannel` checks), or a LoopSequence (its
    propagator is taken as the implementation). `target_ideal` sets the
    intended gate used for the recovery; it defaults to the implementation
    itself (for a gate name, the named unitary). Both it and a nonzero
    `eps_target` need a target.
    """
    m_values = tuple(_integer(m, "m value") for m in m_values)
    n_sequences, seed = _integer(n_sequences, "n_sequences"), _integer(seed, "seed")
    if not m_values or any(m < 1 for m in m_values) or n_sequences < 1 or seed < 0:
        raise ValidationError("m values (one or more) and n_sequences must be positive, "
                              "seed nonnegative")
    if n_sequences * sum(m_values) > RB_MAX_CLIFFORDS:
        raise ValidationError(f"n_sequences * sum(m_values) = {n_sequences * sum(m_values)} "
                              f"exceeds RB_MAX_CLIFFORDS = {RB_MAX_CLIFFORDS}")
    # each strength checked; l = 1 - eps of diag(1, l, l, l)
    keep_clifford, keep_target = (float(DepolarizingChannel(eps).matrix[1, 1])
                                  for eps in (eps_clifford, eps_target))

    # only depolarizing noise factors out: any other channel would need the
    # full 4x4 transfer-matrix chain (`tests/reference.py`) for both variants
    if keep_clifford > 0.0:  # l^(m + 1) = A p^m + B with A = p = l, B = 0
        fit = (keep_clifford, keep_clifford, 0.0), (0.0, 0.0, 0.0), True
    else:  # total depolarization: nothing survives, and there is no decay
        fit = None, None, False
    reference = RBRecord("reference", m_values,
                         tuple(keep_clifford ** (m + 1) for m in m_values),
                         (0.0,) * len(m_values), n_sequences, *fit)
    if target is None:
        if target_ideal is not None or eps_target != 0:
            raise ValidationError("an intended gate or target noise needs a target")
        return RBRun(reference=reference)
    impl = _target_rotation(target)
    ideal = impl if target_ideal is None else _target_rotation(target_ideal)
    # steps[k] holds the implemented and the intended step that draws Clifford k
    steps = np.stack([CLIFFORD_1Q_ROTATIONS @ impl, CLIFFORD_1Q_ROTATIONS @ ideal], axis=1)
    means, errs = [], []
    for i, m in enumerate(m_values):
        draws = np.random.default_rng([seed, 1, i]).integers(
            0, len(CLIFFORD_1Q_ROTATIONS), size=(n_sequences, m))
        z_rows = _ordered_product(steps[draws].swapaxes(1, 2), first_on_left=True)[:, :, 2]
        vals = (keep_clifford ** (m + 1) * keep_target ** m
                * (z_rows[:, 0] * z_rows[:, 1]).sum(axis=1))
        means.append(float(vals.mean()))
        errs.append(float(vals.std(ddof=1) / np.sqrt(n_sequences)) if n_sequences > 1 else 0.0)
    interleaved = RBRecord("interleaved", m_values, tuple(means), tuple(errs), n_sequences,
                           *fit_decay(m_values, means))
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
