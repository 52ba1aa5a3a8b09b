"""Exact propagation in the invariant eigenframe, phase decomposition, and an
independent time-ordered integration oracle.

The evolution operator of a segment is assembled from the gauge-fixed
eigenframe of the dynamical invariant,

    U(tau) = sum_n exp(i gd_n) |v_n(tau)><v_n(0)| ,

where the vectors are parallel-transported (successive overlaps real and
positive) so the Berry-connection part of the Lewis-Riesenfeld phase sits in
the endpoint vectors and only the dynamical phase gd_n appears explicitly.
`ode_propagator` provides the independent midpoint-exponential oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, PAULI_1Q
from .model import (
    TWO_PI,
    LoopSequence,
    PulseParams,
    hamiltonian_path,
    invariant_from_hamiltonian,
)

#: Grid points per drive period used by default for eigenframe quantities.
DEFAULT_FRAME_POINTS = 8192
#: Grid points per drive period used by default for the integration oracle.
DEFAULT_ODE_POINTS = 16384
#: Resolution floor: the eigenframe grid must carry at least this many
#: samples per drive period.
MIN_POINTS_PER_PERIOD = 256
#: Relative gap below which invariant eigenvalues are treated as degenerate.
DEGENERACY_RTOL = 1e-7


class EigenvalueCrossingError(RuntimeError):
    """Adjacent grid samples cannot be matched; refine the time grid."""


class NonAbelianDegeneracyError(ValidationError):
    """Degenerate invariant subspace with non-commuting dynamics.

    Such segments carry a non-Abelian holonomy and are rejected.
    """


@dataclass(frozen=True)
class EigenFrame:
    """Gauge-fixed invariant eigenframe sampled on a time grid.

    `values` holds the d constant eigenvalues (ascending); `vectors` has
    shape (n_t + 1, d, d) with eigenvectors as columns, phase-fixed so that
    successive per-column overlaps are real and positive. `hamiltonian`
    holds H(t) on the same grid, shape (n_t + 1, d, d).
    """

    times: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    hamiltonian: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.size

    def min_step_overlap(self) -> float:
        """Smallest |<v_k(t_j)|v_k(t_{j+1})>| over the grid."""
        c = np.einsum("tik,tik->tk", self.vectors[:-1].conj(), self.vectors[1:])
        return float(np.abs(c).min())

    def closure_defect(self) -> float:
        """How far the eigenspace spans at tau are from the spans at 0."""
        worst = 0.0
        for g in _degenerate_groups(self.values):
            p0 = self.vectors[0][:, g] @ self.vectors[0][:, g].conj().T
            p1 = self.vectors[-1][:, g] @ self.vectors[-1][:, g].conj().T
            worst = max(worst, float(np.linalg.norm(p0 - p1)))
        return worst


@dataclass(frozen=True)
class PhaseRecord:
    """Total, geometric, and dynamical phase per invariant eigenstate.

    `gamma_geometric` is reduced into (-pi, pi]; `gamma_dynamical` is the
    unwound quadrature value; `alpha_total` is the phase of the propagator
    matrix element in the starting eigenbasis and equals
    gamma_geometric + gamma_dynamical (mod 2pi) up to quadrature error.
    """

    alpha_total: tuple[float, ...]
    gamma_geometric: tuple[float, ...]
    gamma_dynamical: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "alpha_total": list(self.alpha_total),
            "gamma_geometric": list(self.gamma_geometric),
            "gamma_dynamical": list(self.gamma_dynamical),
        }


def _grid_size(p: PulseParams, per_period: int) -> int:
    """`per_period` grid steps for every started drive period, at least one."""
    return int(np.ceil(max(p.period_count(), 1.0))) * per_period


def _resolve_grid(p: PulseParams, n_t: int | None, per_period: int) -> int:
    periods = p.period_count()
    if n_t is None:
        return max(1024, _grid_size(p, per_period))
    n_t = int(n_t)
    if periods > 0 and n_t < MIN_POINTS_PER_PERIOD * periods:
        raise ValidationError(
            f"grid too coarse: need at least {MIN_POINTS_PER_PERIOD} points per "
            f"drive period ({periods:.2f} periods -> "
            f"{int(np.ceil(MIN_POINTS_PER_PERIOD * periods))} points), got {n_t}"
        )
    if n_t < 16:
        raise ValidationError("grid must have at least 16 steps")
    return n_t


def _degenerate_groups(values: np.ndarray) -> list[slice]:
    scale = max(float(np.abs(values).max()), 1.0)
    groups: list[slice] = []
    start = 0
    for k in range(1, values.size + 1):
        if k == values.size or values[k] - values[k - 1] > DEGENERACY_RTOL * scale:
            groups.append(slice(start, k))
            start = k
    return groups


def _transport(values: np.ndarray, vectors: np.ndarray, h_path: np.ndarray) -> np.ndarray:
    """Gauge-fix raw eigenvectors along the grid.

    Nondegenerate spectra use a vectorized cumulative phase fix. Degenerate
    groups are aligned block-by-block with an orthogonal-Procrustes rotation,
    after rotating the initial block basis to diagonalize the Hamiltonian
    block (the Abelian representative basis).
    """
    groups = _degenerate_groups(values)
    if all(g.stop - g.start == 1 for g in groups):
        c = np.einsum("tik,tik->tk", vectors[:-1].conj(), vectors[1:])
        if np.abs(c).min() < 0.5:
            raise EigenvalueCrossingError(
                "eigenvector ordering swapped between adjacent samples; "
                "increase the grid size"
            )
        beta = np.concatenate(
            [np.zeros((1, values.size)), -np.cumsum(np.angle(c), axis=0)]
        )
        return vectors * np.exp(1j * beta)[:, None, :]

    out = vectors.copy()
    for g in groups:
        if g.stop - g.start > 1:
            blk = out[0][:, g]
            hblk = blk.conj().T @ h_path[0] @ blk
            _, rot = np.linalg.eigh(hblk)
            out[0][:, g] = blk @ rot
    for j in range(1, out.shape[0]):
        for g in groups:
            ov = out[j - 1][:, g].conj().T @ out[j][:, g]
            if g.stop - g.start == 1:
                mag = abs(ov[0, 0])
                if mag < 0.5:
                    raise EigenvalueCrossingError(
                        "eigenvector ordering swapped between adjacent samples; "
                        "increase the grid size"
                    )
                out[j][:, g] *= ov[0, 0].conj() / mag
            else:
                u, s, vh = np.linalg.svd(ov)
                if s.min() < 0.5:
                    raise EigenvalueCrossingError(
                        "degenerate subspace lost between adjacent samples; "
                        "increase the grid size"
                    )
                out[j][:, g] = out[j][:, g] @ (u @ vh).conj().T
    _require_abelian(values, out, h_path, groups)
    return out


def _require_abelian(values, vectors, h_path, groups, tol: float = 1e-6) -> None:
    """Reject degenerate blocks in which H couples transported members."""
    scale = max(float(np.abs(values).max()), 1.0)
    idx = np.linspace(0, vectors.shape[0] - 1, 17).astype(int)
    for g in groups:
        width = g.stop - g.start
        if width == 1:
            continue
        blk = np.einsum(
            "tia,tij,tjb->tab",
            vectors[idx][:, :, g].conj(),
            h_path[idx],
            vectors[idx][:, :, g],
        )
        off = blk.copy()
        off[:, np.arange(width), np.arange(width)] = 0.0
        if np.abs(off).max() > tol * scale:
            raise NonAbelianDegeneracyError(
                "degenerate invariant eigenvalues with non-commuting dynamics; "
                "segment rejected (non-Abelian holonomy unsupported)"
            )


def build_eigenframe(p: PulseParams, n_t: int | None = None) -> EigenFrame:
    """Invariant eigenframe on a uniform grid over [0, duration].

    Eigenvectors are gauge-fixed by positive-real successive overlaps;
    degenerate blocks are aligned by subspace projection. Raises
    `EigenvalueCrossingError` when adjacent samples cannot be matched (the
    caller should refine the grid).
    """
    n_t = _resolve_grid(p, n_t, DEFAULT_FRAME_POINTS)
    times = np.linspace(0.0, p.duration, n_t + 1)
    h_path = hamiltonian_path(p, times)
    vals, vecs = np.linalg.eigh(invariant_from_hamiltonian(p, h_path))
    scale = max(float(np.abs(vals[0]).max()), 1.0)
    if np.abs(vals - vals[0]).max() > 1e-6 * scale:
        raise EigenvalueCrossingError(
            "invariant spectrum drifts along the grid; increase the grid size"
        )
    vecs = _transport(vals[0], vecs, h_path)
    return EigenFrame(times=times, values=vals[0], vectors=vecs, hamiltonian=h_path)


def _dynamical_phases(frame: EigenFrame) -> np.ndarray:
    expect = np.einsum(
        "tik,tij,tjk->tk", frame.vectors.conj(), frame.hamiltonian, frame.vectors
    ).real
    return -np.trapezoid(expect, frame.times, axis=0)


def segment_evolution(
    p: PulseParams, n_t: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Propagator and per-eigenstate dynamical phases from one frame build."""
    p.require_cyclic()
    frame = build_eigenframe(p, n_t)
    gd = _dynamical_phases(frame)
    u = (frame.vectors[-1] * np.exp(1j * gd)) @ frame.vectors[0].conj().T
    return u, gd


def eigenframe_propagator(p: PulseParams, n_t: int | None = None) -> np.ndarray:
    """Evolution operator over one cyclic segment from the invariant frame."""
    return segment_evolution(p, n_t)[0]


def phases(p: PulseParams, n_t: int | None = None) -> PhaseRecord:
    """Geometric/dynamical phase split over one cyclic segment.

    The geometric phase is the holonomy of the transported frame,
    gg_n = arg <v_n(0)|v_n(tau)>, i.e. the discrete Berry-connection loop
    integral; the dynamical phase is the trapezoid quadrature of
    -<v_n|H|v_n>. Degenerate blocks use the eigenphases of the closure
    overlap block.
    """
    p.require_cyclic()
    frame = build_eigenframe(p, n_t)
    gd = _dynamical_phases(frame)
    gg = np.empty(frame.dim)
    for g in _degenerate_groups(frame.values):
        w = frame.vectors[0][:, g].conj().T @ frame.vectors[-1][:, g]
        if g.stop - g.start == 1:
            gg[g] = np.angle(w[0, 0])
        else:
            off = w - np.diag(np.diag(w))
            if np.abs(off).max() > 1e-3:
                raise NonAbelianDegeneracyError(
                    "holonomy mixes a degenerate invariant subspace; "
                    "segment rejected (non-Abelian holonomy unsupported)"
                )
            gg[g] = np.angle(np.diag(w))
    u = (frame.vectors[-1] * np.exp(1j * gd)) @ frame.vectors[0].conj().T
    alpha = np.angle(
        np.einsum("ik,ij,jk->k", frame.vectors[0].conj(), u, frame.vectors[0])
    )
    return PhaseRecord(
        alpha_total=tuple(float(a) for a in alpha),
        gamma_geometric=tuple(float(g) for g in gg),
        gamma_dynamical=tuple(float(g) for g in gd),
    )


def _midpoint_factors(p: PulseParams, n_t: int) -> np.ndarray:
    dt = p.duration / n_t
    mid = (np.arange(n_t) + 0.5) * dt
    h = hamiltonian_path(p, mid)
    vals, vecs = np.linalg.eigh(h)
    return np.einsum(
        "tik,tk,tjk->tij", vecs, np.exp(-1j * vals * dt), vecs.conj()
    )


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    # pairwise tree reduction; factors[k] acts at step k (earliest first)
    while factors.shape[0] > 1:
        m = factors.shape[0] // 2
        head = np.matmul(factors[1 : 2 * m : 2], factors[0 : 2 * m : 2])
        factors = (
            np.concatenate([head, factors[2 * m :]])
            if factors.shape[0] % 2
            else head
        )
    return factors[0]


def ode_propagator(p: PulseParams, n_t: int | None = None) -> np.ndarray:
    """Independent oracle: midpoint-exponential product integrator.

    U(tau) ~ prod_j exp(-i H(t_j + dt/2) dt), latest factor leftmost;
    second-order accurate in dt and exactly unitary.
    """
    if n_t is None:
        n_t = max(2048, _grid_size(p, DEFAULT_ODE_POINTS))
    n_t = int(n_t)
    if n_t < 16:
        raise ValidationError("grid must have at least 16 steps")
    return _ordered_product(_midpoint_factors(p, n_t))


def ode_trajectory(
    p: PulseParams, n_t: int, n_samples: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative midpoint-product propagators at evenly spaced grid times.

    Returns (times, stack of U(t)) where times excludes t=0.
    """
    factors = _midpoint_factors(p, int(n_t))
    marks = np.unique(np.linspace(1, int(n_t), min(n_samples, int(n_t))).astype(int))
    dim = factors.shape[1]
    u = np.eye(dim, dtype=complex)
    snaps = []
    pos = 0
    for mark in marks:
        for j in range(pos, mark):
            u = factors[j] @ u
        pos = mark
        snaps.append(u.copy())
    times = marks * (p.duration / int(n_t))
    return times, np.stack(snaps)


def sequence_propagator(seq: LoopSequence, n_t: int | None = None) -> np.ndarray:
    """Total gate of a loop sequence; the first segment acts first."""
    u = np.eye(seq.segments[0].dim, dtype=complex)
    for seg in seq:
        u = eigenframe_propagator(seg, n_t) @ u
    return u


def sequence_phases(seq: LoopSequence, n_t: int | None = None) -> list[PhaseRecord]:
    """Per-segment phase records for a loop sequence."""
    return [phases(seg, n_t) for seg in seq]


def zero_dynamical_phase_amplitude(omega: float, delta: float) -> float:
    """Drive amplitude making every invariant eigenstate's dynamical phase
    vanish for a single qubit: W^2 = D (w - D); requires D (w - D) > 0."""
    prod = delta * (omega - delta)
    if prod <= 0.0:
        raise ValidationError(
            "no real zero-dynamical-phase amplitude: need delta*(omega-delta) > 0"
        )
    return float(np.sqrt(prod))


def loop_params(theta: float, phi: float, delta: float = 1.0) -> PulseParams:
    """Single-qubit cyclic segment with invariant cone angle theta and initial
    azimuth phi, constrained to zero dynamical phase.

    Cone angles above pi/2 use positive detuning (delta); at and below pi/2
    the detuning and drive frequency flip sign (reversed precession). At
    exactly pi/2 the drive vanishes and the loop reduces to a bare
    -identity. theta must lie strictly inside (0, pi).
    """
    theta = float(theta)
    if not 0.0 < theta < np.pi:
        raise ValidationError("cone angle must lie strictly inside (0, pi)")
    s2 = np.sin(theta) ** 2
    if s2 == 0.0:
        raise ValidationError("degenerate cone angle")
    ratio = 1.0 / s2
    sign = 1.0 if theta > np.pi / 2 else -1.0
    det = sign * abs(delta)
    omega = ratio * det
    amp = zero_dynamical_phase_amplitude(omega, det) if ratio > 1.0 else 0.0
    return PulseParams(
        n=1,
        omega_drive=(amp,),
        omega_rot=(omega,),
        phase=(float(phi),),
        detuning=(det,),
        couplings={},
        duration=TWO_PI / abs(omega),
    )


def single_qubit_loop_gate(theta: float, phi: float) -> np.ndarray:
    """Closed form of the single-qubit zero-dynamical-phase loop gate.

    For the cone angle theta and initial azimuth phi the cycle implements

        U = -exp(+/- i pi cos(theta) (n . sigma)),
        n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)),

    with + for theta > pi/2 (counterclockwise precession) and - below; the
    closed form is validated against `eigenframe_propagator(loop_params(...))`.
    """
    theta = float(theta)
    if not 0.0 < theta < np.pi:
        raise ValidationError("cone angle must lie strictly inside (0, pi)")
    ct, st = np.cos(theta), np.sin(theta)
    axis = (
        st * np.cos(phi) * PAULI_1Q["X"]
        + st * np.sin(phi) * PAULI_1Q["Y"]
        + ct * PAULI_1Q["Z"]
    )
    sign = 1.0 if theta >= np.pi / 2 else -1.0
    angle = sign * np.pi * ct
    return -(np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * axis)
