"""Test references: the sampled invariant eigenframe, and the ODE oracle's
step exponentials by eigendecomposition.

`build_eigenframe` samples I(t) = 2 H(t) - sum_i w_i sz_i on a uniform time
grid, diagonalizes every sample and parallel-transports the eigenvectors
from sample to sample. The library never uses it: it propagates every
segment in closed form (`hologate.propagation`), and the tests compare the
two. The grid frame takes H(t), the frame frequencies and the grouping of
degenerate levels from the library, and nothing of the closed form.

`ode_propagator_eigh` is the fourth-order commutator-free Magnus scheme with
every step exponential taken from a complex `eigh`: a second computation of
the same product, which the tests hold the library's real-arithmetic
`ode_propagator` to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hologate.linalg import ValidationError, _ordered_product
from hologate.model import PulseParams, frame_frequencies, hamiltonian_path
from hologate.propagation import (
    _CF4_A1,
    _CF4_A2,
    _CF4_NODES,
    _degenerate_groups,
    _grid_size,
    _ode_steps,
)

#: Grid points per drive period used by default for the sampled eigenframe.
DEFAULT_FRAME_POINTS = 8192
#: Resolution floor: the eigenframe grid must carry at least this many
#: samples per drive period.
MIN_POINTS_PER_PERIOD = 256


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
    successive per-column overlaps are real and positive.
    """

    times: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

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


def _resolve_grid(p: PulseParams, n_t: int | None) -> int:
    periods = p.period_count()
    if n_t is None:
        return _grid_size(p, DEFAULT_FRAME_POINTS)
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
        # a running product of unit phases, not a sum of angles: the summed
        # gauge angles grow with the grid and lose digits
        fix = np.cumprod(np.abs(c) / c, axis=0)
        return vectors * np.concatenate([np.ones((1, values.size)), fix])[:, None, :]

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

    Eigenvectors are gauge-fixed by positive-real successive overlaps
    (discrete parallel transport), so arg <v_n(0)|v_n(tau)> is the discrete
    Berry holonomy; degenerate blocks are aligned by subspace projection.
    Raises `EigenvalueCrossingError` when adjacent samples cannot be matched
    (the caller should refine the grid).
    """
    n_t = _resolve_grid(p, n_t)
    times = np.linspace(0.0, p.duration, n_t + 1)
    h_path = hamiltonian_path(p, times)
    vals, vecs = np.linalg.eigh(2.0 * h_path - np.diag(frame_frequencies(p)))
    scale = max(float(np.abs(vals[0]).max()), 1.0)
    if np.abs(vals - vals[0]).max() > 1e-6 * scale:
        raise EigenvalueCrossingError(
            "invariant spectrum drifts along the grid; increase the grid size"
        )
    vecs = _transport(vals[0], vecs, h_path)
    return EigenFrame(times=times, values=vals[0], vectors=vecs)


def ode_propagator_eigh(p: PulseParams, n_t: int | None = None) -> np.ndarray:
    """`hologate.ode_propagator` with complex arithmetic throughout: each
    step exponential from one batched `eigh`, then the complex tree product."""
    n_t = _ode_steps(p) if n_t is None else n_t
    dt = p.duration / n_t
    starts = np.arange(n_t) * dt
    nodes = np.stack([starts + c * dt for c in _CF4_NODES], axis=1)
    h = hamiltonian_path(p, nodes.ravel()).reshape(n_t, 2, p.dim, p.dim)
    h1, h2 = h[:, 0], h[:, 1]
    gen = np.stack([_CF4_A1 * h1 + _CF4_A2 * h2, _CF4_A2 * h1 + _CF4_A1 * h2], axis=1)
    vals, vecs = np.linalg.eigh(gen.reshape(2 * n_t, p.dim, p.dim))
    factors = np.einsum("tik,tk,tjk->tij", vecs, np.exp(-1j * vals * dt), vecs.conj())
    return _ordered_product(factors, first_on_left=False)
