"""Closed-form propagation, the geometric/dynamical phase split, and an
independent integration oracle.

With R(t) = exp(-i t Z / 2) and Z = sum_i w_i sz_i, H(t) = R(t) H(0) R(t)^dag
and I(t) = 2 R(t) H_eff R(t)^dag with H_eff = H(0) - Z / 2 (Lewis & Riesenfeld,
J. Math. Phys. 10, 1458 (1969)). So U(t) = R(t) exp(-i t H_eff), the invariant
eigenframe is R(t)|u_n> with H_eff |u_n> = e_n |u_n>, and over a cyclic
segment gd_n = -tau <u_n|H(0)|u_n> and gg_n = (tau / 2) <u_n|Z|u_n> +
arg <u_n|R(tau)|u_n> (the Aharonov-Anandan phase): one small `eigh` each.

The oracle uses none of that: `ode_propagator` integrates the lab-frame H(t)
with a fourth-order commutator-free Magnus scheme. Its step exponentials are
closed form for one qubit and scaled Taylor series above, multiplied in real
2d x 2d arithmetic with no `eigh`. The tests keep two references
(`tests/reference.py`): the same scheme with `eigh` step exponentials, and
the invariant eigenframe sampled and parallel-transported on a time grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, _integer, _ordered_product
from .model import (
    TWO_PI,
    LoopSequence,
    PulseParams,
    frame_frequencies,
    hamiltonian_path,
)

#: Default integration-oracle steps per started drive period ...
ODE_STEPS_PER_PERIOD = 256
#: ... and per unit of tau * ||H||, with ||H|| bounded by
#: sum |W_i| / 2 + sum |D_i| / 2 + sum |J_ij| / 4; the larger count is used.
ODE_STEPS_PER_ACTION = 16
#: Relative gap below which invariant (or H_eff) eigenvalues are degenerate.
DEGENERACY_RTOL = 1e-7


@dataclass(frozen=True)
class PhaseRecord:
    """Total, geometric, and dynamical phase per invariant eigenstate.

    `gamma_geometric` is reduced into (-pi, pi]; `gamma_dynamical` is the
    unwound value -tau <u_n|H(0)|u_n>; `alpha_total` is the phase of the
    propagator matrix element in the starting eigenbasis and equals
    gamma_geometric + gamma_dynamical (mod 2pi) up to rounding.
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


def _degenerate_groups(values: np.ndarray) -> list[slice]:
    scale = max(float(np.abs(values).max()), 1.0)
    groups: list[slice] = []
    start = 0
    for k in range(1, values.size + 1):
        if k == values.size or values[k] - values[k - 1] > DEGENERACY_RTOL * scale:
            groups.append(slice(start, k))
            start = k
    return groups


def _stacks(segments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H(0), diagonal of Z, duration) of cyclic segments, stacked for `_evolve`."""
    for seg in segments:
        seg.require_cyclic()
    return (np.concatenate([hamiltonian_path(seg, (0.0,)) for seg in segments]),
            np.stack([frame_frequencies(seg) for seg in segments]),
            np.array([seg.duration for seg in segments]))


def _evolve(h0: np.ndarray, z: np.ndarray, tau: np.ndarray):
    """Closed form of L cyclic segments at once, from H(0) (L, d, d), the
    diagonal of Z (L, d) and the durations (L,): (u_n as columns, U(tau), gd),
    shaped (L, d, d), (L, d, d) and (L, d), from one stacked `eigh`.

    Inside a degenerate H_eff block the basis diagonalizes H(0), the Abelian
    representative; U is built before that rotation, from eigh's own pairs.
    Only the segments a vectorized gap check flags take that path.
    """
    heff = h0.copy()
    d = h0.shape[-1]
    heff.reshape(-1, d * d)[:, :: d + 1] -= 0.5 * z
    vals, vecs = np.linalg.eigh(heff)
    r = np.exp(-0.5j * tau[:, None] * z)  # R(tau), diagonal
    phase = np.exp(-1j * tau[:, None] * vals)
    u = (r[:, :, None] * vecs * phase[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    scale = np.abs(vals).max(axis=1, initial=1.0)
    flagged = vals[:, 1:] - vals[:, :-1] <= DEGENERACY_RTOL * scale[:, None]
    for k in np.flatnonzero(flagged.any(axis=1)):
        for g in _degenerate_groups(vals[k]):
            if g.stop - g.start > 1:
                blk = vecs[k][:, g]
                vecs[k][:, g] = blk @ np.linalg.eigh(blk.conj().T @ h0[k] @ blk)[1]
    gd = -tau[:, None] * (vecs.conj() * (h0 @ vecs)).sum(axis=1).real
    return vecs, u, gd


def segment_evolution(p: PulseParams) -> tuple[np.ndarray, np.ndarray]:
    """Propagator and per-eigenstate dynamical phases of one cyclic segment."""
    _, u, gd = _evolve(*_stacks((p,)))
    return u[0], gd[0]


def eigenframe_propagator(p: PulseParams) -> np.ndarray:
    """Evolution operator over one cyclic segment, R(tau) exp(-i tau H_eff)."""
    return segment_evolution(p)[0]


def sequence_evolution(seq: LoopSequence) -> tuple[np.ndarray, np.ndarray]:
    """Gate of a loop sequence (first segment acts first) and the dynamical
    phases of its segments, shape (segments, dim)."""
    _, us, gd = _evolve(*_stacks(seq.segments))
    return _chain(us), gd


def _chain(us: np.ndarray) -> np.ndarray:
    """us[-1] ... us[1] us[0]: the first factor acts first."""
    # sequential, not `_ordered_product`'s tree: this is the two-qubit
    # search's hot path, and for its 1 to 5 loops the tree's slicing costs
    # more than it saves (5 loops of 4x4: 17 us against 28 us as a tree;
    # 3 loops: 7.5 against 17 us; x86_64, 2 CPUs, numpy 2.4)
    u = us[0]
    for step in us[1:]:
        u = step @ u
    return u


def phases(p: PulseParams) -> PhaseRecord:
    """Geometric/dynamical phase split over one cyclic segment.

    gg_n = (tau / 2) <u_n|Z|u_n> + arg <u_n|R(tau)|u_n> is the holonomy of the
    parallel-transported frame R(t)|u_n>, and gd_n = -tau <u_n|H(0)|u_n>.
    alpha_total is read from the closed-form propagator, so
    alpha = gg + gd (mod 2pi) to about 1e-15 by construction: a consistency
    value, not an oracle check (`ode_propagator` is the oracle).
    """
    h0, z, tau = _stacks((p,))
    vecs, u, gd = (a[0] for a in _evolve(h0, z, tau))
    z, tau = z[0], tau[0]
    weights = np.abs(vecs) ** 2  # |<b|u_n>|^2: Z and R(tau) are diagonal
    gg = np.angle((np.exp(-0.5j * tau * z) @ weights) * np.exp(0.5j * tau * (z @ weights)))
    alpha = np.angle(np.einsum("ik,ij,jk->k", vecs.conj(), u, vecs))
    return PhaseRecord(
        alpha_total=tuple(float(a) for a in alpha),
        gamma_geometric=tuple(float(g) for g in gg),
        gamma_dynamical=tuple(float(g) for g in gd),
    )


#: Gauss nodes c and weights a1, a2 of the two-exponential fourth-order
#: commutator-free Magnus scheme (Blanes & Moan, J. Comput. Phys. 170, 205
#: (2001)).
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_A1, _CF4_A2 = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
#: Step exponentials above one qubit: each step is scaled by 2^-s until the
#: stack's largest embedded 1-norm nu is at most `_TAYLOR_NORM`, summed as a
#: Taylor series of the least degree K whose remainder bound
#: nu^(K+1) / (K+1)! lies below 2^-53, then squared s times (Moler & Van Loan,
#: SIAM Rev. 45, 3 (2003)). At the default step counts nu is 0.01 to 0.04, so
#: s = 0 and K is 6 or 7. Long steps take a higher degree in place of more
#: squarings, each of which doubles the rounding error.
_TAYLOR_NORM = 0.25
_TAYLOR_TAIL = 2.0 ** -53


def _ode_steps(p: PulseParams) -> int:
    """Default step count of `ode_propagator`."""
    norm = (sum(map(abs, p.omega_drive + p.detuning)) / 2
            + sum(map(abs, p.couplings.values())) / 4)
    return max(_grid_size(p, ODE_STEPS_PER_PERIOD),
               math.ceil(ODE_STEPS_PER_ACTION * norm * p.duration))


def _step_exponentials(g: np.ndarray) -> np.ndarray:
    """exp(-i g) for a stack (L, d, d) of Hermitian step generators g = dt G,
    as real (L, 2d, 2d) embeddings [[Re X, -Im X], [Im X, Re X]] of X = -i g.
    The embedding keeps products, so the factors multiply in real arithmetic.

    One qubit (g traceless): X^2 = -th^2 I with th^2 = g00^2 + |g01|^2, so
    exp(X) = cos(th) I + (sin(th) / th) X in closed form, and th = 0 gives I
    exactly. Larger d: a scaled and squared Taylor series (`_TAYLOR_NORM`).
    """
    length, d, _ = g.shape
    n = 2 * d
    m = np.empty((length, n, n))
    m[:, :d, :d] = m[:, d:, d:] = g.imag
    m[:, :d, d:] = g.real
    m[:, d:, :d] = -g.real
    if d == 2:
        theta = np.sqrt(g[:, 0, 0].real ** 2 + np.abs(g[:, 0, 1]) ** 2)
        m *= np.sinc(theta / np.pi)[:, None, None]
        m.reshape(-1, n * n)[:, :: n + 1] += np.cos(theta)[:, None]
        return m
    norm = float(np.einsum("lij->lj", np.abs(m)).max())  # largest column sum
    s = math.ceil(math.log2(norm / _TAYLOR_NORM)) if norm > _TAYLOR_NORM else 0
    if s:
        m *= 0.5 ** s
    nu, k = norm * 0.5 ** s, 1
    while nu ** (k + 1) / math.factorial(k + 1) >= _TAYLOR_TAIL:
        k += 1
    # Horner in integer weights: E = k I + Y, then E <- (k! / (j-1)!) I + Y E
    # for j = k-1, ..., 1, leaves k! times the degree-k series
    e, buf = m.copy(), np.empty_like(m)
    e.reshape(-1, n * n)[:, :: n + 1] += k
    for j in range(k - 1, 0, -1):
        np.matmul(m, e, out=buf)
        buf.reshape(-1, n * n)[:, :: n + 1] += math.factorial(k) // math.factorial(j - 1)
        e, buf = buf, e
    e /= math.factorial(k)
    for _ in range(s):
        np.matmul(e, e, out=buf)
        e, buf = buf, e
    return e


def ode_propagator(p: PulseParams, n_t: int | None = None) -> np.ndarray:
    """Independent oracle: fourth-order commutator-free Magnus integrator.

    Works on the lab-frame H(t) alone (no invariant, no rotating frame).
    Each of the n_t steps [t, t + dt] applies

        exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2)),

    right factor first, with H1, H2 = H(t + c dt) at the Gauss nodes
    c = 1/2 -+ sqrt(3)/6 and a1, a2 = 1/4 +- sqrt(3)/6. Fourth-order accurate
    in dt; the segment need not be cyclic. The step exponentials (closed
    form for one qubit, above it a scaled Taylor series whose truncation
    bound lies below 2^-53) and their tree product run in real 2d x 2d
    arithmetic, so the result is unitary to rounding.
    """
    n_t = _ode_steps(p) if n_t is None else _integer(n_t, "n_t")
    if n_t < 16:
        raise ValidationError("the integrator needs at least 16 steps")
    dt = p.duration / n_t
    starts = np.arange(n_t) * dt
    nodes = np.stack([starts + c * dt for c in _CF4_NODES], axis=1)
    h = hamiltonian_path(p, nodes.ravel()).reshape(n_t, 2, p.dim, p.dim)
    h1, h2 = h[:, 0], h[:, 1]
    a1, a2 = _CF4_A1 * dt, _CF4_A2 * dt
    gen = np.stack([a1 * h1 + a2 * h2, a2 * h1 + a1 * h2], axis=1)
    r = _ordered_product(_step_exponentials(gen.reshape(2 * n_t, p.dim, p.dim)),
                         first_on_left=False)
    return r[: p.dim, : p.dim] + 1j * r[p.dim :, : p.dim]


def sequence_propagator(seq: LoopSequence) -> np.ndarray:
    """Total gate of a loop sequence; the first segment acts first."""
    return sequence_evolution(seq)[0]


def sequence_phases(seq: LoopSequence) -> list[PhaseRecord]:
    """Per-segment phase records for a loop sequence."""
    return [phases(seg) for seg in seq]


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


def _loop_quaternion(theta: float, phi: float) -> tuple[float, float, float, float]:
    """The loop gate of `single_qubit_loop_gate` as SU(2) scalars (w, vx, vy, vz),
    U = w I + i (v . sigma), computed with `math` only."""
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise ValidationError("cone angle must lie strictly inside (0, pi)")
    ct, st = math.cos(theta), math.sin(theta)
    angle = (math.pi if theta >= math.pi / 2 else -math.pi) * ct
    s = -math.sin(angle)
    return -math.cos(angle), s * st * math.cos(phi), s * st * math.sin(phi), s * ct


def single_qubit_loop_gate(theta: float, phi: float) -> np.ndarray:
    """Closed form of the single-qubit zero-dynamical-phase loop gate.

    For the cone angle theta and initial azimuth phi the cycle implements

        U = -exp(+/- i pi cos(theta) (n . sigma)),
        n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)),

    with + for theta > pi/2 (counterclockwise precession) and - below; the
    closed form is validated against `eigenframe_propagator(loop_params(...))`.
    """
    w, vx, vy, vz = _loop_quaternion(theta, phi)
    return np.array([[w + 1j * vz, vy + 1j * vx], [-vy + 1j * vx, w - 1j * vz]])
