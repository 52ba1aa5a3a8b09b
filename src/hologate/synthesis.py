"""Pulse-parameter search for target gates and entangling-gate detection.

Single-qubit synthesis works in the reduced coordinates (w/D, phi) per loop:
the drive amplitude is eliminated analytically by the zero-dynamical-phase
condition, so every candidate loop is holonomic by construction and the
objective reduces to the closed-form loop gate. That objective is evaluated
in SU(2) scalars rather than matrices: each loop gate is w I + i (v . sigma),
loops compose by the quaternion product, and the fidelity is read from
coefficients of tr(target^dag U) computed once per target. Two-qubit
synthesis keeps all seven parameters per loop and penalizes the dynamical
phases.

scipy is imported by the first search, not with this module.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import PAULI_1Q, ValidationError, named_gate, pauli_basis, unitary_fidelity
from .model import TWO_PI, LoopSequence, PulseParams
from .propagation import (
    _loop_quaternion,
    segment_evolution,
    sequence_evolution,
    zero_dynamical_phase_amplitude,
)

#: Default per-loop bounds for the reduced single-qubit coordinates (w/D, phi).
SINGLE_QUBIT_BOUNDS = ((1.0 + 1e-6, 6.0), (0.0, TWO_PI))
#: Default per-loop bounds for (W1, W2, w, f1, f2, D1, D2) in units of J.
TWO_QUBIT_BOUNDS = (
    (0.0, 10.0),
    (0.0, 10.0),
    (0.5, 10.0),
    (0.0, TWO_PI),
    (0.0, TWO_PI),
    (0.0, 10.0),
    (0.0, 10.0),
)
#: Scores within this of each other are resolved by the tie-break order.
SCORE_TIE = 1e-9

_NM_OPTIONS = dict(xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000)
_NM_OPTIONS_2Q = dict(xatol=1e-8, fatol=1e-11, maxiter=4000, maxfev=8000)


@dataclass(frozen=True)
class SynthesisProblem:
    """Gate-synthesis task: target unitary, loop budget, bounds and seeding."""

    target: np.ndarray
    n_qubits: int
    n_loops: int
    seed: int = 0
    restarts: int = 32
    penalty_weight: float = 10.0
    bounds: tuple[tuple[float, float], ...] | None = None
    coupling: float = 1.0
    target_name: str | None = None
    max_evals: int | None = None  # per-restart simplex evaluation budget

    def __post_init__(self):
        if self.n_qubits not in (1, 2):
            raise ValidationError("synthesis supports one or two qubits")
        target = np.asarray(self.target, dtype=complex)
        if target.shape != (2 ** self.n_qubits,) * 2:
            raise ValidationError(
                f"target shape {target.shape} does not match n={self.n_qubits}"
            )
        if np.linalg.norm(target.conj().T @ target - np.eye(target.shape[0])) > 1e-8:
            raise ValidationError("target must be unitary")
        object.__setattr__(self, "target", target)
        if self.n_loops < 1:
            raise ValidationError("n_loops must be positive")
        _require_search_counts(self.seed, self.restarts, self.max_evals, 1)
        _require_weights(self.penalty_weight, self.coupling)
        if self.bounds is not None:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
            per_loop = len(self._default_bounds())
            if len(bounds) == per_loop:
                bounds = bounds * self.n_loops
            if len(bounds) != per_loop * self.n_loops:
                raise ValidationError(
                    f"need {per_loop} bounds per loop, got {len(bounds)} total"
                )
            _require_loop_bounds(bounds, self.n_qubits)
            object.__setattr__(self, "bounds", bounds)

    def _default_bounds(self) -> tuple[tuple[float, float], ...]:
        return SINGLE_QUBIT_BOUNDS if self.n_qubits == 1 else TWO_QUBIT_BOUNDS

    def full_bounds(self) -> tuple[tuple[float, float], ...]:
        return self.bounds if self.bounds is not None else self._default_bounds() * self.n_loops

    @property
    def fidelity_goal(self) -> float:
        return 0.999 if self.n_qubits == 1 else 0.99

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SynthesisProblem":
        """Problem from its JSON document; each field's type and shape is
        checked, and an unknown field is refused."""
        if not isinstance(doc, Mapping) or not set(doc).issubset(_PROBLEM_FIELDS):
            raise ValidationError(f"a problem is a JSON object with fields {_PROBLEM_FIELDS}")
        target, name = doc.get("target"), None
        if isinstance(target, str):
            name, matrix = target, named_gate(target)
        elif isinstance(target, Mapping) and set(target) == {"real", "imag"}:
            matrix = _real_matrix(target["real"]) + 1j * _real_matrix(target["imag"])
        else:
            raise ValidationError('target must be a gate name or {"real": ..., "imag": ...}')
        bounds = doc.get("bounds")
        if bounds is not None:
            if not isinstance(bounds, list) or any(
                    not isinstance(b, list) or len(b) != 2 for b in bounds):
                raise ValidationError("bounds must be a list of [low, high] pairs")
            bounds = tuple((_number(lo, "bound"), _number(hi, "bound")) for lo, hi in bounds)
        max_evals = doc.get("max_evals")
        return cls(
            target=matrix,
            n_qubits=_integer(doc.get("n", len(matrix) // 2), "n"),
            n_loops=_integer(doc.get("n_loops"), "n_loops"),
            seed=_integer(doc.get("seed", 0), "seed"),
            restarts=_integer(doc.get("restarts", 32), "restarts"),
            penalty_weight=_number(doc.get("penalty_weight", 10.0), "penalty_weight"),
            bounds=bounds,
            coupling=_number(doc.get("coupling", 1.0), "coupling"),
            target_name=name,
            max_evals=None if max_evals is None else _integer(max_evals, "max_evals"),
        )

    @classmethod
    def loads(cls, text: str) -> "SynthesisProblem":
        return cls.from_dict(json.loads(text))


_PROBLEM_FIELDS = ["bounds", "coupling", "max_evals", "n", "n_loops", "penalty_weight",
                   "restarts", "seed", "target"]


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _real_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or any(
            not isinstance(r, list) or len(r) != len(rows) for r in rows):
        raise ValidationError("target real and imag parts must be square lists of rows")
    return np.array([[_number(v, "target entry") for v in r] for r in rows])


def _require_weights(penalty_weight: float, coupling: float) -> None:
    if not (0 <= penalty_weight < math.inf and math.isfinite(coupling)):
        raise ValidationError("need a finite penalty weight >= 0 and a finite coupling; "
                              f"got {penalty_weight}, {coupling}")


def _require_loop_bounds(bounds, n_qubits: int) -> None:
    """Refuse, before any evaluation, bounds that admit a loop the search
    cannot build: a drive frequency ratio w/D <= 1 for one qubit; a negative
    drive amplitude or a drive frequency <= 0 for two."""
    if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in bounds):
        raise ValidationError("bounds must be finite nonempty intervals")
    lows = [lo for lo, _ in bounds]
    if n_qubits == 1 and min(lows[0::2]) <= 1.0:
        raise ValidationError("drive frequency ratio bounds must exceed 1")
    if n_qubits == 2 and (min(lows[0::7] + lows[1::7]) < 0.0 or min(lows[2::7]) <= 0.0):
        raise ValidationError("bounds must keep drive amplitudes >= 0 and drive frequencies > 0")


@dataclass(frozen=True)
class SynthesisResult:
    """Best candidate found: pulse sequence plus its quality metrics."""

    sequence: LoopSequence
    fidelity: float | None
    max_abs_dynamical_phase: float
    gate_length: float
    converged: bool
    entangling_score: float | None = None
    restarts: int = 0
    seed: int = 0

    def to_dict(self, unit: str = "absolute") -> dict:
        return {
            "fidelity": self.fidelity,
            "max_abs_dynamical_phase": self.max_abs_dynamical_phase,
            "gate_length": self.gate_length,
            "converged": self.converged,
            "entangling_score": self.entangling_score,
            "restarts": self.restarts,
            "seed": self.seed,
            "sequence": self.sequence.to_dict(unit=unit),
        }


def gate_length(seq: LoopSequence) -> float:
    """Total gate time: one drive period (the stored duration) per segment."""
    return float(sum(seg.duration for seg in seq))


def objective(target: np.ndarray, seq: LoopSequence, penalty_weight: float) -> float:
    """Gate fidelity of the sequence minus the dynamical-phase penalty:
    F(target, prod U_i) - penalty_weight * sum_{i,n} |gd_n(segment i)|."""
    u, gd = sequence_evolution(seq)
    return unitary_fidelity(target, u) - float(penalty_weight) * _phase_penalty(gd)


def _phase_penalty(gd: np.ndarray) -> float:
    """sum_{i,n} |gd_n(segment i)|."""
    return float(np.abs(gd).sum())


def single_qubit_sequence_from_vector(x: Sequence[float]) -> LoopSequence:
    """Reduced coordinates (w/D, phi) per loop to pulses with D = 1."""
    segs = []
    for k in range(0, len(x), 2):
        ratio, phi = float(x[k]), float(x[k + 1])
        segs.append(
            PulseParams(
                n=1,
                omega_drive=(zero_dynamical_phase_amplitude(ratio, 1.0),),
                omega_rot=(ratio,),
                phase=(phi,),
                detuning=(1.0,),
                duration=TWO_PI / ratio,
            )
        )
    return LoopSequence(tuple(segs))


def two_qubit_sequence_from_vector(x: Sequence[float], coupling: float = 1.0) -> LoopSequence:
    """Variable layout per loop: (W1, W2, w, f1, f2, D1, D2), shared drive
    frequency and a fixed Ising coupling."""
    segs = []
    for k in range(0, len(x), 7):
        o1, o2, w, f1, f2, d1, d2 = (float(v) for v in x[k : k + 7])
        segs.append(
            PulseParams(
                n=2,
                omega_drive=(o1, o2),
                omega_rot=(w, w),
                phase=(f1, f2),
                detuning=(d1, d2),
                couplings={(0, 1): coupling},
                duration=TWO_PI / w,
            )
        )
    return LoopSequence(tuple(segs))


def _closed_form_cost(target: np.ndarray, n_loops: int):
    """1 - F(target, U) for the product U of the closed-form loop gates of
    reduced coordinates x, in SU(2) scalars.

    Each loop gate is w I + i (v . sigma) (`_loop_quaternion`); the gate of
    a later loop g acts on the product u so far as
    (g_w u_w - g.u, g_w u + u_w g - g x u). tr(target^dag U) = c0 w + c.v
    with c0 = tr(target^dag) and c_k = i tr(target^dag sigma_k), so F is
    |c0 w + c.v| / 2 with the coefficients computed here once.
    """
    vdag = target.conj().T
    coeffs = [np.trace(vdag)] + [1j * np.trace(vdag @ PAULI_1Q[a]) for a in "XYZ"]
    r0, r1, r2, r3 = (float(c.real) for c in coeffs)
    i0, i1, i2, i3 = (float(c.imag) for c in coeffs)

    def cost(x: np.ndarray) -> float:
        vals = x.tolist()
        w, vx, vy, vz = 1.0, 0.0, 0.0, 0.0
        for k in range(0, 2 * n_loops, 2):
            ratio = max(vals[k], 1.0 + 1e-12)
            theta = math.pi - math.asin(1.0 / math.sqrt(ratio))
            gw, gx, gy, gz = _loop_quaternion(theta, vals[k + 1])
            w, vx, vy, vz = (
                gw * w - gx * vx - gy * vy - gz * vz,
                gw * vx + w * gx - gy * vz + gz * vy,
                gw * vy + w * gy - gz * vx + gx * vz,
                gw * vz + w * gz - gx * vy + gy * vx,
            )
        re = r0 * w + r1 * vx + r2 * vy + r3 * vz
        im = i0 * w + i1 * vx + i2 * vy + i3 * vz
        return 1.0 - 0.5 * math.hypot(re, im)

    return cost


def _two_qubit_evolution(x, coupling: float):
    """`sequence_evolution` of the two-qubit loops x."""
    return sequence_evolution(two_qubit_sequence_from_vector(x, coupling))


def _two_qubit_cost(target: np.ndarray, penalty_weight: float, coupling: float):
    def cost(x: np.ndarray) -> float:
        u, gd = _two_qubit_evolution(x, coupling)
        return 1.0 - unitary_fidelity(target, u) + penalty_weight * _phase_penalty(gd)

    return cost


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on first use: importing
    scipy.optimize takes about half a second, and only the searches need it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _require_search_counts(seed: int, restarts: int, max_evals: int | None, workers: int):
    if seed < 0 or restarts < 1 or (max_evals is not None and max_evals < 1) or workers < 1:
        raise ValidationError("need seed >= 0 and restarts, max_evals, workers >= 1; "
                              f"got {seed}, {restarts}, {max_evals}, {workers}")


def _run_restarts(cost, bounds, seed: int, restarts: int, options: dict, workers: int = 1,
                  max_evals: int | None = None):
    _require_search_counts(seed, restarts, max_evals, workers)
    if max_evals is not None:
        options = options | {"maxfev": int(max_evals), "maxiter": int(max_evals)}
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = rng.uniform(lo, hi, size=(restarts, len(bounds)))

    def solve(x0):
        res = minimize(cost, x0, method="Nelder-Mead", bounds=bounds, options=options)
        return float(res.fun), np.asarray(res.x)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(solve, starts))
    return [solve(x0) for x0 in starts]


def _pick_best(candidates, sequence_of):
    """Deterministic merge: best score, ties broken by shorter gate, then
    smaller peak drive amplitude."""
    best = None
    for fun, x in candidates:
        seq = sequence_of(x)
        score = -fun
        length = gate_length(seq)
        peak = max(max(seg.omega_drive) for seg in seq)
        key = (score, -length, -peak)
        if best is None or _key_better(key, best[0]):
            best = (key, x, seq)
    return best[1], best[2]


def _key_better(key, ref) -> bool:
    if key[0] > ref[0] + SCORE_TIE:
        return True
    if key[0] < ref[0] - SCORE_TIE:
        return False
    return key[1:] > ref[1:]


def synthesize(problem: SynthesisProblem, workers: int = 1) -> SynthesisResult:
    """Best-of-restarts simplex search for the target gate.

    Reproducible for a fixed seed: restart starting points are drawn once
    from the seeded generator and each local search is deterministic. The
    returned result is re-scored by the closed-form propagation.
    """
    bounds = problem.full_bounds()
    if problem.n_qubits == 1:
        cost = _closed_form_cost(problem.target, problem.n_loops)
        options = _NM_OPTIONS
        sequence_of = single_qubit_sequence_from_vector
    else:
        cost = _two_qubit_cost(problem.target, problem.penalty_weight, problem.coupling)
        options = _NM_OPTIONS_2Q
        sequence_of = lambda x: two_qubit_sequence_from_vector(x, problem.coupling)

    candidates = _run_restarts(cost, bounds, problem.seed, problem.restarts, options,
                               workers, problem.max_evals)
    _, seq = _pick_best(candidates, sequence_of)

    u, gd = sequence_evolution(seq)
    fidelity = unitary_fidelity(problem.target, u)
    return SynthesisResult(
        sequence=seq,
        fidelity=fidelity,
        max_abs_dynamical_phase=float(np.abs(gd).max()),
        gate_length=gate_length(seq),
        converged=fidelity >= problem.fidelity_goal,
        restarts=problem.restarts,
        seed=problem.seed,
    )


_PAULI_STACK_2Q = pauli_basis(2)[1]


def correlation_matrix(u: np.ndarray) -> np.ndarray:
    """C_ij = tr(U sigma_i x sigma_j) over the 16 two-qubit Pauli pairs."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValidationError("correlation matrix needs a two-qubit unitary")
    flat = np.einsum("kab,ba->k", _PAULI_STACK_2Q, u)
    return flat.reshape(4, 4)


def correlation_singular_values(u: np.ndarray) -> np.ndarray:
    """Ascending singular values of the Pauli correlation matrix."""
    return np.sort(np.linalg.svd(correlation_matrix(u), compute_uv=False))


def entangling_score(p: PulseParams) -> float:
    """Second-smallest singular value of the Pauli correlation matrix of the
    segment propagator. Zero with a rank-2 correlation certifies an
    entangling gate; rank-1 means a tensor product."""
    if p.n != 2:
        raise ValidationError("entangling score is defined for two qubits")
    u, _ = segment_evolution(p)
    return float(correlation_singular_values(u)[1])


#: Third-ascending singular value below this marks a tensor-product unitary.
SEPARABLE_S2 = 1e-2


def find_entangling(
    seed: int = 0,
    bounds: Sequence[tuple[float, float]] | None = None,
    restarts: int = 50,
    penalty_weight: float = 10.0,
    coupling: float = 1.0,
    score_tol: float = 1e-3,
    workers: int = 1,
    max_evals: int | None = None,
) -> SynthesisResult:
    """Search a single loop whose propagator is certified entangling.

    Minimizes the entangling score plus the dynamical-phase penalty; local
    minima whose Pauli correlation is rank one (tensor products) are
    rejected. Not converged when no accepted candidate reaches `score_tol`.
    """
    bounds = tuple(bounds) if bounds is not None else TWO_QUBIT_BOUNDS
    if len(bounds) != 7:
        raise ValidationError("entangler search uses 7 parameters (single loop)")
    _require_loop_bounds(bounds, 2)
    _require_weights(penalty_weight, coupling)

    def cost(x: np.ndarray) -> float:
        u, gd = _two_qubit_evolution(x, coupling)
        return float(correlation_singular_values(u)[1]) + penalty_weight * _phase_penalty(gd)

    candidates = _run_restarts(
        cost, bounds, seed, restarts, _NM_OPTIONS_2Q, workers, max_evals
    )

    best = None  # (key, x, m, max_gd)
    for _, x in candidates:
        u, gd = _two_qubit_evolution(x, coupling)
        sv = correlation_singular_values(u)
        m, s2 = float(sv[1]), float(sv[2])
        accepted = not s2 < SEPARABLE_S2 and m < score_tol
        key = (accepted, -m)
        if best is None or key > best[0]:
            best = (key, x, m, float(np.abs(gd).max()))
    _, x, m, max_gd = best
    seq = two_qubit_sequence_from_vector(x, coupling)
    return SynthesisResult(
        sequence=seq,
        fidelity=None,
        max_abs_dynamical_phase=max_gd,
        gate_length=gate_length(seq),
        converged=bool(best[0][0]),
        entangling_score=m,
        restarts=restarts,
        seed=seed,
    )
