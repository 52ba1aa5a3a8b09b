"""Pulse synthesis for target gates and entangling-gate detection.

Single-qubit synthesis works in the reduced coordinates (w/D, phi) per loop:
the zero-dynamical-phase condition eliminates the drive amplitude, so every
loop is holonomic by construction. It is solved in closed form (`two_loops`)
for one or two loops, with no search; more loops are refused.

Two-qubit synthesis is a bounded Nelder-Mead simplex search (`minimize`)
implemented here with scipy's arithmetic, so no search imports scipy. It
keeps all seven parameters per loop and penalizes the dynamical phases. A
cost maps a list of vertices to their costs: the simplex hands over the
points that do not depend on each other in one list, and the two-qubit costs
map them straight to the stacked H(0), frame and duration of every loop of
every vertex and propagate them all with one batched `eigh`
(`propagation._evolve`), with no `PulseParams` per evaluation. The simplex
bookkeeping is in plain Python floats, each vertex a list of floats: on
numpy rows (scipy's) an iteration takes 27 us against 8.2 at n = 7 (the
entangler) and 39 against 89 at n = 35 (five loops), and a search-2q task
iterates ~34 times at n = 7 and ~5 at n = 35, so rows would cost it ~5%.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import (
    ValidationError,
    _integer,
    _number,
    named_gate,
    pauli_basis,
    require_unitary,
    unitary_fidelity,
)
from .model import (
    _SZ_DIAGONALS,
    TWO_PI,
    LoopSequence,
    PulseParams,
    _coefficients,
    _hamiltonians,
)
from .propagation import (
    _chain,
    _evolve,
    _loop_pulse,
    segment_evolution,
    sequence_evolution,
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

#: Loops evolved in one stack at most (`_two_qubit_evolution`). A stacked
#: loop peaks at ~2.1 kB, so a block stays near 2.2 MB, where a 2q initial
#: simplex of L loops holds (7L + 1) L of them. The time per loop is flat
#: (5-6 us) from ~200 loops on, so larger blocks gain nothing (x86_64,
#: 2 CPUs, numpy 2.4).
STACK_LOOPS = 1024

_NM_OPTIONS_2Q = dict(xatol=1e-8, fatol=1e-11, maxiter=4000, maxfev=8000)


@dataclass(frozen=True)
class SynthesisProblem:
    """Gate-synthesis task: target unitary, loop budget, bounds and seeding."""

    target: np.ndarray
    n_qubits: int
    n_loops: int
    # seed, restarts and max_evals steer the two-qubit simplex search only
    seed: int = 0
    restarts: int = 32
    penalty_weight: float = 10.0
    bounds: tuple[tuple[float, float], ...] | None = None
    coupling: float = 1.0
    target_name: str | None = None
    max_evals: int | None = None  # per-restart simplex evaluation budget

    def __post_init__(self):
        if _integer(self.n_qubits, "n_qubits") not in (1, 2):
            raise ValidationError("synthesis supports one or two qubits")
        target = np.asarray(self.target, dtype=complex)
        if target.shape != (2 ** self.n_qubits,) * 2:
            raise ValidationError(
                f"target shape {target.shape} does not match n={self.n_qubits}"
            )
        require_unitary(target)
        object.__setattr__(self, "target", target)
        if _integer(self.n_loops, "n_loops") < 1:
            raise ValidationError("n_loops must be positive")
        if self.n_qubits == 1 and self.n_loops > 2:
            raise ValidationError("single-qubit synthesis takes one or two loops")
        _require_search_counts(self.seed, self.restarts, self.max_evals)
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


_PROBLEM_FIELDS = ["bounds", "coupling", "max_evals", "n", "n_loops", "penalty_weight",
                   "restarts", "seed", "target"]


def _real_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or any(
            not isinstance(r, list) or len(r) != len(rows) for r in rows):
        raise ValidationError("target real and imag parts must be square lists of rows")
    return np.array([[_number(v, "target entry") for v in r] for r in rows])


def _require_weights(penalty_weight: float, coupling: float) -> None:
    _number(coupling, "coupling")
    if _number(penalty_weight, "penalty_weight") < 0:
        raise ValidationError(f"need a penalty weight >= 0, got {penalty_weight}")


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

    def to_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "max_abs_dynamical_phase": self.max_abs_dynamical_phase,
            "gate_length": self.gate_length,
            "converged": self.converged,
            "entangling_score": self.entangling_score,
            "restarts": self.restarts,
            "seed": self.seed,
            "sequence": self.sequence.to_dict(),
        }


def gate_length(seq: LoopSequence) -> float:
    """Total gate time: one drive period (the stored duration) per segment."""
    return float(sum(seg.duration for seg in seq))


def objective(target: np.ndarray, seq: LoopSequence, penalty_weight: float) -> float:
    """Gate fidelity of the sequence minus the dynamical-phase penalty:
    F(target, prod U_i) - penalty_weight * sum_{i,n} |gd_n(segment i)|."""
    u, gd = sequence_evolution(seq)
    return unitary_fidelity(target, u) - float(penalty_weight) * float(np.abs(gd).sum())


def single_qubit_sequence_from_vector(x: Sequence[float]) -> LoopSequence:
    """Reduced coordinates (w/D, phi) per loop to the zero-dynamical-phase
    loops of `_loop_pulse` with D = 1. The one exception is ratio 1 (search
    bounds must exceed it, but a caller's vector may hold it): the drive
    vanishes, and the loop is a bare -identity whose
    `phases(...).gamma_dynamical` is (pi, -pi), as `loop_params` at
    theta = pi/2."""
    return LoopSequence(tuple(_loop_pulse(float(x[k]), float(x[k + 1]), 1.0)
                              for k in range(0, len(x), 2)))


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


#: Diagonal of sz_0 + sz_1: the loops drive both qubits at one frequency w,
#: so Z = w (sz_0 + sz_1).
_SZ_SUM_2Q = _SZ_DIAGONALS[2].sum(axis=0)


def _two_qubit_evolution(xs, coupling: float):
    """Gates (k, 4, 4) and per-loop dynamical phases (k, L, 4) of k vertices
    of L two-qubit loops each, as `sequence_evolution(
    two_qubit_sequence_from_vector(x, coupling))` per vertex but read
    straight off the vectors: the bounds, checked before any search, keep
    every loop buildable, and tau = 2 pi / w makes it cyclic. All k L loops
    go through one `_evolve`, in blocks of at most `STACK_LOOPS` loops."""
    k, n_loops = len(xs), len(xs[0]) // 7
    step = max(1, STACK_LOOPS // n_loops)
    if k > step:
        parts = [_two_qubit_evolution(xs[i:i + step], coupling) for i in range(0, k, step)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    v = np.reshape(xs, (-1, 7))
    w = v[:, 2]
    coeffs = _coefficients(v[:, 0:2], v[:, 3:5], v[:, 5:7], coupling)
    _, us, gd = _evolve(_hamiltonians(coeffs, 2), w[:, None] * _SZ_SUM_2Q, TWO_PI / w)
    return _chain(us.reshape(k, n_loops, 4, 4).swapaxes(0, 1)), gd.reshape(k, n_loops, 4)


def _two_qubit_cost(target: np.ndarray, penalty_weight: float, coupling: float):
    d = target.shape[0]

    def cost(xs) -> list:
        u, gd = _two_qubit_evolution(xs, coupling)
        # |tr(target^dag U)| / d, the `unitary_fidelity`, one vdot per vertex:
        # a batched product changes last bits
        fidelity = np.array([abs(np.vdot(target, g)) for g in u]) / d
        return (1.0 - fidelity + penalty_weight * np.abs(gd).sum(axis=(1, 2))).tolist()

    return cost


@dataclass(frozen=True)
class SimplexResult:
    """End of one simplex search: best vertex, its cost, and the evaluations
    and iterations spent."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


class _BudgetSpent(Exception):
    pass


def minimize(fun, x0, bounds, *, xatol: float, fatol: float, maxiter: int,
             maxfev: int) -> SimplexResult:
    """Bounded Nelder-Mead simplex (Nelder & Mead, Comput. J. 7, 308 (1965)).

    Step for step the arithmetic of scipy.optimize.minimize(method=
    "Nelder-Mead", bounds=...), so a search visits the same points:
    reflection 1, expansion 2, contraction 1/2 and shrink 1/2; the initial
    simplex scales one coordinate of x0 by 1.05 per vertex (0.00025 for a
    zero coordinate) and reflects a vertex past the upper bound back inside;
    every point is clipped to the bounds; the centroid is summed vertex by
    vertex from the best one. The search ends at `maxfev` evaluations (even
    in the middle of an iteration), at `maxiter` iterations, or when every
    vertex and its cost lie within xatol and fatol of the best.

    `fun` maps a list of vertices to their costs. The points that do not
    depend on each other, the n + 1 vertices of the initial simplex and the
    n new vertices of a shrink, go to one call; a reflection, expansion or
    contraction is a list of one. A group that crosses `maxfev` is cut to
    the points the budget allows. The bookkeeping is in plain Python
    floats: the simplex is a list of vertex lists. Vertices are
    ordered by a stable sort of their costs; when the costs hold a tie or a
    NaN, by `np.argsort`, as scipy does, since that sort need not be stable
    and so may order tied vertices differently.
    """
    lo, hi = ([float(v) for v in b] for b in zip(*bounds))

    def clip(x):
        """min(max(v, low), high) for each coordinate."""
        return [h if h < v else (l if l > v else v) for v, l, h in zip(x, lo, hi)]

    def toward(a, u, b, v):
        """a u + b v, clipped; with b = -c this is bitwise a u - c v, the form
        scipy computes."""
        return [h if h < (y := a * p + b * q) else (l if l > y else y)
                for p, q, l, h in zip(u, v, lo, hi)]

    x0 = clip(np.asarray(x0, dtype=float).tolist())
    n = len(x0)
    sim = [x0]
    for k, v in enumerate(x0):
        y = (1 + 0.05) * v if v != 0 else 0.00025
        vertex = list(x0)
        vertex[k] = 2 * hi[k] - y if y > hi[k] else y
        sim.append(clip(vertex))
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def group(xs):
        """Costs of the leading vertices of xs that the budget still allows,
        from one call of fun."""
        nonlocal nfev
        xs = xs[:maxfev - nfev]
        nfev += len(xs)
        return list(fun(xs)) if xs else []

    def f(x):
        if nfev >= maxfev:
            raise _BudgetSpent
        return group([x])[0]

    def ordered(sim, fsim):
        order = sorted(range(n + 1), key=fsim.__getitem__)
        costs = list(map(fsim.__getitem__, order))
        if not all(map(operator.lt, costs, costs[1:])):  # a tie or a NaN
            order = np.argsort(fsim).tolist()
            costs = list(map(fsim.__getitem__, order))
        return list(map(sim.__getitem__, order)), costs

    costs = group(sim)
    fsim[:len(costs)] = costs
    sim, fsim = ordered(*ordered(sim, fsim))  # sorted twice, as scipy does
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best, fbest = sim[0], fsim[0]
            if (all(abs(fbest - c) <= fatol for c in fsim[1:])
                    and all(abs(p - q) <= xatol for x in sim[1:] for p, q in zip(x, best))):
                break
            xbar = best
            for x in sim[1:-1]:
                xbar = map(operator.add, xbar, x)
            xbar = [p / n for p in xbar]
            worst = sim[-1]
            xr = toward(2, xbar, -1, worst)
            fxr = f(xr)
            if fxr < fbest:
                xe = toward(3, xbar, -2, worst)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = toward(1.5, xbar, -0.5, worst)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = toward(0.5, xbar, 0.5, worst)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrunk = [clip([p + 0.5 * (q - p) for p, q in zip(best, x)])
                              for x in sim[1:]]
                    costs = group(shrunk)
                    k = len(costs)
                    # scipy moves a vertex before it evaluates it, so the one
                    # the budget ends on moves and keeps its old cost
                    sim[1:k + 2] = shrunk[:k + 1]
                    fsim[1:k + 1] = costs
                    if k < n:
                        raise _BudgetSpent
            nit += 1
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return SimplexResult(x=np.array(sim[0]), fun=float(np.min(fsim)), nfev=nfev, nit=nit)


def _require_search_counts(seed: int, restarts: int, max_evals: int | None) -> None:
    """Refuse a count that is not an integer (a bool included), a negative
    seed, and fewer than one restart or evaluation."""
    _integer(seed, "seed")
    _integer(restarts, "restarts")
    if max_evals is not None:
        _integer(max_evals, "max_evals")
    if seed < 0 or restarts < 1 or (max_evals is not None and max_evals < 1):
        raise ValidationError("need seed >= 0 and restarts, max_evals >= 1; "
                              f"got {seed}, {restarts}, {max_evals}")


def _run_restarts(cost, bounds, seed: int, restarts: int, options: dict,
                  max_evals: int | None = None):
    _require_search_counts(seed, restarts, max_evals)
    if max_evals is not None:
        options = options | {"maxfev": int(max_evals), "maxiter": int(max_evals)}
    rng = np.random.default_rng(seed)
    lo, hi = np.array(bounds, dtype=float).T
    starts = rng.uniform(lo, hi, size=(restarts, len(bounds)))
    # `minimize` is looked up at call time, so a wrapper bound to the module
    # name sees every search
    results = [minimize(cost, x0, bounds, **options) for x0 in starts]
    return [(res.fun, res.x) for res in results]


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


def synthesize(problem: SynthesisProblem) -> SynthesisResult:
    """The target gate's pulses, re-scored by the closed-form propagation.

    A single-qubit gate is solved exactly (`two_loops`), with no search, so
    seed, restarts and max_evals do not affect it: the loop of highest
    fidelity, or the exact pair of shortest gate, inside the bounds. With no
    exact pair inside, the result is not converged and carries the loops at
    the bounds' lower corner. A two-qubit gate is a best-of-restarts simplex
    search, reproducible for a fixed seed: restart starting points are drawn
    once from the seeded generator and each local search is deterministic.
    """
    bounds = problem.full_bounds()
    found = True
    if problem.n_qubits == 1:
        # imported on first use: a process that synthesizes nothing skips it
        from .two_loops import best_loop, shortest_pair

        solve = best_loop if problem.n_loops == 1 else shortest_pair
        x = solve(problem.target, bounds)
        found = x is not None
        seq = single_qubit_sequence_from_vector(x if found else [lo for lo, _ in bounds])
    else:
        cost = _two_qubit_cost(problem.target, problem.penalty_weight, problem.coupling)
        candidates = _run_restarts(cost, bounds, problem.seed, problem.restarts,
                                   _NM_OPTIONS_2Q, problem.max_evals)
        _, seq = _pick_best(candidates,
                            lambda x: two_qubit_sequence_from_vector(x, problem.coupling))

    u, gd = sequence_evolution(seq)
    fidelity = unitary_fidelity(problem.target, u)
    return SynthesisResult(
        sequence=seq,
        fidelity=fidelity,
        max_abs_dynamical_phase=float(np.abs(gd).max()),
        gate_length=gate_length(seq),
        converged=found and fidelity >= problem.fidelity_goal,
        restarts=problem.restarts,
        seed=problem.seed,
    )


_PAULI_STACK_2Q = pauli_basis(2)[1]


def _correlations(us: np.ndarray) -> np.ndarray:
    """Pauli correlation matrices (k, 4, 4) of a stack of two-qubit unitaries."""
    return np.einsum("kab,lba->lk", _PAULI_STACK_2Q, us).reshape(-1, 4, 4)


def correlation_matrix(u: np.ndarray) -> np.ndarray:
    """C_ij = tr(U sigma_i x sigma_j) over the 16 two-qubit Pauli pairs."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValidationError("correlation matrix needs a two-qubit unitary")
    return _correlations(u[None])[0]


def _singular_values(c: np.ndarray) -> np.ndarray:
    """Ascending singular values of each correlation matrix of a stack."""
    return np.sort(np.linalg.svd(c, compute_uv=False), axis=-1)


def correlation_singular_values(u: np.ndarray) -> np.ndarray:
    """Ascending singular values of the Pauli correlation matrix."""
    return _singular_values(correlation_matrix(u))


def entangling_score(p: PulseParams) -> float:
    """Second-smallest singular value of the Pauli correlation matrix of the
    segment propagator. Zero with a rank-2 correlation certifies an
    entangling gate; rank-1 means a tensor product."""
    if p.n != 2:
        raise ValidationError("entangling score is defined for two qubits")
    u, _ = segment_evolution(p)
    return float(correlation_singular_values(u)[1])


def _entangler_cost(penalty_weight: float, coupling: float):
    """Entangling score of one loop plus the dynamical-phase penalty."""
    def cost(xs) -> list:
        u, gd = _two_qubit_evolution(xs, coupling)
        sv = _singular_values(_correlations(u))
        return (sv[:, 1] + penalty_weight * np.abs(gd).sum(axis=(1, 2))).tolist()

    return cost


#: Third-ascending singular value below this marks a tensor-product unitary.
SEPARABLE_S2 = 1e-2


def find_entangling(
    seed: int = 0,
    bounds: Sequence[tuple[float, float]] | None = None,
    restarts: int = 50,
    penalty_weight: float = 10.0,
    coupling: float = 1.0,
    score_tol: float = 1e-3,
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
    cost = _entangler_cost(penalty_weight, coupling)
    candidates = _run_restarts(cost, bounds, seed, restarts, _NM_OPTIONS_2Q, max_evals)

    xs = [x for _, x in candidates]
    u, gd = _two_qubit_evolution(xs, coupling)
    sv = _singular_values(_correlations(u)).tolist()
    best = None  # (key, x, m, max_gd)
    for x, (_, m, s2, _), max_gd in zip(xs, sv, np.abs(gd).max(axis=(1, 2)).tolist()):
        accepted = not s2 < SEPARABLE_S2 and m < score_tol
        key = (accepted, -m)
        if best is None or key > best[0]:
            best = (key, x, m, max_gd)
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
