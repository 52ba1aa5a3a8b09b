"""Drive + Zeeman + Ising pulse model and its closed-form dynamical invariant.

A pulse segment on n qubits evolves under

    H(t) = 1/2 sum_i [ W_i cos(w_i t + f_i) sx_i + W_i sin(w_i t + f_i) sy_i ]
         + 1/2 sum_i D_i sz_i + 1/4 sum_{i<j} J_ij sz_i sz_j

with drive amplitude W_i, drive frequency w_i, drive phase f_i, detuning D_i
and Ising couplings J_ij (all angular frequencies). The matching dynamical
invariant,

    I(t) = sum_i [ W_i cos(w_i t + f_i) sx_i + W_i sin(w_i t + f_i) sy_i ]
         + sum_i (D_i - w_i) sz_i + 1/2 sum_{i<j} J_ij sz_i sz_j,

equals 2 H(t) - sum_i w_i sz_i identically and satisfies
dI/dt + i [H, I] = 0, so its eigenvalues are constant and its eigenframe
carries the exact evolution. Both are H(0) and I(0) seen in the frame that
rotates about z at the drive frequencies (`frame_frequencies`).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import ValidationError, _integer, _number, pauli_on

TWO_PI = 2.0 * np.pi

#: Absolute tolerance on |w| * duration / 2pi being a positive integer.
CYCLIC_ATOL = 1e-8


def _as_tuple(values, n: int, name: str) -> tuple[float, ...]:
    """n finite numbers (a bare number when n = 1) as a tuple of floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        values = [values]
    if len(values) != n:
        raise ValidationError(f"{name} must hold {n} numbers, got {values!r}")
    return tuple([_number(v, name) for v in values])


def _pair(key) -> tuple[int, int]:
    """A coupling key, (i, j) or "i,j", as two ints."""
    parts = key.split(",") if isinstance(key, str) else key
    try:
        i, j = (int(part) if isinstance(part, str) else _integer(part, "wire")
                for part in parts)
    except (TypeError, ValueError):  # not a pair, or not integers
        raise ValidationError(f"coupling key {key!r} must be a pair of wires") from None
    return i, j


def _normalize_couplings(couplings, n: int) -> dict[tuple[int, int], float]:
    if couplings is None:
        couplings = {}
    if not isinstance(couplings, Mapping):
        raise ValidationError(f"couplings must map wire pairs to numbers, got {couplings!r}")
    out: dict[tuple[int, int], float] = {}
    for key, value in couplings.items():
        i, j = _pair(key)
        if not (0 <= i < j < n):
            raise ValidationError(f"coupling key {(i, j)} must satisfy 0 <= i < j < n")
        if (i, j) in out:
            raise ValidationError(f"coupling keys name the wire pair {(i, j)} twice")
        out[(i, j)] = _number(value, f"coupling {(i, j)}")
    return dict(sorted(out.items()))


#: Fields of a segment document; every one but `couplings` is required.
_SEGMENT_FIELDS = {"couplings", "detuning", "duration", "omega_drive", "omega_rot", "phase"}
#: Fields of a sequence document; `unit`, which only older files carry, is
#: optional.
_SEQUENCE_FIELDS = {"n", "segments", "unit"}


@dataclass(frozen=True)
class PulseParams:
    """One pulse segment: per-qubit drive, detuning, pairwise couplings.

    Phases are stored reduced into [0, 2pi). A segment is cyclic when every
    driven qubit completes a whole number of drive periods in `duration`;
    negative drive frequencies (reversed precession) are allowed and counted
    by magnitude.
    """

    n: int
    omega_drive: tuple[float, ...]
    omega_rot: tuple[float, ...]
    phase: tuple[float, ...]
    detuning: tuple[float, ...]
    couplings: Mapping[tuple[int, int], float] = field(default_factory=dict)
    duration: float = TWO_PI

    def __post_init__(self):
        n = _integer(self.n, "n")
        if not 1 <= n <= 3:
            raise ValidationError(f"qubit count must be 1..3, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega_drive", _as_tuple(self.omega_drive, n, "omega_drive"))
        object.__setattr__(self, "omega_rot", _as_tuple(self.omega_rot, n, "omega_rot"))
        object.__setattr__(self, "phase", tuple(p % TWO_PI for p in _as_tuple(self.phase, n, "phase")))
        object.__setattr__(self, "detuning", _as_tuple(self.detuning, n, "detuning"))
        object.__setattr__(self, "couplings", _normalize_couplings(self.couplings, n))
        object.__setattr__(self, "duration", _number(self.duration, "duration"))
        if any(om < 0 for om in self.omega_drive):
            raise ValidationError("drive amplitudes must be nonnegative")
        if not self.duration > 0:
            raise ValidationError(f"duration must be positive, got {self.duration}")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def cycle_counts(self) -> tuple[float, ...]:
        """|w_i| * duration / 2pi for every driven qubit (W_i > 0)."""
        return tuple(
            abs(w) * self.duration / TWO_PI
            for om, w in zip(self.omega_drive, self.omega_rot)
            if om > 0
        )

    def period_count(self) -> float:
        """Drive periods the segment spans: the largest cycle count, 0 when
        undriven. A count within `CYCLIC_ATOL` of a whole number is that
        number, so rounding in |w| * (2pi / |w|) / 2pi cannot add a period
        to a grid sized from it."""
        periods = max(self.cycle_counts(), default=0.0)
        whole = round(periods)
        return float(whole) if abs(periods - whole) <= CYCLIC_ATOL else periods

    def is_cyclic(self) -> bool:
        for k in self.cycle_counts():
            if k < 0.5 or abs(k - round(k)) > CYCLIC_ATOL:
                return False
        return True

    def require_cyclic(self) -> None:
        if not self.is_cyclic():
            raise ValidationError(
                "segment is not cyclic: each driven qubit must complete a "
                f"whole number of drive periods (cycle counts {self.cycle_counts()})"
            )

    def to_dict(self) -> dict:
        return {
            "omega_drive": list(self.omega_drive),
            "omega_rot": list(self.omega_rot),
            "phase": list(self.phase),
            "detuning": list(self.detuning),
            "couplings": {f"{i},{j}": v for (i, j), v in self.couplings.items()},
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, doc: Mapping, n: int | None = None) -> "PulseParams":
        """Segment from its JSON document (`to_dict`); every field is checked,
        and an unknown or missing one (but `couplings`) is refused. `n`
        defaults to the length of `omega_drive`."""
        if not (isinstance(doc, Mapping)
                and _SEGMENT_FIELDS - {"couplings"} <= set(doc) <= _SEGMENT_FIELDS):
            raise ValidationError(
                f"a segment is a JSON object with fields {sorted(_SEGMENT_FIELDS)}"
                " (couplings optional)")
        if n is None:
            n = len(doc["omega_drive"]) if isinstance(doc["omega_drive"], (list, tuple)) else 1
        return cls(n=n, **doc)


@dataclass(frozen=True)
class LoopSequence:
    """Ordered cyclic segments realizing one gate; first segment acts first."""

    segments: tuple[PulseParams, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValidationError("sequence must contain at least one segment")
        n = segments[0].n
        if any(seg.n != n for seg in segments):
            raise ValidationError("all segments must act on the same qubit count")
        for k, seg in enumerate(segments):
            try:
                seg.require_cyclic()
            except ValidationError as exc:
                raise ValidationError(f"segment {k}: {exc}") from None
        object.__setattr__(self, "segments", segments)

    @property
    def n(self) -> int:
        return self.segments[0].n

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def to_dict(self) -> dict:
        return {"n": self.n, "segments": [seg.to_dict() for seg in self.segments]}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "LoopSequence":
        """Sequence from its JSON document (`to_dict`); every field is
        checked, and an unknown or missing one is refused. Files written
        with the former `"unit": "absolute"` key still load; `"unit": "J"`
        is refused, since those numbers were never scaled by a coupling."""
        if not (isinstance(doc, Mapping) and {"n", "segments"} <= set(doc) <= _SEQUENCE_FIELDS
                and isinstance(doc["segments"], (list, tuple))):
            raise ValidationError('a sequence is a JSON object {"n": ..., "segments": [...]}')
        if doc.get("unit", "absolute") != "absolute":
            raise ValidationError(f"unit must be 'absolute', got {doc['unit']!r}")
        n = _integer(doc["n"], "n")
        return cls(tuple(PulseParams.from_dict(seg, n=n) for seg in doc["segments"]))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "LoopSequence":
        return cls.from_dict(json.loads(text))


def _wire_paulis(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    ops = tuple(tuple(pauli_on(n, i, a) for i in range(n)) for a in "XYZ")
    for row in ops:
        for op in row:
            op.setflags(write=False)
    return ops


#: (sx_i, sy_i, sz_i) on every wire of an n-qubit register, for n = 1..3;
#: read-only, shared by every call.
_WIRE_PAULIS = {n: _wire_paulis(n) for n in (1, 2, 3)}


#: Wire pairs (i, j), i < j, in the order of `PulseParams.couplings` keys.
_PAIRS = {n: tuple(itertools.combinations(range(n), 2)) for n in (1, 2, 3)}


def _operator_table(n: int) -> np.ndarray:
    """sx_i, then sy_i, then sz_i on every wire, then sz_i sz_j on every pair,
    flattened into the rows of one read-only (k, d*d) table."""
    sx, sy, sz = _WIRE_PAULIS[n]
    ops = [*sx, *sy, *sz] + [sz[i] @ sz[j] for i, j in _PAIRS[n]]
    table = np.stack(ops).reshape(len(ops), -1)
    table.setflags(write=False)
    return table


_OPERATORS = {n: _operator_table(n) for n in (1, 2, 3)}


def _embedded_table(n: int) -> np.ndarray:
    """The real embedding [[Re X, -Im X], [Im X, Re X]] of X = -i op for
    every row op of `_OPERATORS[n]`, flattened into the rows of one read-only
    (k, 4 d*d) table: coefficient rows c give the embedding of -i H as
    c @ table, since the embedding is real-linear."""
    d = 2 ** n
    x = -1j * _OPERATORS[n].reshape(-1, d, d)
    table = np.block([[x.real, -x.imag], [x.imag, x.real]]).reshape(len(x), -1)
    table.setflags(write=False)
    return table


_EMBEDDED_GENERATORS = {n: _embedded_table(n) for n in (1, 2, 3)}
#: Diagonals of sz_i, one row per wire: Z = sum_i w_i sz_i has diagonal w @ rows.
_SZ_DIAGONALS = {n: np.array([np.diag(op).real for op in _WIRE_PAULIS[n][2]]) for n in (1, 2, 3)}


def _coefficients(drive, angle, detuning, coupling) -> np.ndarray:
    """Coefficients of H on the rows of `_operator_table`, one row per row
    of `angle` (the drive phase w_i t + f_i of every wire): W_i cos(angle_i)
    / 2, W_i sin(angle_i) / 2, D_i / 2, then J_ij / 4 per pair. `drive`,
    `detuning` and `coupling` are per-wire (per-pair) rows, stacks of rows
    matching `angle`, or scalars."""
    rows, n = angle.shape
    out = np.empty((rows, 3 * n + n * (n - 1) // 2))
    half = 0.5 * drive
    out[:, :n] = half * np.cos(angle)
    out[:, n:2 * n] = half * np.sin(angle)
    out[:, 2 * n:3 * n] = 0.5 * detuning
    out[:, 3 * n:] = 0.25 * coupling
    return out


def _hamiltonians(coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_k coeffs[:, k] op_k over the operator table, shape (rows, d, d)."""
    d = 2 ** n
    return (coeffs @ _OPERATORS[n]).reshape(-1, d, d)


def _path_coefficients(p: PulseParams, times: Sequence[float]) -> np.ndarray:
    """Coefficient rows of H(t) on `_OPERATORS[p.n]`, one per time."""
    angle = np.multiply.outer(np.asarray(times, dtype=float), p.omega_rot) + p.phase
    coupling = np.array([p.couplings.get(pair, 0.0) for pair in _PAIRS[p.n]])
    return _coefficients(np.array(p.omega_drive), angle, np.array(p.detuning), coupling)


def hamiltonian_path(p: PulseParams, times: Sequence[float]) -> np.ndarray:
    """H(t) stacked over a time grid, shape (len(times), d, d)."""
    return _hamiltonians(_path_coefficients(p, times), p.n)


def frame_frequencies(p: PulseParams) -> np.ndarray:
    """Diagonal of Z = sum_i w_i sz_i in the computational basis. The frame
    R(t) = exp(-i t Z / 2) carries H(0) to H(t) = R(t) H(0) R(t)^dag."""
    return np.array(p.omega_rot) @ _SZ_DIAGONALS[p.n]


def invariant_path(p: PulseParams, times: Sequence[float]) -> np.ndarray:
    """I(t) = 2 H(t) - sum_i w_i sz_i stacked over a time grid."""
    return 2.0 * hamiltonian_path(p, times) - np.diag(frame_frequencies(p))


def _require_time(p: PulseParams, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= p.duration:
        raise ValidationError(f"time {t} outside [0, {p.duration}]")
    return t


def hamiltonian(p: PulseParams, t: float) -> np.ndarray:
    """The segment Hamiltonian at one instant; Hermitian and traceless."""
    t = _require_time(p, t)
    return hamiltonian_path(p, np.array([t]))[0]


def invariant(p: PulseParams, t: float) -> np.ndarray:
    """The dynamical invariant at one instant; Hermitian, constant spectrum."""
    t = _require_time(p, t)
    return invariant_path(p, np.array([t]))[0]


def _invariant_rate(p: PulseParams, t: float) -> np.ndarray:
    """dI/dt = sum_i W_i w_i (-sin(w_i t + f_i) sx_i + cos(w_i t + f_i) sy_i)."""
    angle = np.multiply(p.omega_rot, t) + p.phase
    rate = np.multiply(p.omega_drive, p.omega_rot)
    coeffs = np.zeros((1, len(_OPERATORS[p.n])))  # on sx_i, then sy_i
    coeffs[0, :p.n], coeffs[0, p.n:2 * p.n] = -rate * np.sin(angle), rate * np.cos(angle)
    return _hamiltonians(coeffs, p.n)[0]


def di_residual(p: PulseParams, t: float) -> float:
    """Frobenius norm of dI/dt + i[H, I] at one instant, with dI/dt in closed
    form (`_invariant_rate`): zero for the closed-form pair, up to rounding."""
    t = _require_time(p, _number(t, "t"))
    h, inv = hamiltonian_path(p, [t])[0], invariant_path(p, [t])[0]
    return float(np.linalg.norm(_invariant_rate(p, t) + 1j * (h @ inv - inv @ h)))
