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
carries the exact evolution.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import ValidationError, pauli_on

TWO_PI = 2.0 * np.pi

#: Absolute tolerance on |w| * duration / 2pi being a positive integer.
CYCLIC_ATOL = 1e-8


def _as_tuple(values, n: int, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in np.atleast_1d(values))
    if len(out) != n:
        raise ValidationError(f"{name} must have length {n}, got {len(out)}")
    return out


def _normalize_couplings(couplings, n: int) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for key, value in dict(couplings or {}).items():
        if isinstance(key, str):
            i, j = (int(part) for part in key.split(","))
        else:
            i, j = (int(part) for part in key)
        if not (0 <= i < j < n):
            raise ValidationError(f"coupling key {(i, j)} must satisfy 0 <= i < j < n")
        out[(i, j)] = float(value)
    return dict(sorted(out.items()))


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
        n = int(self.n)
        if not 1 <= n <= 3:
            raise ValidationError(f"qubit count must be 1..3, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega_drive", _as_tuple(self.omega_drive, n, "omega_drive"))
        object.__setattr__(self, "omega_rot", _as_tuple(self.omega_rot, n, "omega_rot"))
        object.__setattr__(self, "phase", tuple(p % TWO_PI for p in _as_tuple(self.phase, n, "phase")))
        object.__setattr__(self, "detuning", _as_tuple(self.detuning, n, "detuning"))
        object.__setattr__(self, "couplings", _normalize_couplings(self.couplings, n))
        object.__setattr__(self, "duration", float(self.duration))
        if any(om < 0 for om in self.omega_drive):
            raise ValidationError("drive amplitudes must be nonnegative")
        if not self.duration > 0:
            raise ValidationError("duration must be positive")

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

    def is_cyclic(self, atol: float = CYCLIC_ATOL) -> bool:
        for k in self.cycle_counts():
            if k < 0.5 or abs(k - round(k)) > atol:
                return False
        return True

    def require_cyclic(self, atol: float = CYCLIC_ATOL) -> None:
        if not self.is_cyclic(atol):
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
        n = int(n if n is not None else len(doc["omega_drive"]))
        return cls(
            n=n,
            omega_drive=doc["omega_drive"],
            omega_rot=doc["omega_rot"],
            phase=doc["phase"],
            detuning=doc["detuning"],
            couplings=doc.get("couplings", {}),
            duration=doc["duration"],
        )


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

    def to_dict(self, unit: str = "absolute") -> dict:
        if unit not in ("J", "absolute"):
            raise ValidationError(f"unit must be 'J' or 'absolute', got {unit!r}")
        return {
            "n": self.n,
            "unit": unit,
            "segments": [seg.to_dict() for seg in self.segments],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "LoopSequence":
        unit = doc.get("unit", "absolute")
        if unit not in ("J", "absolute"):
            raise ValidationError(f"unit must be 'J' or 'absolute', got {unit!r}")
        n = int(doc["n"])
        return cls(tuple(PulseParams.from_dict(seg, n=n) for seg in doc["segments"]))

    def dumps(self, unit: str = "absolute") -> str:
        return json.dumps(self.to_dict(unit=unit), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "LoopSequence":
        return cls.from_dict(json.loads(text))


def _drive_terms(p: PulseParams):
    """Per-qubit (sx_i, sy_i) operators plus the static Zeeman/Ising parts."""
    n = p.n
    sx = [pauli_on(n, i, "X") for i in range(n)]
    sy = [pauli_on(n, i, "Y") for i in range(n)]
    sz = [pauli_on(n, i, "Z") for i in range(n)]
    static_h = sum(0.5 * p.detuning[i] * sz[i] for i in range(n))
    static_h = static_h + sum(
        0.25 * J * (sz[i] @ sz[j]) for (i, j), J in p.couplings.items()
    )
    zrot = sum(p.omega_rot[i] * sz[i] for i in range(n))
    return sx, sy, np.asarray(static_h, dtype=complex), np.asarray(zrot, dtype=complex)


def hamiltonian_path(p: PulseParams, times: Sequence[float]) -> np.ndarray:
    """H(t) stacked over a time grid, shape (len(times), d, d)."""
    times = np.asarray(times, dtype=float)
    sx, sy, static_h, _ = _drive_terms(p)
    out = np.broadcast_to(static_h, (times.size,) + static_h.shape).copy()
    for i in range(p.n):
        om = p.omega_drive[i]
        if om == 0.0:
            continue
        arg = p.omega_rot[i] * times + p.phase[i]
        out += 0.5 * om * np.cos(arg)[:, None, None] * sx[i]
        out += 0.5 * om * np.sin(arg)[:, None, None] * sy[i]
    return out


def invariant_from_hamiltonian(p: PulseParams, h_path: np.ndarray) -> np.ndarray:
    """I(t) = 2 H(t) - sum_i w_i sz_i from H(t) already sampled on a grid."""
    _, _, _, zrot = _drive_terms(p)
    return 2.0 * h_path - zrot


def invariant_path(p: PulseParams, times: Sequence[float]) -> np.ndarray:
    """I(t) = 2 H(t) - sum_i w_i sz_i stacked over a time grid."""
    return invariant_from_hamiltonian(p, hamiltonian_path(p, times))


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


def di_residual(p: PulseParams, t: float, dt: float) -> float:
    """Frobenius norm of dI/dt + i[H, I] with a central finite difference.

    For the closed-form pair the exact residual is zero; the returned value
    is the O(dt^2) discretization error of the derivative.
    """
    t = float(t)
    dt = float(dt)
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if t - dt < 0.0 or t + dt > p.duration:
        raise ValidationError("central difference leaves the segment interval")
    stencil = invariant_path(p, np.array([t - dt, t, t + dt]))
    idot = (stencil[2] - stencil[0]) / (2.0 * dt)
    h = hamiltonian_path(p, np.array([t]))[0]
    comm = h @ stencil[1] - stencil[1] @ h
    return float(np.linalg.norm(idot + 1j * comm))
