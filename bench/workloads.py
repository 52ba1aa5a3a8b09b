"""Seeded inputs, tasks and output checks for the hologate benchmark.

Each workload is a pool of task specs drawn from the workload seed. The
benchmark cycles through the pool back to back; a task returns a
`TaskOutput` whose `digest` covers every output byte (used to show traced
and untraced runs agree) and whose `check` runs later, outside the timed
region. Importing this module puts the checkout's `src/` first on
`sys.path`, so the package under test is always the one beside the
benchmark, never an installed copy.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hologate" / "__init__.py").is_file():
    raise SystemExit(f"error: package sources not found at {SRC / 'hologate'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hologate  # noqa: E402
from hologate import (  # noqa: E402
    characterization, cli, linalg, model, propagation, synthesis, tables,
)

if Path(hologate.__file__).resolve().parent != SRC / "hologate":
    raise SystemExit(f"error: imported hologate from {hologate.__file__}, not from {SRC}")

TWO_PI = 2.0 * np.pi
#: Agreement required between a reported quantity and the ODE oracle.
ORACLE_TOL = 1e-6
#: Agreement required between QPT and the closed-form process fidelity.
QPT_TOL = 1e-9
#: Smallest gap between invariant eigenvalues of a generated segment, so the
#: eigenframe is non-degenerate and every verify input is valid.
MIN_INVARIANT_GAP = 0.3

WORKLOADS = ("search-2q", "verify", "characterize-1q")


@dataclass
class TaskOutput:
    """What one task produced. `payload` feeds the check; `digest` is the
    SHA-256 of every output byte the task produced."""

    digest: str
    payload: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    ok: bool
    reason: str = ""
    results: int = 1  # searches or verified sequences the task delivered
    solutions: int = 0  # of those, reached their accuracy goal and passed the check
    converged: int | None = None  # searches that reached the fidelity/score goal
    rb_error: float | None = None


@dataclass
class Workload:
    name: str
    specs: list
    run_task: Callable[[object, int], TaskOutput]
    check: Callable[[object, TaskOutput], CheckResult]
    #: Cost class of a task (sequence shape, target gate); task_s.p50 is the
    #: median over kinds of each kind's median, so the seed-drawn mix of
    #: kinds a run reaches cannot move it.
    kind: Callable[[object], str] = lambda spec: "task"


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else json.dumps(c, sort_keys=True).encode())
    return h.hexdigest()


def _window(center, rel: float) -> list[tuple[float, float]]:
    """Box of half-width rel * max(|v|, 1) around each two-qubit pulse
    parameter, floored at the package's lower bounds (nonnegative drive,
    positive frequency)."""
    out = []
    for v, (lo, _) in zip(center, synthesis.TWO_QUBIT_BOUNDS):
        h = rel * max(abs(v), 1.0)
        out.append((max(lo, v - h), v + h))
    return out


# ---------------------------------------------------------------- search-2q

@dataclass(frozen=True)
class SearchSpec:
    ent_bounds: tuple
    ent_seed: int
    ent_max_evals: int
    cnot: synthesis.SynthesisProblem


#: Relative half-width of the seed-drawn entangler search window; the
#: search converges from anywhere in it.
ENTANGLER_WINDOW = (0.05, 0.5)
#: Relative half-widths of the CNOT search windows, cycled in this order and
#: jittered by the seed by up to 10%. With its fixed evaluation budget the
#: search misses the fidelity goal from some starts in the widest window, so
#: `converged_ratio` and `solutions_per_s` see how often a search succeeds.
#: Cycling (rather than drawing) the widths keeps a run's share of hard
#: searches independent of the seed.
CNOT_WINDOWS = (0.01, 0.02, 0.03, 0.045)


def _search_specs(rng: np.random.Generator, count: int, tiny: bool) -> list[SearchSpec]:
    specs = []
    for i in range(count):
        ent = _window(tables.ENTANGLER_ROW, rng.uniform(*ENTANGLER_WINDOW))
        rel = CNOT_WINDOWS[i % len(CNOT_WINDOWS)] * rng.uniform(0.9, 1.1)
        cnot_bounds = [b for row in tables.CNOT_ROWS for b in _window(row, rel)]
        specs.append(SearchSpec(
            ent_bounds=tuple(ent),
            ent_seed=int(rng.integers(2**31)),
            ent_max_evals=10 if tiny else 50,
            cnot=synthesis.SynthesisProblem(
                target=linalg.named_gate("CNOT"), n_qubits=2, n_loops=5,
                seed=int(rng.integers(2**31)), restarts=1, bounds=tuple(cnot_bounds),
                coupling=tables.TWO_QUBIT_TABLE_COUPLING, target_name="CNOT",
                max_evals=1 if tiny else 40,
            ),
        ))
    return specs


def _run_search(spec: SearchSpec, index: int) -> TaskOutput:
    ent = synthesis.find_entangling(
        seed=spec.ent_seed, bounds=spec.ent_bounds, restarts=1,
        coupling=tables.TWO_QUBIT_TABLE_COUPLING, max_evals=spec.ent_max_evals,
    )
    cnot = synthesis.synthesize(spec.cnot)
    docs = [ent.to_dict(), cnot.to_dict()]
    return TaskOutput(_digest(*docs), {"ent": ent, "cnot": cnot})


def _ode_gate(seq) -> np.ndarray:
    u = np.eye(seq.segments[0].dim, dtype=complex)
    for seg in seq:
        u = propagation.ode_propagator(seg) @ u
    return u


def _check_search(spec: SearchSpec, out: TaskOutput) -> CheckResult:
    ent, cnot = out.payload["ent"], out.payload["cnot"]
    score = float(synthesis.correlation_singular_values(_ode_gate(ent.sequence))[1])
    fid = linalg.unitary_fidelity(spec.cnot.target, _ode_gate(cnot.sequence))
    ent_ok = abs(score - ent.entangling_score) <= ORACLE_TOL
    cnot_ok = abs(fid - cnot.fidelity) <= ORACLE_TOL
    reason = "; ".join(
        msg for ok, msg in (
            (ent_ok, f"entangling score {ent.entangling_score:.3g} vs oracle {score:.3g}"),
            (cnot_ok, f"CNOT fidelity {cnot.fidelity:.9f} vs oracle {fid:.9f}"),
        ) if not ok
    )
    return CheckResult(
        ok=ent_ok and cnot_ok, reason=reason, results=2,
        converged=int(ent.converged) + int(cnot.converged),
        solutions=int(ent.converged and ent_ok) + int(cnot.converged and cnot_ok),
    )


# ------------------------------------------------------------------- verify

#: (qubits, segments) of the generated sequences, cycled in this order. A
#: kind's segment flavors are fixed too (flavor k + j for segment j of kind
#: k), so each kind keeps its grid sizes and a run's mix of task costs does
#: not depend on the seed, which draws every continuous parameter.
#: Two-qubit sequences stop at three segments: the eigenframe and ODE grids
#: each leave up to ~2.5e-7 per segment here, and the report's oracle
#: distance is checked against 1e-6 for the whole sequence. The published
#: five-pulse CNOT supplies the longer two-qubit case.
VERIFY_KINDS = ((1, 1), (2, 1), (1, 3), (2, 2), (1, 5), (2, 3), (1, 2))
#: "commensurate" drives the second qubit at twice the first one's frequency;
#: on one qubit it is a plain one-period segment.
FLAVORS = ("one-period", "two-period", "reversed", "commensurate")


def _cyclic_segment(rng: np.random.Generator, n: int, flavor: str) -> model.PulseParams:
    while True:
        base = rng.uniform(2.0, 4.0)
        duration = TWO_PI / base
        omegas = (base,) * n
        if flavor == "two-period":
            duration *= 2
        elif flavor == "reversed":
            omegas = (-base,) * n
        elif flavor == "commensurate" and n == 2:
            omegas = (base, 2 * base)
        p = model.PulseParams(
            n=n,
            omega_drive=tuple(rng.uniform(0.2, 2.0, n)),
            omega_rot=omegas,
            phase=tuple(rng.uniform(0.0, TWO_PI, n)),
            detuning=tuple(rng.uniform(-1.0, 2.0, n)),
            couplings={(0, 1): rng.uniform(0.3, 1.0)} if n == 2 else {},
            duration=duration,
        )
        if np.diff(np.linalg.eigvalsh(model.invariant(p, 0.0))).min() > MIN_INVARIANT_GAP:
            return p


@dataclass(frozen=True)
class VerifySpec:
    label: str
    kind: str  # "<qubits>q-<segments>seg", or "tables"
    text: str | None  # LoopSequence JSON; None for the `tables` task


def _shape(seq: model.LoopSequence) -> str:
    return f"{seq.segments[0].n}q-{len(seq.segments)}seg"


def _verify_specs(rng: np.random.Generator, count: int, tiny: bool) -> list[VerifySpec]:
    specs = [VerifySpec("tables", "tables", None)]
    published = [(f"table-{g}", tables.single_qubit_sequence(g)) for g in tables.SINGLE_QUBIT_LOOPS]
    published += [
        ("table-P_fast", tables.fast_phase_sequence()),
        ("table-CNOT", tables.cnot_sequence()),
        ("table-entangler", model.LoopSequence((tables.entangler_params(),))),
    ]
    if not tiny:
        specs += [VerifySpec(label, _shape(seq), seq.dumps()) for label, seq in published]
    for i in range(count - len(specs)):
        k = i % len(VERIFY_KINDS)
        n, n_seg = VERIFY_KINDS[k]
        segs = tuple(
            _cyclic_segment(rng, n, FLAVORS[(k + j) % len(FLAVORS)]) for j in range(n_seg)
        )
        seq = model.LoopSequence(segs)
        specs.append(VerifySpec(f"random-{_shape(seq)}", _shape(seq), seq.dumps()))
    return specs


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _make_verify_task(workdir: Path):
    def run(spec: VerifySpec, index: int) -> TaskOutput:
        if spec.text is None:
            report = workdir / f"task{index}-tables.json"
            rc = _cli(["tables", "--output", str(report)])
            data = report.read_bytes()
            return TaskOutput(_digest(data), {"rc": [rc], "tables": data})
        inp = workdir / f"{spec.label}-{index}.json"
        inp.write_text(spec.text)
        gate, ph = workdir / f"task{index}-gate.json", workdir / f"task{index}-phases.json"
        rc_gate = _cli(["gate", "--input", str(inp), "--output", str(gate)])
        rc_phases = _cli(["phases", "--input", str(inp), "--output", str(ph)])
        g, p = gate.read_bytes(), ph.read_bytes()
        return TaskOutput(_digest(g, p), {"rc": [rc_gate, rc_phases], "gate": g, "phases": p})

    return run


def _check_verify(spec: VerifySpec, out: TaskOutput) -> CheckResult:
    problems = [f"exit code {rc}" for rc in out.payload["rc"] if rc != 0]
    if spec.text is None:
        failed = json.loads(out.payload["tables"])["n_failed"]
        if failed:
            problems.append(f"tables: {failed} checks failed")
    else:
        dist = json.loads(out.payload["gate"])["oracle_distance"]
        mismatch = json.loads(out.payload["phases"])["phase_closure_mismatch"]
        if not dist < ORACLE_TOL:
            problems.append(f"oracle_distance {dist:.3g}")
        if not mismatch < ORACLE_TOL:
            problems.append(f"phase_closure_mismatch {mismatch:.3g}")
    ok = not problems
    return CheckResult(ok=ok, reason="; ".join(problems), solutions=int(ok))


# ---------------------------------------------------------- characterize-1q

CHARACTERIZE_GATES = ("X", "Y", "Z", "H", "P", "T")


@dataclass(frozen=True)
class CharacterizeSpec:
    problem: synthesis.SynthesisProblem
    amplitude_error: float  # relative drive-amplitude miscalibration
    eps_clifford: float
    eps_target: float
    rb_seed: int
    m_values: tuple[int, ...]
    n_sequences: int


def _characterize_specs(rng: np.random.Generator, count: int, tiny: bool) -> list[CharacterizeSpec]:
    specs = []
    while len(specs) < count:
        # every gate equally often, in a seed-drawn order
        for gate in rng.permutation(CHARACTERIZE_GATES):
            specs.append(CharacterizeSpec(
                problem=synthesis.SynthesisProblem(
                    target=linalg.named_gate(str(gate)), n_qubits=1, n_loops=2,
                    seed=int(rng.integers(2**31)), restarts=2 if tiny else 8,
                    target_name=str(gate), max_evals=50 if tiny else 200,
                ),
                amplitude_error=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.10)),
                eps_clifford=float(rng.uniform(0.001, 0.01)),
                eps_target=float(rng.uniform(0.0, 0.01)),
                rb_seed=int(rng.integers(2**31)),
                m_values=(1, 2, 4, 8) if tiny else (2, 4, 8, 16, 32, 64),
                n_sequences=4 if tiny else 40,
            ))
    return specs[:count]


def miscalibrate(seq: model.LoopSequence, rel: float) -> model.LoopSequence:
    """Scale every drive amplitude by (1 + rel). Drive frequencies and
    durations are untouched, so every segment stays cyclic."""
    return model.LoopSequence(tuple(
        dataclasses.replace(seg, omega_drive=tuple(w * (1.0 + rel) for w in seg.omega_drive))
        for seg in seq
    ))


def average_gate_fidelity(u: np.ndarray, v: np.ndarray, eps: float) -> float:
    """Average gate fidelity of "U, then depolarize by eps" against V.

    The Pauli transfer matrix of U followed by depolarizing keeps the
    identity row and scales the rest by (1 - eps), so the process fidelity is
    (1 + (1 - eps)(|tr V^dag U|^2 - 1)) / d^2.
    """
    d = u.shape[0]
    overlap = abs(np.trace(v.conj().T @ u)) ** 2
    f_pro = (1.0 + (1.0 - eps) * (overlap - 1.0)) / d**2
    return (d * f_pro + 1.0) / (d + 1.0)


def _run_characterize(spec: CharacterizeSpec, index: int) -> TaskOutput:
    result = synthesis.synthesize(spec.problem)
    seq = miscalibrate(result.sequence, spec.amplitude_error)
    u = propagation.sequence_propagator(seq)
    name = spec.problem.target_name
    run = characterization.rb_run(
        target=seq, target_ideal=name, eps_clifford=spec.eps_clifford,
        eps_target=spec.eps_target, m_values=spec.m_values,
        n_sequences=spec.n_sequences, seed=spec.rb_seed,
    )
    f_rb = characterization.rb_gate_fidelity(run.reference, run.interleaved)
    channel = characterization.ChannelSequence([
        characterization.UnitaryChannel(u),
        characterization.DepolarizingChannel(spec.eps_target, 1),
    ])
    transfer, settings = characterization.simulate_qpt(channel)
    ideal = characterization.pauli_transfer(
        characterization.UnitaryChannel(linalg.named_gate(name)))
    f_qpt = characterization.process_fidelity(transfer, ideal)
    docs = [result.to_dict(), run.reference.to_dict(), run.interleaved.to_dict(),
            transfer.to_dict(), settings, f_rb, f_qpt]
    return TaskOutput(_digest(*docs), {
        "converged": result.converged, "u": u, "settings": settings,
        "n": transfer.n, "f_rb": f_rb, "f_qpt": f_qpt,
    })


def _check_characterize(spec: CharacterizeSpec, out: TaskOutput) -> CheckResult:
    p = out.payload
    f_true = average_gate_fidelity(p["u"], spec.problem.target, spec.eps_target)
    problems = []
    expected = 4 ** p["n"] * (4 ** p["n"] - 1)
    if p["settings"] != expected:
        problems.append(f"QPT used {p['settings']} settings, expected {expected}")
    if not abs(p["f_qpt"] - f_true) <= QPT_TOL:
        problems.append(f"QPT fidelity {p['f_qpt']:.12f} vs closed form {f_true:.12f}")
    ok = not problems
    return CheckResult(
        ok=ok, reason="; ".join(problems), converged=int(p["converged"]),
        solutions=int(ok and p["converged"]), rb_error=abs(p["f_rb"] - f_true),
    )


# ------------------------------------------------------------------ factory

#: Pool sizes: larger than any run at the default run length gets through,
#: so a run never repeats an input.
POOL_SIZE = {"search-2q": 64, "verify": 192, "characterize-1q": 192}


def build(name: str, seed: int, tiny: bool = False, workdir: Path | None = None) -> Workload:
    """The workload's task pool, drawn from `seed` alone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(name)]))
    count = 2 if tiny else POOL_SIZE[name]
    if name == "search-2q":
        return Workload(name, _search_specs(rng, count, tiny), _run_search, _check_search)
    if name == "verify":
        run = _make_verify_task(workdir) if workdir is not None else None
        return Workload(name, _verify_specs(rng, count, tiny), run, _check_verify,
                        kind=lambda spec: spec.kind)
    if name == "characterize-1q":
        return Workload(name, _characterize_specs(rng, count, tiny), _run_characterize,
                        _check_characterize, kind=lambda spec: spec.problem.target_name)
    raise ValueError(f"unknown workload {name!r}")
