"""Command-line front end: verify the embedded reference tables, synthesize
gates, run phase/propagator diagnostics, and drive QPT/RB campaigns.

Reports are JSON (and CSV for decay curves) with floats serialized at 12
significant digits, so identical runs produce byte-identical files. Exit
codes: 0 success, 1 a verification check failed, 2 invalid input.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .linalg import GATES, ValidationError, named_gate, pauli_on, unitary_fidelity
from .model import LoopSequence, di_residual, hamiltonian_path, invariant_path
from .propagation import (
    ode_propagator,
    sequence_evolution,
    sequence_phases,
    sequence_propagator,
)
from .synthesis import (
    SynthesisProblem,
    correlation_singular_values,
    find_entangling,
    gate_length,
    objective,
    synthesize,
)
from .characterization import (
    DepolarizingChannel,
    ChannelSequence,
    UnitaryChannel,
    process_fidelity,
    qpt_setting_count,
    rb_gate_fidelity,
    rb_run,
    simulate_qpt,
)
from . import tables

SIG_DIGITS = 12


def _round(obj):
    """Recursively round floats to a fixed significant-digit budget."""
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.{SIG_DIGITS}g}")
    if isinstance(obj, np.ndarray):
        return _round(obj.tolist())
    return obj


def dumps_report(doc: dict) -> str:
    return json.dumps(_round(doc), indent=2, sort_keys=True) + "\n"


def _emit(doc: dict, output: str | None) -> None:
    text = dumps_report(doc)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _matrix_doc(u: np.ndarray) -> dict:
    return {"real": u.real.tolist(), "imag": u.imag.tolist()}


def _load_sequence(path: str) -> LoopSequence:
    return LoopSequence.loads(Path(path).read_text())


def _check(name: str, value: float, threshold: float, kind: str) -> dict:
    ok = value >= threshold if kind == "min" else value <= threshold
    return {"name": name, "value": value, "threshold": threshold,
            "kind": kind, "pass": bool(ok)}


def _print_checks(checks: list[dict]) -> None:
    for c in checks:
        rel = ">=" if c["kind"] == "min" else "<="
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status}  {c['name']}: {c['value']:.6g} {rel} {c['threshold']:.6g}")


def cmd_tables(args) -> int:
    checks: list[dict] = []
    for gate, published in tables.PUBLISHED_GATE_LENGTHS.items():
        if gate == "P_fast":
            seq = tables.fast_phase_sequence()
            target = named_gate("P")
        else:
            seq = tables.single_qubit_sequence(gate)
            target = named_gate(gate)
        u, gd = sequence_evolution(seq)
        checks.append(_check(f"fidelity[{gate}]", unitary_fidelity(target, u), 0.999, "min"))
        checks.append(_check(f"dynamical_phase[{gate}]", float(np.abs(gd).max()), 1e-4, "max"))
        rel = abs(gate_length(seq) - published) / published
        checks.append(_check(f"gate_length[{gate}]", rel, 1e-2, "max"))

    cnot = tables.cnot_sequence()
    u, gd = sequence_evolution(cnot)
    checks.append(_check("fidelity[CNOT]", unitary_fidelity(named_gate("CNOT"), u), 0.99, "min"))
    for k, (seg, seg_gd) in enumerate(zip(cnot, gd)):
        bound = 1e-2 * seg.couplings[(0, 1)] * seg.duration
        checks.append(_check(f"dynamical_phase[CNOT P{k + 1}]",
                             float(np.abs(seg_gd).max()), bound, "max"))

    u_ent = sequence_propagator(LoopSequence((tables.entangler_params(),)))
    sv = correlation_singular_values(u_ent)
    checks.append(_check("entangling_score[table]", float(sv[1]), 1e-2, "max"))
    checks.append(_check("non_separability[table]", float(sv[2]), 1e-2, "min"))

    _print_checks(checks)
    failed = [c for c in checks if not c["pass"]]
    doc = {"command": "tables", "checks": checks, "n_failed": len(failed)}
    if args.output:
        Path(args.output).write_text(dumps_report(doc))
    return 1 if failed else 0


def _pauli_sum_invariant(seg, t: float) -> np.ndarray:
    """I(t) written out term by term as the Pauli sum of the `model`
    docstring, apart from the operator table `invariant_path` uses."""
    out = np.zeros((seg.dim, seg.dim), dtype=complex)
    for i in range(seg.n):
        angle = seg.omega_rot[i] * t + seg.phase[i]
        out += seg.omega_drive[i] * (np.cos(angle) * pauli_on(seg.n, i, "X")
                                     + np.sin(angle) * pauli_on(seg.n, i, "Y"))
        out += (seg.detuning[i] - seg.omega_rot[i]) * pauli_on(seg.n, i, "Z")
    for (i, j), coupling in seg.couplings.items():
        out += 0.5 * coupling * pauli_on(seg.n, i, "Z") @ pauli_on(seg.n, j, "Z")
    return out


def cmd_verify_di(args) -> int:
    seq = _load_sequence(args.input)
    report = []
    ok = True
    for k, seg in enumerate(seq):
        ts = np.linspace(0.1, 0.9, 5) * seg.duration
        invariants = invariant_path(seg, ts)
        identity_err = max(float(np.linalg.norm(inv - _pauli_sum_invariant(seg, t)))
                           for inv, t in zip(invariants, ts))
        residuals = [di_residual(seg, float(t)) for t in ts]
        # dI/dt is closed form, so only rounding in the commutator remains:
        # the bound scales with ||H|| ||I||
        seg_ok = identity_err < 1e-12 and all(
            r <= 1e-13 * max(1.0, float(np.linalg.norm(h) * np.linalg.norm(inv)))
            for r, h, inv in zip(residuals, hamiltonian_path(seg, ts), invariants))
        ok = ok and seg_ok
        residual = max(residuals)
        report.append({"segment": k, "identity_error": identity_err,
                       "di_residual": residual, "pass": bool(seg_ok)})
        print(f"{'PASS' if seg_ok else 'FAIL'}  segment {k}: "
              f"identity {identity_err:.3g}, residual {residual:.3g}")
    _emit({"command": "verify-di", "segments": report}, args.output)
    return 0 if ok else 1


def cmd_phases(args) -> int:
    seq = _load_sequence(args.input)
    records = sequence_phases(seq)
    mismatch = max(
        max(abs(np.exp(1j * a) - np.exp(1j * (g + d)))
            for a, g, d in zip(r.alpha_total, r.gamma_geometric, r.gamma_dynamical))
        for r in records
    )
    _emit({"command": "phases", "segments": [r.to_dict() for r in records],
           "phase_closure_mismatch": float(mismatch)}, args.output)
    return 0


def cmd_gate(args) -> int:
    seq = _load_sequence(args.input)
    u = sequence_propagator(seq)
    u_ode = np.eye(seq.segments[0].dim, dtype=complex)
    for seg in seq:
        u_ode = ode_propagator(seg) @ u_ode
    doc = {
        "command": "gate",
        "oracle_distance": float(np.linalg.norm(u - u_ode)),
        "gate_length": gate_length(seq),
        "matrix": _matrix_doc(u),
    }
    if args.target:
        doc["target"] = args.target
        doc["fidelity"] = unitary_fidelity(named_gate(args.target), u)
    _emit(doc, args.output)
    return 0


def cmd_synth(args) -> int:
    problem = SynthesisProblem.from_dict(json.loads(Path(args.input).read_text()))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    if args.penalty is not None:
        overrides["penalty_weight"] = args.penalty
    if overrides:
        doc = problem.__dict__ | overrides
        problem = SynthesisProblem(**doc)
    result = synthesize(problem)
    final_objective = objective(problem.target, result.sequence, problem.penalty_weight)
    doc = {"command": "synth", "problem_target": problem.target_name,
           "objective": final_objective} | result.to_dict()
    print(f"fidelity {result.fidelity:.6f}  gate length {result.gate_length:.4f}  "
          f"loops {len(result.sequence)}")
    if not result.converged:
        print("warning: synthesis did not reach the fidelity goal", file=sys.stderr)
    _emit(doc, args.output)
    return 0


def cmd_entangle(args) -> int:
    result = find_entangling(seed=args.seed or 0, restarts=args.restarts,
                             penalty_weight=10.0 if args.penalty is None else args.penalty,
                             coupling=args.coupling, max_evals=args.max_evals)
    print(f"entangling score {result.entangling_score:.3e}  "
          f"converged {result.converged}")
    if not result.converged:
        print("warning: no certified entangler found", file=sys.stderr)
    _emit({"command": "entangle"} | result.to_dict(), args.output)
    return 0


def _channel_for(args):
    if args.gate:
        u = named_gate(args.gate)
        ideal_name = args.target or args.gate
    else:
        seq = _load_sequence(args.input)
        u = sequence_propagator(seq)
        ideal_name = args.target
    channel = UnitaryChannel(u)
    if args.noise_eps:
        channel = ChannelSequence([channel, DepolarizingChannel(args.noise_eps, channel.n)])
    return channel, ideal_name


def cmd_qpt(args) -> int:
    if not args.gate and not args.input:
        raise ValidationError("qpt needs --gate or --input")
    channel, ideal_name = _channel_for(args)
    transfer, settings = simulate_qpt(channel)
    doc = {
        "command": "qpt",
        "settings": settings,
        "expected_settings": qpt_setting_count(transfer.n),
        "transfer": transfer.to_dict(),
    }
    if ideal_name:
        ideal = UnitaryChannel(named_gate(ideal_name))
        doc["target"] = ideal_name
        doc["process_fidelity"] = process_fidelity(transfer, ideal)
    _emit(doc, args.output)
    return 0


def cmd_rb(args) -> int:
    target = args.gate or (_load_sequence(args.input) if args.input else None)
    try:
        m_values = tuple(int(v) for v in args.m_values.split(","))
    except ValueError:
        raise ValidationError(f"--m-values must be integers, got {args.m_values!r}") from None
    run = rb_run(
        target=target,
        target_ideal=args.target,
        eps_clifford=args.noise_eps,
        eps_target=args.target_eps,
        m_values=m_values,
        n_sequences=args.n_seq,
        seed=args.seed or 0,
    )
    doc = {"command": "rb", "reference": run.reference.to_dict()}
    if run.interleaved is not None:
        doc["interleaved"] = run.interleaved.to_dict()
        if run.reference.converged and run.interleaved.converged:
            doc["gate_fidelity"] = rb_gate_fidelity(run.reference, run.interleaved, n=1)
        else:
            print("warning: decay fit did not converge; raw data written",
                  file=sys.stderr)
    if args.output:
        prefix = Path(args.output)
        ref_csv = prefix.with_name(prefix.stem + "_reference.csv")
        ref_csv.write_text(run.reference.to_csv())
        if run.interleaved is not None:
            inter_csv = prefix.with_name(prefix.stem + "_interleaved.csv")
            inter_csv.write_text(run.interleaved.to_csv())
    _emit(doc, args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each subcommand runs
    the `cmd_<name>` function of this module, looked up when it is called."""
    parser = argparse.ArgumentParser(
        prog="hologate",
        description="Holonomic gate synthesis and verification via dynamical invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        """--output, plus --seed when the subcommand reads it."""
        p.add_argument("--output", help="write the JSON report here")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("tables", help="verify the embedded published tables")
    common(p)

    p = sub.add_parser("verify-di", help="check the invariant identity and residual")
    common(p)
    p.add_argument("--input", required=True, help="LoopSequence JSON")

    p = sub.add_parser("phases", help="geometric/dynamical phase split per segment")
    common(p)
    p.add_argument("--input", required=True, help="LoopSequence JSON")

    p = sub.add_parser("gate", help="propagate a sequence and compare to a target")
    common(p)
    p.add_argument("--input", required=True, help="LoopSequence JSON")
    p.add_argument("--target", choices=sorted(GATES), default=None)

    p = sub.add_parser("synth", help="synthesize pulses for a target gate")
    common(p, seed=True)
    p.add_argument("--input", required=True, help="SynthesisProblem JSON")
    p.add_argument("--restarts", type=int, default=None,
                   help="simplex restarts of two-qubit problems; a single-qubit problem "
                        "is solved exactly and reads neither this nor --seed")
    p.add_argument("--penalty", type=float, default=None)

    p = sub.add_parser("entangle", help="search for a single-loop entangling gate")
    common(p, seed=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--max-evals", type=int, default=None,
                   help="per-restart simplex evaluation budget")

    def gate_or_input(p, input_help):
        """--gate and --input, at most one of them."""
        group = p.add_mutually_exclusive_group()
        group.add_argument("--gate", choices=sorted(GATES), default=None)
        group.add_argument("--input", default=None, help=input_help)

    p = sub.add_parser("qpt", help="Pauli-basis process tomography of a gate")
    common(p)
    gate_or_input(p, "LoopSequence JSON")
    p.add_argument("--target", choices=sorted(GATES), default=None,
                   help="ideal gate for the fidelity comparison")
    p.add_argument("--noise-eps", type=float, default=0.0)

    p = sub.add_parser("rb", help="reference + interleaved randomized benchmarking")
    common(p, seed=True)
    gate_or_input(p, "LoopSequence JSON for the target")
    p.add_argument("--target", choices=sorted(GATES), default=None,
                   help="intended gate used for the recovery inversion")
    p.add_argument("--noise-eps", type=float, default=0.0,
                   help="depolarizing strength after each Clifford")
    p.add_argument("--target-eps", type=float, default=0.0,
                   help="depolarizing strength after each interleaved target")
    p.add_argument("--m-values", default="2,4,8,16,32,64")
    p.add_argument("--n-seq", type=int, default=40)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a wrapper bound to the module name sees the call
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValidationError, OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
