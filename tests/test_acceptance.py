"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import json

import numpy as np
import pytest

from hologate import (
    DepolarizingChannel,
    ChannelSequence,
    LoopSequence,
    RBRecord,
    SynthesisProblem,
    UnitaryChannel,
    di_residual,
    eigenframe_propagator,
    hamiltonian,
    invariant,
    named_gate,
    ode_propagator,
    pauli_transfer,
    phases,
    qpt_setting_count,
    rb_gate_fidelity,
    rb_run,
    sequence_phases,
    sequence_propagator,
    simulate_qpt,
    synthesize,
    unitary_fidelity,
)
from hologate import tables
from hologate.cli import main as cli_main
from hologate.synthesis import correlation_singular_values, gate_length
from conftest import assemble_invariant, random_cyclic_params
from reference import (
    build_eigenframe,
    depolarizing_map,
    map_transfer,
    sequence_map,
    unitary_exp,
    unitary_map,
)

N_DRAWS = 100


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def draws():
    rng = np.random.default_rng(987654321)
    return [random_cyclic_params(rng, 1 + k % 2) for k in range(N_DRAWS)]


@pytest.fixture(scope="module")
def propagator_pairs(draws):
    return [(p, eigenframe_propagator(p), ode_propagator(p)) for p in draws]


def test_criterion_1_di_identity(draws):
    worst_identity = 0.0
    worst_residual = 0.0
    for p in draws:
        for frac in (0.25, 0.5, 0.75):
            t = frac * p.duration
            worst_identity = max(
                worst_identity,
                float(np.linalg.norm(invariant(p, t) - assemble_invariant(p, t))),
            )
            # dI/dt is closed form: the residual is rounding in [H, I]
            scale = max(1.0, float(np.linalg.norm(hamiltonian(p, t))
                                   * np.linalg.norm(invariant(p, t))))
            worst_residual = max(worst_residual, di_residual(p, t) / scale)
    ok = worst_identity < 1e-12 and worst_residual <= 1e-13
    report(1, ok, f"identity max {worst_identity:.2e} (< 1e-12), residual / "
                  f"max(1, ||H|| ||I||) max {worst_residual:.2e} (<= 1e-13), "
                  f"{len(draws)} draws")


def test_criterion_2_oracle_equivalence(propagator_pairs):
    worst = max(float(np.linalg.norm(uf - uo)) for _, uf, uo in propagator_pairs)
    report(2, worst < 1e-6,
           f"max Frobenius distance {worst:.2e} (< 1e-6) over {len(propagator_pairs)} draws")


def test_criterion_3_phase_decomposition(propagator_pairs):
    worst = 0.0
    for p, _, uo in propagator_pairs:
        frame = build_eigenframe(p)
        rec = phases(p)
        # total phases measured on the independent integration oracle
        diag = np.einsum("ik,ij,jk->k", frame.vectors[0].conj(), uo, frame.vectors[0])
        alpha = np.angle(diag)
        target = np.asarray(rec.gamma_geometric) + np.asarray(rec.gamma_dynamical)
        worst = max(worst, float(np.abs(np.exp(1j * alpha) - np.exp(1j * target)).max()))
    report(3, worst < 1e-6,
           f"max circle distance between alpha and gg+gd {worst:.2e} (< 1e-6)")


def test_criterion_4_published_single_qubit_tables():
    details = []
    ok = True
    for gate in ("X", "H", "P", "T"):
        seq = tables.single_qubit_sequence(gate)
        fid = unitary_fidelity(named_gate(gate), sequence_propagator(seq))
        gd = max(max(abs(g) for g in rec.gamma_dynamical) for rec in sequence_phases(seq))
        rel = abs(gate_length(seq) - tables.PUBLISHED_GATE_LENGTHS[gate]) / \
            tables.PUBLISHED_GATE_LENGTHS[gate]
        ok = ok and fid >= 0.999 and gd < 1e-4 and rel < 1e-2
        details.append(f"{gate}: F={fid:.5f} |gd|={gd:.1e} dlen={rel:.1e}")
    fast = tables.fast_phase_sequence()
    rel_fast = abs(gate_length(fast) - tables.PUBLISHED_GATE_LENGTHS["P_fast"]) / \
        tables.PUBLISHED_GATE_LENGTHS["P_fast"]
    fid_fast = unitary_fidelity(named_gate("P"), sequence_propagator(fast))
    ok = ok and rel_fast < 1e-2
    details.append(f"fast P: dlen={rel_fast:.1e} (F={fid_fast:.5f})")
    report(4, ok, "; ".join(details))


def test_criterion_5_published_cnot_table():
    seq = tables.cnot_sequence()
    fid = unitary_fidelity(named_gate("CNOT"), sequence_propagator(seq))
    worst_ratio = 0.0
    for seg, rec in zip(seq, sequence_phases(seq)):
        bound = 1e-2 * seg.couplings[(0, 1)] * seg.duration
        worst_ratio = max(worst_ratio, max(abs(g) for g in rec.gamma_dynamical) / bound)
    ok = fid >= 0.99 and worst_ratio < 1.0
    report(5, ok, f"fidelity {fid:.5f} (>= 0.99), per-pulse |gd| at most "
                  f"{worst_ratio:.2f} of the 1e-2*J*tau bound")


def test_criterion_6_published_entangler():
    p = tables.entangler_params()
    u = sequence_propagator(LoopSequence((p,)))
    sv = correlation_singular_values(u)
    ok = sv[1] < 1e-2 and sv[2] > 1e-2
    report(6, ok, f"entangling score {sv[1]:.2e} (< 1e-2), "
                  f"third singular value {sv[2]:.3f} (> 1e-2, not rank-1)")


def test_criterion_7_synthesis_from_scratch():
    details = []
    ok = True
    for gate in ("X", "H", "P", "T"):
        problem = SynthesisProblem(target=named_gate(gate), n_qubits=1, n_loops=2)
        result = synthesize(problem)
        ok = ok and result.fidelity >= 0.999 and result.converged
        details.append(f"{gate}: F={result.fidelity:.6f}")
    report(7, ok, "; ".join(details) + " (two loops each, solved in closed form)")


def test_criterion_8_rb_oracle():
    details = []
    ok = True
    for eps in (0.005, 0.01, 0.02):
        run = rb_run(eps_clifford=eps, seed=8)
        p_hat = run.reference.fit[1]
        sigma = run.reference.fit_stderr[1]
        # the 1e-9 floor absorbs pure float roundoff in an exact-data fit
        good = abs(p_hat - (1.0 - eps)) <= 2.0 * sigma + 1e-9
        ok = ok and good
        details.append(f"eps={eps}: p={p_hat:.6f}")
    noiseless = rb_run(seed=9)
    ok = ok and noiseless.reference.fit[1] == 1.0
    details.append("noiseless p == 1.0")
    formula_ok = True
    for p_ref in (1.0, 0.99, 0.9):
        for p_gate in (1.0, 0.98, 0.5):
            for n in (1, 2):
                ref = RBRecord("reference", (2,), (1.0,), (0.0,), 1,
                               (0.5, p_ref, 0.5), (0.0, 0.0, 0.0), True)
                inter = RBRecord("interleaved", (2,), (1.0,), (0.0,), 1,
                                 (0.5, p_gate, 0.5), (0.0, 0.0, 0.0), True)
                d = 2 ** n
                expected = min(1.0, max(0.0, 1.0 - (1.0 - p_gate / p_ref) * (d - 1) / d))
                formula_ok = formula_ok and rb_gate_fidelity(ref, inter, n) == expected
    ok = ok and formula_ok
    details.append("gate-fidelity formula exact")
    report(8, ok, "; ".join(details))


def test_criterion_9_qpt_bookkeeping(rng):
    _, n1 = simulate_qpt(named_gate("H"))
    _, n2 = simulate_qpt(named_gate("CNOT"))
    counts_ok = n1 == qpt_setting_count(1) == 12 and n2 == qpt_setting_count(2) == 240
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = unitary_exp(h + h.conj().T, 0.4)
    chans = [UnitaryChannel(u), DepolarizingChannel(0.07, 2), UnitaryChannel(named_gate("CNOT"))]
    composed = pauli_transfer(ChannelSequence(chans)).matrix
    # against the density-matrix maps applied in turn
    maps = [unitary_map(u), depolarizing_map(0.07, 2), unitary_map(named_gate("CNOT"))]
    comp_err = float(np.abs(composed - map_transfer(sequence_map(maps), 2)).max())
    ok = counts_ok and comp_err < 1e-8
    report(9, ok, f"settings {n1}/{n2} (12/240), composition error {comp_err:.1e} (< 1e-8)")


def test_criterion_10_determinism(tmp_path):
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert cli_main(["tables", "--output", str(t1)]) == 0
    assert cli_main(["tables", "--output", str(t2)]) == 0
    tables_same = t1.read_bytes() == t2.read_bytes()

    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"target": "T", "n_loops": 2, "seed": 21,
                                   "restarts": 6}))
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli_main(["synth", "--input", str(problem), "--output", str(s1)]) == 0
    assert cli_main(["synth", "--input", str(problem), "--output", str(s2)]) == 0
    synth_same = s1.read_bytes() == s2.read_bytes()
    report(10, tables_same and synth_same,
           f"tables byte-identical: {tables_same}; synth byte-identical: {synth_same}")
