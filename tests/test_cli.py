import json
import subprocess
import sys

import numpy as np
import pytest

from hologate import cli, model, propagation, synthesis, tables
from hologate.cli import main
from hologate.linalg import pauli_on


@pytest.fixture
def x_sequence_file(tmp_path):
    path = tmp_path / "x_loops.json"
    path.write_text(tables.single_qubit_sequence("X").dumps())
    return path


def run_cli(argv):
    return main([str(a) for a in argv])


class TestTablesCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        report = tmp_path / "tables.json"
        code = run_cli(["tables", "--output", report])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        doc = json.loads(report.read_text())
        assert doc["n_failed"] == 0
        names = {c["name"] for c in doc["checks"]}
        assert "fidelity[CNOT]" in names
        assert "entangling_score[table]" in names

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["tables", "--output", a]) == 0
        assert run_cli(["tables", "--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

def test_library_holds_no_grid_reference():
    # the sampled eigenframe is a test reference (tests/reference.py); the
    # library propagates in closed form and never imports from the tests
    import ast
    from pathlib import Path

    import hologate
    from hologate import model

    moved = ("EigenFrame", "build_eigenframe", "_transport", "_require_abelian",
             "_resolve_grid", "DEFAULT_FRAME_POINTS", "MIN_POINTS_PER_PERIOD",
             "EigenvalueCrossingError", "NonAbelianDegeneracyError",
             "invariant_from_hamiltonian")
    for module in (hologate, propagation, model):
        assert not [name for name in moved if hasattr(module, name)], module.__name__
    for path in Path(hologate.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            assert not top & {"tests", "reference", "conftest"}, path


class TestVerifyDi:
    def test_samples_is_an_unknown_option(self, x_sequence_file, capsys):
        # the check samples five fixed points of each segment
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify-di", "--input", x_sequence_file, "--samples", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err

    def test_dt_is_an_unknown_option(self, x_sequence_file, capsys):
        # dI/dt is closed form; there is no difference step to set
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify-di", "--input", x_sequence_file, "--dt", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err

    def test_pass(self, x_sequence_file, tmp_path, capsys):
        code = run_cli(["verify-di", "--input", x_sequence_file,
                        "--output", tmp_path / "di.json"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_report_contents(self, x_sequence_file, tmp_path):
        report = tmp_path / "di.json"
        run_cli(["verify-di", "--input", x_sequence_file, "--output", report])
        doc = json.loads(report.read_text())
        assert set(doc) == {"command", "segments"}
        assert all(seg["pass"] for seg in doc["segments"])
        assert all(seg["di_residual"] < 1e-13 for seg in doc["segments"])

    def test_residual_bound_scales_with_the_invariant(self, tmp_path, capsys):
        # ||H|| ||I|| ~ 780 at this corner of the search box: rounding in the
        # commutator reaches ~2e-14, within 1e-13 ||H|| ||I||
        seq = synthesis.two_qubit_sequence_from_vector([10, 10, 10, 0.3, 1.1, 10, 10])
        path = tmp_path / "strong.json"
        path.write_text(seq.dumps())
        report = tmp_path / "di.json"
        assert run_cli(["verify-di", "--input", path, "--output", report]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert json.loads(report.read_text())["segments"][0]["pass"]

    def test_broken_invariant_fails(self, x_sequence_file, monkeypatch, capsys):
        exact = model.invariant_path

        def broken(seg, times):
            return exact(seg, times) + pauli_on(seg.n, 0, "X")

        monkeypatch.setattr(model, "invariant_path", broken)  # read by di_residual
        monkeypatch.setattr(cli, "invariant_path", broken)
        assert run_cli(["verify-di", "--input", x_sequence_file]) == 1
        out = capsys.readouterr().out
        assert "FAIL  segment 0" in out and "PASS" not in out

    def test_residual_sees_a_small_break(self, tmp_path, monkeypatch, capsys):
        # J (1 + 1e-9) in the zz term of the I that di_residual reads gives a
        # residual ~9e-9 on the first CNOT segment: far above the 1e-13
        # ||H|| ||I|| bound, but within the 1e-8 ||I|| that a central
        # difference needs. The identity check reads the exact I and passes.
        exact = model.invariant_path
        zz = pauli_on(2, 0, "Z") @ pauli_on(2, 1, "Z")

        def broken(seg, times):
            return exact(seg, times) + 0.5e-9 * seg.couplings[(0, 1)] * zz

        path, report = tmp_path / "cnot.json", tmp_path / "di.json"
        path.write_text(tables.cnot_sequence().dumps())
        monkeypatch.setattr(model, "invariant_path", broken)  # read by di_residual
        assert run_cli(["verify-di", "--input", path, "--output", report]) == 1
        assert "FAIL  segment 0" in capsys.readouterr().out
        first = json.loads(report.read_text())["segments"][0]
        assert first["identity_error"] < 1e-12 and 5e-9 < first["di_residual"] < 1e-8


class TestPhasesCommand:
    def test_records(self, x_sequence_file, tmp_path):
        report = tmp_path / "ph.json"
        assert run_cli(["phases", "--input", x_sequence_file, "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert len(doc["segments"]) == 2
        assert doc["phase_closure_mismatch"] < 1e-6
        for seg in doc["segments"]:
            assert max(abs(g) for g in seg["gamma_dynamical"]) < 1e-6


class TestGateCommand:
    def test_fidelity_against_target(self, x_sequence_file, tmp_path):
        report = tmp_path / "gate.json"
        code = run_cli(["gate", "--input", x_sequence_file, "--target", "X",
                        "--output", report])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["fidelity"] >= 0.999
        assert doc["oracle_distance"] < 1e-6
        u = np.asarray(doc["matrix"]["real"]) + 1j * np.asarray(doc["matrix"]["imag"])
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-8


    def test_oracle_step_cap_exits_2(self, tmp_path, capsys):
        # 257 drive periods: the default oracle grid is just over its cap
        seg = model.PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                                detuning=(1.0,), duration=257 * np.pi)
        path = tmp_path / "long.json"
        path.write_text(model.LoopSequence((seg,)).dumps())
        assert run_cli(["gate", "--input", path]) == 2
        assert "steps" in capsys.readouterr().err


class TestSynthCommand:
    def _problem(self, tmp_path, **extra):
        doc = {"target": "P", "n_loops": 2, "seed": 7, "restarts": 8} | extra
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return path

    def test_synthesis_report(self, tmp_path, capsys):
        report = tmp_path / "result.json"
        code = run_cli(["synth", "--input", self._problem(tmp_path),
                        "--output", report])
        assert code == 0
        assert "fidelity" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["fidelity"] >= 0.999
        assert doc["converged"] is True
        assert len(doc["sequence"]["segments"]) == 2

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        problem = self._problem(tmp_path)
        assert run_cli(["synth", "--input", problem, "--output", a]) == 0
        assert run_cli(["synth", "--input", problem, "--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_not_converged_warns_but_exits_zero(self, tmp_path, capsys):
        problem = self._problem(tmp_path, target="H", n_loops=1, restarts=4)
        report = tmp_path / "result.json"
        code = run_cli(["synth", "--input", problem, "--output", report])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        assert json.loads(report.read_text())["converged"] is False

    def test_more_than_two_single_qubit_loops_exit_2(self, tmp_path, capsys):
        problem = self._problem(tmp_path, target="H", n_loops=3)
        report = tmp_path / "result.json"
        assert run_cli(["synth", "--input", problem, "--output", report]) == 2
        assert "one or two loops" in capsys.readouterr().err
        assert not report.exists()

    def test_no_exact_pair_inside_the_bounds_warns_but_exits_zero(self, tmp_path, capsys):
        # two loops this close to the equator cannot make an X
        problem = self._problem(tmp_path, target="X", bounds=[[1.0001, 1.001], [0.0, 6.0]])
        report = tmp_path / "result.json"
        code = run_cli(["synth", "--input", problem, "--output", report])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        assert json.loads(report.read_text())["converged"] is False


class TestEntangleCommand:
    def test_short_search_writes_report(self, tmp_path, capsys):
        report = tmp_path / "ent.json"
        code = run_cli(["entangle", "--seed", "3", "--restarts", "1",
                        "--max-evals", "150", "--output", report])
        assert code == 0
        assert "entangling score" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert "entangling_score" in doc
        assert len(doc["sequence"]["segments"]) == 1


class TestQptCommand:
    def test_single_qubit_counts(self, tmp_path):
        report = tmp_path / "qpt.json"
        assert run_cli(["qpt", "--gate", "X", "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["settings"] == 12
        assert doc["expected_settings"] == 12
        assert doc["process_fidelity"] == pytest.approx(1.0)
        np.testing.assert_allclose(np.asarray(doc["transfer"]["matrix"]),
                                   np.diag([1, 1, -1, -1]), atol=1e-12)

    def test_two_qubit_counts(self, tmp_path):
        report = tmp_path / "qpt2.json"
        assert run_cli(["qpt", "--gate", "CNOT", "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["settings"] == 240

    def test_noisy_channel(self, tmp_path):
        report = tmp_path / "qpt3.json"
        assert run_cli(["qpt", "--gate", "X", "--noise-eps", "0.1",
                        "--output", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["process_fidelity"] < 1.0
        # identity row survives depolarizing
        assert doc["transfer"]["matrix"][0] == [1.0, 0.0, 0.0, 0.0]

    def test_requires_gate_or_input(self):
        assert run_cli(["qpt"]) == 2


class TestRbCommand:
    def test_ideal_gate(self, tmp_path):
        report = tmp_path / "rb.json"
        code = run_cli(["rb", "--gate", "X", "--m-values", "2,4,8",
                        "--n-seq", "4", "--output", report])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["reference"]["fit"] == {"A": 1.0, "p": 1.0, "B": 0.0}
        assert doc["reference"]["fit_stderr"] == {"A": 0.0, "p": 0.0, "B": 0.0}
        assert doc["gate_fidelity"] == 1.0
        ref_csv = (tmp_path / "rb_reference.csv").read_text().splitlines()
        assert ref_csv[0] == "m,mean_fidelity,stderr"
        assert len(ref_csv) == 4
        assert (tmp_path / "rb_interleaved.csv").exists()

    def test_noisy_cliffords(self, tmp_path):
        report = tmp_path / "rbn.json"
        code = run_cli(["rb", "--noise-eps", "0.01", "--m-values", "2,4,8,16",
                        "--n-seq", "3", "--output", report])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["reference"]["fit"]["p"] == pytest.approx(0.99, abs=1e-6)
        assert "interleaved" not in doc

    def test_total_depolarization_reports_no_gate_fidelity(self, tmp_path, capsys):
        # nothing survives: neither curve decays, and no fidelity is read off them
        report = tmp_path / "rbd.json"
        code = run_cli(["rb", "--gate", "X", "--noise-eps", "1", "--m-values", "2,4,8",
                        "--n-seq", "4", "--output", report])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        doc = json.loads(report.read_text())
        assert "gate_fidelity" not in doc
        assert doc["reference"]["mean_fidelity"] == [0.0, 0.0, 0.0]
        assert doc["reference"]["converged"] is False and doc["reference"]["fit"] is None

    def test_curve_decayed_before_the_first_m_reports_no_gate_fidelity(self, tmp_path, capsys):
        # the interleaved curve is ~0 and flat from m = 2 on: not "no decay",
        # which would read F = 1.0 where the target's is 1 - 0.5 / 2 = 0.75
        report = tmp_path / "rbf.json"
        code = run_cli(["rb", "--gate", "X", "--noise-eps", "0.99", "--target-eps", "0.5",
                        "--output", report])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        doc = json.loads(report.read_text())
        assert "gate_fidelity" not in doc
        assert max(doc["interleaved"]["mean_fidelity"]) < 1e-6
        assert doc["interleaved"]["converged"] is False and doc["interleaved"]["fit"] is None
        assert doc["reference"]["converged"] is True

    def test_sequence_target(self, x_sequence_file, tmp_path):
        report = tmp_path / "rbs.json"
        code = run_cli(["rb", "--input", x_sequence_file, "--target", "X",
                        "--m-values", "2,4,8", "--n-seq", "4",
                        "--output", report])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["gate_fidelity"] >= 0.999


#: Edits of a sequence document (and its first segment) that every command
#: reading one must refuse with exit 2; an edit returning a value replaces
#: the document. The coupling cases edit the CNOT table, the others X.
MALFORMED_SEQUENCES = {
    "n-string": lambda d, s: d.update(n="abc"),
    "n-fraction": lambda d, s: d.update(n=1.9),
    "n-bool": lambda d, s: d.update(n=True),
    "n-missing": lambda d, s: d.__delitem__("n"),
    "segments-number": lambda d, s: d.update(segments=5),
    "document-list": lambda d, s: [d],
    "segment-list": lambda d, s: d.update(segments=[list(s.values())]),
    "omega_drive-string": lambda d, s: s.update(omega_drive=["abc"]),
    "duration-string": lambda d, s: s.update(duration="x"),
    "duration-null": lambda d, s: s.update(duration=None),
    "coupling-key": lambda d, s: s.update(couplings={"0,x": 2.0}),
    "coupling-list": lambda d, s: s.update(couplings=[2.0]),
    "unknown-field": lambda d, s: d.update(grid=1024),
    "unit-J": lambda d, s: d.update(unit="J"),
    "unknown-segment-field": lambda d, s: s.update(n_t=1024),
}


class TestErrorHandling:
    def test_missing_input_file(self):
        assert run_cli(["phases", "--input", "/nonexistent/seq.json"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["phases", "--input", bad]) == 2

    @pytest.mark.parametrize("command", ["synth", "gate"])
    def test_input_not_utf8(self, command, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"target": "X", "n_loops": 2, "name": "\xe9"}'.encode("latin-1"))
        assert run_cli([command, "--input", bad]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["synth", "phases"])
    def test_input_is_a_directory(self, command, tmp_path, capsys):
        assert run_cli([command, "--input", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_output_is_a_directory(self, tmp_path, capsys):
        assert run_cli(["qpt", "--gate", "X", "--output", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_rb_noise_out_of_range(self):
        assert run_cli(["rb", "--noise-eps", "1.5", "--m-values", "2", "--n-seq", "2"]) == 2

    @pytest.mark.parametrize("command", ["gate", "phases"])
    @pytest.mark.parametrize("field,value", [
        ("phase", [float("nan"), 0.0]), ("detuning", [float("inf"), 0.0]),
        ("omega_drive", [float("nan"), 1.0]), ("omega_rot", [float("nan"), 8.0]),
        ("couplings", {"0,1": float("nan")}), ("duration", float("inf")),
    ])
    def test_non_finite_sequence_field(self, command, field, value, tmp_path, capsys):
        doc = tables.cnot_sequence().to_dict()
        doc["segments"][0][field] = value
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        assert run_cli([command, "--input", path]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gate", "phases"])
    @pytest.mark.parametrize("key", [" 0, 1", "00,1"])
    def test_coupling_pair_named_twice(self, command, key, tmp_path, capsys):
        doc = tables.cnot_sequence().to_dict()
        doc["segments"][0]["couplings"] = {"0,1": 2.0, key: 1.0}
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))
        assert run_cli([command, "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "twice" in err

    @pytest.mark.parametrize("command", [
        ["gate"], ["phases"], ["qpt", "--target", "X"],
        ["rb", "--m-values", "2", "--n-seq", "2"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SEQUENCES))
    def test_malformed_sequence_file(self, command, case, tmp_path, capsys):
        two_qubit = case.startswith("coupling")
        doc = (tables.cnot_sequence() if two_qubit else tables.single_qubit_sequence("X")).to_dict()
        doc = MALFORMED_SEQUENCES[case](doc, doc["segments"][0]) or doc
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))
        assert run_cli([command[0], "--input", path, *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_gate_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["qpt", "--gate", "SWAP"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in ("tables", "verify-di", "phases", "gate", "qpt")
        for flag in ("--seed", "--jobs")
    ] + [("rb", "--jobs"), ("synth", "--jobs"), ("entangle", "--jobs"), ("verify-di", "--grid")] + [
        (command, "--grid") for command in ("tables", "phases", "gate", "qpt", "rb")
    ])
    def test_unread_options_rejected(self, command, flag, x_sequence_file, capsys):
        # every other argument is valid, so the option alone is refused
        needs = {"verify-di": ["--input", x_sequence_file], "phases": ["--input", x_sequence_file],
                 "gate": ["--input", x_sequence_file], "synth": ["--input", x_sequence_file],
                 "qpt": ["--gate", "X"], "rb": ["--gate", "X"]}
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *needs.get(command, []), flag, "1024"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def _problem(self, tmp_path, **extra):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"target": "X", "n_loops": 1, "restarts": 1} | extra))
        return path

    def test_synth_negative_seed(self, tmp_path):
        assert run_cli(["synth", "--input", self._problem(tmp_path), "--seed", "-1"]) == 2

    def test_synth_zero_max_evals_in_problem(self, tmp_path):
        assert run_cli(["synth", "--input", self._problem(tmp_path, max_evals=0)]) == 2

    @pytest.mark.parametrize("field,value", [
        ("bounds", [[1.5, 3.0, 99.0], [0.0, 6.0]]),
        ("seed", 1.7),
        ("max_evals", "abc"),
    ])
    def test_synth_malformed_problem_field(self, field, value, tmp_path, capsys):
        assert run_cli(["synth", "--input", self._problem(tmp_path, **{field: value})]) == 2
        assert field in capsys.readouterr().err

    @pytest.fixture
    def no_search(self, monkeypatch):
        from hologate import synthesis

        def refuse(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(synthesis, "minimize", refuse)

    def test_synth_unbuildable_bounds_before_search(self, tmp_path, capsys, no_search):
        # a drive frequency bound reaching zero admits loops that cannot be built
        bounds = [[0.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [0.0, 6.0], [0.0, 6.0],
                  [0.0, 1.0], [0.0, 1.0]]
        problem = self._problem(tmp_path, target="CNOT", bounds=bounds)
        assert run_cli(["synth", "--input", problem]) == 2
        assert "drive frequencies" in capsys.readouterr().err

    def test_entangle_non_finite_coupling_before_search(self, capsys, no_search):
        assert run_cli(["entangle", "--coupling", "nan"]) == 2
        assert "coupling" in capsys.readouterr().err

    def test_entangle_negative_seed(self):
        assert run_cli(["entangle", "--seed", "-1"]) == 2

    @pytest.mark.parametrize("restarts", ["-1", "0"])
    def test_entangle_bad_restarts(self, restarts):
        assert run_cli(["entangle", "--restarts", restarts]) == 2

    def test_entangle_zero_max_evals(self):
        assert run_cli(["entangle", "--max-evals", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["qpt", "--gate", "X", "--input", "{x}"],
        ["rb", "--gate", "X", "--input", "{x}"],
    ], ids=lambda argv: argv[0])
    def test_gate_and_input_are_exclusive(self, argv, x_sequence_file, capsys):
        # one of them would be ignored without a word
        with pytest.raises(SystemExit) as exc:
            run_cli([a.format(x=x_sequence_file) for a in argv])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--target", "X"], ["--target-eps", "0.2"],
                                       ["--target", "X", "--target-eps", "0.2"]])
    def test_rb_target_options_need_a_target(self, flags, capsys):
        # a reference-only run would drop them without a word
        assert run_cli(["rb", *flags, "--m-values", "2", "--n-seq", "2"]) == 2
        assert "needs a target" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--m-values", "100000000"], ["--n-seq", "300000000"]])
    def test_rb_run_above_the_cap(self, flags, capsys, monkeypatch):
        # refused before anything is drawn, where it once ran out of memory
        def refuse(*args, **kwargs):
            raise AssertionError("sequences drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert run_cli(["rb", "--gate", "X", *flags]) == 2
        assert "RB_MAX_CLIFFORDS" in capsys.readouterr().err

    def test_rb_negative_seed(self):
        assert run_cli(["rb", "--seed", "-1", "--m-values", "2", "--n-seq", "2"]) == 2

    def test_rb_non_integer_m_values(self, capsys):
        assert run_cli(["rb", "--m-values", "2,x", "--n-seq", "2"]) == 2
        assert "--m-values" in capsys.readouterr().err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["tables"],
    ["gate", "--input", "{x}", "--target", "X"],
    ["phases", "--input", "{x}"],
    ["qpt", "--gate", "X", "--noise-eps", "0.01"],
    ["rb", "--gate", "X", "--noise-eps", "0.01"],
    ["synth", "--input", "{problem}", "--restarts", "1"],
    ["entangle", "--restarts", "1", "--max-evals", "20"],
    ["verify-di", "--input", "{x}"],
], ids=lambda argv: argv[0])
def test_reports_are_strict_json(argv, x_sequence_file, tmp_path):
    # Infinity and NaN are not JSON; an exact decay fit once reported an
    # infinite standard error
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"target": "X", "n_loops": 2, "seed": 1, "restarts": 1}))
    report = tmp_path / "report.json"
    argv = [a.format(x=x_sequence_file, problem=problem) for a in argv]
    assert run_cli(argv + ["--output", report]) == 0
    json.loads(report.read_text(), parse_constant=_no_constant)


def test_no_command_loads_scipy(x_sequence_file, tmp_path):
    # importing scipy.optimize costs about half a second and some 46 MB, and
    # scipy is not a dependency of the package: no command may load it
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"target": "X", "n_loops": 2, "seed": 1, "restarts": 2}))
    script = f"""
import sys
import hologate, hologate.cli
for argv in (["gate", "--input", {str(x_sequence_file)!r}, "--target", "X"],
             ["phases", "--input", {str(x_sequence_file)!r}],
             ["qpt", "--gate", "X", "--noise-eps", "0.01"],
             ["rb", "--gate", "X", "--noise-eps", "0.01"],
             ["synth", "--input", {str(problem)!r}],
             ["entangle", "--restarts", "1", "--max-evals", "20"]):
    assert hologate.cli.main(argv + ["--output", {str(tmp_path / "out.json")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_sources_do_not_import_scipy():
    from pathlib import Path

    import hologate

    sources = sorted(Path(hologate.__file__).parent.rglob("*.py"))
    assert sources
    assert [p.name for p in sources
            if "import scipy" in p.read_text() or "from scipy" in p.read_text()] == []


def test_module_entry_point(x_sequence_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hologate", "gate", "--input",
         str(x_sequence_file), "--target", "X"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["fidelity"] >= 0.999
