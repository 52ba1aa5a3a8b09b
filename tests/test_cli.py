import json
import subprocess
import sys

import numpy as np
import pytest

from hologate.cli import main
from hologate import tables


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


class TestVerifyDi:
    def test_pass(self, x_sequence_file, tmp_path, capsys):
        code = run_cli(["verify-di", "--input", x_sequence_file,
                        "--output", tmp_path / "di.json"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_report_contents(self, x_sequence_file, tmp_path):
        report = tmp_path / "di.json"
        run_cli(["verify-di", "--input", x_sequence_file, "--output", report])
        doc = json.loads(report.read_text())
        assert all(seg["pass"] for seg in doc["segments"])
        assert all(seg["di_residual"] < 1e-8 for seg in doc["segments"])


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
        assert doc["reference"]["fit"]["p"] == 1.0
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

    def test_sequence_target(self, x_sequence_file, tmp_path):
        report = tmp_path / "rbs.json"
        code = run_cli(["rb", "--input", x_sequence_file, "--target", "X",
                        "--m-values", "2,4,8", "--n-seq", "4",
                        "--output", report])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["gate_fidelity"] >= 0.999


class TestErrorHandling:
    def test_missing_input_file(self):
        assert run_cli(["phases", "--input", "/nonexistent/seq.json"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["phases", "--input", bad]) == 2

    def test_rb_noise_out_of_range(self):
        assert run_cli(["rb", "--noise-eps", "1.5", "--m-values", "2", "--n-seq", "2"]) == 2

    def test_bad_gate_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["qpt", "--gate", "SWAP"])
        assert exc.value.code == 2


def test_module_entry_point(x_sequence_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hologate", "gate", "--input",
         str(x_sequence_file), "--target", "X"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["fidelity"] >= 0.999
