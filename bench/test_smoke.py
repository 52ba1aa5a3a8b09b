"""Smoke test of the benchmark at tiny sizes. It sets no timing bound.

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is reported, with its unit,
on every workload; that the output checks run and catch a wrong output; and
that the benchmark refuses to run without the package sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0", "--tiny",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] == len(spec["workloads"])
    expected = {f"{w['name']}/{m['name']}": m["unit"]
                for w in spec["workloads"] for m in spec[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())
    if trace:
        for w in spec["workloads"]:
            assert doc["metrics"][f"{w['name']}/trace.identical_ratio"]["value"] == 1.0


def _corrupt(name, out):
    """The same output with one reported number moved past its tolerance."""
    payload = dict(out.payload)
    if name == "search-2q":
        payload["cnot"] = dataclasses.replace(payload["cnot"],
                                              fidelity=payload["cnot"].fidelity - 1e-3)
    elif name == "verify":
        doc = json.loads(payload["gate"])
        doc["oracle_distance"] = 1e-3
        payload["gate"] = json.dumps(doc).encode()
    else:
        payload["f_qpt"] += 1e-6
    return workloads.TaskOutput(out.digest, payload)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_pass_and_catch_a_wrong_output(name, tmp_path):
    wl = workloads.build(name, seed=3, tiny=True, workdir=tmp_path)
    spec = wl.specs[-1]  # for verify, the first entry is the `tables` task
    out = wl.run_task(spec, 0)
    assert wl.check(spec, out).ok
    assert not wl.check(spec, _corrupt(name, out)).ok


def test_inputs_depend_on_the_seed_alone():
    a = workloads.build("characterize-1q", seed=5)
    b = workloads.build("characterize-1q", seed=5)
    c = workloads.build("characterize-1q", seed=6)
    assert repr(a.specs) == repr(b.specs) != repr(c.specs)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
