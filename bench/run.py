"""hologate benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (inputs drawn from --seed only; see workloads.py):
  search-2q        entangler search + warm-started 5-loop CNOT synthesis
  verify           `hologate gate` + `phases` on seeded sequences, plus `tables`
  characterize-1q  1q synthesis, miscalibration, interleaved RB and QPT

Load is closed-loop: one caller in this process runs tasks back to back
(package defaults, so `workers=1`) until --seconds have passed, then checks
every task's output outside the timed region. task_s.p50 is the median
over task kinds (sequence shape, target gate) of each kind's median task
time, so it does not jump between cost clusters when the seed shifts the
mix of kinds a run reaches. Set-up time is measured in fresh interpreters
(median of several, spread over the run). With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer metrics from traced tasks (see tracing.py),
each followed by the same task untraced, to show the outputs are
byte-identical and to measure the tracing overhead. Spans and a full
report (every metric with its unit and sample count, machine facts, failed
checks) are written to .bench_out/.

The last line is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. Exit code 0 when the run completed
(whatever the checks found); non-zero, with no result, when the package
sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (exits non-zero when src/hologate is missing)
from workloads import ROOT, WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
#: Tasks a run needs before its 90th percentile has ten samples beyond it.
P90_MIN_TASKS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_s.p50", "s"),
    ("solutions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Printed in the report; not in the last line because they are undefined
#: on some workload or can read zero.
REPORT_ONLY = (
    ("task_s.p90", "s"),
    ("failed_ratio", "ratio"),
    ("converged_ratio", "ratio"),
    ("rb_error.p50", "fidelity"),
)

PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("linalg.kron.calls", "count"),
    ("linalg.pauli_on.calls", "count"),
    ("linalg.unitary_fidelity.calls", "count"),
    ("model.hamiltonian_path.calls", "count"),
    ("model.hamiltonian_path.self_s", "s"),
    ("model.hamiltonian_path.matrices", "count"),
    ("model.invariant_path.calls", "count"),
    ("model.invariant_path.self_s", "s"),
    ("propagation.segment_evolution.search.calls", "count"),
    ("propagation.segment_evolution.search.self_s", "s"),
    ("propagation.segment_evolution.search.grid_points", "count"),
    ("propagation.segment_evolution.fine.calls", "count"),
    ("propagation.segment_evolution.fine.self_s", "s"),
    ("propagation.build_eigenframe.calls", "count"),
    ("propagation.build_eigenframe.self_s", "s"),
    ("propagation.phases.calls", "count"),
    ("propagation.phases.self_s", "s"),
    ("propagation.ode_propagator.calls", "count"),
    ("propagation.ode_propagator.self_s", "s"),
    ("propagation.ode_propagator.steps", "count"),
    ("propagation.errors.total", "count"),
    ("propagation.errors.EigenvalueCrossingError", "count"),
    ("propagation.errors.NonAbelianDegeneracyError", "count"),
    ("propagation.errors.ValidationError", "count"),
    ("propagation.errors.other", "count"),
    ("synthesis.synthesize.calls", "count"),
    ("synthesis.synthesize.self_s", "s"),
    ("synthesis.find_entangling.calls", "count"),
    ("synthesis.find_entangling.self_s", "s"),
    ("synthesis.minimize.calls", "count"),
    ("synthesis.minimize.self_s", "s"),
    ("synthesis.nfev", "count"),
    ("synthesis.nit", "count"),
    ("synthesis.eval_s", "s"),
    ("synthesis.useful_restart_ratio", "ratio"),
    ("synthesis.rejected_eval_ratio", "ratio"),
    ("synthesis.converged_ratio", "ratio"),
    ("characterization.rb_run.calls", "count"),
    ("characterization.rb_run.self_s", "s"),
    ("characterization.rb_run.sequences", "count"),
    ("characterization.simulate_qpt.calls", "count"),
    ("characterization.simulate_qpt.self_s", "s"),
    ("characterization.simulate_qpt.settings", "count"),
    ("characterization.pauli_transfer.calls", "count"),
    ("characterization.pauli_transfer.self_s", "s"),
    ("characterization.fit_decay.calls", "count"),
    ("characterization.fit_decay.unconverged", "count"),
    ("characterization.fit_decay.nonfinite_stderr", "count"),
    ("characterization.rb_error.p50", "fidelity"),
    ("tables.calls", "count"),
    ("tables.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.dumps_report.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.tasks", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.identical_ratio", "ratio"),
    ("trace.probe_errors", "count"),
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Record:
    index: int
    spec: object
    wall_s: float
    output: object  # workloads.TaskOutput, or None when the task raised
    error: str | None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


class SetupProbes:
    """Set-up time measured in fresh interpreters. The probes are spread
    over the run (the timed loop pauses for them), so their median sees the
    same machine conditions as the tasks rather than one burst at the start."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
                    "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.repeats = 1 if tiny else SETUP_REPEATS
        self.totals: list[float] = []
        self.imports: list[float] = []
        self.inputs: list[float] = []

    def probe(self) -> None:
        start = _now()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        marks = json.loads(proc.stdout.strip().splitlines()[-1])
        self.totals.append(marks["built"] - start)
        self.imports.append(marks["imported"] - start)
        self.inputs.append(marks["built"] - marks["imported"])

    def due(self, loop_s: float, seconds: float) -> bool:
        """Probe k of n is due once the loop has measured k/(n-1) of its time;
        the last one runs after the loop."""
        done = len(self.totals)
        return done < self.repeats - 1 and loop_s >= done * seconds / (self.repeats - 1)

    def finish(self) -> dict:
        while len(self.totals) < self.repeats:
            self.probe()
        return {
            "setup_s": statistics.median(self.totals),
            "setup.import_s": statistics.median(self.imports),
            "setup.inputs_s": statistics.median(self.inputs),
            "samples": self.repeats,
        }


def run_task(wl, index: int, tracer=None) -> Record:
    """One timed task; with a tracer, the package is wrapped for it alone."""
    spec = wl.specs[index % len(wl.specs)]
    if tracer is not None:
        tracer.install()
    try:
        start = _now()
        try:
            if tracer is None:
                out = wl.run_task(spec, index)
            else:
                with tracer.task_span(index):
                    out = wl.run_task(spec, index)
            error = None
        except Exception as exc:  # a task that raises is counted as failed; the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = _now() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Record(index, spec, wall, out, error)


def timed_loop(wl, seconds: float, probes: SetupProbes, tracer=None):
    """Closed loop: the next task starts when the previous one returns; at
    least one task runs. The pool is cycled if a run outlasts it.

    Set-up probes run between tasks, and their time is left out of the
    loop's. With a tracer, each traced task is followed at once by the same
    task untraced (also left out), so the pair is timed under the same
    machine conditions. Returns (records, untraced reruns, loop seconds).
    """
    records, reruns = [], []
    paused = 0.0
    start = _now()
    while not records or _now() - start - paused < seconds:
        t = _now()
        if probes.due(t - start - paused, seconds):
            probes.probe()
        paused += _now() - t
        records.append(run_task(wl, len(records), tracer))
        if tracer is not None:
            t = _now()
            reruns.append(run_task(wl, records[-1].index))
            paused += _now() - t
    return records, reruns, _now() - start - paused


def check_all(wl, records: list[Record]) -> list:
    results = []
    for r in records:
        if r.error is not None:
            results.append(workloads.CheckResult(ok=False, reason=r.error, results=0))
            continue
        try:
            results.append(wl.check(r.spec, r.output))
        except Exception as exc:  # a check that cannot run fails the task
            results.append(
                workloads.CheckResult(ok=False, reason=f"check raised {exc!r}", results=0))
    return results


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, records, elapsed, checks, setup, peak_rss_mb) -> dict:
    walls = [r.wall_s for r in records]
    by_kind = defaultdict(list)
    for r in records:
        by_kind[wl.kind(r.spec)].append(r.wall_s)
    n = len(records)
    failed = sum(not c.ok for c in checks)
    searches = sum(c.results for c in checks if c.converged is not None)
    converged = sum(c.converged for c in checks if c.converged is not None)
    rb_errors = [c.rb_error for c in checks if c.rb_error is not None]
    return {
        "setup_s": (setup["setup_s"], setup["samples"]),
        "tasks_per_s": (n / elapsed, n),
        "task_s.p50": (statistics.median(statistics.median(v) for v in by_kind.values()), n),
        "solutions_per_s": (sum(c.solutions for c in checks) / elapsed, n),
        "peak_rss_mb": (peak_rss_mb, 1),
        "task_s.p90": (quantile(walls, 90), n) if n >= P90_MIN_TASKS else None,
        "failed_ratio": (failed / n, n),
        "converged_ratio": (converged / searches, searches) if searches else None,
        "rb_error.p50": (statistics.median(rb_errors), len(rb_errors)) if rb_errors else None,
    }


def print_table(title: str, rows, values: dict) -> None:
    print(title)
    for name, unit in rows:
        v = values.get(name)
        if v is None:
            print(f"  {name:52s} {'n/a':>14s} {unit}")
        else:
            print(f"  {name:52s} {v[0]:14.6g} {unit:8s} n={v[1]}")


def traced_pass(wl, seconds: float, probes: SetupProbes, workload: str, seed: int):
    """Traced tasks, each paired with an untraced rerun: per-layer metrics,
    output identity and tracing overhead."""
    import hologate
    from tracing import Tracer

    tracer = Tracer(hologate)
    traced, plain, _ = timed_loop(wl, seconds, probes, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    identical = sum(
        a.error == b.error and (a.output is None or a.output.digest == b.output.digest)
        for a, b in zip(traced, plain)
    )
    traced_s = sum(r.wall_s for r in traced)
    plain_s = sum(r.wall_s for r in plain)
    layer = tracer.metrics()
    layer.update({
        "trace.tasks": len(traced),
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_ratio": (traced_s - plain_s) / plain_s,
        "trace.identical_ratio": identical / len(traced),
    })
    return traced, layer


def run_one(args) -> int:
    probes = SetupProbes(args.workload, args.seed, args.tiny)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, tiny=args.tiny, workdir=workdir)
        # warm-up (first-call costs) on a tiny input the run does not reach
        warm = workloads.build(args.workload, args.seed, tiny=True, workdir=workdir)
        run_task(warm, len(warm.specs) - 1)
        print(f"hologate benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        facts = machine_facts()
        print("machine: " + json.dumps(facts))
        if args.trace:
            records, layer = traced_pass(wl, args.seconds, probes, args.workload, args.seed)
            setup = probes.finish()
            checks = check_all(wl, records)
            rb = [c.rb_error for c in checks if c.rb_error is not None]
            layer["characterization.rb_error.p50"] = statistics.median(rb) if rb else 0.0
            layer["setup.import_s"] = setup["setup.import_s"]
            layer["setup.inputs_s"] = setup["setup.inputs_s"]
            values = {name: (layer.get(name, 0.0), len(records)) for name, _ in PER_LAYER}
            print_table("per-layer metrics (traced pass):", PER_LAYER, values)
            rows = PER_LAYER
            correct = layer["trace.identical_ratio"] == 1.0
        else:
            records, _, elapsed = timed_loop(wl, args.seconds, probes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup = probes.finish()
            checks = check_all(wl, records)
            values = end_to_end(wl, records, elapsed, checks, setup, peak_rss_mb)
            print_table("end-to-end metrics:", END_TO_END + REPORT_ONLY, values)
            rows = END_TO_END
            correct = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [(r.index, c.reason) for r, c in zip(records, checks) if not c.ok]
    for index, reason in failed:
        print(f"FAILED task {index}: {reason}")
    units = dict(END_TO_END + REPORT_ONLY + PER_LAYER)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "attempted": len(records),
        "failures": [{"task": i, "reason": reason} for i, reason in failed],
        "metrics": {name: {"value": v[0], "unit": units[name], "samples": v[1]}
                    for name, v in values.items() if v is not None},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    result = {
        "correct": correct and not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in rows},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter (so peak memory is per
    workload); the last line merges their results as workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest task sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
