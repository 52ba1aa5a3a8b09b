"""Run every workload on several seeds and summarize the results.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/baseline.json

For each workload and seed it runs `run.py --trace 0`, then one traced run
per workload on the first seed. The summary gives, per metric, the values
in seed order, their median and quartiles (`statistics.quantiles(n=4)`) and
the spread (interquartile range over median), with the task counts per run,
the traced run's per-layer metrics and the machine facts. Every bounded
metric whose spread exceeds its BENCHMARK.json bound on a workload is listed
under "unresolved": a change smaller than that spread cannot be told from
noise on that pairing. Runs go one at a time, never in parallel, so they do
not compete for the CPUs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, ROOT, WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((OUT / f"report-{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed={seed} trace={trace} correct={last['correct']} "
          f"attempted={last['attempted']} failed={last['failed']}", flush=True)
    return report


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    doc = {"seeds": seeds, "seconds": args.seconds, "workloads": {}, "unresolved": []}
    for workload in WORKLOADS:
        reports = [run(workload, seed, args.seconds, 0) for seed in seeds]
        doc["machine"] = reports[-1]["machine"] | {"cpu_model": cpu_model()}
        names = {}
        for r in reports:
            for name, m in r["metrics"].items():
                names.setdefault(name, m["unit"])
        entry = {
            "tasks_per_run": [r["attempted"] for r in reports],
            "failed_checks": [f for r in reports for f in r["failures"]],
            "end_to_end": {
                name: {"unit": unit} | summarize(
                    [r["metrics"][name]["value"] for r in reports if name in r["metrics"]])
                for name, unit in names.items()
            },
        }
        traced = run(workload, seeds[0], args.seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "tasks": traced["attempted"],
                              "failed_checks": traced["failures"],
                              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                          for k, v in traced["metrics"].items()}}
        doc["workloads"][workload] = entry
        doc["unresolved"] += [
            {"workload": workload, "metric": name, "spread": m["spread"], "bound": bounds[name]}
            for name, m in entry["end_to_end"].items()
            if name in bounds and m["spread"] is not None and m["spread"] > bounds[name]
        ]
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["end_to_end"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:16s} {name:16s} median {m['median']:<12.6g} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
