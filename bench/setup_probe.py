"""Set-up probe: a fresh interpreter imports the package and builds one
workload's inputs, then prints the CLOCK_MONOTONIC readings (system-wide,
so the parent can subtract its own start time) as one JSON line.

    python3 bench/setup_probe.py --workload verify --seed 1
"""
import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    import workloads  # imports the package from the checkout's src/

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    workloads.build(args.workload, args.seed, tiny=args.tiny)
    built = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"imported": imported, "built": built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
