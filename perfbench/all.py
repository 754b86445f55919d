"""Run every workload of the benchmark once and print all its figures.

    python3 perfbench/all.py --seed 1

Each workload runs as its own untraced ``run.py`` process for the
``run_seconds`` of ``BENCHMARK.json``.  Prints each run's end-to-end metric
lines (with units, the tail percentile and the error rate) and exits non-zero
when a run fails or reports an incorrect output.  The per-layer figures come
from ``run.py --trace 1``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(RUN_SECONDS), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: run failed or an output was incorrect", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
