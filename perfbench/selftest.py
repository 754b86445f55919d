"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Checks that the last stdout line has exactly the keys the benchmark promises,
that it names every metric of ``BENCHMARK.json`` with its unit, that outputs
pass their checks, that the traced counts repeat exactly for one seed, and
that the benchmark refuses to run where the ``qfla`` sources are missing.
Exits 0 when all hold.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "bytes")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def check_metrics(result: dict, declared: list) -> None:
    got = {name: (m["unit"], m["value"]) for name, m in result["metrics"].items()}
    assert list(got) == [d["name"] for d in declared], sorted(set(got) ^ {d["name"] for d in declared})
    for d in declared:
        unit, value = got[d["name"]]
        assert unit == d["unit"], (d["name"], unit)
        assert isinstance(value, (int, float)), (d["name"], value)


def check_closed_forms() -> None:
    # Oracle dimensions measured on block-form gluings with r >= 2.
    assert workloads.der_dim_paper(5, 3, 2, [2, 1]) == 33
    assert workloads.der_dim_paper(7, 3, 2, [2, 1]) == 42
    assert workloads.der_dim_paper(5, 4, 2, [3, 1]) == 45
    assert workloads.der_dim_paper(5, 3, 3, [1, 1, 1]) == 39
    assert workloads.lcs_dims_paper(5, 2, 1) == [11, 7, 5, 3, 1, 0]
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    # Cross-ratios survive the relabelling that makes iso-mix positives.
    rng = random.Random(0)
    B = workloads._generic_B(rng, 2, 6)
    cross = [workloads._cross_ratios(workloads._beta_cols(2, c)) for c in (B, workloads._relabel(rng, 2, B))]
    assert cross[0] == cross[1]


def check_refuses_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    check_closed_forms()
    for workload in workloads.WORKLOADS:
        check_metrics(result_of(workload, 0), spec["end_to_end"])
        first = result_of(workload, 1)
        check_metrics(first, spec["per_layer"])
        again = result_of(workload, 1)
        for d in spec["per_layer"]:
            if d["unit"] in EXACT_UNITS:
                a, b = first["metrics"][d["name"]]["value"], again["metrics"][d["name"]]["value"]
                assert a == b, (workload, d["name"], a, b)
        print(f"selftest: {workload} ok")
    check_refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
