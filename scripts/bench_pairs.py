"""Paired perfbench runs of two trees, each pair in alternating order.

    python scripts/bench_pairs.py --tree parent=/path/to/a/checkout --tree change=. \
        --workload survey --workload iso-mix --pairs 10 --seconds 20 --seeds 1 2 3

The first ``--tree LABEL=PATH`` is the reference and the second the change.
Each tree's ``src/`` and ``perfbench/`` are copied, without any
``__pycache__``, to two directories whose paths have equal length, so that
neither a path's length nor stale bytecode sets a metric apart.  Each pair
then runs the benchmark's command from this checkout's ``BENCHMARK.json``
(``python3 perfbench/run.py``) with ``--trace 0`` once in each copy, with
``PYTHONDONTWRITEBYTECODE=1``; pair k runs the reference first when k is
even and the change first when k is odd, and uses the seed ``seeds[k %
len(seeds)]``.  Each ``--workload`` given runs its pairs in turn, in the
order given.  The trees themselves are only read: no file of theirs, and
so neither ``perfbench/`` nor ``BENCHMARK.json``, is written.

Per workload, under a line naming it, and per end-to-end metric of this
checkout's ``BENCHMARK.json``, it prints both medians, the relative change
of the medians (change / reference - 1, "n/a" when the reference's median is
0), the reference's interquartile range, and in how many pairs the change
was better in the metric's direction (ties count as not better), and the
verdict of the rule for claiming a gain and for a regression (see
``_verdict``).  ``--out`` also writes every run's metrics and the summary,
verdicts included, as JSON: ``summary`` and ``runs`` map each workload to
its own, and ``workloads`` lists them in order.  The exit status is 1 when
some run fails, reports ``correct: false`` or a failed request, and 0
otherwise.  ``--tiny`` runs perfbench's small pools.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench")


def _copy(tree: Path, dest: Path) -> None:
    for name in COPIED:
        shutil.copytree(tree / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def _run(command: list, copy: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The last stdout line of one perfbench run in ``copy``, as a dict."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"error": out.stderr.strip().splitlines()[-1:] or [f"exit {out.returncode}"]}
    return json.loads(lines[-1])


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _verdict(a: list, b: list, won: int, direction: str, bound: float) -> str:
    """The verdict on the change's runs b against the reference's runs a,
    taken in pairs of which the change was better in ``won``, for a metric
    whose ``better`` direction and relative ``bound`` are those of
    ``BENCHMARK.json``:

    - "gain shown": at least ten pairs ran, the change is better in at least
      nine tenths of them, and its median is better by more than the
      reference's interquartile range;
    - "worse than bound": the change's median is worse than the reference's
      by more than bound times the reference's median;
    - "unresolved": neither, and the reference's interquartile range is
      wider than that bound, unless every run of the change is better than
      every run of the reference;
    - "within bound": otherwise.
    """
    sign = 1 if direction == "higher" else -1  # sign * value grows as it gets better
    gain = sign * (statistics.median(b) - statistics.median(a))
    allowed = bound * abs(statistics.median(a))
    if len(a) >= 10 and 10 * won >= 9 * len(a) and gain > _iqr(a):
        return "gain shown"
    if -gain > allowed:
        return "worse than bound"
    if _iqr(a) > allowed and min(sign * y for y in b) <= max(sign * x for x in a):
        return "unresolved"
    return "within bound"


def _summarise(runs: dict, labels: list, metrics: dict, workload: str) -> dict:
    """Print the summary block of one workload's runs, by label, and return
    it by metric; it is empty when some run failed to report."""
    ref, change = labels
    summary = {}
    if any("error" in r for rs in runs.values() for r in rs):
        return summary
    print(f"{workload}:")
    for name, metric in metrics.items():
        direction = metric["better"]
        a = [r["metrics"][name]["value"] for r in runs[ref]]
        b = [r["metrics"][name]["value"] for r in runs[change]]
        won = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        relative = mb / ma - 1 if ma else None
        verdict = _verdict(a, b, won, direction, metric["bound"])
        summary[name] = {ref: ma, change: mb, "relative": relative, f"{ref}_iqr": _iqr(a),
                         "won": won, "pairs": len(a), "verdict": verdict}
        print(f"  {name:<16} {ref} {ma:.5g}  {change} {mb:.5g}  "
              + (f"{relative:+.2%}" if ma else "n/a") + f"  {ref} IQR {_iqr(a):.3g}  "
              f"{change} better in {won}/{len(a)} ({direction} is better): {verdict}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, help="LABEL=PATH, twice")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat it to run several in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--tiny", action="store_true", help="perfbench's small pools")
    parser.add_argument("--out", help="JSON file for every run's metrics")
    args = parser.parse_args(argv)
    if len(args.tree) != 2 or args.pairs < 1:
        parser.error("give exactly two --tree LABEL=PATH and at least one pair")
    if len(set(args.workload)) != len(args.workload):
        parser.error("give each --workload once")
    trees = {}
    for item in args.tree:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--tree {item!r}: expected LABEL=PATH of a checkout with perfbench/")
        trees[label] = Path(path).resolve()
    if len(trees) != 2:
        parser.error("the two trees need different labels")
    labels = list(trees)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {workload: {label: [] for label in labels} for workload in args.workload}
    summary = {}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {label: Path(tmp) / f"t{k}" for k, label in enumerate(labels)}
        for label in labels:
            _copy(trees[label], copies[label])
        for workload in args.workload:
            for k in range(args.pairs):
                seed = args.seeds[k % len(args.seeds)]
                for label in labels if k % 2 == 0 else labels[::-1]:
                    result = _run(spec["command"], copies[label], workload, seed, args.seconds,
                                  args.tiny)
                    runs[workload][label].append(dict(result, seed=seed))
                    print(f"{workload} pair {k + 1}/{args.pairs} seed {seed} {label}: "
                          + ("ERROR " + " ".join(result["error"]) if "error" in result else
                             f"failed {result['failed']}/{result['attempted']}"
                             f", correct {result['correct']}"), flush=True)
            summary[workload] = _summarise(runs[workload], labels, metrics, workload)

    bad = [r for by_label in runs.values() for rs in by_label.values() for r in rs
           if "error" in r or not r["correct"] or r["failed"]]
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workloads": args.workload, "seconds": args.seconds, "tiny": args.tiny,
             "trees": {label: str(p) for label, p in trees.items()},
             "summary": summary, "runs": runs}, indent=2, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
