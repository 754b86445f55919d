"""Per-verb timings of the ``qfla`` CLI at growing sizes, written as one JSON file.

    python scripts/bench_ladder.py --out BENCH_<n>.json --runs 5 \
        --tree parent=/path/to/a/checkout --tree change=.

Each ``--tree LABEL=PATH`` names a git checkout whose ``src/qfla`` is timed;
PATH defaults to this checkout when no ``--tree`` is given.  Every rung (a verb
on one gluing's algebra file, ``build`` of that gluing, ``aut-check --strict``
of a passing candidate against it, or ``iso --strict`` on a pair of parameter
files) runs ``--runs`` times per tree in a fresh interpreter; the trees take
turns going first.  A run times ``import qfla.cli`` after loading perfbench's
``run.py``, as perfbench's parent has it loaded when it imports ``qfla``: that
import is the part of perfbench's ``setup_s`` that no forked ``qfla build``
widens, less the compile: each tree is compiled once, by one untimed child
that writes its bytecode, and that of every module it imports, into a
private temporary ``PYTHONPYCACHEPREFIX``.  Every other child runs with
``-B`` and imports from that bytecode, so no tree is written and no timed run
holds a compile's memory.  It then times
``qfla.cli.main`` alone, and within it the calls to
``qfla.cli.derivation_oracle`` and to the closed forms ``qfla.cli.torus_basis``
(by ``der``, ``der --compare`` and ``weights``, which decomposes under its
first m + 1 members) and ``qfla.cli.nilpotent_basis`` (by ``der`` and
``der --compare``), the span comparison of ``der --compare``
(``qfla.cli._spans_der``), the emission (``qfla.cli._emit``), the lower
central series and the quasi-cyclic split of ``check``
(``qfla.cli.lower_central_series``, ``qfla.cli.quasi_cyclic_split``; on a
table whose indices rise, as every built gluing's do, ``check`` reads the
series off the split, so its one walk shows in ``split`` and ``lcs`` reads
null) and the
phases of ``iso``: the copy cells (``qfla.iso.copy_cells``), the copy search
(``qfla.iso._first_admissible_perm``, cells included) and the witness
(``qfla.iso.build_algebra_witness``), the extension of ``aut-check``'s
candidate (``qfla.cli.extend_through_grading``), and the brute-force bracket
check of ``aut-check`` and ``iso`` (``qfla.liecore.bracket_preserving``; see
``TIMED``), and reads the child's peak RSS (``VmHWM`` of
``/proc/self/status``, the high-water mark of the child's own memory: its
``ru_maxrss`` would start at the resident set of the process that spawned it,
which Linux carries across the exec), with stdout counted and dropped, never
held; a run still going after ``TIME_LIMIT_S`` seconds is stopped and
recorded as a time-out.

Times are calibrated for machine speed as perfbench calibrates them: the child
runs ``speed_probe`` from ``perfbench/run.py`` (of this checkout, so one
yardstick for every tree) just before and just after ``cli.main``, and every
time of the run, the import and the phases included, is scaled by
PROBE_NOMINAL_S / (mean of the two probes), so it reads in seconds at the
speed where the probe takes PROBE_NOMINAL_S.  The raw wall times are kept next
to the calibrated ones.  Algebra files are built once per tree by that tree's
own ``qfla build``, and candidate files written once per tree by that tree's
own ``exp_ad`` and ``candidate_to_json``.  The output holds, per tree, the git
hash ("-dirty" when tracked files differ from it), a sha256 of the timed
``src/qfla/*.py`` files, and per rung the median and all run times (null for a
time-out), the median import time (``import_median_s``), the median time of
each phase the rung reaches (``oracle_median_s``, ``closed_median_s`` for the
two closed forms together, ``compare_median_s``, ``emit_median_s``,
``lcs_median_s``, ``split_median_s``, ``cells_median_s``, ``search_median_s``,
``witness_median_s``, ``extend_median_s``, ``verify_median_s``), all
calibrated, the same raw (``raw_median_s``, ``raw_runs_s``,
``raw_import_median_s``, ``raw_<phase>_median_s``), each run's scale factor
(``scales``), the bytes the verb wrote to stdout (``out_bytes``), the median
peak RSS (``peak_rss_mb``), the median resident set right after ``import
qfla.cli`` (``base_rss_mb``, ``VmRSS`` of ``/proc/self/status``: the interpreter,
perfbench's ``run.py`` and the modules), the median growth of the peak past
it over the run (``peak_rss_growth_mb``: the verb's own memory) and the exit
code ("timeout" when some run timed out),
next to the Python version, the machine and PROBE_NOMINAL_S.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PERFBENCH_RUN = HERE / "perfbench" / "run.py"


def _perfbench_run():
    """``perfbench/run.py`` of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBE_NOMINAL_S = _perfbench_run().PROBE_NOMINAL_S

# Verbs run on the built algebra file; the "build" rung times the build itself.
VERBS = [["build"], ["check"], ["der"], ["der", "--compare"], ["weights"]]
# (name, verbs, build arguments): one-block gluings of dim 19 (the survey
# workload's median shape) and 37, two-block ones of dim 92 and 106, a
# three-block one of dim 171, and a three-block one of dim 253 for `check`
# and `der` alone.
GLUINGS = [
    ("n9m2r1", VERBS, ["--n", "9", "--m", "2", "--r", "1", "--B", '[["2"]]']),
    ("n9m4r1", VERBS, ["--n", "9", "--m", "4", "--r", "1", "--B", '[["1","2","-1"]]']),
    ("n15m6r2", VERBS, ["--n", "15", "--m", "6", "--r", "2",
                        "--B", '[["1","1","0","0"],["0","0","1","1"]]']),
    ("n13m8r2", VERBS, ["--n", "13", "--m", "8", "--r", "2",
                        "--B", '[["1","2","-1","0","0","0"],["0","0","0","1","3","1"]]']),
    ("n21m8r3", VERBS, ["--n", "21", "--m", "8", "--r", "3",
                        "--B", '[["1","2","0","0","0"],["0","0","1","-1","0"],["0","0","0","0","3"]]']),
    ("n25m10r3", [["check"], ["der"]], ["--n", "25", "--m", "10", "--r", "3",
                             "--B", '[["1","2","0","0","0","0","0"],["0","0","1","-1","0","0","0"],'
                                    '["0","0","0","0","3","1","2"]]']),
]
# Gluings that also get an `aut-check --strict` rung.  Its candidate is dense
# and passes: the generator images of exp(ad x), x the sum of all basis
# vectors, so the brute-force check brackets dense columns on every pair.
AUT_GLUINGS = ("n9m4r1", "n15m6r2", "n21m8r3")

# (name, (n, m, r), B1, B2) for `iso --strict`, all within the default cap on m.
# "classes": beta's columns are e_1, e_2, (1,1), (1,c) twice each, c = 2 against
# c = 3, so the class sizes agree and the search must refute every ordering of
# equal copies.  "generic": beta's columns pairwise non-proportional; the
# positive's B2 is B1 with its copies permuted and its tops rescaled.  The
# m = 8 generic pairs have r > m / 2, where the search runs on the columns of
# (A | I) in Q^(m-r); they are the pairs of the test suite's scale guard.
GENERIC_B1 = [["1", "2", "-1"], ["1", "-1", "3"], ["2", "1", "1"], ["1", "3", "-2"]]
GENERIC_M8 = {
    4: ([["3/2", "3/2", "-1", "1/2"], ["1", "-1", "-2", "2"],
         ["1/2", "1", "1/2", "1/2"], ["1", "-2", "-1/3", "2"]],
        [["-1", "3/2", "1", "2"], ["1", "1/2", "-1/3", "1/2"],
         ["1", "-1", "1/2", "1/2"], ["1", "-2", "1/2", "-1/3"]],
        [["3/4", "-1", "7/4", "13/4"], ["9/16", "3/4", "-27/16", "-33/16"],
         ["5/8", "1/6", "1/8", "-23/24"], ["-7/16", "1/12", "5/16", "61/48"]]),
    5: ([["3/2", "-2", "-1"], ["3", "1", "3/2"], ["3/2", "1/2", "3/2"],
         ["3/2", "3", "-1"], ["3/2", "3/2", "3/2"]],
        [["1/2", "3/2", "-1/3"], ["-2", "-2", "-2"], ["1/2", "2", "-2"],
         ["1", "-2", "3"], ["-2", "-1/3", "1/2"]],
        [["1/45", "-1/6", "4/15"], ["-1/3", "-5/2", "2"], ["-1/15", "-1/4", "1/5"],
         ["0", "-1/4", "2/3"], ["1/15", "1/4", "-7/10"]]),
    6: ([["3/2", "1"], ["3", "1/2"], ["3", "-2"], ["3/2", "-1"], ["3/2", "3/2"], ["1/2", "-1/3"]],
        [["3", "-2"], ["-1", "1"], ["-2", "-2"], ["-1", "-1"], ["1", "-2"], ["-1/3", "-1"]],
        [["-3/8", "15/4"], ["1/8", "-15/4"], ["-1/8", "3/2"], ["3/4", "-9/2"],
         ["1/12", "0"], ["-1/4", "0"]]),
}
# (5,12,r) pairs at the default cap, drawn like the test suite's m = 12 scale
# guard: generic_C and relabel with seed 1200 + r.
GENERIC_M12 = {
    4: ([["-1/3", "-1/3", "3", "-2", "-1/3", "-1", "-1/3", "3"],
         ["-1", "-1/3", "3", "2", "2", "-1", "1", "2"],
         ["1/2", "1", "-2", "-1", "-1", "-1", "1/2", "-1"],
         ["-1/3", "-2", "-1", "3/2", "-1/3", "3", "1/2", "3/2"]],
        [["-2", "-2", "-2", "1", "2", "-1/3", "-2", "2"],
         ["1", "-1", "-2", "-1/3", "2", "1", "-1", "3/2"],
         ["1/2", "3/2", "-1/3", "3/2", "-1/3", "3", "2", "3"],
         ["2", "3", "-1/3", "3/2", "-1/3", "-1", "1/2", "1/2"]],
        [["4/9", "29/27", "7/9", "-7/54", "-20/9", "20/27", "11/9", "-61/243"],
         ["-3/4", "-7/2", "-13/8", "3/8", "41/8", "-5/4", "-9/4", "1/6"],
         ["2", "10/3", "7/2", "-4/3", "-10", "10/3", "1", "-8/27"],
         ["1/18", "-20/27", "-5/18", "5/108", "17/36", "-2/27", "-2/9", "16/243"]]),
    6: ([["1/2", "3/2", "3", "3", "1", "1"], ["2", "1/2", "-2", "1", "-2", "1"],
         ["1/2", "3", "-1/3", "1", "1", "1/2"], ["-1/3", "3", "1/2", "1/2", "2", "3"],
         ["3", "3", "2", "3", "-1/3", "-2"], ["2", "-2", "2", "2", "-1", "1/2"]],
        [["1", "-2", "3", "1/2", "1", "1/2"], ["1", "1", "3", "1/2", "3/2", "3"],
         ["-1/3", "1", "1/2", "-1", "2", "-1"], ["-2", "-2", "-2", "-2", "2", "3"],
         ["1/2", "1", "1/2", "3", "-2", "3"], ["1", "-1/3", "-2", "2", "1/2", "1/2"]],
        [["1/14", "-2/7", "22/63", "-13/21", "-13/63", "20/63"],
         ["-8/7", "-10/7", "-80/21", "-58/21", "158/21", "-4/21"],
         ["-4/21", "44/21", "-40/63", "160/63", "-152/63", "-128/63"],
         ["3/28", "-65/21", "61/63", "-79/21", "437/126", "170/63"],
         ["69/14", "-229/7", "94/7", "-229/7", "269/7", "200/7"],
         ["1/7", "-4/7", "-4/21", "2/21", "10/21", "4/21"]]),
    8: ([["1", "-1", "-1/3", "3/2"], ["-1/3", "3", "3/2", "3/2"], ["2", "-1/3", "1/2", "1"],
         ["1/2", "-1/3", "-2", "-2"], ["3/2", "-2", "1/2", "1/2"], ["3", "1", "1", "1"],
         ["1", "-1", "1", "3"], ["3/2", "2", "2", "1"]],
        [["1/2", "3/2", "1/2", "-1"], ["-2", "3", "1", "-1/3"], ["-2", "-1", "-2", "3/2"],
         ["3", "-1", "2", "2"], ["2", "1", "2", "1"], ["1/2", "-1/3", "2", "-2"],
         ["2", "2", "3", "-1/3"], ["-2", "-1/3", "1/2", "-1"]],
        [["6/19", "240/19", "-102/19", "-30/19"], ["86/57", "184/19", "-183/38", "-88/57"],
         ["-332/171", "-880/57", "150/19", "463/171"], ["16/171", "188/57", "-26/19", "-80/171"],
         ["61/19", "958/19", "-1363/57", "-153/19"], ["11/19", "174/19", "-165/38", "-53/38"],
         ["6/19", "12/19", "-7/19", "-3/38"], ["79/114", "343/19", "-321/38", "-619/228"]]),
}
ISO_PAIRS = [
    ("n5m8r2-classes-no", (5, 8, 2),
     [["1", "0", "1", "1", "1", "1"], ["0", "1", "1", "1", "2", "2"]],
     [["1", "0", "1", "1", "1", "1"], ["0", "1", "1", "1", "3", "3"]]),
    ("n5m7r4-generic-no", (5, 7, 4), GENERIC_B1,
     [["1", "2", "-1"], ["1", "-1", "3"], ["2", "1", "1"], ["1", "3", "5"]]),
    ("n5m7r4-generic-yes", (5, 7, 4), GENERIC_B1,
     [["-1/7", "15/14", "2/7"], ["-8/7", "25/7", "-5/7"],
      ["10/21", "-5/21", "1/21"], ["-12/7", "20/7", "10/7"]]),
] + [
    (f"n5m{m}r{r}-generic-{verdict}", (5, m, r), B1, B2)
    for m, pairs in ((8, GENERIC_M8), (12, GENERIC_M12))
    for r, (B1, no, yes) in pairs.items()
    for verdict, B2 in (("no", no), ("yes", yes))
]

TIME_LIMIT_S = 120
# The functions a run times, as (module, name, phase); the child reports each
# phase as "<phase>_s", summed over its functions.  The child patches a name
# only in a listed module that binds it, and every entry binds in this tree.
TIMED = [
    ("qfla.cli", "derivation_oracle", "oracle"),
    ("qfla.cli", "torus_basis", "closed"),
    ("qfla.cli", "nilpotent_basis", "closed"),
    ("qfla.cli", "_spans_der", "compare"),
    ("qfla.cli", "_emit", "emit"),
    ("qfla.cli", "lower_central_series", "lcs"),
    ("qfla.cli", "quasi_cyclic_split", "split"),
    ("qfla.iso", "copy_cells", "cells"),
    ("qfla.iso", "_first_admissible_perm", "search"),
    ("qfla.iso", "build_algebra_witness", "witness"),
    ("qfla.cli", "extend_through_grading", "extend"),
    ("qfla.liecore", "bracket_preserving", "verify"),
]
PHASES = tuple(dict.fromkeys(phase for _, _, phase in TIMED))

# Runs in the child: time the import of qfla.cli after perfbench's run.py,
# then cli.main on argv (stdout counted in bytes and dropped, so the peak RSS
# counts no output text that the verb did not hold), and within it each phase
# (null when the verb does not reach it): the derivation oracle, the
# closed-form torus and nilpotent bases (summed), the span comparison of
# der --compare, the emission (``_emit``, which makes the text and writes it),
# check's series and split, iso's cells, search and witness, aut-check's
# extension, and the brute-force bracket check; report these raw times and
# the import's, the scale factor from perfbench's speed probe taken just
# before and just after cli.main, the exit code, the stdout byte count, peak
# RSS and the resident set right after the import as one JSON line.
CHILD = """
import contextlib, importlib, importlib.util, json, sys, time

def status_mb(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) / 1024 for line in status if line.startswith(field))

probe = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
perfbench_run = importlib.util.module_from_spec(probe)
probe.loader.exec_module(perfbench_run)
sys.path.insert(0, sys.argv[2])
t0 = time.perf_counter()
import qfla.cli
imported = time.perf_counter() - t0
base_rss_mb = status_mb("VmRSS:")
TIMED = json.loads(sys.argv[3])
argv = sys.argv[4:]
spent = {phase + "_s": [] for _, _, phase in TIMED}

def timed(fn, key):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[key].append(time.perf_counter() - t0)
    return wrapper

for module, name, phase in TIMED:
    module = importlib.import_module(module)
    if hasattr(module, name):
        setattr(module, name, timed(getattr(module, name), phase + "_s"))
class Counted:
    bytes = 0
    def write(self, text):
        Counted.bytes += len(text.encode())
        return len(text)
    def flush(self):
        pass

with contextlib.redirect_stdout(Counted()):
    before = perfbench_run.speed_probe()
    t0 = time.perf_counter()
    rc = qfla.cli.main(argv)
    elapsed = time.perf_counter() - t0
    scale = perfbench_run.PROBE_NOMINAL_S * 2 / (before + perfbench_run.speed_probe())
rss_mb = status_mb("VmHWM:")
result = {key: sum(times) if times else None for key, times in spent.items()}
print(json.dumps({"s": elapsed, "import_s": imported, **result, "scale": scale, "rc": rc,
                  "out_bytes": Counted.bytes, "rss_mb": rss_mb, "base_rss_mb": base_rss_mb}))
"""


# Runs in the child: write the exp(ad x) candidate for an algebra file.
CANDIDATE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qfla.automorphisms import exp_ad
from qfla.jsonio import algebra_from_json, candidate_to_json
with open(sys.argv[2]) as f:
    L, spec = algebra_from_json(json.load(f))
cols = exp_ad(L, {k: 1 for k in range(L.dim)}).columns()
e0, e1 = ([cols[spec.gen_index(s, t)] for s in range(1, spec.m + 1)] for t in (0, 1))
with open(sys.argv[3], "w") as f:
    json.dump(candidate_to_json(spec, e0, e1), f)
"""


def _child(src: Path, pycache: Path, argv: list, compile_first: bool = False) -> dict:
    """Run CHILD on argv with the bytecode under ``pycache``: reading it under
    ``-B``, or, with ``compile_first``, writing what is missing there."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    flags = [] if compile_first else ["-B"]
    try:
        out = subprocess.run(
            [sys.executable, *flags, "-c", CHILD, str(PERFBENCH_RUN), str(src), json.dumps(TIMED)]
            + argv,
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return {"s": None, "rc": "timeout", "rss_mb": None}
    return json.loads(out.stdout.strip().splitlines()[-1])


def _rounded(x):
    return None if x is None else round(x, 5)


def _median(values):
    values = list(values)
    return round(statistics.median(values), 5) if values else None


def _git_hash(path: Path) -> str:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, text=True
        ).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _src_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted((path / "src" / "qfla").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--runs", type=int, default=5, help="runs per rung and tree (k)")
    parser.add_argument("--tree", action="append", default=[], help="LABEL=PATH of a checkout")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {}
    for item in args.tree or [f"this={HERE}"]:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "src" / "qfla").is_dir():
            parser.error(f"--tree {item!r}: expected LABEL=PATH of a checkout with src/qfla")
        trees[label] = Path(path).resolve()

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "trees": {
            label: {"git": _git_hash(p), "src_sha256": _src_sha256(p), "rungs": {}}
            for label, p in trees.items()
        },
    }
    labels = list(trees)

    def rung(name: str, argv_of) -> None:
        """Time argv_of(label) for every tree, the trees taking turns first."""
        times = {label: [] for label in labels}
        for k in range(args.runs):
            for label in labels[k % len(labels):] + labels[: k % len(labels)]:
                times[label].append(_child(trees[label] / "src", pycache, argv_of(label)))
        for label in labels:
            runs = times[label]
            done = [r for r in runs if r["rc"] != "timeout"]
            entry = report["trees"][label]["rungs"][name] = {
                "median_s": _median(r["s"] * r["scale"] for r in done),
                "runs_s": [_rounded(r["s"] and r["s"] * r["scale"]) for r in runs],
                "raw_median_s": _median(r["s"] for r in done),
                "import_median_s": _median(r["import_s"] * r["scale"] for r in done),
                "raw_import_median_s": _median(r["import_s"] for r in done),
                "raw_runs_s": [_rounded(r["s"]) for r in runs],
                "scales": [_rounded(r.get("scale")) for r in runs],
                "peak_rss_mb": (
                    round(statistics.median(r["rss_mb"] for r in done), 1) if done else None
                ),
                "base_rss_mb": (
                    round(statistics.median(r["base_rss_mb"] for r in done), 1) if done else None
                ),
                "peak_rss_growth_mb": (
                    round(statistics.median(r["rss_mb"] - r["base_rss_mb"] for r in done), 2)
                    if done else None
                ),
                "out_bytes": done[0]["out_bytes"] if done else None,
                "exit": "timeout" if len(done) < len(runs) else runs[0]["rc"],
            }
            shown = "timeout" if not done else f"{entry['median_s']:.4f} s"
            if done:
                shown += (f" (import {entry['import_median_s']:.4f} s, {entry['out_bytes']} B out,"
                          f" +{entry['peak_rss_growth_mb']:.2f} MB RSS)")
            for phase in PHASES:
                key = f"{phase}_s"
                reached = [r for r in done if r[key] is not None]
                if reached:
                    entry[f"{phase}_median_s"] = _median(r[key] * r["scale"] for r in reached)
                    entry[f"raw_{phase}_median_s"] = _median(r[key] for r in reached)
                    shown += f" ({phase} {entry[f'{phase}_median_s']:.4f} s)"
            print(f"{label:>8}  {name:<24} {shown}")

    with tempfile.TemporaryDirectory() as tmp:
        pycache = Path(tmp) / "pycache"
        for label in labels:
            _child(trees[label] / "src", pycache, ["-h"], compile_first=True)
        for name, verbs, build in GLUINGS:
            files = {}
            for label in labels:
                files[label] = str(Path(tmp) / f"{label}-{name}.json")
                _child(trees[label] / "src", pycache, ["build", *build, "--out", files[label]])
            for verb in verbs:
                if verb == ["build"]:
                    argv_of = lambda label: ["build", *build]  # noqa: E731
                else:
                    argv_of = lambda label: [*verb, files[label]]  # noqa: E731
                rung(" ".join([name, *verb]), argv_of)
            if name in AUT_GLUINGS:
                cands = {}
                for label in labels:
                    cands[label] = str(Path(tmp) / f"{label}-{name}-cand.json")
                    subprocess.run(
                        [sys.executable, "-B", "-c", CANDIDATE, str(trees[label] / "src"),
                         files[label], cands[label]],
                        check=True,
                    )
                rung(
                    f"{name} aut-check --strict",
                    lambda label: ["aut-check", files[label], cands[label], "--strict"],
                )
        for name, (n, m, r), *Bs in ISO_PAIRS:
            paths = [str(Path(tmp) / f"{name}-{k}.json") for k in (1, 2)]
            for path, B in zip(paths, Bs):
                Path(path).write_text(json.dumps({"n": n, "m": m, "r": r, "B": B}))
            rung(f"{name} iso", lambda label: ["iso", *paths, "--strict"])
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
