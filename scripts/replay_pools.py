"""Replay every call of perfbench's three request pools on each tree, and list
the calls whose exit code, stdout or stderr differ between the trees.

    python scripts/replay_pools.py --tree parent=/path/to/a/checkout --tree change=. \
        --seeds 1 2 7

Each ``--tree LABEL=PATH`` names a checkout whose ``src/qfla`` is replayed;
the first tree is the reference that the others are compared with.  The
pools are those of ``perfbench/workloads.py`` in this checkout, which is read
and never changed: per seed and workload, ``workloads.generate`` makes the
requests and writes their input files (aut-stream's algebra files by the
tree's own ``qfla build``) into a fresh directory at one path for every tree,
so no output can differ by a path alone.  One child interpreter per tree
runs every call in order with ``qfla.cli.main(argv)``, in-process, with
``build_quasi``'s cache cleared before each call as a fresh ``qfla`` process
would have it; a call that raises counts its exception type as its exit code.
A call is listed when its exit code, or the sha256 of its stdout or of its
stderr, differs from the reference tree's.  The exit status is 1 when some
call is listed or the trees replay different calls, and 0 otherwise.
``--tiny`` replays perfbench's small pools.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = HERE / "perfbench" / "workloads.py"

# Runs in the child: replay the pools on the tree at argv[1], one JSON line
# per call: [workload, seed, request label, call number, argv, exit code,
# stdout sha256, stderr sha256].
CHILD = """
import contextlib, hashlib, importlib.util, io, json, shutil, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import qfla.builder, qfla.cli
spec = importlib.util.spec_from_file_location("workloads", sys.argv[2])
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
workdir, seeds, tiny = Path(sys.argv[3]), json.loads(sys.argv[4]), sys.argv[5] == "1"

def run(argv):
    getattr(qfla.builder.build_quasi, "cache_clear", lambda: None)()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qfla.cli.main(argv)
        except Exception as exc:
            rc = "raised " + type(exc).__name__
    return rc, out.getvalue(), err.getvalue()

def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

for seed in seeds:
    for workload in workloads.WORKLOADS:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        requests = workloads.generate(workload, seed, workdir, lambda argv: run(argv)[0], tiny)
        for request in requests:
            for number, call in enumerate(request.calls):
                rc, out, err = run(call.argv)
                line = [workload, seed, request.label, number, call.argv, rc, sha(out), sha(err)]
                print(json.dumps(line), flush=True)
shutil.rmtree(workdir, ignore_errors=True)
"""


def replay(src: Path, workdir: Path, seeds: list, tiny: bool) -> list:
    """The child's records of every call, replayed on the tree whose package is under src."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(src), str(WORKLOADS), str(workdir),
         json.dumps(seeds), "1" if tiny else "0"],
        capture_output=True,
        text=True,
    )
    if out.returncode:
        raise RuntimeError(f"replay on {src} exited with {out.returncode}:\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, help="LABEL=PATH of a checkout")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds")
    parser.add_argument("--tiny", action="store_true", help="perfbench's small pools")
    args = parser.parse_args(argv)
    trees = {}
    for item in args.tree:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "src" / "qfla").is_dir():
            parser.error(f"--tree {item!r}: expected LABEL=PATH of a checkout with src/qfla")
        trees[label] = Path(path).resolve()
    tmp = Path(tempfile.mkdtemp(prefix="replay-"))
    try:
        records = {
            label: replay(path / "src", tmp / "work", args.seeds, args.tiny)
            for label, path in trees.items()
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (first, reference), *others = records.items()
    status = 0
    for label, got in others:
        differ = 0
        if [r[:5] for r in got] != [r[:5] for r in reference]:
            print(f"{label}: replays other calls than {first} ({len(got)} vs {len(reference)})")
            status = 1
            continue
        for ref, rec in zip(reference, got):
            fields = [name for k, name in ((5, "exit code"), (6, "stdout"), (7, "stderr"))
                      if ref[k] != rec[k]]
            if fields:
                differ += 1
                workload, seed, request, number, call_argv = rec[:5]
                print(f"{label}: {workload} seed {seed} {request!r} call {number} "
                      f"({' '.join(call_argv[:1])}): {', '.join(fields)} differ")
        print(f"{label} against {first}: {len(got)} calls, {differ} differ")
        status = status or int(differ > 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
