"""Benchmark of the ``qfla`` CLI: one closed-loop client, one request in flight.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for how inputs are made from the seed):

- ``survey``: one gluing analysed start to finish, ``build`` -> ``check`` ->
  ``der --compare`` -> ``weights``.  LCS, the derivation oracle and dense
  column spans do the work; the isomorphism sweep does none.
- ``iso-mix``: one ``iso --strict`` call on two gluings with n in {5, 7},
  m in {5, 6}; a third are negatives that sweep all m! copy permutations, the
  rest relabelled copies whose witness is built and re-verified.
- ``aut-stream``: short ``aut-check --strict`` calls of dense candidates
  against four algebra files; each pays file load, Jacobi and a dense rank.

Every CLI call runs ``qfla.cli.main(argv)`` in a process forked from a parent
that has imported ``qfla`` but run no request, so no cache outlives a call, as
for a user running the ``qfla`` command.  A request's time is the sum of its
calls' ``cli.main`` times, calibrated for machine speed (see PROBE_NOMINAL_S);
forking and the output checks fall outside it.  The pool is replayed in whole
rounds, as many as take about ``--seconds`` (see ROUND_S).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays whole
rounds of the request pool, running each call untraced and then traced, and
reports per-request layer metrics from spans recorded at the public functions
of each ``qfla`` module, plus the tracing overhead (traced minus untraced
``cli.main`` time).  Spans and per-request records are written to
``.perfbench/`` at the root of the checkout.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed`` counts requests whose output reports that the program could not do
what was asked (such as ``der --compare`` giving ``agree: false``) or fails a
check; ``correct`` is false when any output fails an independent check.
"""
from __future__ import annotations

import argparse
import contextlib
import fractions
import gc
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11
# A shared 2-vCPU virtual machine was measured changing speed by up to 1.7x
# within seconds (identical `check` calls took 0.12 s or 0.21 s), which made
# run-to-run spreads of 13-19%.  Each timed interval is therefore scaled by
# PROBE_NOMINAL_S / (mean time of a fixed probe run just before and just after
# it): times are seconds at the speed where the probe takes PROBE_NOMINAL_S,
# and spreads drop to about 5%.  Raw wall times are kept in the records file.
PROBE_NOMINAL_S = 0.010

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

# Calibrated busy seconds of one round of each full pool, measured at the
# commit that added the benchmark.  A run replays round(--seconds / ROUND_S)
# rounds (half as many when traced, as each call then runs twice), so both
# sides of a change time the same requests and the tail is the same
# percentile; --seconds is the measuring time at that commit's speed.
ROUND_S = {"survey": 7.8, "iso-mix": 4.3, "aut-stream": 2.9}

END_TO_END = [
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _import_qfla():
    import qfla
    import qfla.cli  # noqa: F401  the module the `qfla` command loads

    return qfla


def _setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import qfla and write the workload's input files; the part ``setup_s`` times."""
    qfla = _import_qfla()
    workdir.mkdir(parents=True)
    return qfla, workloads.generate(workload, seed, workdir, lambda argv: _cli_in_worker(qfla, argv), tiny)


def _private_fraction():
    """``Fraction`` from a private copy of the stdlib ``fractions`` module, a
    class that nothing in qfla can reach or patch."""
    spec = importlib.util.spec_from_file_location("_probe_fractions", fractions.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Fraction


_Fraction = _private_fraction()


def speed_probe() -> float:
    """Seconds taken by fixed exact-rational work of the kind qfla does.

    The probe runs in the worker, next to the program under test.  It uses a
    private ``Fraction`` class and runs with the garbage collector off, so
    that neither a change to qfla's arithmetic or gc settings nor the garbage
    a call leaves behind rescales the yardstick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(1, 1200):
            table[i % 97] = _Fraction(i % 13 + 1, i % 7 + 2) + _Fraction(3, i % 11 + 1) * _Fraction(i % 5 + 1, 3)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """(result, calibrated seconds, raw seconds) of ``fn()``."""
    before = speed_probe()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw * PROBE_NOMINAL_S * 2 / (before + speed_probe()), raw


# -- one call in a fresh worker ---------------------------------------------------------


def _in_worker(fn):
    """Run ``fn()`` in a forked child; return its JSON-able result and the
    child's peak RSS in MB.  The parent reads the pipe to EOF before reaping."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(fn()).encode("utf-8")
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        return None, usage.ru_maxrss / 1024
    return json.loads(data), usage.ru_maxrss / 1024


def _cli_in_worker(qfla, argv: list):
    """Exit code of ``qfla.cli.main(argv)`` run in a fresh worker, output
    discarded, or None when the worker died."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return qfla.cli.main(argv)

    return _in_worker(call)[0]


def _call(qfla, call: workloads.Call, traced: bool) -> dict:
    spans: list = []
    if traced:
        tracer.install(qfla, spans)
    main = qfla.cli.main
    out, err = io.StringIO(), io.StringIO()
    raised = None

    def cli_main():
        nonlocal raised
        try:
            return main(call.argv)
        except Exception as exc:  # a traceback from the CLI is a bug; report it
            raised = f"{type(exc).__name__}: {exc}"

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, elapsed, raw = timed(cli_main)
    problems = [("error", f"cli.main raised {raised}")] if raised else call.check(rc, out.getvalue())
    # Span times, relative to the call's first span, get the call's calibration.
    t_base, scale = (spans[0][3] if spans else 0), (elapsed / raw if raw else 1.0)
    for span in spans:
        span[3] = (span[3] - t_base) * scale
        span[4] = (span[4] - t_base) * scale
    return {"s": elapsed, "raw_s": raw, "problems": problems, "spans": spans}


def run_request(qfla, request: workloads.Request, traced: bool) -> dict:
    record = {"label": request.label, "s": 0.0, "raw_s": 0.0, "problems": [], "rss_mb": 0.0, "calls": []}
    for call in request.calls:
        result, rss = _in_worker(lambda: _call(qfla, call, traced))
        record["rss_mb"] = max(record["rss_mb"], rss)
        if result is None:
            record["problems"].append(["error", f"{call.argv[0]}: worker died"])
            continue
        record["s"] += result["s"]
        record["raw_s"] += result["raw_s"]
        record["problems"] += [[sev, f"{call.argv[0]}: {msg}"] for sev, msg in result["problems"]]
        record["calls"].append((call.argv[0], result["spans"]))
    return record


# -- runs -------------------------------------------------------------------------------


def _rounds(requests: list, rounds: int, seconds: float, run_one) -> list:
    """Replay the pool ``rounds`` times in order, so every run, on either side
    of a change, sees the same requests; no round starts after three times
    ``seconds`` of wall time.  ``run_one`` returns the records of one request."""
    results, start = [], time.perf_counter()
    for _ in range(rounds):
        results += [run_one(request) for request in requests]
        if time.perf_counter() - start > 3 * seconds:
            break
    return results


def untraced_run(qfla, requests: list, rounds: int, seconds: float) -> list:
    return _rounds(requests, rounds, seconds, lambda request: run_request(qfla, request, False))


def traced_run(qfla, requests: list, rounds: int, seconds: float) -> list:
    """Each request untraced then traced: (untraced, traced) record pairs.
    Whole rounds make the per-request counts repeat exactly for one seed."""
    return _rounds(
        requests,
        rounds,
        seconds,
        lambda request: (run_request(qfla, request, False), run_request(qfla, request, True)),
    )


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, or the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _git_hash():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small pools, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "qfla" / "__init__.py").is_file():
        print(f"error: no qfla package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    try:
        # Set-up is timed in fresh children first (the parent has not imported
        # qfla yet), then once more for real; setup_s is the median.
        setup_times = []
        for k in range(SETUP_SAMPLES - 1):
            scratch = OUT / f"setup-{os.getpid()}-{k}"

            def sample():
                return timed(lambda: _setup(args.workload, args.seed, scratch, args.tiny))[1]

            try:
                elapsed, _ = _in_worker(sample)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if elapsed is None:
                print("error: set-up failed in a worker", file=sys.stderr)
                return 2
            setup_times.append(elapsed)
        (qfla, requests), elapsed, _ = timed(lambda: _setup(args.workload, args.seed, workdir, args.tiny))
        setup_times.append(elapsed)
        if Path(qfla.__file__).resolve().parent != (SRC / "qfla").resolve():
            print(f"error: imported qfla from {qfla.__file__}, not {SRC}", file=sys.stderr)
            return 2
        cache_info = getattr(qfla.build_quasi, "cache_info", None)
        if cache_info is not None and cache_info().currsize:
            print("error: set-up filled build_quasi's cache, which every worker would inherit", file=sys.stderr)
            return 2

        rounds = max(1, round(args.seconds / ROUND_S[args.workload] / (2 if args.trace else 1)))
        if args.trace:
            pairs = traced_run(qfla, requests, rounds, args.seconds)
            for number, (untraced, traced) in enumerate(pairs):
                untraced.update(request=number, traced=False)
                traced.update(request=number, traced=True)
            records = [rec for pair in pairs for rec in pair]
            metrics = tracer.summarize([traced["calls"] for _, traced in pairs])
            metrics["trace.overhead_s"] = sum(t["s"] - u["s"] for u, t in pairs) / len(pairs)
            units = dict(tracer.PER_LAYER)
            attempted = len(pairs)
            failed = sum(1 for u, t in pairs if u["problems"] or t["problems"])
            result_metrics = {name: _metric(metrics[name], units[name]) for name, _ in tracer.PER_LAYER}
            extra = {}
        else:
            records = untraced_run(qfla, requests, rounds, args.seconds)
            for number, rec in enumerate(records):
                rec.update(request=number, traced=False)
            times = [rec["s"] for rec in records]
            tail_s, tail_pct = tail(times)
            values = {
                "request_p50_s": statistics.median(times),
                "request_tail_s": tail_s,
                "requests_per_s": len(times) / sum(times),
                "peak_rss_mb": max(rec["rss_mb"] for rec in records),
                "setup_s": statistics.median(setup_times),
            }
            attempted = len(records)
            failed = sum(1 for rec in records if rec["problems"])
            result_metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
            raw = [rec["raw_s"] for rec in records]
            extra = {
                "request_tail_percentile": tail_pct,
                "error_rate": failed / attempted,
                "raw_request_p50_s": statistics.median(raw),
                "raw_requests_per_s": len(raw) / sum(raw),
            }
        correct = not any(sev == "error" for rec in records for sev, _ in rec["problems"])
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "python": platform.python_version(),
            "git": _git_hash(),
            "nproc": len(os.sched_getaffinity(0)),
            "pool_size": len(requests),
            "rounds": rounds,
            "requests": attempted,
            "setup_samples_s": setup_times,
            **extra,
        }
        (OUT / f"{stem}.json").write_text(
            json.dumps({"meta": meta, "metrics": result_metrics, "records": records}), encoding="utf-8"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = sorted({msg for rec in records for _, msg in rec["problems"]})
    for msg in problems[:10]:
        print(f"problem: {msg}", file=sys.stderr)
    print("run: " + json.dumps(meta))
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"raw_request_p50_s = {extra['raw_request_p50_s']:.6g} s (wall time, not calibrated)")
        print(f"raw_requests_per_s = {extra['raw_requests_per_s']:.6g} 1/s (wall time, not calibrated)")
        print(f"request_tail_s is p{extra['request_tail_percentile']:.1f} of {attempted} requests")
        print(f"error_rate = {extra['error_rate']:.6g} ({failed} of {attempted} requests)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
