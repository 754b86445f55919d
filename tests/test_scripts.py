"""Smoke tests of the scripts in scripts/: each runs to the end and reports
what it promises."""
import importlib
import importlib.util
import json
import re
import runpy
import shutil
import sys
from pathlib import Path

from qfla.builder import related_matrix
from qfla.iso import split_scale

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_main(name: str, capsys) -> str:
    runpy.run_path(str(SCRIPTS / name))["main"]()
    return capsys.readouterr().out


def test_derivation_survey_finds_no_mismatch(capsys):
    out = run_main("derivation_survey.py", capsys)
    rows = out.splitlines()[1:]
    assert len(rows) == 7
    assert "MISMATCH" not in out
    # every gluing prints its torus size, mixing ones included
    columns = [row[35:].split() for row in rows]  # dim oracle formula torus nilp note
    assert all(cols[3].isdigit() for cols in columns)


def test_iso_demo_reaches_both_verdicts(capsys):
    out = run_main("iso_demo.py", capsys)
    assert '"isomorphic": true' in out
    assert '"isomorphic": false' in out
    assert "# verified: bijective, bracket-preserving" in out


def test_every_ladder_phase_binds_in_this_tree():
    # the ladder's child patches a timed name only where a module binds it,
    # so an entry that binds nowhere times nothing, and a phase made only of
    # such entries would read null on every rung
    ladder = runpy.run_path(str(SCRIPTS / "bench_ladder.py"))
    unbound = [
        (module, name)
        for module, name, _ in ladder["TIMED"]
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not unbound


def test_ladder_times_the_import(tmp_path, monkeypatch):
    # one small gluing, its two rungs and its aut-check rung, one run each,
    # on this checkout
    spec = importlib.util.spec_from_file_location("bench_ladder", SCRIPTS / "bench_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    build = ["--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]']
    gluing = ("n5m2r1", [["build"], ["check"]], build)
    monkeypatch.setattr(ladder, "GLUINGS", [gluing])
    monkeypatch.setattr(ladder, "AUT_GLUINGS", ("n5m2r1",))
    monkeypatch.setattr(ladder, "ISO_PAIRS", [])
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out), "--runs", "1"]) == 0
    rungs = json.loads(out.read_text())["trees"]["this"]["rungs"]
    assert set(rungs) == {"n5m2r1 build", "n5m2r1 check", "n5m2r1 aut-check --strict"}
    for entry in rungs.values():
        assert entry["exit"] == 0
        assert entry["import_median_s"] > 0 and entry["raw_import_median_s"] > 0
        assert entry["out_bytes"] > 0
        # the verb's own memory: the peak past the one right after the import
        assert 0 < entry["base_rss_mb"] <= entry["peak_rss_mb"]
        assert entry["peak_rss_growth_mb"] >= 0
    # check's one walk is the split: the built gluing's indices rise
    check = rungs["n5m2r1 check"]
    assert check["split_median_s"] > 0 and "lcs_median_s" not in check
    # aut-check extends its candidate and brute-forces the bracket check
    aut = rungs["n5m2r1 aut-check --strict"]
    assert aut["extend_median_s"] > 0 and aut["verify_median_s"] > 0


def test_replay_lists_exactly_the_calls_that_differ(capsys, tmp_path):
    replay = runpy.run_path(str(SCRIPTS / "replay_pools.py"))["main"]
    tiny = ["--seeds", "1", "--tiny"]
    assert replay(["--tree", f"one={ROOT}", "--tree", f"two={ROOT}", *tiny]) == 0
    same = capsys.readouterr().out
    assert re.fullmatch(r"two against one: [1-9]\d* calls, 0 differ\n", same)
    # a mutant whose der writes one more byte to stdout, and nothing else changed
    shutil.copytree(ROOT / "src" / "qfla", tmp_path / "src" / "qfla")
    with open(tmp_path / "src" / "qfla" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_main = main\n\n\ndef main(argv=None):\n    rc = _main(argv)\n"
            "    if argv[:1] == ['der']:\n        sys.stdout.write(' ')\n    return rc\n"
        )
    assert replay(["--tree", f"one={ROOT}", "--tree", f"mutant={tmp_path}", *tiny]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"mutant against one: {same.split()[3]} calls, {len(lines) - 1} differ"
    assert len(lines) > 1
    assert all(line.endswith("call 2 (der): stdout differ") for line in lines[:-1])


def test_pairs_summarise_every_end_to_end_metric(capsys, tmp_path, monkeypatch):
    pairs = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    out = tmp_path / "pairs.json"
    argv = ["--tree", f"one={ROOT}", "--tree", f"two={ROOT}", "--workload", "iso-mix",
            "--pairs", "1", "--seconds", "1", "--tiny", "--out", str(out)]
    assert pairs(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("iso-mix pair 1/1 seed 1 one: failed 0/")
    assert lines[1].startswith("iso-mix pair 1/1 seed 1 two: failed 0/")
    assert lines[2] == "iso-mix:"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines[3:]] == names
    written = json.loads(out.read_text())
    assert written["workloads"] == ["iso-mix"] and set(written["runs"]) == {"iso-mix"}
    summary = written["summary"]["iso-mix"]
    assert set(summary) == set(names)
    for entry in summary.values():
        assert entry["pairs"] == 1 and entry["won"] in (0, 1) and entry["one_iqr"] == 0
    # the relative change of the medians, change / reference - 1, after them
    for name, line in zip(names, lines[3:]):
        entry = summary[name]
        assert entry["relative"] == entry["two"] / entry["one"] - 1
        assert line.split()[5] == f"{entry['relative']:+.2%}"
        assert entry["verdict"] != "gain shown"  # one pair shows no gain
        assert line.endswith(f"is better): {entry['verdict']}")

    # ten canned pairs on each of two workloads, (reference runs, change runs)
    # per metric, give each verdict; survey swaps the p50 and tail runs
    gain, worse = ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [9] * 10), ([10] * 10, [13] * 10)
    canned = {
        "request_p50_s": gain,
        "request_tail_s": worse,  # 30% worse, the bound is 20%
        "requests_per_s": ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                           [99, 100, 101, 100, 98, 102, 99, 100, 100, 101]),
        "peak_rss_mb": ([10, 20] * 5, [15] * 10),  # IQR 10, wider than 10% of 15
        # as wide, but every change run is better than every reference run
        "setup_s": ([1.0, 2.0] * 5, [0.9] * 10),
    }
    canned = {"iso-mix": canned, "survey": dict(canned, request_p50_s=worse, request_tail_s=gain)}
    expected = {"request_p50_s": "gain shown", "request_tail_s": "worse than bound",
                "requests_per_s": "within bound", "peak_rss_mb": "unresolved",
                "setup_s": "within bound"}
    expected = {"iso-mix": expected, "survey": dict(
        expected, request_p50_s="worse than bound", request_tail_s="gain shown")}
    assert set(canned["survey"]) == set(names)
    done = {}  # runs so far per workload of the reference's copy t0 and the change's t1

    def canned_run(command, copy, workload, seed, seconds, tiny):
        key = (workload, copy.name)
        k = done[key] = done.get(key, -1) + 1
        runs = canned[workload]
        metrics = {name: {"value": runs[name][copy.name == "t1"][k]} for name in runs}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setitem(pairs.__globals__, "_run", canned_run)
    argv = argv[:6] + ["--workload", "survey", "--pairs", "10", "--out", str(out)]
    assert pairs(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    written = json.loads(out.read_text())
    assert written["workloads"] == ["iso-mix", "survey"]
    for block, workload in enumerate(["iso-mix", "survey"]):
        head = 26 * block + 20  # each block follows its workload's 20 runs
        assert all(line.startswith(f"{workload} pair ") for line in lines[head - 20 : head])
        assert lines[head] == f"{workload}:"
        summary = written["summary"][workload]
        assert all(len(runs) == 10 for runs in written["runs"][workload].values())
        for name, line in zip(names, lines[head + 1 : head + 6], strict=True):
            assert summary[name]["verdict"] == expected[workload][name]
            assert line.endswith(f"is better): {expected[workload][name]}")
    assert len(lines) == 52


def test_unreached_lines_lists_what_one_call_skips(capfd, tmp_path):
    # one in-process related call: related_matrix runs, split_scale does not
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 5, "m": 3, "r": 1, "B": [["1", "2"]]}))
    call = f"import sys; from qfla.cli import main; sys.exit(main(['related', {str(spec)!r}]))"
    unreached = runpy.run_path(str(SCRIPTS / "unreached_lines.py"))["main"]
    assert unreached(["--", sys.executable, "-c", call]) == 0
    out = capfd.readouterr().out.splitlines()
    rows = [row.split(":", 2) for row in out if row.startswith("src/qfla/")]
    listed = {(name, int(line)) for name, line, _ in rows}
    assert out[-1] == f"{len(rows)} unreached lines in src/qfla" and len(listed) == len(rows)

    def body(fn) -> set:
        code = fn.__code__
        return {line for _, _, line in code.co_lines() if line and line != code.co_firstlineno}

    assert not {("src/qfla/builder.py", line) for line in body(related_matrix)} & listed
    assert {("src/qfla/iso.py", line) for line in body(split_scale)} <= listed
    # the command's exit status is the script's
    assert unreached(["--", sys.executable, "-c", "raise SystemExit(3)"]) == 3
