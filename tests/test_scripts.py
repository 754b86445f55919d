"""Smoke tests of the scripts in scripts/: each runs to the end and reports
what it promises."""
import importlib
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    # so a phase that binds nowhere would read null on every rung
    ladder = runpy.run_path(str(SCRIPTS / "bench_ladder.py"))
    bound = {
        phase
        for module, name, phase in ladder["TIMED"]
        if hasattr(importlib.import_module(module), name)
    }
    assert bound == set(ladder["PHASES"])
