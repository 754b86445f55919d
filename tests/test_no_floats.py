"""No floats: every scalar the package computes or prints stays exact.

Scalars are ints when integral and Fractions otherwise, and ``int / int`` is a
float, so every true division in ``src/qfla`` must take a ``Fraction(...)``
call on its left.  Every scalar the CLI prints must be an integer or "p/q"
string, in JSON that holds no float literal.
"""
import ast
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from test_acceptance import GOLDEN_BATTERY, golden_files
from qfla.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "qfla"
EXACT = re.compile(r"-?\d+(/\d+)?")
# any string a reader could take for a number: digits with signs, dots,
# slashes or exponents, or an infinity or NaN
NUMBER_LIKE = re.compile(r"[-+0-9./eE]*\d[-+0-9./eE]*|[-+]?(inf|infinity|nan)", re.IGNORECASE)


def _inexact_divisions(source: str) -> list:
    """Line numbers of the true divisions whose left operand is not a
    ``Fraction(...)`` call; ``x /= y`` always counts."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
            called = isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
            if not (called and left.func.id == "Fraction"):
                lines.append(node.lineno)
    return sorted(lines)


def test_every_true_division_has_a_fraction_on_its_left():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := _inexact_divisions(path.read_text(encoding="utf-8")))
    }
    assert not found


def test_the_division_guard_sees_int_divisions():
    source = "a = 1 / x\nb = Fraction(1) / x\nc /= 2\nd = (x // 2) / y\ne = f(x) / y\n"
    assert _inexact_divisions(source) == [1, 3, 4, 5]


def _refuse(text):
    raise AssertionError(f"float literal {text} in the output")


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _strings(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _strings(value)


def exact_scalars(out: str) -> list:
    """The scalar strings of a CLI output, after checking that its JSON holds
    no float and that each of them is an integer or "p/q"."""
    data = json.loads(out, parse_float=_refuse, parse_constant=_refuse)
    scalars = [s for s in _strings(data) if NUMBER_LIKE.fullmatch(s)]
    assert all(EXACT.fullmatch(s) for s in scalars), [s for s in scalars if not EXACT.fullmatch(s)]
    return scalars


def test_golden_battery_prints_exact_scalars(tmp_path, capsys):
    files = golden_files(tmp_path)
    capsys.readouterr()
    for template, code, _ in GOLDEN_BATTERY:
        assert main([arg.format(**files) for arg in template]) == code
        exact_scalars(capsys.readouterr().out)


def _fractional_gluing(rng: random.Random, n: int, m: int, r: int) -> list:
    values = ["1/2", "-2/3", "3/4", "4/2", "-1", "3", "0"]
    B = [[rng.choice(values) for _ in range(m - r)] for _ in range(r)]
    B[0] = [x if x != "0" else "5/3" for x in B[0]]  # no zero column, and a fraction
    return B


def test_fractional_gluings_print_exact_scalars(tmp_path, capsys):
    rng = random.Random(20)
    printed = []
    for k, (n, m, r) in enumerate([(5, 3, 1), (5, 4, 2), (7, 4, 2), (5, 5, 2), (5, 5, 3)]):
        B = _fractional_gluing(rng, n, m, r)
        # the same gluing with its glued copies reversed and their tops rescaled
        scales = [Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 2, 7])) for _ in range(m - r)]
        B2 = [[str(Fraction(row[m - r - 1 - j]) * scales[j]) for j in range(m - r)] for row in B]
        paths = []
        for name, matrix in ((f"a{k}", B), (f"b{k}", B2)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"n": n, "m": m, "r": r, "B": matrix}))
        for argv in (["der", paths[0]], ["weights", paths[0]], ["iso", *paths, "--strict"]):
            assert main([str(arg) for arg in argv]) == 0
            printed += exact_scalars(capsys.readouterr().out)
    assert any("/" in s for s in printed)  # the fractional paths were reached
