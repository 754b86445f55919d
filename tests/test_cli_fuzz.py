"""A traceback is a bug: ``cli.main`` fuzzed in-process.

Each example takes one ``GOLDEN_BATTERY`` command and mutates its argv or
the JSON files it reads: a value replaced, an integer shifted, a key or item
deleted, an item repeated or a key added.  Whatever comes in, the exit code
is 0, 1 or 2, nothing raises, and exit 2 writes exactly one stderr line
``error: <field>: ...``.  This is the check that outside input is checked
where it is read.

Every integer drawn, the size fields n, m, r and dim included, stays within
a small range: a large but honest request is real work, not a fault, and the
cases stay cheap enough to run in-process.  Hypothesis draws one seed per
example, derandomized, and the seed drives every choice through
``random.Random``: its own draws favour small values and first choices, which
would spend most examples replacing a whole file.
"""
import contextlib
import copy
import io
import json
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import GOLDEN_BATTERY, golden_files
from qfla.cli import main

ONE_ERROR_LINE = re.compile(r"error: [^\n:]+: [^\n]*\n")

BATTERY = [template for template, _, _ in GOLDEN_BATTERY]
# `check` on the battery's algebra files without their spec: tables that
# nothing but the reader's own checks guard
BARE = [["check", "{bare}"], ["check", "{bare_mix}"]]
SCALARS = ["0", "1", "-1", "2", "1/2", "-3/4", "0/5", "1/0", "1e3", "x", ""]
KEYS = [
    "n", "m", "r", "B", "dim", "spec", "labels", "brackets", "i", "j", "value", "images", "e_10"
]
TOKENS = ["--n", "--m", "--r", "--B", "--out", "--strict", "--compare", "--", "-h", "x", '[["1"]]']
EDITS = ["replace", "shift", "delete", "drop", "repeat", "add"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    with contextlib.redirect_stdout(io.StringIO()):
        found = golden_files(tmp_path_factory.mktemp("golden"))
    docs = {name: json.loads(open(path).read()) for name, path in found.items()}
    for name, algebra in (("bare", "algebra"), ("bare_mix", "algebra_mix")):
        docs[name] = {k: v for k, v in docs[algebra].items() if k != "spec"}
    return docs


def _leaf(rng: random.Random):
    return rng.choice([None, True, False, rng.randint(-2, 24), rng.choice(SCALARS)])


def _value(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return [_leaf(rng) for _ in range(rng.randint(0, 3))]
    if kind == 1:
        return {rng.choice(KEYS): _leaf(rng) for _ in range(rng.randint(0, 3))}
    return _leaf(rng)


def _paths(obj, prefix=()):
    """Every position in a parsed JSON document, the root included."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate_json(rng: random.Random, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        kind, paths = rng.choice(EDITS), list(_paths(doc))
        if kind == "shift":  # an index or a size moved, often just out of range
            paths = [path for path in paths if type(_at(doc, path)) is int] or paths
        elif kind == "drop":  # a field left out
            paths = [path for path in paths if path and isinstance(_at(doc, path[:-1]), dict)]
            kind = "delete"
        path = rng.choice(paths or [()])
        if not path:
            doc = _value(rng)
            continue
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "shift" and type(parent[key]) is int:
            parent[key] += rng.randint(-12, 12)
        elif kind == "replace":
            parent[key] = _value(rng)
        elif kind == "delete":
            del parent[key]
        elif kind == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif kind == "add" and isinstance(parent[key], dict):
            parent[key][rng.choice(KEYS)] = _value(rng)
    return doc


def mutate_argv(rng: random.Random, argv: list) -> list:
    argv, position = list(argv), rng.randint(0, len(argv))
    token = rng.choice(TOKENS + [str(rng.randint(-2, 24))])
    kind = rng.choice(["replace", "delete", "insert"])
    if kind == "insert" or position == len(argv):
        argv.insert(position, token)
    elif kind == "replace":
        argv[position] = token
    else:
        del argv[position]
    return argv


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_every_input_exits_0_1_or_2_with_one_error_line(seed, files, workdir):
    rng = random.Random(seed)
    # one example in three is a bare table, and three in four edit a file
    argv = rng.choice(BARE if rng.randrange(3) == 0 else BATTERY)
    named = [name for name in files if any("{" + name + "}" in arg for arg in argv)]
    docs = dict(files)
    if named and rng.randrange(4):
        name = rng.choice(named)
        docs[name] = mutate_json(rng, files[name])
    else:
        argv = mutate_argv(rng, argv)
    paths = {name: str(workdir / f"{name}.json") for name in named}
    for name, path in paths.items():
        with open(path, "w") as fh:
            json.dump(docs[name], fh)
    argv = [arg.format_map(paths) if arg.startswith("{") else arg for arg in argv]
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)  # where a relative --out lands
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    case = f"argv {argv}, files {[docs[name] for name in named]}"
    assert code in (0, 1, 2), case
    if code == 2:
        assert out.getvalue() == "" and ONE_ERROR_LINE.fullmatch(err.getvalue()), case
    else:
        assert err.getvalue() == "", case
        assert out.getvalue().startswith("usage: qfla") or json.loads(out.getvalue()) is not None
