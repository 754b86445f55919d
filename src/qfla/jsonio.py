"""JSON serialization for algebras, gluing data, and verdicts.

A payload hands each scalar over as its exact text, ``str`` of the ``int``
or ``Fraction`` ("p", or "p/q"; never a float), since ``dumps`` writes an
``int`` bare, as a count.  It writes a ``Matrix`` as rows of such strings,
read off the sparse columns.  The CLI writes the one text ``dumps`` makes.
Keys are sorted and every encoder is deterministic, so serialized output is
byte-stable and suitable for golden-file comparison.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Optional, Tuple

from .builder import MAX_DIM, BadInput, QuasiQnSpec, build_quasi, make_spec
from .derivations import GeneratorImages
from .liecore import LieAlgebra, check_jacobi
from .linalg import Matrix, scalar


def _is_int(x) -> bool:
    """A JSON integer: Python's bool is an int subclass, JSON's true is not."""
    return isinstance(x, int) and not isinstance(x, bool)


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, byte for
    byte, from dicts, lists, tuples, strings, ints, bools and None, with each
    ``Matrix`` written as its list of rows of "p/q" strings."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """obj as indented JSON; ``newline`` is a line break plus the indent of
    obj's own level."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, Matrix):
        return _encode_matrix(obj, newline)
    # each text is made by one join or f-string: a chain of "+" would copy
    # the whole subtree once per operator, at every nesting level
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in sorted(obj.items())
        )
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return f"[{inner}{(',' + inner).join(_encode(x, inner) for x in obj)}{newline}]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_matrix(M: Matrix, newline: str) -> str:
    """M as its list of rows of "p/q" strings: a grid of "0" with the
    nonzero entries of the sparse columns written in."""
    inner = newline + "  "
    head, sep, tail = "[" + inner + '  "', '",' + inner + '  "', '"' + inner + "]"
    grid = [["0"] * M.cols for _ in range(M.rows)]
    for j, col in enumerate(M.columns()):
        for i, x in col.items():
            grid[i][j] = str(x)
    rows = [f"{head}{sep.join(cells)}{tail}" if cells else "[]" for cells in grid]
    return f"[{inner}{(',' + inner).join(rows)}{newline}]" if rows else "[]"


# -- scalars and matrices -----------------------------------------------------------


def matrix_from_json(data, field: str) -> Matrix:
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise BadInput(f"{field}: expected an array of arrays")
    try:
        return Matrix(data)
    except (ValueError, TypeError) as exc:
        raise BadInput(f"{field}: {exc}") from exc


# -- gluing parameters --------------------------------------------------------------


def spec_to_json(spec: QuasiQnSpec) -> dict:
    return {"n": spec.n, "m": spec.m, "r": spec.r, "B": spec.B}


def spec_from_json(data) -> QuasiQnSpec:
    """The spec of a parsed parameter object.  Only the keys and the JSON
    types are checked here; ``make_spec`` refuses bad values, naming the
    field."""
    if not isinstance(data, dict):
        raise BadInput("spec: expected an object")
    for key in data:
        if key not in ("n", "m", "r", "B"):
            raise BadInput(f"{key}: not a gluing parameter (expected n, m, r and B)")
    for key in ("n", "m", "r"):
        if not _is_int(data.get(key)):
            raise BadInput(f"{key}: expected an integer")
    B = data.get("B")
    if B is not None:
        B = matrix_from_json(B, "B")
    return make_spec(data["n"], data["m"], data["r"], B)


# -- algebras -----------------------------------------------------------------------


def algebra_to_json(L: LieAlgebra, spec: QuasiQnSpec) -> dict:
    return {
        "dim": L.dim,
        "labels": list(spec.labels()),
        "brackets": [
            {
                "i": i,
                "j": j,
                "value": [(k, str(c)) for k, c in sorted(L.sc[(i, j)].items())],
            }
            for (i, j) in sorted(L.sc)
        ],
        "spec": spec_to_json(spec),
    }


_ENTRY_KEYS = frozenset(("i", "j", "value"))


def algebra_from_json(data) -> Tuple[LieAlgebra, Optional[QuasiQnSpec]]:
    """The algebra of a parsed algebra file, and its spec or None.  The file
    holds dim, labels, brackets and spec alone.  Every check of the table
    runs here, ``dim`` against ``MAX_DIM`` and the ``labels`` count before
    anything of size ``dim`` is made.  Zero coefficients are dropped once a
    bracket's indices have turned out distinct, and empty brackets once the
    pairs have; a table with neither is kept as read."""
    for key in data:
        if key not in ("dim", "labels", "brackets", "spec"):
            raise BadInput(f"{key}: not an algebra field (expected dim, labels, brackets and spec)")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 0:
        raise BadInput("dim: expected a nonnegative integer")
    if dim > MAX_DIM:
        raise BadInput(f"dim: {dim} exceeds {MAX_DIM}")
    labels = data.get("labels")
    if "labels" in data and not (
        isinstance(labels, list)
        and len(labels) == dim
        and all(isinstance(x, str) for x in labels)
        and len(set(labels)) == dim
    ):
        raise BadInput(f"labels: expected an array of {dim} distinct strings")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise BadInput("brackets: expected an array of {i, j, value} entries")
    sc = {}
    for entry in brackets:
        if not isinstance(entry, dict) or not entry.keys() >= _ENTRY_KEYS:
            raise BadInput("brackets: each entry needs i, j, value")
        i, j = entry["i"], entry["j"]
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < dim):
            raise BadInput(f"brackets: indices ({i},{j}) must satisfy 0 <= i < j < dim")
        if (i, j) in sc:
            raise BadInput(f"brackets: pair ({i},{j}) appears twice")
        if not isinstance(entry["value"], list):
            raise BadInput("value: expected an array of [index, scalar] pairs")
        value = {}
        for pair in entry["value"]:
            if not isinstance(pair, list) or len(pair) != 2 or not _is_int(pair[0]):
                raise BadInput("value: expected [index, scalar] pairs")
            k, c = pair
            if not 0 <= k < dim:
                raise BadInput(f"value: target index {k} out of range")
            if k in value:
                raise BadInput(f"value: target index {k} appears twice in bracket ({i},{j})")
            try:
                value[k] = scalar(c)
            except (ValueError, TypeError) as exc:
                raise BadInput(f"value: {exc}") from exc
        sc[(i, j)] = value if all(value.values()) else {k: c for k, c in value.items() if c}
    if not all(sc.values()):
        sc = {ij: value for ij, value in sc.items() if value}
    if "spec" not in data:
        return check_jacobi(LieAlgebra(dim, sc)), None
    spec = spec_from_json(data["spec"])
    if spec.dim != dim:
        raise BadInput(f"spec: implies dim {spec.dim}, but dim is {dim}")
    # the built algebra is Jacobi-verified, so the table is only compared with it
    built = build_quasi(spec)
    if sc != built.sc:
        raise BadInput("brackets: the structure constants contradict the embedded spec")
    return built, spec


# -- generator-image candidates ------------------------------------------------------


def candidate_from_json(data, spec: QuasiQnSpec) -> GeneratorImages:
    """The generator images of a parsed candidate file, one sparse vector per
    image array: an entry "0" is skipped unparsed and every other entry
    passes ``scalar`` once.  The file holds ``images`` alone, keyed e_{s}{t} for the
    spec's copies s and t in {0, 1}; any other key is refused."""
    if not isinstance(data, dict) or not isinstance(data.get("images"), dict):
        raise BadInput("images: expected an object keyed by generator")
    for key in data:
        if key != "images":
            raise BadInput(f"{key}: not a candidate field (expected images)")
    images = data["images"]
    keys = [f"e_{s}{t}" for s in range(1, spec.m + 1) for t in (0, 1)]
    for key in images:
        if key not in keys:
            raise BadInput(f"images.{key}: not e_s0 or e_s1 for a copy s in 1..{spec.m}")
    vectors = []
    for key in keys:
        if key not in images:
            raise BadInput(f"images: missing key {key}")
        vec = images[key]
        if not isinstance(vec, list) or len(vec) != spec.dim:
            raise BadInput(f"images.{key}: expected an array of {spec.dim} scalars")
        try:
            vectors.append({k: x for k, c in enumerate(vec) if c != "0" and (x := scalar(c))})
        except (ValueError, TypeError) as exc:
            raise BadInput(f"images.{key}: {exc}") from exc
    return GeneratorImages(tuple(vectors[0::2]), tuple(vectors[1::2]))


def candidate_to_json(spec: QuasiQnSpec, e0, e1) -> dict:
    """Dense image arrays from the sparse image vectors e0, e1 of the copies."""
    images = {}
    for s in range(1, spec.m + 1):
        for t, v in ((0, e0[s - 1]), (1, e1[s - 1])):
            images[f"e_{s}{t}"] = [str(v.get(k, 0)) for k in range(spec.dim)]
    return {"images": images}


# -- verdicts -----------------------------------------------------------------------


def iso_verdict_to_json(verdict) -> dict:
    out = {"isomorphic": verdict.isomorphic, "witness": None, "reason": verdict.reason}
    if verdict.isomorphic:
        w = verdict.equivalence
        out["witness"] = {
            "E": w.E,
            "K": {"perm": [p + 1 for p in w.perm], "scale": [str(x) for x in w.scale]},
            "map": verdict.map,
        }
    return out


def condition_verdict_to_json(verdict) -> dict:
    return {"ok": verdict.ok, "failed": verdict.failed, "detail": verdict.detail}
