"""JSON serialization for algebras, gluing data, and verdicts.

All scalars serialize as exact "p/q" strings (never floats), keys are sorted,
and every encoder is deterministic, so serialized output is byte-stable and
suitable for golden-file comparison.
"""
from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii
from typing import Optional, Tuple

from .builder import QuasiQnSpec, RelatedMatrix, build_quasi, make_spec
from .derivations import GeneratorImages
from .liecore import LieAlgebra
from .linalg import ZERO, Matrix, MonomialMatrix, scalar, scalar_to_str


class BadInput(ValueError):
    """Malformed or inconsistent JSON input; the message names the field."""


def _is_int(x) -> bool:
    """A JSON integer: Python's bool is an int subclass, JSON's true is not."""
    return isinstance(x, int) and not isinstance(x, bool)


# strings in which the ASCII-only JSON encoder escapes nothing
_PLAIN = re.compile(r'[ !#-\[\]-~]*')


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, byte for
    byte, from dicts, lists, tuples, strings, ints, bools and None."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """obj as indented JSON; ``newline`` is a line break plus the indent of
    obj's own level.  A list of strings that need no escaping is joined in one
    call: the matrices' "p/q" strings are most of the output."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {str} and _PLAIN.fullmatch("".join(obj)):
            return "[" + inner + '"' + ('",' + inner + '"').join(obj) + '"' + newline + "]"
        return "[" + inner + ("," + inner).join(_encode(x, inner) for x in obj) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# -- scalars and matrices -----------------------------------------------------------


def matrix_to_json(M: Matrix) -> list:
    """Rows of "p/q" strings: a grid of "0" with the nonzero entries written in."""
    grid = [["0"] * M.cols for _ in range(M.rows)]
    for j, col in enumerate(M.columns()):
        for i, x in col.items():
            grid[i][j] = scalar_to_str(x)
    return grid


def matrix_from_json(data, field: str = "matrix") -> Matrix:
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise BadInput(f"{field}: expected an array of arrays")
    try:
        return Matrix(data)
    except (ValueError, TypeError) as exc:
        raise BadInput(f"{field}: {exc}") from exc


def vector_from_json(data, length: int, field: str) -> tuple:
    if not isinstance(data, list) or len(data) != length:
        raise BadInput(f"{field}: expected an array of {length} scalars")
    try:
        return tuple(scalar(x) for x in data)
    except (ValueError, TypeError) as exc:
        raise BadInput(f"{field}: {exc}") from exc


def monomial_to_json(K: MonomialMatrix) -> dict:
    return {
        "perm": [p + 1 for p in K.perm],
        "scale": [scalar_to_str(s) for s in K.scale],
    }


# -- gluing parameters --------------------------------------------------------------


def spec_to_json(spec: QuasiQnSpec) -> dict:
    return {"n": spec.n, "m": spec.m, "r": spec.r, "B": matrix_to_json(spec.B)}


def spec_from_json(data) -> QuasiQnSpec:
    """The spec of a parsed parameter object.  Only the JSON types are checked
    here; ``QuasiQnSpec`` refuses bad values, naming the field."""
    if not isinstance(data, dict):
        raise BadInput("spec: expected an object")
    for key in ("n", "m", "r"):
        if not _is_int(data.get(key)):
            raise BadInput(f"{key}: expected an integer")
    B = data.get("B")
    if B is not None:
        B = matrix_from_json(B, "B")
    return make_spec(data["n"], data["m"], data["r"], B)


# -- algebras -----------------------------------------------------------------------


def algebra_to_json(L: LieAlgebra, spec: Optional[QuasiQnSpec] = None) -> dict:
    out = {
        "dim": L.dim,
        "labels": list(L.labels),
        "brackets": [
            {
                "i": i,
                "j": j,
                "value": [[k, scalar_to_str(c)] for k, c in sorted(L.sc[(i, j)].items())],
            }
            for (i, j) in sorted(L.sc)
        ],
    }
    if spec is not None:
        out["spec"] = spec_to_json(spec)
    return out


def algebra_from_json(data) -> Tuple[LieAlgebra, Optional[QuasiQnSpec]]:
    if not isinstance(data, dict):
        raise BadInput("algebra: expected an object")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 0:
        raise BadInput("dim: expected a nonnegative integer")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise BadInput("brackets: expected an array of {i, j, value} entries")
    sc = {}
    for entry in brackets:
        if not isinstance(entry, dict) or not {"i", "j", "value"} <= set(entry):
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
        sc[(i, j)] = value
    if "spec" not in data:
        return LieAlgebra(dim, sc), None
    spec = spec_from_json(data["spec"])
    if spec.dim != dim:
        raise BadInput(f"spec: implies dim {spec.dim}, but dim is {dim}")
    # the built algebra is Jacobi-verified, so the table is only compared with it
    built = build_quasi(spec)
    nonzero = {ij: {k: c for k, c in v.items() if c} for ij, v in sc.items()}
    if {ij: v for ij, v in nonzero.items() if v} != built.sc:
        raise BadInput("brackets: the structure constants contradict the embedded spec")
    return built, spec


# -- generator-image candidates ------------------------------------------------------


def candidate_from_json(data, spec: QuasiQnSpec) -> GeneratorImages:
    if not isinstance(data, dict) or not isinstance(data.get("images"), dict):
        raise BadInput("images: expected an object keyed by generator")
    images = data["images"]
    e0, e1 = [], []
    for s in range(1, spec.m + 1):
        for t, dest in ((0, e0), (1, e1)):
            key = f"e_{s}{t}"
            if key not in images:
                raise BadInput(f"images: missing key {key}")
            dest.append(vector_from_json(images[key], spec.dim, f"images.{key}"))
    return GeneratorImages.from_vectors(e0, e1)


def candidate_to_json(spec: QuasiQnSpec, e0, e1) -> dict:
    """Dense image arrays from the sparse image vectors e0, e1 of the copies."""
    images = {}
    for s in range(1, spec.m + 1):
        for t, v in ((0, e0[s - 1]), (1, e1[s - 1])):
            images[f"e_{s}{t}"] = [scalar_to_str(v.get(k, ZERO)) for k in range(spec.dim)]
    return {"images": images}


# -- related matrices and verdicts --------------------------------------------------


def related_to_json(R: RelatedMatrix) -> dict:
    return {"m": R.m, "r": R.r, "matrix": matrix_to_json(R.matrix)}


def iso_verdict_to_json(verdict) -> dict:
    out = {"isomorphic": verdict.isomorphic, "witness": None, "reason": verdict.reason}
    if verdict.isomorphic:
        out["witness"] = {
            "E": matrix_to_json(verdict.equivalence.E),
            "K": monomial_to_json(verdict.equivalence.K),
            "map": matrix_to_json(verdict.map),
        }
    return out


def condition_verdict_to_json(verdict) -> dict:
    return {"ok": verdict.ok, "failed": verdict.failed, "detail": verdict.detail}
