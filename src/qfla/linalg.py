"""Exact linear algebra over the rationals.

A scalar is an ``int`` when integral and a ``fractions.Fraction`` otherwise:
both exact, never a float, and ``2 == Fraction(2)`` with equal hashes.
Integral values so run at C speed; a true division takes a ``Fraction`` on its
left, as ``int / int`` is a float.  Vectors are sparse {index: scalar} dicts
without zero entries, and matrices are immutable tuples of such sparse
columns, so every operation costs per nonzero, not per cell.  Everything is
exact, so results can be compared by literal equality and elimination needs no
pivoting heuristics.  One sparse elimination engine serves every solve:
`rank`, `inverse`, `column_span` and `sparse_nullspace` all read their results
off it.
"""
from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Sequence, Union

ScalarLike = Union[Fraction, int, str]
Scalar = Union[int, Fraction]


def scalar(value: ScalarLike) -> Scalar:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to the exact
    scalar of its value: an ``int`` when it is integral, else a Fraction.

    Floats are rejected on purpose: nothing in this package may round.  So
    are bools, which Python counts as ints but JSON does not.  A string with
    a zero denominator or in exponent notation ("1e3") is a ``ValueError``
    like any other malformed string.
    """
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return _parse_scalar(value)
    raise TypeError(f"cannot make an exact scalar from {value!r}")


@lru_cache(maxsize=4096)
def _parse_scalar(text: str) -> Scalar:
    """``scalar`` of a string, memoized: files repeat a few strings ("0"
    above all) many times.  Exponent notation is refused before any
    arithmetic, since "1e99999999" would make Fraction compute 10**99999999.
    A failed parse raises, and lru_cache keeps no exception."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r} is not accepted")
    try:
        return scalar(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class Matrix:
    """Immutable matrix of exact scalars, stored as a tuple of sparse columns
    {row: entry} without zero entries, so it costs space and time per nonzero."""

    __slots__ = ("rows", "cols", "_c")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], cols: int | None = None):
        grid = [tuple(row) for row in entries]
        width = len(grid[0]) if grid else cols or 0
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} disagrees with rows of width {width}")
        columns = [{} for _ in range(width)]
        for i, row in enumerate(grid):
            for j, x in enumerate(row):
                x = scalar(x)
                if x:
                    columns[j][i] = x
        self.rows, self.cols, self._c = len(grid), width, tuple(columns)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_columns([{i: 1} for i in range(n)], n)

    @staticmethod
    def from_columns(columns: Sequence[dict], dim: int) -> "Matrix":
        """The dim-row matrix whose columns are the given sparse vectors
        {row: scalar}; zero entries are dropped."""
        M = Matrix.__new__(Matrix)
        M.rows, M.cols = dim, len(columns)
        M._c = tuple({i: x for i, x in col.items() if x} for col in columns)
        return M

    # -- accessors ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self._c[j].get(i, 0)

    def columns(self) -> list:
        """The columns as sparse vectors {row: entry}, without zero entries;
        they are the matrix's own and must not be changed."""
        return list(self._c)

    # -- basic algebra ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self._c)))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} != {other.rows}")
        return Matrix.from_columns([_combine(col, self._c) for col in other._c], self.rows)


def _transpose(vectors: Sequence[dict], n: int) -> list:
    """The n sparse vectors out[j][i] = vectors[i][j]: a matrix's rows from
    its columns, and back."""
    out: list = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        for j, x in v.items():
            out[j][i] = x
    return out


# -- the elimination engine -----------------------------------------------------
#
# Every exact solve in the package runs through one sparse Gauss-Jordan
# elimination.  A row is a {column: scalar} dict without zero entries.  An
# echelon form is a dict {lead: row} whose rows have distinct smallest columns
# `lead`, with entry 1 there.  Rows are inserted one at a time without changing
# the rows already stored, so an extended echelon form can share its rows with
# the one it grew from; one back-substitution then gives the reduced row
# echelon form, from which ranks, spans, inverses and kernels are read off.
# `_rref_rows` peels one-entry rows off a system as it reads it, so only its
# coupled rows are kept and pivoted on.


def _subtract(row: dict, f: Scalar, pivot: dict) -> None:
    """row -= f * pivot, in place, keeping no zero entries and writing an
    integral result as an int.  Brackets and linear combinations of sparse
    vectors accumulate through it too."""
    for c, x in pivot.items():
        y = row.get(c, 0) - f * x
        if y:
            row[c] = y if type(y) is int or y.denominator != 1 else y.numerator
        elif c in row:
            del row[c]


def _scaled(v: dict, f: int) -> dict:
    """f v in ``int``, for a sparse vector v whose denominators divide f."""
    return {k: x.numerator * (f // x.denominator) for k, x in v.items()}


def _combine(coeffs: dict, vectors: Sequence[dict]) -> dict:
    """sum_k coeffs[k] * vectors[k] for sparse coefficients and vectors."""
    out: dict = {}
    for k, c in coeffs.items():
        _subtract(out, -c, vectors[k])
    return out


def _reduce(echelon: dict, row: dict) -> dict:
    """The remainder of a row without zero entries after eliminating its
    leading entries by echelon; it is empty iff the row lies in their span."""
    row = dict(row)
    while row:
        lead = min(row)
        pivot = echelon.get(lead)
        if pivot is None:
            return row
        _subtract(row, row[lead], pivot)
    return row


def _insert(echelon: dict, rows: Iterable[dict]) -> dict:
    """echelon with rows (without zero entries) added; the argument is not
    changed."""
    out = dict(echelon)
    for row in rows:
        row = _reduce(out, row)
        if row:
            lead = min(row)
            x0 = row[lead]
            if x0 == -1:
                row = {c: -x for c, x in row.items()}
            elif x0 != 1:
                inv = Fraction(1) / x0
                row = {c: scalar(x * inv) for c, x in row.items()}
            out[lead] = row
    return out


def _back_substitute(echelon: dict) -> dict:
    """The reduced row echelon form: each row cleared at every other lead."""
    reduced: dict = {}
    for lead, row in sorted(echelon.items(), reverse=True):
        out = dict(row)
        for c, f in row.items():
            if c != lead and c in reduced:
                # reduced rows carry no lead but their own, so out[c] is still f
                _subtract(out, f, reduced[c])
        reduced[lead] = out
    return reduced


def _rref_rows(rows: Iterable[dict]) -> dict:
    """The reduced row echelon form of rows without zero entries, which it
    may change: the rows must be the caller's own fresh dicts.

    A one-entry row {c: x} puts e_c in the row space, so the reduced form
    holds the row {c: 1} and no other row has an entry at c.  Such units are
    peeled with no arithmetic.  The rows are read once, as they come, and
    each has the units found so far struck from it: a unit goes straight
    into the reduced form, and only a row still coupled is kept.  A unit
    found later may hold a column of a kept row, so the kept rows are struck
    again, pass after pass, until a pass finds no new unit; only the coupled
    rows left over are eliminated.  The reduced form of a row space is
    unique, so the result is the same.
    """
    reduced: dict = {}
    known = -1
    while known < len(reduced):
        known, kept = len(reduced), []
        for row in rows:
            if len(row) > 1:
                for c in [c for c in row if c in reduced]:
                    del row[c]
                if len(row) > 1:
                    kept.append(row)
                    continue
            for c in row:  # a unit, or nothing once struck
                if c not in reduced:
                    reduced[c] = {c: 1}
        rows = kept
    reduced.update(_back_substitute(_insert({}, rows)))
    return reduced


def _kernel(reduced: dict, ncols: int) -> list:
    """Canonical kernel basis of a reduced echelon form as sparse vectors,
    ordered by free column: the vector of free column c has 1 at c and
    -row[c] at each row's lead."""
    basis = {c: {c: 1} for c in range(ncols) if c not in reduced}
    for lead, row in reduced.items():
        for c, x in row.items():
            if c != lead:
                basis[c][lead] = -x
    return list(basis.values())


def rank(M: Matrix) -> int:
    return len(_insert({}, M._c))  # the columns are the rows of M^T, of equal rank


def inverse(M: Matrix) -> Matrix:
    """The inverse, read off the reduced form of (M | I)."""
    if M.rows != M.cols:
        raise ValueError("not square")
    n = M.rows
    rows = _transpose(M._c, n)
    for i, row in enumerate(rows):
        row[n + i] = 1
    reduced = _rref_rows(rows)
    if any(i not in reduced for i in range(n)):
        raise ValueError("singular matrix")
    right = [{c - n: x for c, x in reduced[i].items() if c >= n} for i in range(n)]
    return Matrix.from_columns(_transpose(right, n), n)


def column_span(vectors: Iterable[dict], dim: int) -> Matrix:
    """Canonical subspace representation of the span of sparse vectors
    {index: scalar} in a dim-dimensional space:
    columns of the returned matrix are the RREF basis of the span, so subspace
    equality is literal matrix equality."""
    reduced = _rref_rows({c: x for c, x in v.items() if x} for v in vectors)
    return Matrix.from_columns([row for _, row in sorted(reduced.items())], dim)


def sparse_nullspace(rows: Iterable[dict], ncols: int) -> list:
    """Canonical kernel basis of a sparse linear system.

    ``rows`` are {column: scalar} dicts without zero entries, handed over as
    in ``_rref_rows``: fresh dicts that the caller owns and the solve may
    change.  Returns kernel vectors as sparse {column: scalar} dicts, ordered
    by ascending free column (see ``_kernel``).
    """
    return _kernel(_rref_rows(rows), ncols)
