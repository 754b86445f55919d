"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (always in lowest terms, denominator > 0),
vectors are sparse {index: Fraction} dicts without zero entries, and matrices
are immutable tuples of such sparse columns, so every operation costs per
nonzero, not per cell.  Everything is exact, so results can be compared by
literal equality and elimination needs no pivoting heuristics.  One sparse
elimination engine serves every solve: `rank`, `inverse`, `column_span` and
`sparse_nullspace` all read their results off it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to a Scalar.

    Floats are rejected on purpose: nothing in this package may round.  So
    are bools, which Python counts as ints but JSON does not.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot make an exact scalar from {value!r}")


def scalar_to_str(x: Fraction) -> str:
    """Serialize a scalar as "p/q", or "p" when the denominator is 1."""
    return str(x)  # Fraction's own str is exactly that


class Matrix:
    """Immutable matrix of Fractions, stored as a tuple of sparse columns
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
        return Matrix.from_columns([{i: ONE} for i in range(n)], n)

    @staticmethod
    def from_columns(columns: Sequence[dict], dim: int) -> "Matrix":
        """The dim-row matrix whose columns are the given sparse vectors
        {row: scalar}; zero entries are dropped."""
        M = Matrix.__new__(Matrix)
        M.rows, M.cols = dim, len(columns)
        M._c = tuple({i: x for i, x in col.items() if x} for col in columns)
        return M

    # -- accessors ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._c[j].get(i, ZERO)

    def columns(self) -> list:
        """The columns as sparse vectors {row: entry}, without zero entries;
        they are the matrix's own and must not be changed."""
        return list(self._c)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- basic algebra ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self._c)))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(scalar_to_str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_match(other)
        pairs = zip(self._c, other._c)
        return Matrix.from_columns([_combine({0: ONE, 1: ONE}, p) for p in pairs], self.rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self * -ONE

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch: {self.cols} != {other.rows}")
            return Matrix.from_columns([_combine(col, self._c) for col in other._c], self.rows)
        f = scalar(other)
        columns = [{i: x * f for i, x in col.items()} for col in self._c]
        return Matrix.from_columns(columns, self.rows)

    def __rmul__(self, other):
        return self.__mul__(other)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        rows = {i: k for k, i in enumerate(row_idx)}
        columns = [{rows[i]: x for i, x in self._c[j].items() if i in rows} for j in col_idx]
        return Matrix.from_columns(columns, len(row_idx))

    def _shape_match(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


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
# elimination.  A row is a {column: Fraction} dict without zero entries.  An
# echelon form is a dict {lead: row} whose rows have distinct smallest columns
# `lead`, with entry 1 there.  Rows are inserted one at a time without changing
# the rows already stored, so an extended echelon form can share its rows with
# the one it grew from; one back-substitution then gives the reduced row
# echelon form, from which ranks, spans, inverses and kernels are read off.


def _subtract(row: dict, f: Fraction, pivot: dict) -> None:
    """row -= f * pivot, in place, keeping no zero entries.  Brackets and
    linear combinations of sparse vectors accumulate through it too."""
    for c, x in pivot.items():
        y = row.get(c, ZERO) - f * x
        if y:
            row[c] = y
        elif c in row:
            del row[c]


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
            inv = ONE / row[lead]
            out[lead] = {c: x * inv for c, x in row.items()}
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
    return _back_substitute(_insert({}, rows))


def _kernel(reduced: dict, ncols: int) -> list:
    """Canonical kernel basis of a reduced echelon form as sparse vectors,
    ordered by free column: the vector of free column c has 1 at c and
    -row[c] at each row's lead."""
    basis = {c: {c: ONE} for c in range(ncols) if c not in reduced}
    for lead, row in reduced.items():
        for c, x in row.items():
            if c != lead:
                basis[c][lead] = -x
    return list(basis.values())


def rank(M: Matrix) -> int:
    return len(_insert({}, M._c))  # the columns are the rows of M^T, of equal rank


def inverse(M: Matrix) -> Matrix:
    """The inverse, read off the reduced form of (M | I)."""
    if not M.is_square:
        raise ValueError("not square")
    n = M.rows
    rows = _transpose(M._c, n)
    for i, row in enumerate(rows):
        row[n + i] = ONE
    reduced = _rref_rows(rows)
    if any(i not in reduced for i in range(n)):
        raise ValueError("singular matrix")
    right = [{c - n: x for c, x in reduced[i].items() if c >= n} for i in range(n)]
    return Matrix.from_columns(_transpose(right, n), n)


def column_span(vectors: Iterable[dict], dim: int) -> Matrix:
    """Canonical subspace representation of the span of sparse vectors
    {index: coefficient} (Fraction or int values) in a dim-dimensional space:
    columns of the returned matrix are the RREF basis of the span, so subspace
    equality is literal matrix equality."""
    reduced = _rref_rows({c: x for c, x in v.items() if x} for v in vectors)
    return Matrix.from_columns([row for _, row in sorted(reduced.items())], dim)


def sparse_nullspace(rows: Iterable[dict], ncols: int) -> list:
    """Canonical kernel basis of a sparse linear system.

    ``rows`` are {column: coefficient} dicts (Fraction or int values).  Returns
    kernel vectors as sparse {column: Fraction} dicts, ordered by ascending
    free column (see ``_kernel``).
    """
    nonzero = ({c: x for c, x in row.items() if x} for row in rows)
    return _kernel(_rref_rows(nonzero), ncols)


# -- monomial matrices ----------------------------------------------------------


@dataclass(frozen=True)
class MonomialMatrix:
    """Permutation-times-diagonal matrix.

    ``perm[j]`` is the (0-based) row holding the unique nonzero entry of
    column ``j``; ``scale[j]`` is that entry.
    """

    size: int
    perm: tuple
    scale: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.size)):
            raise ValueError("perm is not a bijection")
        if len(self.scale) != self.size or any(s == 0 for s in self.scale):
            raise ValueError("scale entries must be nonzero")

    def densify(self) -> Matrix:
        columns = [{p: x} for p, x in zip(self.perm, self.scale)]
        return Matrix.from_columns(columns, self.size)

    @staticmethod
    def identity(n: int) -> "MonomialMatrix":
        return MonomialMatrix(n, tuple(range(n)), (ONE,) * n)
