"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` (always in lowest terms, denominator > 0),
matrices are immutable row-major grids of them.  Everything is exact, so
results can be compared by literal equality and reduction routines need no
pivoting heuristics.
"""
from __future__ import annotations

import math
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
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], cols: int | None = None):
        grid = tuple(tuple(scalar(x) for x in row) for row in entries)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_e", grid)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def column_vector(entries: Sequence[ScalarLike]) -> "Matrix":
        return Matrix([[x] for x in entries], cols=1)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[ScalarLike]], dim: int | None = None) -> "Matrix":
        """Build a matrix whose columns are the given vectors."""
        if not columns:
            if dim is None:
                raise ValueError("need dim for an empty column list")
            return Matrix([[] for _ in range(dim)], cols=0)
        n = len(columns[0])
        return Matrix([[columns[j][i] for j in range(len(columns))] for i in range(n)])

    # -- accessors ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._e[i][j]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self._e)

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def to_rows(self) -> list:
        return [list(row) for row in self._e]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    # -- basic algebra ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(scalar_to_str(x) for x in row) for row in self._e)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_match(other)
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_match(other)
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)],
            cols=self.cols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self._e], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch: {self.cols} != {other.rows}")
            cols = other.columns()
            return Matrix(
                [[_dot(row, col) for col in cols] for row in self._e],
                cols=other.cols,
            )
        return Matrix([[a * scalar(other) for a in row] for row in self._e], cols=self.cols)

    def __rmul__(self, other):
        return self.__mul__(other)

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)], cols=self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix(
            [r1 + r2 for r1, r2 in zip(self._e, other._e)],
            cols=self.cols + other.cols,
        )

    def apply(self, v: Sequence[ScalarLike]) -> tuple:
        """Matrix-vector product, returning a plain tuple."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vec = [scalar(x) for x in v]
        return tuple(_dot(row, vec) for row in self._e)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(
            [[self._e[i][j] for j in col_idx] for i in row_idx],
            cols=len(col_idx),
        )

    def _shape_match(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _dot(row: Sequence[Fraction], col: Sequence[Fraction]) -> Fraction:
    total = ZERO
    for a, b in zip(row, col):
        if a and b:
            total += a * b
    return total


# -- reduced row echelon form -------------------------------------------------


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    rank: int
    pivot_cols: tuple


def rref(M: Matrix) -> RrefResult:
    """Reduced row echelon form with leftmost-pivot selection (0-based pivots)."""
    grid = M.to_rows()
    rows, cols = M.rows, M.cols
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = None
        for i in range(pr, rows):
            if grid[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        grid[pr], grid[pivot_row] = grid[pivot_row], grid[pr]
        inv = 1 / grid[pr][pc]
        grid[pr] = [x * inv for x in grid[pr]]
        for i in range(rows):
            if i != pr and grid[i][pc] != 0:
                f = grid[i][pc]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return RrefResult(Matrix(grid, cols=cols), pr, tuple(pivots))


def rank(M: Matrix) -> int:
    return rref(M).rank


def nullspace(M: Matrix) -> list:
    """Canonical basis of ker(M) as a list of column vectors (n x 1 matrices)."""
    res = rref(M)
    pivot_set = set(res.pivot_cols)
    R = res.matrix
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * M.cols
        v[free] = ONE
        for k, pc in enumerate(res.pivot_cols):
            v[pc] = -R.entry(k, free)
        basis.append(Matrix.column_vector(v))
    return basis


def inverse(M: Matrix) -> Matrix:
    if not M.is_square:
        raise ValueError("not square")
    res = rref(M.hstack(Matrix.identity(M.rows)))
    if res.pivot_cols[: M.rows] != tuple(range(M.rows)):
        raise ValueError("singular matrix")
    return res.matrix.submatrix(range(M.rows), range(M.rows, 2 * M.rows))


def column_span(vectors: Sequence[Sequence[ScalarLike]], dim: int) -> Matrix:
    """Canonical subspace representation: columns of the returned matrix are the
    RREF basis of the span, so subspace equality is literal matrix equality."""
    if not vectors:
        return Matrix([[] for _ in range(dim)], cols=0)
    res = rref(Matrix(vectors, cols=dim))
    return res.matrix.submatrix(range(res.rank), range(dim)).transpose()


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
        grid = [[ZERO] * self.size for _ in range(self.size)]
        for j in range(self.size):
            grid[self.perm[j]][j] = self.scale[j]
        return Matrix(grid, cols=self.size)

    @staticmethod
    def identity(n: int) -> "MonomialMatrix":
        return MonomialMatrix(n, tuple(range(n)), (ONE,) * n)


# -- sparse integer-normalized elimination --------------------------------------
#
# The derivation oracle produces linear systems with thousands of very sparse
# rows; dense RREF over Fractions is needlessly slow there.  Rows are kept as
# {column: int} dicts normalized to primitive integer vectors, eliminated
# fraction-free, and only the final kernel extraction uses Fractions.


def _primitive_int_row(row: dict) -> dict:
    """Clear denominators and divide by the gcd; leading (min col) entry > 0."""
    items = {c: Fraction(v) for c, v in row.items() if v != 0}
    if not items:
        return {}
    lcm = 1
    for v in items.values():
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = {c: int(v * lcm) for c, v in items.items()}
    g = 0
    for v in ints.values():
        g = math.gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    return {c: v // g for c, v in ints.items()}


def _eliminate(row: dict, pivot: dict, col: int) -> dict:
    """Return pivot[col]*row - row[col]*pivot, as a primitive integer row."""
    a = pivot[col]
    b = row[col]
    out = dict()
    for c, v in row.items():
        out[c] = a * v
    for c, v in pivot.items():
        out[c] = out.get(c, 0) - b * v
    out = {c: v for c, v in out.items() if v != 0}
    if not out:
        return out
    g = 0
    for v in out.values():
        g = math.gcd(g, v)
    if out[min(out)] < 0:
        g = -g
    return {c: v // g for c, v in out.items()}


def sparse_nullspace(rows: Iterable[dict], ncols: int) -> list:
    """Canonical kernel basis of a sparse linear system.

    ``rows`` are {column: coefficient} dicts (Fraction or int values).  Returns
    kernel vectors as lists of Fractions, ordered by ascending free column, and
    identical to what dense ``nullspace`` would produce.
    """
    pivots: dict = {}
    seen = set()
    work = []
    for raw in rows:
        row = _primitive_int_row(raw)
        if not row:
            continue
        key = tuple(sorted(row.items()))
        if key in seen:
            continue
        seen.add(key)
        work.append(row)
    work.sort(key=lambda r: (len(r), min(r)))
    for row in work:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row = _eliminate(row, piv, lead)
    # Back-substitute to full RREF over Fractions.
    reduced: dict = {}
    for lead in sorted(pivots, reverse=True):
        row = {c: Fraction(v, pivots[lead][lead]) for c, v in pivots[lead].items()}
        out = dict(row)
        for c in list(row):
            if c != lead and c in reduced:
                f = out.pop(c, ZERO)
                if f:
                    for cc, vv in reduced[c].items():
                        if cc != c:
                            out[cc] = out.get(cc, ZERO) - f * vv
                            if out[cc] == 0:
                                del out[cc]
        reduced[lead] = out
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for lead, row in reduced.items():
            coeff = row.get(free, ZERO)
            if coeff:
                v[lead] = -coeff
        basis.append(v)
    return basis
