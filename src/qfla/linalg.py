"""Exact linear algebra over the rationals.

A scalar is an ``int`` when integral and a ``fractions.Fraction`` otherwise:
both exact, never a float, and ``2 == Fraction(2)`` with equal hashes.
Integral values so run at C speed; a true division takes a ``Fraction`` on its
left, as ``int / int`` is a float.  Vectors are sparse {index: scalar} dicts
without zero entries, and matrices are immutable tuples of such sparse
columns, so every operation costs per nonzero, not per cell.  Everything is
exact, so results can be compared by literal equality and elimination needs no
pivoting heuristics.  One sparse elimination engine serves every solve:
`rank`, `inverse`, `column_span` and `sparse_nullspace` all read their
results off it.  It pivots on primitive integer rows and divides once, at
the end.  It keeps a one-entry row's column as a flag in a bytearray, not as
a row; only `column_span`, whose result they are part of, builds such
unit rows.  The derivation oracle at (21,8,3) reads 57,023 rows, 53,550 with
one entry, and keeps 27,184 flagged columns and 1,759 coupled rows.
"""
from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from math import gcd, lcm
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
    Canonical text, ASCII digits with an optional leading "-" and an
    optional "/" and digits after them, is read with ``int``, which costs a
    fresh process far less than Fraction's first parse; any other text goes
    to ``Fraction``.  A failed parse raises, and lru_cache keeps no
    exception."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r} is not accepted")
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    try:
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            return scalar(Fraction(int(num), int(den))) if slash else int(num)
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
        {row: scalar}, taken as given: without zero entries, and the
        matrix's own from then on."""
        M = Matrix.__new__(Matrix)
        M.rows, M.cols, M._c = dim, len(columns), tuple(columns)
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
# `lead`, each a primitive integer row: its denominators cleared, its gcd
# divided out and its lead positive.  Rows are cross-multiplied, never divided
# by a lead, so rational entries cost no Fraction arithmetic (Bareiss, Math.
# Comp. 22, 1968).  Rows are inserted one at a time without changing the rows
# already stored, so an extended echelon form can share its rows with the one
# it grew from; one back-substitution then gives the reduced row echelon form,
# dividing each row by its lead once, from which ranks, spans, inverses and
# kernels are read off.  `_peel` flags the columns of one-entry rows as it
# reads a system, so only its coupled rows are kept as dicts and pivoted on.


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


def _clear(row: dict, lead: int, pivot: dict) -> None:
    """row <- p row - x pivot, in place, for integer rows, p = pivot[lead] > 0
    and x = row[lead] made coprime, and divided by its gcd when p > 1: row
    then has no entry at lead, and a lead of row below pivot's keeps its
    sign."""
    p, x = pivot[lead], row[lead]
    if p != 1:
        g = gcd(p, x)
        p, x = p // g, x // g
        for c in row:
            row[c] *= p
    _subtract(row, x, pivot)
    if p != 1 and (g := gcd(*row.values())) > 1:
        for c in row:
            row[c] //= g


def _reduce(echelon: dict, row: dict) -> dict:
    """A nonzero multiple of the remainder of a row without zero entries
    after eliminating its leading entries by echelon, as a new primitive
    integer row with a positive lead, or {} iff the row lies in their span."""
    if all(type(x) is int for x in row.values()):  # read off the types: no arithmetic
        row = dict(row)
    else:
        row = _scaled(row, lcm(*[x.denominator for x in row.values()]))
    while row:
        lead = min(row)
        pivot = echelon.get(lead)
        if pivot is None:
            g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
            return row if g == 1 else {c: x // g for c, x in row.items()}
        if pivot[lead] == 1:
            _subtract(row, row[lead], pivot)
        else:
            _clear(row, lead, pivot)
    return row


def _insert(echelon: dict, rows: Iterable[dict]) -> dict:
    """echelon with rows (without zero entries) added; neither the echelon
    nor the rows are changed."""
    out = dict(echelon)
    for row in rows:
        row = _reduce(out, row)
        if row:
            out[min(row)] = row
    return out


def _back_substitute(echelon: dict) -> dict:
    """The reduced row echelon form: each row cleared at every other lead,
    in integers, then divided by its lead."""
    cleared: dict = {}
    for lead, row in sorted(echelon.items(), reverse=True):
        row = dict(row)
        for c in [c for c in row if c in cleared]:
            # cleared rows carry no lead but their own, so row[c] stays nonzero
            _clear(row, c, cleared[c])
        cleared[lead] = row
    return {
        lead: row if (d := row[lead]) == 1 else
        {c: x // d if x % d == 0 else Fraction(x, d) for c, x in row.items()}
        for lead, row in cleared.items()
    }


def _peel(rows: Iterable[dict], ncols: int) -> tuple:
    """(units, reduced) of rows without zero entries on columns below
    ncols, which it may change: the rows must be the caller's own fresh dicts.

    A one-entry row {c: x} puts e_c in the row space, so the reduced form
    holds the row {c: 1} and no other row has an entry at c.  Such a unit is
    peeled with no arithmetic and kept as a flag: ``units[c]`` is 1.  The
    rows are read once, as they come, and each has the units found so far
    struck from it; only a row still coupled is kept.  A unit found later
    may hold a column of a kept row, so the kept rows are struck again, pass
    after pass, until a pass finds no new unit.  ``reduced`` is the reduced
    form {lead: row} of the coupled rows left over, which hold no flagged
    column; with a row {c: 1} for each flag it is the reduced form of the
    system, which is unique, so the rank is the flag count plus len(reduced).
    """
    units, grew = bytearray(ncols), True
    while grew:
        grew, kept = False, []
        for row in rows:
            if len(row) > 1:
                for c in [c for c in row if units[c]]:
                    del row[c]
                if len(row) > 1:
                    kept.append(row)
                    continue
            for c in row:  # a unit, or nothing once struck
                if not units[c]:
                    units[c] = grew = True
        rows = kept
    return units, _back_substitute(_insert({}, rows))


def _kernel(units: bytearray, reduced: dict, ncols: int) -> list:
    """Canonical kernel basis of a peeled reduced form as sparse vectors,
    ordered by free column: the vector of free column c has 1 at c and
    -row[c] at each coupled row's lead (a unit's row has no other entry)."""
    basis = {c: {c: 1} for c in range(ncols) if not units[c] and c not in reduced}
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
    _, reduced = _peel(rows, 2 * n)  # a unit is a zero row of M: singular
    if any(i not in reduced for i in range(n)):
        raise ValueError("singular matrix")
    right = [{c - n: x for c, x in reduced[i].items() if c >= n} for i in range(n)]
    return Matrix.from_columns(_transpose(right, n), n)


def column_span(vectors: Iterable[dict], dim: int) -> Matrix:
    """Canonical subspace representation of the span of sparse vectors
    {index: scalar} in a dim-dimensional space:
    columns of the returned matrix are the RREF basis of the span, so subspace
    equality is literal matrix equality."""
    units, reduced = _peel(({c: x for c, x in v.items() if x} for v in vectors), dim)
    reduced.update((c, {c: 1}) for c in range(dim) if units[c])
    return Matrix.from_columns([row for _, row in sorted(reduced.items())], dim)


def sparse_nullspace(rows: Iterable[dict], ncols: int) -> list:
    """Canonical kernel basis of a sparse linear system.

    ``rows`` are {column: scalar} dicts without zero entries, handed over as
    in ``_peel``: fresh dicts that the caller owns and the solve may
    change.  Returns kernel vectors as sparse {column: scalar} dicts, ordered
    by ascending free column (see ``_kernel``).
    """
    return _kernel(*_peel(rows, ncols), ncols)
