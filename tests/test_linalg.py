"""Exact linear algebra: reduction, kernels, column spans, sparse elimination.

The package has one elimination engine, so it is checked against the
textbook dense Gauss-Jordan elimination kept here as an independent reference.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sparse
from qfla import linalg
from qfla.builder import build_quasi, make_spec
from qfla.linalg import (
    Matrix,
    column_span,
    inverse,
    rank,
    scalar,
    sparse_nullspace,
)

scalars = st.fractions(min_value=-30, max_value=30, max_denominator=7)
nonzero_scalars = scalars.filter(lambda x: x != 0)


def random_matrix(draw_rows, draw_cols):
    return st.integers(1, draw_rows).flatmap(
        lambda r: st.integers(1, draw_cols).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix)
        )
    )


@st.composite
def sparse_matrix(draw):
    """A wide, mostly zero matrix shaped like the dim^2-wide spans, with
    repeated, rescaled and all-zero rows mixed in."""
    cols = draw(st.sampled_from([k * k for k in range(2, 9)]))
    entries = st.dictionaries(st.integers(0, cols - 1), nonzero_scalars, max_size=4)
    grid = [
        [row.get(j, 0) for j in range(cols)]
        for row in draw(st.lists(entries, min_size=1, max_size=8))
    ]
    factors = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), scalars)
    copies = draw(st.lists(st.tuples(st.integers(0, len(grid) - 1), factors), max_size=3))
    grid += [[f * x for x in grid[i]] for i, f in copies]
    return Matrix(draw(st.permutations(grid)), cols=cols)


matrices = st.one_of(random_matrix(5, 5), sparse_matrix())


# Cheap to draw, and enough to cancel: the Leibniz rows carry small entries.
LEIBNIZ_ENTRIES = [Fraction(x) for x in (1, -1, 2, -3, "1/2", "-2/3", "7/5")]


@st.composite
def leibniz_like(draw):
    """(ncols, rows) shaped like the derivation oracle's Leibniz system: mostly
    one-entry rows.  Base row k brings in column order[k], with up to two
    columns brought in earlier; the first three form a chain {a}, {a, b},
    {b, c}, so peeling takes at least three rounds.  Some base rows are left
    out, so kernels are not trivial; coupled rows off the chain, repeated and
    rescaled rows, explicit zeros, int values and empty rows are mixed in."""
    entries = st.sampled_from(LEIBNIZ_ENTRIES)
    ncols = draw(st.integers(5, 16))
    order = draw(st.permutations(range(ncols)))
    base = [{order[0]: draw(entries)}]
    for k in range(1, ncols):
        if k < 3:
            earlier = [order[k - 1]]
        else:
            earlier = st.lists(st.sampled_from(order[:k]), min_size=1, max_size=2, unique=True)
            earlier = draw(earlier)
            if draw(st.integers(0, 2)):  # two thirds of the later rows stay units
                earlier = []
        base.append({c: draw(entries) for c in [*earlier, order[k]]})
    keep = draw(st.lists(st.booleans(), min_size=ncols - 3, max_size=ncols - 3))
    rows = base[:3] + [row for row, kept in zip(base[3:], keep) if kept]
    # coupled rows mostly on the columns whose base row was left out, so that
    # some of them survive the peeling
    free = [c for c, kept in zip(order[3:], keep) if not kept]
    if len(free) < 2 or draw(st.booleans()):
        free = order[3:]
    coupled = st.dictionaries(st.sampled_from(free), entries, min_size=2, max_size=4)
    rows += draw(st.lists(coupled, max_size=5))
    factors = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), entries)
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), factors), max_size=4))
    rows += [{c: f * x for c, x in rows[i].items()} for i, f in copies]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    for row in rows:
        if draw(st.booleans()):
            row.setdefault(draw(st.integers(0, ncols - 1)), Fraction(0))
    rows = [{c: int(x) if x.denominator == 1 else x for c, x in row.items()} for row in rows]
    return ncols, draw(st.permutations(rows))


def as_grid(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def square_grid(system):
    """The first ncols rows of a system as a square grid, padded with zero rows."""
    ncols, rows = system
    return as_grid(rows[:ncols] + [{}] * (ncols - len(rows)), ncols)


def reference_peel(rows):
    """(rounds, coupled rows) of peeling one-entry rows off a system: each
    round strikes the columns of the rows with one entry left among the
    columns not yet struck, until no such row is left."""
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    struck, rounds = set(), 0
    while units := {c for row in rows if len(left := row.keys() - struck) == 1 for c in left}:
        struck |= units
        rounds += 1
    coupled = [{c: x for c, x in row.items() if c not in struck} for row in rows]
    return rounds, [row for row in coupled if row]


def reference_rref(grid, ncols):
    """Textbook dense Gauss-Jordan elimination: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in grid]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        p = next((i for i in range(top, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(c)
    return rows, pivots


def dense_rows(M):
    return [[M.entry(i, j) for j in range(M.cols)] for i in range(M.rows)]


def row_vectors(M):
    """The rows of M as sparse vectors."""
    return [sparse(row) for row in dense_rows(M)]


def reference_kernel(M):
    rows, pivots = reference_rref(dense_rows(M), M.cols)
    basis = []
    for free in (c for c in range(M.cols) if c not in pivots):
        v = [Fraction(0)] * M.cols
        v[free] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -rows[k][free]
        basis.append(v)
    return basis


class TestAgainstReference:
    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_rref_and_rank(self, M):
        # the span of M's rows is held as M's reduced row echelon form
        rows, pivots = reference_rref(dense_rows(M), M.cols)
        span = column_span(row_vectors(M), M.cols)
        assert span == Matrix.from_columns([sparse(row) for row in rows[: len(pivots)]], M.cols)
        assert [min(col) for col in span.columns()] == pivots
        assert span.cols == rank(M) == len(pivots)

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_nullspace(self, M):
        kernel = sparse_nullspace(row_vectors(M), M.cols)
        assert [[v.get(i, 0) for i in range(M.cols)] for v in kernel] == reference_kernel(M)

    @given(matrices, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_column_span(self, M, with_zeros):
        # vectors may also carry explicit zeros
        rows, pivots = reference_rref(dense_rows(M), M.cols)
        expected = Matrix.from_columns([sparse(row) for row in rows[: len(pivots)]], M.cols)
        vectors = [dict(enumerate(row)) if with_zeros else sparse(row) for row in dense_rows(M)]
        assert column_span(vectors, M.cols) == expected

    @given(
        st.one_of(
            st.integers(1, 5).flatmap(
                lambda n: st.lists(
                    st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n
                )
            ),
            leibniz_like().map(square_grid),  # mostly one-entry rows: the peel runs
        ),
        st.one_of(st.none(), scalars),
    )
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, grid, last_row_factor):
        n = len(grid)
        if last_row_factor is not None:  # a rescaled first row: singular when n > 1
            grid[-1] = [last_row_factor * x for x in grid[0]]
        M = Matrix(grid)
        augmented = [row + [int(i == k) for k in range(n)] for i, row in enumerate(grid)]
        rows, pivots = reference_rref(augmented, 2 * n)
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError):
                inverse(M)
        else:
            assert inverse(M) == Matrix([row[n:] for row in rows])


def item_lists(rows):
    return sorted(sorted(row.items()) for row in rows)


class TestUnitRowPeeling:
    """Every solve strikes one-entry rows before it pivots; the result is
    still the textbook reduced form, and only the coupled rows left over
    reach ``_insert``."""

    @staticmethod
    def eliminated_rows(solve):
        seen = []

        def recording(echelon, rows):
            rows = list(rows)
            seen.extend(dict(row) for row in rows)
            return insert(echelon, rows)

        insert = linalg._insert
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_insert", recording)
            result = solve()
        return result, seen

    @given(leibniz_like())
    @settings(max_examples=100, deadline=None)
    def test_nullspace_and_span_match_dense(self, system):
        ncols, rows = system
        rounds, coupled = reference_peel(rows)
        assert rounds >= 3
        M = Matrix(as_grid(rows, ncols), cols=ncols)
        # the solve takes rows without zeros and may change them: it gets copies
        fresh = [{c: x for c, x in row.items() if x} for row in rows]
        kernel, seen = self.eliminated_rows(lambda: sparse_nullspace(fresh, ncols))
        assert [[v.get(c, 0) for c in range(ncols)] for v in kernel] == reference_kernel(M)
        assert item_lists(seen) == item_lists(coupled)
        reduced, pivots = reference_rref(as_grid(rows, ncols), ncols)
        expected = Matrix.from_columns([sparse(row) for row in reduced[: len(pivots)]], ncols)
        span, seen = self.eliminated_rows(lambda: column_span(rows, ncols))
        assert span == expected
        assert item_lists(seen) == item_lists(coupled)

    @given(leibniz_like(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_units_after_the_rows_they_strike(self, system, reverse):
        # Rows are read once, as they come.  Longest rows first puts every
        # unit after the coupled rows holding its column, and the chain
        # {b, c}, {a, b}, {a} before its unit: {a, b} becomes a unit only
        # once {a} is struck, and {b, c} only after that.
        ncols, rows = system
        rows = sorted(rows, key=len, reverse=True)
        if reverse:
            rows.reverse()  # units first: the strikes on arrival do the work
        M = Matrix(as_grid(rows, ncols), cols=ncols)
        one_shot = ({c: x for c, x in row.items() if x} for row in rows)
        kernel = sparse_nullspace(one_shot, ncols)
        assert [[v.get(c, 0) for c in range(ncols)] for v in kernel] == reference_kernel(M)
        reduced, pivots = reference_rref(as_grid(rows, ncols), ncols)
        expected = Matrix.from_columns([sparse(row) for row in reduced[: len(pivots)]], ncols)
        assert column_span((dict(row) for row in rows), ncols) == expected


def grids(rows, cols):
    """rows x cols grids of scalars, about half of the entries zero."""
    entry = st.one_of(st.just(Fraction(0)), scalars)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def reference_product(a, b, inner):
    """a times b for row grids a (m x inner) and b (inner x n, n >= 1)."""
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(len(b[0]))]
        for row in a
    ]


class TestSparseMatrixAgainstDense:
    """The sparse-column Matrix against plain arithmetic on its row grids."""

    @given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_arithmetic(self, data, rows, inner, cols):
        a = data.draw(grids(rows, inner))
        b = data.draw(grids(inner, cols))
        A, B = Matrix(a, cols=inner), Matrix(b, cols=cols)
        assert dense_rows(A) == a
        assert dense_rows(A * B) == reference_product(a, b, inner)
        assert Matrix.from_columns(A.columns(), rows) == A
        assert A.columns() == [sparse(col) for col in zip(*a)]
        assert (A == Matrix(a)) and hash(A) == hash(Matrix(a))

    def test_shape_mismatches_raise(self):
        A = Matrix([[1, 2]])
        with pytest.raises(ValueError):
            A * A

    def test_cols_must_match_the_row_width(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]], cols=3)
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])
        assert Matrix([[1, 2]], cols=2) == Matrix([[1, 2]])
        assert (Matrix([], cols=3).rows, Matrix([], cols=3).cols) == (0, 3)


class TestScalar:
    def test_parses_fraction_strings(self):
        assert scalar("3/4") == Fraction(3, 4)
        assert scalar("-2") == Fraction(-2)
        assert scalar(5) == Fraction(5)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            scalar(0.5)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            scalar(True)

    def test_rejects_zero_denominators(self):
        with pytest.raises(ValueError, match="zero denominator in '3/0'"):
            scalar("3/0")

    def test_round_trip(self):
        for x in [Fraction(3, 4), Fraction(-7), Fraction(0)]:
            assert scalar(str(x)) == x

    @pytest.mark.parametrize("text", ["1e99999999", "2E3", "-1.5e-2", "3/1e2"])
    def test_rejects_exponent_notation(self, text):
        # before any arithmetic: Fraction("1e99999999") would compute 10**99999999
        with pytest.raises(ValueError, match="exponent notation"):
            scalar(text)

    def test_repeated_strings_parse_alike_and_errors_repeat(self):
        for _ in range(2):
            assert scalar("-3/6") == Fraction(-1, 2)
            assert scalar("0.25") == Fraction(1, 4)
            with pytest.raises(ValueError, match="zero denominator"):
                scalar("5/0")


def in_normal_form(values) -> bool:
    """Every value an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in values)


SCALAR_INPUTS = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=12),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 12)),
    st.sampled_from(["4/2", "-0", "0/5", "-6/3", "7", "-12/8", "0.5", " 3 "]),
)


class TestNormalForm:
    """Integral scalars are ints: the engine and the algebras keep them so,
    and so never fall back to Fraction arithmetic on integral values."""

    @given(SCALAR_INPUTS)
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_an_int_exactly_when_integral(self, value):
        x = scalar(value)
        assert x == Fraction(value)
        assert (type(x) is int) == (Fraction(value).denominator == 1)
        assert in_normal_form([x])

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_engine_results_hold_no_integral_fraction(self, M):
        assert in_normal_form(x for row in row_vectors(M) for x in row.values())
        span = column_span(row_vectors(M), M.cols)
        assert in_normal_form(x for col in span.columns() for x in col.values())
        kernel = sparse_nullspace(row_vectors(M), M.cols)
        assert in_normal_form(x for v in kernel for x in v.values())
        if M.rows == M.cols and rank(M) == M.rows:
            assert in_normal_form(x for col in inverse(M).columns() for x in col.values())

    def test_fractions_that_cancel_to_integers_become_ints(self):
        # 1/2 - (-1/2) = 1 on the way to each result
        half = Fraction(1, 2)
        rows = [{0: 1, 1: half}, {0: 1, 1: -half, 2: 1}, {0: 2, 1: 3 * half, 3: half}]
        span = column_span([dict(row) for row in rows], 4)
        kernel = sparse_nullspace([dict(row) for row in rows], 4)
        assert in_normal_form(x for v in span.columns() + kernel for x in v.values())
        M = Matrix([[half, half], [-half, half]])
        assert in_normal_form(x for col in inverse(M).columns() for x in col.values())

    @given(leibniz_like())
    @settings(max_examples=60, deadline=None)
    def test_peeled_kernels_hold_no_integral_fraction(self, system):
        ncols, rows = system
        rows = [{c: x for c, x in row.items() if x} for row in rows]
        assert in_normal_form(x for v in sparse_nullspace(rows, ncols) for x in v.values())

    def test_partners_hold_no_integral_fraction(self):
        L = build_quasi(make_spec(5, 5, 2, [["1/2", "4/2", "-3"], ["-2/3", "0", "6/4"]]))
        values = [x for row in L.partners for value in row.values() for x in value.values()]
        assert any(type(x) is Fraction for x in values) and in_normal_form(values)

    def test_two_and_fraction_two_share_one_build(self):
        a = make_spec(5, 3, 1, [[2, 1]])
        b = make_spec(5, 3, 1, Matrix.from_columns([{0: Fraction(2)}, {0: Fraction(1)}], 1))
        assert type(b.B.entry(0, 0)) is Fraction
        assert a == b and hash(a) == hash(b)
        before = build_quasi.cache_info()
        assert build_quasi(b) is build_quasi(a)
        after = build_quasi.cache_info()
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 1


class TestMatrix:
    def test_multiply(self):
        A = Matrix([[1, 2], [3, 4]])
        B = Matrix([[0, 1], [1, 0]])
        assert A * B == Matrix([[2, 1], [4, 3]])

    def test_inverse(self):
        A = Matrix([[2, 1], [1, 1]])
        assert A * inverse(A) == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 2], [2, 4]]))

    def test_from_columns_round_trip(self):
        A = Matrix([[1, 2, 3], [4, 5, 6]])
        assert A.columns() == [{0: 1, 1: 4}, {0: 2, 1: 5}, {0: 3, 1: 6}]
        assert Matrix.from_columns(A.columns(), A.rows) == A


class TestRref:
    """The reduced row echelon form, as column_span of the rows holds it."""

    def test_known_reduction(self):
        M = Matrix([[1, 2, 3], [2, 4, 7]])
        span = column_span(row_vectors(M), M.cols)
        assert rank(M) == span.cols == 2
        assert span.columns() == [{0: 1, 1: 2}, {2: 1}]

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, M):
        once = column_span(row_vectors(M), M.cols)
        assert column_span(once.columns(), M.cols) == once

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, M):
        assert rank(M) + len(sparse_nullspace(row_vectors(M), M.cols)) == M.cols

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, M):
        for v in sparse_nullspace(row_vectors(M), M.cols):
            assert M * Matrix.from_columns([v], M.cols) == Matrix([[0]] * M.rows)


class TestColumnSpan:
    def test_canonical_equality(self):
        a = column_span([{0: 1, 1: 1}, {1: 1, 2: 1}], 3)
        b = column_span([{0: 1, 1: 2, 2: 1}, {0: 1, 2: -1}], 3)
        assert a == b
        assert a.cols == 2

    def test_empty(self):
        assert column_span([], 4).cols == 0


class TestSparseNullspace:
    @given(st.one_of(random_matrix(6, 6), sparse_matrix()))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense(self, M):
        # the dense reference; rows may carry int values (never zeros: callers drop them)
        rows = [
            {j: int(x) if x.denominator == 1 else x for j, x in enumerate(row) if x}
            for row in dense_rows(M)
        ]
        kernel = sparse_nullspace(rows, M.cols)
        assert [[v.get(j, 0) for j in range(M.cols)] for v in kernel] == reference_kernel(M)

    def test_empty_system(self):
        basis = sparse_nullspace([], 3)
        assert len(basis) == 3
