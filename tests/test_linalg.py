"""Exact linear algebra: reduction, kernels, column spans, sparse elimination.

The package has one elimination engine, so it is checked against the
textbook dense Gauss-Jordan elimination kept here as an independent reference.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sparse
from qfla.linalg import (
    Matrix,
    column_span,
    inverse,
    rank,
    scalar,
    scalar_to_str,
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
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
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
        c = data.draw(grids(rows, inner))
        f = data.draw(scalars)
        A, B, C = Matrix(a, cols=inner), Matrix(b, cols=cols), Matrix(c, cols=inner)
        assert dense_rows(A) == a
        assert dense_rows(A * B) == reference_product(a, b, inner)
        assert dense_rows(A + C) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, c)]
        assert dense_rows(A - C) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, c)]
        assert dense_rows(-A) == [[-x for x in r] for r in a]
        assert dense_rows(A * f) == dense_rows(f * A) == [[x * f for x in r] for r in a]
        assert dense_rows(A.hstack(C)) == [r + s for r, s in zip(a, c)]
        row_idx = data.draw(st.lists(st.integers(0, rows - 1), unique=True))
        col_idx = data.draw(st.lists(st.integers(0, inner - 1), unique=True))
        sub = A.submatrix(row_idx, col_idx)
        assert (sub.rows, sub.cols) == (len(row_idx), len(col_idx))
        assert dense_rows(sub) == [[a[i][j] for j in col_idx] for i in row_idx]
        assert Matrix.from_columns(A.columns(), rows) == A
        assert A.columns() == [sparse(col) for col in zip(*a)]
        assert (A == Matrix(a)) and hash(A) == hash(Matrix(a))

    def test_shape_mismatches_raise(self):
        A = Matrix([[1, 2]])
        column = Matrix([[1], [2]])
        for op in (lambda: A * A, lambda: A + column, lambda: A.hstack(column)):
            with pytest.raises(ValueError):
                op()

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

    def test_round_trip(self):
        for x in [Fraction(3, 4), Fraction(-7), Fraction(0)]:
            assert scalar(scalar_to_str(x)) == x


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
    @given(st.one_of(random_matrix(6, 6), sparse_matrix()), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense(self, M, with_zeros):
        # the dense reference; rows may also carry explicit zeros and int values
        rows = [
            {
                j: int(x) if x.denominator == 1 else x
                for j, x in enumerate(dense_rows(M)[i])
                if x != 0 or with_zeros
            }
            for i in range(M.rows)
        ]
        kernel = sparse_nullspace(rows, M.cols)
        assert [[v.get(j, 0) for j in range(M.cols)] for v in kernel] == reference_kernel(M)

    def test_empty_system(self):
        basis = sparse_nullspace([], 3)
        assert len(basis) == 3
