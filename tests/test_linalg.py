"""Exact linear algebra: reduction, kernels, column spans, sparse elimination."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfla.linalg import (
    Matrix,
    column_span,
    inverse,
    nullspace,
    rank,
    rref,
    scalar,
    scalar_to_str,
    sparse_nullspace,
)

scalars = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def random_matrix(draw_rows, draw_cols):
    return st.integers(1, draw_rows).flatmap(
        lambda r: st.integers(1, draw_cols).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix)
        )
    )


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
        assert Matrix.from_columns(A.columns()) == A


class TestRref:
    def test_known_reduction(self):
        res = rref(Matrix([[1, 2, 3], [2, 4, 7]]))
        assert res.rank == 2
        assert res.pivot_cols == (0, 2)
        assert res.matrix == Matrix([[1, 2, 0], [0, 0, 1]])

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, M):
        once = rref(M)
        assert rref(once.matrix).matrix == once.matrix

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, M):
        assert rank(M) + len(nullspace(M)) == M.cols

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, M):
        for v in nullspace(M):
            assert (M * v).is_zero()


class TestColumnSpan:
    def test_canonical_equality(self):
        a = column_span([[1, 1, 0], [0, 1, 1]], 3)
        b = column_span([[1, 2, 1], [1, 0, -1]], 3)
        assert a == b
        assert a.cols == 2

    def test_empty(self):
        assert column_span([], 4).cols == 0


class TestSparseNullspace:
    @given(random_matrix(6, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense(self, M):
        rows = [
            {j: M.entry(i, j) for j in range(M.cols) if M.entry(i, j) != 0}
            for i in range(M.rows)
        ]
        sparse = sparse_nullspace(rows, M.cols)
        dense = [tuple(v.col(0)) for v in nullspace(M)]
        assert [tuple(v) for v in sparse] == dense

    def test_empty_system(self):
        basis = sparse_nullspace([], 3)
        assert len(basis) == 3
