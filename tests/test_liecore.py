"""Structure-constant algebra machinery: brackets, Jacobi, central series."""
from fractions import Fraction

import pytest

from qfla import build_qn, build_quasi, make_spec
from qfla.liecore import (
    JacobiViolation,
    LieAlgebra,
    NotNilpotent,
    NotSpanning,
    check_jacobi,
    is_filiform,
    is_minimal_generating_set,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from qfla.linalg import Matrix, column_span


def so3():
    # [x,y]=z, [y,z]=x, [z,x]=y: Jacobi holds, not nilpotent
    return LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def heisenberg():
    return LieAlgebra(3, {(0, 1): {2: 1}})


class TestBracket:
    def test_antisymmetry_from_storage(self):
        L = heisenberg()
        assert L.bracket(L.basis_vector(1), L.basis_vector(0)) == [0, 0, -1]

    def test_bilinear(self):
        L = so3()
        x = [Fraction(2), Fraction(0), Fraction(1)]
        y = [Fraction(0), Fraction(3), Fraction(0)]
        # [2x + z, 3y] = 6z - 3x  (using [x,y]=z, [z,y]=-x)
        assert L.bracket(x, y) == [Fraction(-3), Fraction(0), Fraction(6)]

    def test_q5_defining_brackets(self):
        L = build_qn(5)
        e = L.basis_vector
        assert L.bracket(e(0), e(1)) == e(2)
        assert L.bracket(e(0), e(4)) == [0] * 6  # top of the tower
        assert L.bracket(e(1), e(4)) == [0, 0, 0, 0, 0, -1]
        assert L.bracket(e(2), e(3)) == [0, 0, 0, 0, 0, 1]


class TestJacobi:
    def test_valid_algebras(self):
        assert check_jacobi(so3()) == (True, None)
        assert check_jacobi(build_qn(7)) == (True, None)

    def test_violation_raises(self):
        with pytest.raises(JacobiViolation):
            LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})

    def test_violation_located(self):
        L = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}, validate=False)
        ok, triple = check_jacobi(L)
        assert not ok and triple == (0, 1, 2)


class TestLowerCentralSeries:
    def test_q5_dims(self):
        assert lower_central_series(build_qn(5)).dims == (6, 4, 3, 2, 1, 0)

    def test_glued_pair_dims(self):
        L = build_quasi(make_spec(5, 2, 1, [["1"]]))
        assert lower_central_series(L).dims == (11, 7, 5, 3, 1, 0)

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            lower_central_series(so3())

    def test_filiform(self):
        def filiform(L):
            return is_filiform(lower_central_series(L))

        assert filiform(build_qn(5))
        assert filiform(build_qn(7))
        assert not filiform(build_quasi(make_spec(5, 2, 1, [["1"]])))
        assert filiform(heisenberg())  # nilindex = dim - 1
        # a central line added to the smallest tower breaks maximal class
        assert not filiform(LieAlgebra(4, {(0, 1): {2: 1}}))


class TestGenerators:
    def test_counts(self):
        assert minimal_generator_count(lower_central_series(build_qn(5))) == 2
        L = build_quasi(make_spec(5, 3, 1, [["1", "1"]]))
        assert minimal_generator_count(lower_central_series(L)) == 6

    def test_membership(self):
        L = build_qn(5)
        assert is_minimal_generating_set(L, [L.basis_vector(0), L.basis_vector(1)])
        assert not is_minimal_generating_set(L, [L.basis_vector(0), L.basis_vector(2)])
        assert not is_minimal_generating_set(L, [L.basis_vector(0)])


class TestQuasiCyclicSplit:
    def test_q5_generator_span(self):
        L = build_qn(5)
        U = column_span([L.basis_vector(0), L.basis_vector(1)], 6)
        chain = quasi_cyclic_split(L, U)
        assert tuple(s.cols for s in chain) == (2, 1, 1, 1, 1)

    def test_bad_subspace(self):
        L = build_qn(5)
        U = column_span([L.basis_vector(0), L.basis_vector(2)], 6)
        with pytest.raises(NotSpanning):
            quasi_cyclic_split(L, U)


class TestConstructionValidation:
    def test_rejects_upper_triangular_violation(self):
        with pytest.raises(ValueError):
            LieAlgebra(3, {(1, 0): {2: 1}})

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            LieAlgebra(3, {(0, 1): {5: 1}})

    def test_drops_zero_coefficients(self):
        L = LieAlgebra(3, {(0, 1): {2: 0}})
        assert L.sc == {}
