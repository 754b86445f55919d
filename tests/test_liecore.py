"""Structure-constant algebra machinery: brackets, Jacobi, central series.

The bracket and the spans built from it run on sparse vectors, so they are
checked against a textbook dense bracket and lower central series kept here,
on the e-basis tables of the gluings and on dense tables of Q_n in random
bases.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sparse
from qfla import build_qn, build_quasi, make_spec
from qfla.builder import change_of_basis, qn_x_basis
from qfla.liecore import (
    JacobiViolation,
    LieAlgebra,
    NotDirect,
    NotNilpotent,
    NotSpanning,
    check_jacobi,
    is_filiform,
    is_minimal_generating_set,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from qfla.linalg import Matrix, _subtract, column_span
from test_linalg import reference_rref


def so3():
    # [x,y]=z, [y,z]=x, [z,x]=y: Jacobi holds, not nilpotent
    return LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def heisenberg():
    return LieAlgebra(3, {(0, 1): {2: 1}})


class TestBracket:
    def test_antisymmetry_from_storage(self):
        L = heisenberg()
        assert L.bracket({1: 1}, {0: 1}) == {2: -1}

    def test_bilinear(self):
        L = so3()
        x = {0: Fraction(2), 2: Fraction(1)}
        y = {1: Fraction(3)}
        # [2x + z, 3y] = 6z - 3x  (using [x,y]=z, [z,y]=-x)
        assert L.bracket(x, y) == {0: Fraction(-3), 2: Fraction(6)}

    def test_q5_defining_brackets(self):
        L = build_qn(5)
        assert L.bracket({0: 1}, {1: 1}) == {2: 1}
        assert L.bracket({0: 1}, {4: 1}) == {}  # top of the tower
        assert L.bracket({1: 1}, {4: 1}) == {5: -1}
        assert L.bracket({2: 1}, {3: 1}) == {5: 1}


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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_all_triples_reference(self, data):
        L = data.draw(jacobi_tables())
        assert check_jacobi(L) == reference_jacobi(L)


class TestLowerCentralSeries:
    def test_q5_dims(self):
        assert [c.cols for c in lower_central_series(build_qn(5))] == [6, 4, 3, 2, 1, 0]

    def test_glued_pair_dims(self):
        L = build_quasi(make_spec(5, 2, 1, [["1"]]))
        assert [c.cols for c in lower_central_series(L)] == [11, 7, 5, 3, 1, 0]

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
        assert is_minimal_generating_set(L, [{0: 1}, {1: 1}])
        assert not is_minimal_generating_set(L, [{0: 1}, {2: 1}])
        assert not is_minimal_generating_set(L, [{0: 1}])


class TestQuasiCyclicSplit:
    def test_q5_generator_span(self):
        L = build_qn(5)
        U = column_span([{0: 1}, {1: 1}], 6)
        chain = quasi_cyclic_split(L, U)
        assert tuple(s.cols for s in chain) == (2, 1, 1, 1, 1)

    def test_bad_subspace(self):
        L = build_qn(5)
        U = column_span([{0: 1}, {2: 1}], 6)
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


# -- the dense reference ----------------------------------------------------------


def reference_bracket(L, x, y):
    """[x, y] = sum_{i<j} (x_i y_j - x_j y_i) [e_i, e_j] on dense coordinate
    lists, read straight off the stored table."""
    out = [Fraction(0)] * L.dim
    for (i, j), value in L.sc.items():
        if (x[i] and y[j]) or (x[j] and y[i]):
            f = x[i] * y[j] - x[j] * y[i]
            for k, c in value.items():
                out[k] += f * c
    return out


def reference_jacobi(L):
    """The Jacobi check over all basis triples in order, skipping only the
    triples whose three brackets all vanish: (True, None), or (False, the
    first failing triple)."""
    sc = L.sc
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            ij = (i, j) in sc
            for k in range(j + 1, L.dim):
                if not (ij or (j, k) in sc or (i, k) in sc):
                    continue  # all three brackets vanish
                total = {}
                for pair, extra in (((j, k), i), ((k, i), j), ((i, j), k)):
                    for t, c in L.structure(*pair).items():
                        _subtract(total, c, L.structure(t, extra))  # += c [e_extra, e_t]
                if total:
                    return False, (i, j, k)
    return True, None


def reference_span(vectors, dim):
    """The dense RREF basis of the span, one list per basis vector.  Zero
    vectors and repeated directions are dropped first to keep it quick."""
    directions = {}
    for v in vectors:
        lead = next((x for x in v if x), None)
        if lead is not None:
            directions[tuple(x / lead for x in v)] = None
    rows, pivots = reference_rref(list(directions), dim)
    return rows[: len(pivots)]


def as_matrix(basis, dim):
    return Matrix.from_columns([sparse(v) for v in basis], dim)


def reference_lcs(L):
    """The spaces c^0 = L, c^{i+1} = [L, c^i] down to 0, each an RREF basis."""
    units = [[Fraction(int(i == k)) for k in range(L.dim)] for i in range(L.dim)]
    spaces = [units]
    while spaces[-1]:
        nxt = reference_span(
            [reference_bracket(L, u, v) for u in units for v in spaces[-1]], L.dim
        )
        assert len(nxt) < len(spaces[-1]), "every algebra drawn here is nilpotent"
        spaces.append(nxt)
    return spaces


def reference_quasi_cyclic(L, gens):
    """The chain U, [U,U], [U,[U,U]], ... of RREF bases, and the rank of its sum."""
    chain = [reference_span(gens, L.dim)]
    while True:
        nxt = reference_span(
            [reference_bracket(L, u, v) for u in chain[0] for v in chain[-1]], L.dim
        )
        if not nxt:
            break
        chain.append(nxt)
    return chain, len(reference_span([v for space in chain for v in space], L.dim))


small = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
nonzero = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def gluings(draw):
    """N(Q_n, m, r) with a random B (block form or mixing) on its e-basis."""
    n, m = draw(st.sampled_from([(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]))  # dim <= 17
    r = draw(st.integers(1, m))
    columns = [draw(st.lists(small, min_size=r, max_size=r)) for _ in range(m - r)]
    columns = [c if any(c) else [1] + c[1:] for c in columns]  # no zero column
    return build_quasi(make_spec(n, m, r, [[c[i] for c in columns] for i in range(r)]))


@st.composite
def dense_tables(draw, ns=(5, 7)):
    """Q_n carried to the basis of the columns of P = lower * upper, both
    unitriangular with random entries: invertible, and dense in general."""
    n = draw(st.sampled_from(ns))
    dim = n + 1
    low = [[draw(small) if j < i else int(i == j) for j in range(dim)] for i in range(dim)]
    up = [[draw(small) if j > i else int(i == j) for j in range(dim)] for i in range(dim)]
    return change_of_basis(qn_x_basis(n), Matrix(low) * Matrix(up))


algebras = st.one_of(gluings(), dense_tables())


@st.composite
def jacobi_tables(draw):
    """Tables of dim <= 8: random sparse ones (most violate Jacobi), and Q_5
    in a random basis (valid) or with one constant changed (dense tables of
    dim 8 cost 0.1 s each to check)."""
    kind = draw(st.sampled_from(["random", "random", "valid", "perturbed"]))
    if kind == "random":
        dim = draw(st.integers(3, 8))
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        values = st.dictionaries(st.integers(0, dim - 1), nonzero, min_size=1, max_size=2)
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=8))
        return LieAlgebra(dim, {p: draw(values) for p in chosen}, validate=False)
    L = draw(dense_tables(ns=(5,)))
    if kind == "valid":
        return L
    sc = {p: dict(v) for p, v in L.sc.items()}
    i, j = sorted(draw(st.lists(st.integers(0, L.dim - 1), min_size=2, max_size=2, unique=True)))
    k = draw(st.integers(0, L.dim - 1))
    value = sc.setdefault((i, j), {})
    value[k] = value.get(k, 0) + draw(nonzero)
    return LieAlgebra(L.dim, sc, validate=False)


def vectors(dim, count):
    return st.lists(st.lists(small, min_size=dim, max_size=dim), min_size=count, max_size=count)


class TestAgainstDenseReference:
    @given(algebras, st.data())
    @settings(max_examples=25, deadline=None)
    def test_bracket(self, L, data):
        x, y = data.draw(vectors(L.dim, 2))
        expected = sparse(reference_bracket(L, x, y))
        assert L.bracket(sparse(x), sparse(y)) == expected
        # explicit zero coefficients change nothing
        assert L.bracket(dict(enumerate(x)), dict(enumerate(y))) == expected

    @given(algebras)
    @settings(max_examples=10, deadline=None)
    def test_lower_central_series(self, L):
        reference = reference_lcs(L)
        chain = lower_central_series(L)
        assert chain == tuple(as_matrix(space, L.dim) for space in reference)

    @given(algebras, st.data())
    @settings(max_examples=12, deadline=None)
    def test_quasi_cyclic_split(self, L, data):
        gens = data.draw(vectors(L.dim, data.draw(st.integers(1, 4))))
        if L.dim % 2 == 0 and data.draw(st.booleans()):  # Q_n: its first two basis vectors
            gens = [[Fraction(int(i == k)) for k in range(L.dim)] for i in (0, 1)]
        chain, total_rank = reference_quasi_cyclic(L, gens)
        U = column_span([sparse(v) for v in gens], L.dim)
        if total_rank < sum(len(space) for space in chain):
            with pytest.raises(NotDirect):
                quasi_cyclic_split(L, U)
        elif total_rank < L.dim:
            with pytest.raises(NotSpanning):
                quasi_cyclic_split(L, U)
        else:
            assert quasi_cyclic_split(L, U) == tuple(as_matrix(space, L.dim) for space in chain)
