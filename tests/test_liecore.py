"""Structure-constant algebra machinery: brackets, Jacobi, central series.

The bracket and the spans built from it run on sparse vectors, so they are
checked against a textbook dense bracket and lower central series kept here,
on the e-basis tables of the gluings and on dense tables of Q_n in random
bases.
"""
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TEST_MATRIX,
    passing_aut_candidate,
    sparse,
    spec_id,
    zero_copy_variants,
)
from qfla.automorphisms import (
    exp_ad,
    extend_endomorphism,
    extend_through_grading,
    make_scaling_automorphism,
)
from qfla.builder import build_qn, build_quasi, change_of_basis, make_spec, qn_x_basis
from qfla.derivations import GeneratorImages
from qfla.iso import iso_decide
from qfla.liecore import (
    JacobiViolation,
    LieAlgebra,
    NotNilpotent,
    NotQuasiCyclic,
    bracket_preserving,
    check_jacobi,
    is_filiform,
    is_isomorphism,
    is_minimal_generating_set,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from qfla import liecore, linalg
from qfla.linalg import Matrix, _combine, _subtract, column_span, inverse, rank
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

    def test_equality_with_a_non_algebra_is_false(self):
        assert LieAlgebra.__eq__(build_qn(5), 3) is NotImplemented
        assert (build_qn(5) == 3) is False

    def test_repr_counts_the_brackets(self):
        assert repr(build_qn(5)) == "LieAlgebra(dim=6, brackets=5)"


class TestJacobi:
    def test_valid_algebras(self):
        for L in (so3(), build_qn(7)):
            assert check_jacobi(L) is L

    def test_violation_raises(self):
        with pytest.raises(JacobiViolation):
            check_jacobi(LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}))

    def test_violation_located(self):
        L = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        with pytest.raises(JacobiViolation, match=r"triple \(0, 1, 2\)$"):
            check_jacobi(L)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_all_triples_reference(self, data):
        L = data.draw(jacobi_tables())
        ok, triple = reference_jacobi(L)
        if ok:
            assert check_jacobi(L) is L
        else:
            with pytest.raises(JacobiViolation, match=re.escape(f"triple {triple}") + "$"):
                check_jacobi(L)


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
            return is_filiform([space.cols for space in lower_central_series(L)])

        assert filiform(build_qn(5))
        assert filiform(build_qn(7))
        assert not filiform(build_quasi(make_spec(5, 2, 1, [["1"]])))
        assert filiform(heisenberg())  # nilindex = dim - 1
        # a central line added to the smallest tower breaks maximal class
        assert not filiform(LieAlgebra(4, {(0, 1): {2: 1}}))


class TestGenerators:
    def test_counts(self):
        assert minimal_generator_count([6, 4, 3, 2, 1, 0]) == 2  # Q_5
        L = build_quasi(make_spec(5, 3, 1, [["1", "1"]]))
        assert minimal_generator_count([c.cols for c in lower_central_series(L)]) == 6

    def test_membership(self):
        L = build_qn(5)
        assert is_minimal_generating_set(L, [{0: 1}, {1: 1}])
        assert not is_minimal_generating_set(L, [{0: 1}, {2: 1}])
        assert not is_minimal_generating_set(L, [{0: 1}])


def reference_split_loop(L, U):
    """The split's all-pairs loop: every basis vector of U bracketed with
    every basis vector of the current level, zero brackets included."""
    chain = [column_span(U.columns(), L.dim)]
    first = cols = chain[0].columns()
    all_cols = list(first)
    while True:
        nxt = column_span([L.bracket(u, v) for u in first for v in cols], L.dim)
        if nxt.cols == 0:
            break
        chain.append(nxt)
        cols = nxt.columns()
        all_cols += cols
    total = len(all_cols)
    r = column_span(all_cols, L.dim).cols
    if r < total:
        raise NotQuasiCyclic(f"sum of chain spaces has rank {r} < {total}")
    if r < L.dim:
        raise NotQuasiCyclic(f"chain spans only {r} of {L.dim} dimensions")
    return tuple(chain)


def split_outcome(split, L, U):
    try:
        return split(L, U)
    except NotQuasiCyclic as exc:
        return str(exc)


def wide_gluing(seed, n, m, r):
    """A seeded random gluing with many copies: B's entries from {0, 1, 2,
    -1, 1/2}, every column nonzero on the first top."""
    rng = random.Random(seed)
    B = [[rng.choice(["0", "1", "2", "-1", "1/2"]) for _ in range(m - r)] for _ in range(r)]
    B[0] = [rng.choice(["1", "2", "-1", "1/2"]) for _ in range(m - r)]
    return make_spec(n, m, r, B)


WIDE_GLUINGS = [
    pytest.param(wide_gluing(seed, n, m, r), id=f"wide-n{n}m{m}r{r}-seed{seed}")
    for seed, (n, m, r) in enumerate([(5, 20, 10), (7, 12, 5), (9, 9, 2), (5, 30, 29)])
]


def generator_span(spec):
    gens = [{spec.gen_index(s, t): 1} for s in range(1, spec.m + 1) for t in (0, 1)]
    return Matrix.from_columns(gens, spec.dim)


class TestQuasiCyclicSplit:
    def test_q5_generator_span(self):
        L = build_qn(5)
        U = column_span([{0: 1}, {1: 1}], 6)
        chain = quasi_cyclic_split(L, U)
        assert tuple(s.cols for s in chain) == (2, 1, 1, 1, 1)

    def test_bad_subspace(self):
        L = build_qn(5)
        U = column_span([{0: 1}, {2: 1}], 6)
        with pytest.raises(NotQuasiCyclic, match=r"^chain spans only 5 of 6 dimensions$"):
            quasi_cyclic_split(L, U)

    @pytest.mark.parametrize("spec", TEST_MATRIX + WIDE_GLUINGS, ids=spec_id)
    def test_matches_the_all_pairs_loop(self, spec, monkeypatch):
        """The same chain, and at most two bracket calls per stored bracket
        that holds a generator (the level U itself meets each such pair in
        both orders), where the all-pairs loop makes 2m per level vector."""
        L = build_quasi(spec)
        U = generator_span(spec)
        expected = reference_split_loop(L, U)
        calls = []
        bracket = LieAlgebra.bracket
        monkeypatch.setattr(LieAlgebra, "bracket", lambda *a: calls.append(1) or bracket(*a))
        assert quasi_cyclic_split(L, U) == expected
        gens = {a for u in U.columns() for a in u}
        assert len(calls) <= 2 * sum(1 for i, j in L.sc if i in gens or j in gens)

    @pytest.mark.parametrize("spec", TEST_MATRIX + WIDE_GLUINGS, ids=spec_id)
    def test_refusals_match_the_all_pairs_loop(self, spec):
        """Drop a generator, or add a bracket of two: the chain falls short or
        overlaps, and both loops refuse with the same text."""
        L = build_quasi(spec)
        gens = generator_span(spec).columns()
        short = Matrix.from_columns(gens[1:], L.dim)
        extra = Matrix.from_columns(gens + [L.bracket(gens[0], gens[1])], L.dim)
        for U in (short, extra):
            outcome = split_outcome(quasi_cyclic_split, L, U)
            assert isinstance(outcome, str)
            assert outcome == split_outcome(reference_split_loop, L, U)


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
        return LieAlgebra(dim, {p: draw(values) for p in chosen})
    L = draw(dense_tables(ns=(5,)))
    if kind == "valid":
        return L
    sc = {p: dict(v) for p, v in L.sc.items()}
    i, j = sorted(draw(st.lists(st.integers(0, L.dim - 1), min_size=2, max_size=2, unique=True)))
    k = draw(st.integers(0, L.dim - 1))
    value = sc.setdefault((i, j), {})
    value[k] = value.get(k, 0) + draw(nonzero)
    if not value[k]:  # a table holds no zero entry and no empty bracket
        del value[k]
        if not value:
            del sc[(i, j)]
    return LieAlgebra(L.dim, sc)


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
            with pytest.raises(NotQuasiCyclic, match=r"^sum of chain spaces has rank "):
                quasi_cyclic_split(L, U)
        elif total_rank < L.dim:
            with pytest.raises(NotQuasiCyclic, match=r"^chain spans only "):
                quasi_cyclic_split(L, U)
        else:
            assert quasi_cyclic_split(L, U) == tuple(as_matrix(space, L.dim) for space in chain)


# -- the partner table --------------------------------------------------------------


def naive_bracket(L, x, y):
    """The bilinear sum over all index pairs of supp(x) x supp(y), each
    [e_i, e_j] read off ``sc`` alone (negated when i > j)."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            value, sign = (L.sc.get((i, j), {}), 1) if i < j else (L.sc.get((j, i), {}), -1)
            for k, c in value.items():
                out[k] = out.get(k, 0) + sign * a * b * c
    return {k: c for k, c in out.items() if c}


@st.composite
def raw_tables(draw):
    """Tables of dim <= 9 with values of one to three terms, Jacobi unchecked."""
    dim = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    values = st.dictionaries(st.integers(0, dim - 1), nonzero, min_size=1, max_size=3)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return LieAlgebra(dim, {p: draw(values) for p in chosen})


@st.composite
def overlapping_pairs(draw, dim):
    """Sparse vectors x, y carrying explicit zeros, y sharing part of supp(x)."""
    x = draw(st.dictionaries(st.integers(0, dim - 1), small, max_size=dim))
    y = draw(st.dictionaries(st.integers(0, dim - 1), small, max_size=dim))
    if x:
        shared = draw(st.lists(st.sampled_from(sorted(x)), unique=True))
        y.update({k: draw(small) for k in shared})
    return x, y


@st.composite
def sheared_gluings(draw):
    """A gluing in the basis of the columns of I + S, S strictly upper
    triangular with a few entries: the table stays sparse, while the c^i bases
    carry entries past their leads on indices with partners of their own."""
    L = draw(gluings())
    grid = [[int(i == j) for j in range(L.dim)] for i in range(L.dim)]
    cells = st.tuples(st.integers(0, L.dim - 1), st.integers(0, L.dim - 1))
    for i, j in draw(st.lists(cells.filter(lambda c: c[0] < c[1]), min_size=1, max_size=4)):
        grid[i][j] = draw(nonzero)
    return change_of_basis(L, Matrix(grid))


class TestPartnerTable:
    @given(raw_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bracket_is_the_naive_bilinear_sum(self, L, data):
        x, y = data.draw(overlapping_pairs(L.dim))
        assert L.bracket(x, y) == naive_bracket(L, x, y)
        assert L.bracket(y, x) == naive_bracket(L, y, x)

    @given(raw_tables())
    @settings(max_examples=50, deadline=None)
    def test_structure_is_antisymmetric_and_read_off_sc(self, L):
        for i in range(L.dim):
            assert L.structure(i, i) == {}
            for j in range(L.dim):
                assert L.structure(i, j) == {k: -c for k, c in L.structure(j, i).items()}
                if i < j:
                    assert L.structure(i, j) == L.sc.get((i, j), {})

    @given(raw_tables(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_changing_a_bracket_leaves_the_algebra_alone(self, L, data):
        sc = {p: dict(v) for p, v in L.sc.items()}
        table = [[L.structure(i, j).copy() for j in range(L.dim)] for i in range(L.dim)]
        pairs = [({i: Fraction(1)}, {j: Fraction(1)}) for i in range(L.dim) for j in range(L.dim)]
        for x, y in pairs + [data.draw(overlapping_pairs(L.dim))]:
            result = L.bracket(x, y)
            for k in list(result):
                result[k] *= 5
            result[0] = Fraction(7)
        assert L.sc == sc
        assert [[L.structure(i, j) for j in range(L.dim)] for i in range(L.dim)] == table

    @given(sheared_gluings())
    @settings(max_examples=30, deadline=None)
    def test_lower_central_series_brackets_every_partner_of_the_support(self, L):
        reference = reference_lcs(L)
        assert lower_central_series(L) == tuple(as_matrix(space, L.dim) for space in reference)


# -- the brute-force bracket check ------------------------------------------------


def reference_bracket_preserving(L1, L2, M):
    """The dense pair loop: M[e_i, e_j]_1 = [M e_i, M e_j]_2 on every pair
    i < j, in the scalars the map and the tables hold."""
    cols = M.columns()
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            if _combine(L1.structure(i, j), cols) != L2.bracket(cols[i], cols[j]):
                return False
    return True


def assert_same_verdict(L1, L2, M):
    """bracket_preserving agrees with the dense loop on M; returns the verdict."""
    expected = reference_bracket_preserving(L1, L2, M)
    assert bracket_preserving(L1, L2, M) is expected
    return expected


AUT_SMALL = [Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2")]
AUT_KINDS = (
    None,
    "single-target-copy",
    "copy-permutation",
    "leading-coefficients",
    "odd-convolution",
    "gluing-compatibility",
)


def aut_stream_candidate(spec, L, kind, rng):
    """Generator images of exp(ad x), x dense, after a diagonal scaling that
    keeps the gluing, spoiled for one named condition when ``kind`` is set:
    the candidates the aut-stream benchmark draws."""
    n, m, r = spec.n, spec.m, spec.r
    E = exp_ad(L, {k: rng.choice(AUT_SMALL) for k in range(L.dim)}).columns()
    alpha, beta = rng.choice(AUT_SMALL), rng.choice(AUT_SMALL)
    alphas = [alpha] * m
    betas = [beta * rng.choice((1, -1)) for _ in range(m)]
    if kind == "leading-coefficients":
        alphas[rng.randrange(m)] = 0
    if kind == "gluing-compatibility":
        alphas[rng.randrange(r, m)] = 2 * alpha
    e0 = [_combine({spec.gen_index(s, 0): a}, E) for s, a in enumerate(alphas, start=1)]
    e1 = [_combine({spec.gen_index(s, 1): b}, E) for s, b in enumerate(betas, start=1)]
    s = rng.randrange(1, m + 1)
    p = 1 + (s % m)  # another copy, when there is one
    if kind == "single-target-copy":
        _subtract(e0[s - 1], -rng.choice(AUT_SMALL), {spec.gen_index(p, 2): 1})
    elif kind == "copy-permutation":
        e0[p - 1], e1[p - 1] = dict(e0[s - 1]), {k: 2 * c for k, c in e1[s - 1].items()}
    elif kind == "odd-convolution":
        _subtract(e1[s - 1], -rng.choice(AUT_SMALL), {spec.gen_index(s, 3): 1})
    return GeneratorImages(tuple(e0), tuple(e1))


def spoiled(M, i, j, delta):
    """M with entry (i, j) changed by delta."""
    cols = [dict(c) for c in M.columns()]
    cols[j][i] = cols[j].get(i, 0) + delta
    return Matrix.from_columns(cols, M.rows)


def pairs_evaluated(monkeypatch, L1, L2, M):
    """The basis pairs a passing bracket_preserving evaluates, counted as its
    calls of ``LieAlgebra.bracket``, one per pair."""
    calls = []
    bracket = LieAlgebra.bracket
    monkeypatch.setattr(
        LieAlgebra, "bracket", lambda self, x, y: calls.append(1) or bracket(self, x, y)
    )
    assert bracket_preserving(L1, L2, M)
    return len(calls)


ISO_PAIRS = [  # isomorphic gluings whose B have different denominators
    make_spec(5, 2, 1, [["1/2"]]),
    make_spec(5, 2, 1, [["-1/3"]]),
    make_spec(5, 3, 2, [["1/2"], ["-1/3"]]),
    make_spec(5, 3, 2, [["3/4"], ["5"]]),
    make_spec(5, 4, 2, [["1", "1/2"], ["2", "3"]]),
    make_spec(5, 4, 2, [["1/3", "1/2"], ["2/3", "3"]]),  # the third copy rescaled
    make_spec(5, 7, 4, [["1", "2", "-1"], ["1", "-1", "3"], ["2", "1", "1"], ["1", "3", "-2"]]),
    make_spec(5, 7, 4, [["-1/7", "15/14", "2/7"], ["-8/7", "25/7", "-5/7"],
                        ["10/21", "-5/21", "1/21"], ["-12/7", "20/7", "10/7"]]),
]


# The battery's gluings with integral B, so integral tables: integral scales
# give them integral maps.
INTEGRAL_SPECS = [
    s for s in TEST_MATRIX if all(type(x) is int for c in s.B.columns() for x in c.values())
]


class TestBracketPreserving:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_aut_stream_candidates_match_dense_loop(self, spec, rng):
        L = build_quasi(spec)
        verdicts = set()
        for kind in AUT_KINDS:
            if kind == "gluing-compatibility" and spec.r == spec.m:
                continue  # no glued copy to spoil
            for _ in range(2):
                cand = aut_stream_candidate(spec, L, kind, rng)
                for k, images in enumerate(zero_copy_variants(cand, rng)):
                    verdict = assert_same_verdict(L, L, extend_endomorphism(spec, L, images))
                    assert verdict or k > 0 or kind is not None  # unspoiled: an automorphism
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", range(0, len(ISO_PAIRS), 2))
    def test_iso_witnesses_between_denominators(self, k):
        for s1, s2 in (ISO_PAIRS[k : k + 2], ISO_PAIRS[k : k + 2][::-1]):
            L1, L2 = build_quasi(s1), build_quasi(s2)
            v = iso_decide(s1, s2)
            assert v.isomorphic
            assert assert_same_verdict(L1, L2, v.map)
            assert assert_same_verdict(L2, L1, inverse(v.map))
            assert not assert_same_verdict(L2, L1, v.map)  # the map the wrong way round
            for j in (0, s1.gen_index(1, 1), s1.top_index(1)):
                assert not assert_same_verdict(L1, L2, spoiled(v.map, j, j, Fraction(-2, 3)))

    @pytest.mark.parametrize("spec", INTEGRAL_SPECS, ids=spec_id)
    def test_integral_maps_and_tables(self, spec, rng):
        L = build_quasi(spec)
        perm = list(range(1, spec.m + 1))
        rng.shuffle(perm)
        for alphas, betas in (([1] * spec.m, [1] * spec.m), ([2] * spec.m, [-3] * spec.m)):
            cand = make_scaling_automorphism(spec, alphas, betas, perm)
            M = extend_endomorphism(spec, L, cand)
            assert all(type(x) is int for c in M.columns() for x in c.values())
            assert_same_verdict(L, L, M)
            for i, j in ((0, 0), (spec.gen_index(1, 2), spec.gen_index(1, 1)), (L.dim - 1, 0)):
                assert_same_verdict(L, L, spoiled(M, i, j, 1))
        assert assert_same_verdict(L, L, Matrix.identity(L.dim))

    @pytest.mark.parametrize(
        "spec", [make_spec(5, 2, 1, [["1"]]), make_spec(5, 3, 1, [["1/2", "-2/3"]])], ids=spec_id
    )
    def test_every_single_entry_spoil(self, spec, rng):
        L = build_quasi(spec)
        M = extend_endomorphism(spec, L, passing_aut_candidate(spec, rng))
        assert assert_same_verdict(L, L, M)
        verdicts = set()
        for i in range(L.dim):
            for j in range(L.dim):
                for delta in (1, Fraction(-2, 3)):
                    verdicts.add(assert_same_verdict(L, L, spoiled(M, i, j, delta)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_identity_with_a_zero_generator_column(self, spec):
        # only the pairs [e_{1,1}, e_j] != 0, whose right side [0, e_j] is
        # zero by support, refute it
        L = build_quasi(spec)
        cols = Matrix.identity(L.dim).columns()
        cols[spec.gen_index(1, 1)] = {}
        assert not assert_same_verdict(L, L, Matrix.from_columns(cols, L.dim))

    @given(raw_tables(), raw_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_maps_between_raw_tables(self, L1, L2, data):
        entries = st.dictionaries(st.integers(0, L2.dim - 1), nonzero, max_size=2)
        cols = data.draw(st.lists(entries, min_size=L1.dim, max_size=L1.dim))
        assert_same_verdict(L1, L2, Matrix.from_columns(cols, L2.dim))

    def test_pairs_evaluated_on_the_ladder_candidate(self, monkeypatch):
        spec = make_spec(9, 4, 1, [["1", "2", "-1"]])
        L = build_quasi(spec)
        E = exp_ad(L, {k: 1 for k in range(L.dim)})
        cols = E.columns()
        e0, e1 = (tuple(cols[spec.gen_index(s, t)] for s in range(1, spec.m + 1)) for t in (0, 1))
        M = extend_endomorphism(spec, L, GeneratorImages(e0, e1))
        assert M == E
        assert pairs_evaluated(monkeypatch, L, L, M) == 92  # of 666

    def test_pairs_evaluated_on_an_iso_witness(self, monkeypatch):
        s1, s2 = ISO_PAIRS[-2:]
        v = iso_decide(s1, s2)
        assert pairs_evaluated(monkeypatch, build_quasi(s1), build_quasi(s2), v.map) == 35  # of 741

    def test_the_identity_between_tables_of_one_dimension(self):
        # the pairs come from L1's table and from L2's partners of the image:
        # abelian -> Heisenberg fails on a pair that only L2 makes nonzero
        abelian, I = LieAlgebra(3, {}), Matrix.identity(3)
        assert not assert_same_verdict(abelian, heisenberg(), I)
        assert not assert_same_verdict(heisenberg(), abelian, I)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="map shape"):
            bracket_preserving(so3(), heisenberg(), Matrix.identity(4))


class TestTargetTable:
    """``bracket_preserving`` compares in the scalars the map and the tables
    hold, so it builds no algebra: neither on aut-check's integral tables
    nor on the iso witnesses between tables with denominators, listed after
    the integral specs."""

    CASES = [pytest.param(s, None, id=spec_id(s)) for s in INTEGRAL_SPECS] + [
        pytest.param(s1, s2, id=f"{spec_id(s1)}-{spec_id(s2)}")
        for s1, s2 in zip(ISO_PAIRS[::2], ISO_PAIRS[1::2])
    ]

    @pytest.mark.parametrize("spec, target", CASES)
    def test_integral_tables_build_no_algebra(self, spec, target, rng, monkeypatch):
        L1 = build_quasi(spec)
        if target is None:
            L2, M = L1, extend_through_grading(spec, L1, aut_stream_candidate(spec, L1, None, rng))
        else:
            L2, M = build_quasi(target), iso_decide(spec, target).map
        spoil = spoiled(M, spec.gen_index(1, 2), spec.gen_index(1, 1), 1)
        built, init = [], LieAlgebra.__init__
        monkeypatch.setattr(
            LieAlgebra, "__init__", lambda self, *args: built.append(1) or init(self, *args)
        )
        assert (bracket_preserving(L1, L2, M), bracket_preserving(L1, L2, spoil)) == (True, False)
        assert built == []


class TestIsIsomorphism:
    def test_the_zero_map_is_a_homomorphism_but_not_bijective(self):
        L = build_quasi(make_spec(5, 2, 1, [["1"]]))
        zero = Matrix.from_columns([{}] * L.dim, L.dim)
        assert bracket_preserving(L, L, zero)
        assert not is_isomorphism(L, L, zero)

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_a_nonzero_homomorphism_that_is_not_onto(self, spec):
        # e_{s0} -> 0, e_{s1} -> e_{s1}: every bracket goes to zero, and the
        # image is the span of the e_{s1}, inside no [L, L] but short of L
        L = build_quasi(spec)
        e1 = tuple({spec.gen_index(s, 1): 1} for s in range(1, spec.m + 1))
        M = extend_endomorphism(spec, L, GeneratorImages(({},) * spec.m, e1))
        assert rank(M) == spec.m
        assert bracket_preserving(L, L, M)
        assert not is_isomorphism(L, L, M)

    def test_a_homomorphism_onto_a_smaller_algebra(self):
        # N(Q_5,2,1) (+) Q_5 onto its free summand, copy 2 with top 2: onto,
        # and a homomorphism, but of unequal dimensions
        spec = make_spec(5, 3, 2, [["1"], ["0"]])
        L1, L2 = build_quasi(spec), build_quasi(make_spec(5, 1, 1))
        cols = [{}] * L1.dim
        for t in range(5):
            cols[spec.gen_index(2, t)] = {t: 1}
        cols[spec.top_index(2)] = {5: 1}
        M = Matrix.from_columns(cols, L2.dim)
        assert bracket_preserving(L1, L2, M)
        assert not is_isomorphism(L1, L2, M)

    def test_only_generator_coordinates_are_pivoted_on(self, monkeypatch, rng):
        # P = lower * upper, both unitriangular, maps the gluing in P's basis
        # onto the gluing.  Its dense columns peel no units of their own, but
        # the bracket values strike them down to the 2m generator
        # coordinates: only those reach the elimination.
        spec = make_spec(7, 2, 1, [["1"]])
        L = build_quasi(spec)
        low, up = (
            [[rng.choice((1, -1, 2)) if keep(i, j) else int(i == j) for j in range(L.dim)]
             for i in range(L.dim)]
            for keep in (lambda i, j: j < i, lambda i, j: j > i)
        )
        P = Matrix(low) * Matrix(up)
        L1 = change_of_basis(L, P)
        pivoted = []
        insert = linalg._insert
        monkeypatch.setattr(
            linalg, "_insert", lambda echelon, rows: pivoted.extend(rows) or insert(echelon, rows)
        )
        assert is_isomorphism(L1, L, P)
        generators = {spec.gen_index(s, t) for s in range(1, spec.m + 1) for t in (0, 1)}
        assert pivoted and all(set(row) <= generators for row in pivoted)

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_matches_the_full_rank_reference(self, spec, rng):
        # phi and phi o delta_D on the aut-stream draws, the zero-copy
        # variants being homomorphisms that are not onto
        L = build_quasi(spec)
        verdicts = set()
        for kind in AUT_KINDS:
            if kind == "gluing-compatibility" and spec.r == spec.m:
                continue  # no glued copy to spoil
            cand = aut_stream_candidate(spec, L, kind, rng)
            for images in zero_copy_variants(cand, rng):
                for extend in (extend_endomorphism, extend_through_grading):
                    M = extend(spec, L, images)
                    expected = rank(M) == L.dim and bracket_preserving(L, L, M)
                    assert is_isomorphism(L, L, M) is expected
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_an_iso_witness_and_a_one_entry_spoil(self):
        s1, s2 = ISO_PAIRS[2:4]  # two (5,3,2) gluings
        L1, L2 = build_quasi(s1), build_quasi(s2)
        M = iso_decide(s1, s2).map
        assert is_isomorphism(L1, L2, M)
        j = s1.gen_index(1, 1)
        bad = spoiled(M, j, j, Fraction(-2, 3))
        assert rank(bad) == L1.dim  # still bijective: the bracket check refutes it
        assert not is_isomorphism(L1, L2, bad)


# -- tables that are not nilpotent ------------------------------------------------


def affine_line():
    # [e_0, e_1] = e_1: solvable, and [L, L] = [L, [L, L]] = span(e_1)
    return LieAlgebra(2, {(0, 1): {1: 1}})


class TestTablesThatAreNotNilpotent:
    """On tables that are not nilpotent, the structure layer refuses and the
    checks built on [L, L] answer right."""

    @pytest.fixture(params=["so3", "sl2", "aff1"])
    def L(self, request):
        from test_derivations import sl2  # test_derivations imports this module

        return {"so3": so3, "sl2": sl2, "aff1": affine_line}[request.param]()

    def test_lower_central_series_refuses(self, L):
        with pytest.raises(NotNilpotent, match=r"^series stabilizes at dimension \d+$"):
            lower_central_series(L)

    def test_the_split_refuses_within_a_budget_of_brackets(self, L, monkeypatch):
        calls = []
        bracket = LieAlgebra.bracket

        def budgeted(*args):
            calls.append(1)
            if len(calls) > 10_000:
                raise RuntimeError("bracket budget spent")
            return bracket(*args)

        monkeypatch.setattr(LieAlgebra, "bracket", budgeted)
        with pytest.raises(NotQuasiCyclic, match=r"^sum of chain spaces has rank"):
            quasi_cyclic_split(L, Matrix.identity(L.dim))

    def test_is_isomorphism_asks_for_full_rank(self, L):
        zero = Matrix.from_columns([{}] * L.dim, L.dim)
        assert bracket_preserving(L, L, zero)
        assert is_isomorphism(L, L, zero) is False
        assert is_isomorphism(L, L, Matrix.identity(L.dim)) is True

    def test_every_index_is_a_generator(self, L):
        from qfla import derivations
        from test_derivations import reference_oracle

        assert liecore._generator_indices(L) == list(range(L.dim))
        assert derivations.derivation_oracle(L) == reference_oracle(L)
