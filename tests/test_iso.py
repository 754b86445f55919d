"""Isomorphism decision: kernels, monomial equivalence, verified witnesses."""
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import TEST_MATRIX, sparse, spec_id
from test_linalg import dense_rows, reference_kernel, reference_rref
from qfla import build_quasi, make_spec
from qfla.builder import QuasiQnSpec, RelatedMatrix, related_matrix_of
from qfla.iso import (
    EquivalenceWitness,
    NotEquivalent,
    SearchTooLarge,
    _generic_nonzero_point,
    _kernel_columns,
    build_algebra_witness,
    iso_decide,
    monomial_equivalence,
    split_scale,
)
from qfla.liecore import bracket_preserving
from qfla.linalg import Matrix, MonomialMatrix, column_span, inverse, rank


class TestKernel:
    """The columns of beta read off R = (A | I) span ker(R)."""

    @staticmethod
    def kernel_basis(R: RelatedMatrix) -> Matrix:
        """The m x r matrix whose rows are the columns read off R."""
        basis = Matrix([list(g) for g in _kernel_columns(R)], cols=R.r)
        assert R.matrix * basis == Matrix([[0] * R.r] * R.matrix.rows, cols=R.r)
        assert rank(basis) == R.r
        return basis

    def test_two_glued_columns(self):
        spec = make_spec(5, 3, 2, [["1"], ["1"]])
        basis = self.kernel_basis(related_matrix_of(spec))
        assert basis.columns() == [{0: 1, 2: 1}, {1: 1, 2: 1}]  # the rows of beta

    def test_scaled(self):
        basis = self.kernel_basis(related_matrix_of(make_spec(5, 2, 1, [["5"]])))
        assert column_span(basis.columns(), 2) == column_span([{0: 1, 1: 5}], 2)

    def test_full_space_when_no_gluing(self):
        basis = self.kernel_basis(related_matrix_of(make_spec(5, 2, 2)))
        assert basis == Matrix.identity(2)


class TestMonomialEquivalence:
    def test_same_matrix_identity_witness(self):
        R = related_matrix_of(make_spec(5, 3, 2, [["1"], ["1"]]))
        w = monomial_equivalence(R, R)
        assert isinstance(w, EquivalenceWitness)
        assert w.K.densify() == Matrix.identity(3)
        assert w.E * R.matrix * w.K.densify() == R.matrix

    def test_rescaled_gluings_are_equivalent(self):
        R1 = related_matrix_of(make_spec(5, 3, 2, [["1"], ["1"]]))
        R2 = related_matrix_of(make_spec(5, 3, 2, [["2"], ["1"]]))
        w = monomial_equivalence(R1, R2)
        assert isinstance(w, EquivalenceWitness)
        assert w.K.perm == (0, 1, 2)
        assert w.K.scale == (Fraction(2), Fraction(1), Fraction(1))
        assert w.E * R1.matrix * w.K.densify() == R2.matrix

    def test_nonzero_pattern_obstruction(self):
        R1 = related_matrix_of(make_spec(5, 3, 2, [["1"], ["0"]]))
        R2 = related_matrix_of(make_spec(5, 3, 2, [["1"], ["1"]]))
        assert isinstance(monomial_equivalence(R1, R2), NotEquivalent)

    def test_permutation_needed(self):
        # swapping which top the extra copy glues to is a copy relabeling
        R1 = related_matrix_of(make_spec(5, 3, 2, [["1"], ["0"]]))
        R2 = related_matrix_of(make_spec(5, 3, 2, [["0"], ["1"]]))
        w = monomial_equivalence(R1, R2)
        assert isinstance(w, EquivalenceWitness)
        assert w.E * R1.matrix * w.K.densify() == R2.matrix

    def test_trivial_when_m_equals_r(self):
        R = related_matrix_of(make_spec(5, 2, 2))
        w = monomial_equivalence(R, R)
        assert isinstance(w, EquivalenceWitness)

    def test_search_cap(self, monkeypatch):
        monkeypatch.setenv("QFLA_MAX_M", "2")
        R = related_matrix_of(make_spec(5, 3, 2, [["1"], ["1"]]))
        with pytest.raises(SearchTooLarge):
            monomial_equivalence(R, R)
        monkeypatch.setenv("QFLA_MAX_M", "3")
        assert isinstance(monomial_equivalence(R, R), EquivalenceWitness)


class TestSplitScale:
    def test_cube_scale(self):
        assert split_scale(Fraction(8), 5) == (Fraction(2), Fraction(1))

    def test_mixed_valuation(self):
        alpha, beta = split_scale(Fraction(2), 5)
        assert alpha ** 3 * beta ** 2 == 2

    def test_negative_and_fractional(self):
        for k in [Fraction(-4), Fraction(3, 8), Fraction(-27, 5), Fraction(1)]:
            for n in (5, 7):
                alpha, beta = split_scale(k, n)
                assert alpha ** (n - 2) * beta ** 2 == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            split_scale(Fraction(0), 5)


class TestIsoDecide:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_reflexive(self, spec):
        v = iso_decide(spec, spec)
        assert v.isomorphic
        assert v.map is not None

    def test_parameter_mismatch(self):
        v = iso_decide(make_spec(5, 1, 1), make_spec(7, 1, 1))
        assert not v.isomorphic and "parameters differ" in v.reason

    def test_rescaled_pair_isomorphic_with_verified_map(self):
        s1 = make_spec(5, 3, 2, [["1"], ["1"]])
        s2 = make_spec(5, 3, 2, [["2"], ["1"]])
        v = iso_decide(s1, s2)
        assert v.isomorphic
        L1, L2 = build_quasi(s1), build_quasi(s2)
        assert rank(v.map) == L1.dim
        assert bracket_preserving(L1, L2, v.map)

    def test_different_block_patterns_not_isomorphic(self):
        v = iso_decide(make_spec(5, 3, 2, [["1"], ["0"]]), make_spec(5, 3, 2, [["1"], ["1"]]))
        assert not v.isomorphic

    def test_symmetry(self):
        pairs = [
            (make_spec(5, 3, 2, [["1"], ["1"]]), make_spec(5, 3, 2, [["2"], ["1"]])),
            (make_spec(5, 3, 2, [["1"], ["0"]]), make_spec(5, 3, 2, [["1"], ["1"]])),
            (make_spec(5, 2, 1, [["1"]]), make_spec(5, 2, 1, [["-3"]])),
        ]
        for a, b in pairs:
            assert iso_decide(a, b).isomorphic == iso_decide(b, a).isomorphic

    def test_copy_permutation_invariance(self):
        # relabeling the free copies permutes B's columns; relabeling the
        # glued tops permutes its rows
        base = make_spec(5, 4, 2, [["1", "0"], ["2", "1"]])
        variants = [
            make_spec(5, 4, 2, [["0", "1"], ["1", "2"]]),  # swap free copies
            make_spec(5, 4, 2, [["2", "1"], ["1", "0"]]),  # swap tops
        ]
        for other in variants:
            assert iso_decide(base, other).isomorphic

    def test_transitivity_spot_check(self):
        a = make_spec(5, 2, 1, [["1"]])
        b = make_spec(5, 2, 1, [["4"]])
        c = make_spec(5, 2, 1, [["-2"]])
        assert iso_decide(a, b).isomorphic
        assert iso_decide(b, c).isomorphic
        assert iso_decide(a, c).isomorphic


class TestAlgebraWitness:
    def test_witness_soundness_on_random_scaled_pairs(self, rng):
        for _ in range(10):
            scale = Fraction(rng.choice([2, 3, -1, Fraction(1, 2), 5, -4]))
            s1 = make_spec(5, 2, 1, [["1"]])
            s2 = make_spec(5, 2, 1, [[str(scale)]])
            v = iso_decide(s1, s2)
            assert v.isomorphic
            L1, L2 = build_quasi(s1), build_quasi(s2)
            assert rank(v.map) == L1.dim
            assert bracket_preserving(L1, L2, v.map)

    def test_witness_respects_the_monomial_scales(self):
        s1 = make_spec(5, 2, 1, [["1"]])
        s2 = make_spec(5, 2, 1, [["8"]])
        v = iso_decide(s1, s2)
        K = v.equivalence.K
        M = build_algebra_witness(s1, s2, K)
        assert M == v.map


# -- the pruned search against the plain sweep ----------------------------------------


def sweep_equivalence(R1: RelatedMatrix, R2: RelatedMatrix):
    """Reference: try all m! copy permutations in lexicographic order, each
    with its own exact solve for the diagonal, and return the first hit.  The
    kernel, the diagonal solve and the pivots come from the textbook dense
    elimination, so the reference shares no solve with the search."""
    m, r = R1.m, R1.r
    if m == r:
        return EquivalenceWitness(Matrix([], cols=0), MonomialMatrix.identity(m))
    M1, M2 = R1.matrix, R2.matrix
    ker2 = reference_kernel(M2)
    for perm in itertools.permutations(range(m)):
        eq_rows = []
        for v in ker2:
            for row in range(m - r):
                eq_rows.append([M1.entry(row, perm[j]) * v[j] for j in range(m)])
        solutions = reference_kernel(Matrix(eq_rows, cols=m))
        point = _generic_nonzero_point([sparse(v) for v in solutions], m)
        if point is None:
            continue
        K = MonomialMatrix(m, tuple(perm), point)
        prod = M1 * K.densify()
        _, piv = reference_rref(dense_rows(prod), m)
        E = M2.submatrix(range(m - r), piv) * inverse(prod.submatrix(range(m - r), piv))
        assert E * prod == M2
        return EquivalenceWitness(E, K)
    return NotEquivalent(
        "no copy permutation makes the annihilator kernels match under a monomial map"
    )


NONZERO = [Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2")]
WITH_ZEROS = [Fraction(0)] * 4 + NONZERO


def annihilator(r: int, C) -> RelatedMatrix:
    """(A | I) whose kernel has the rows of (I | C); C is r x (m - r).  A zero
    column of C gives a zero kernel column, which no QuasiQnSpec allows."""
    m = r + (len(C[0]) if C else 0)
    rows = [
        [-C[i][k] for i in range(r)] + [int(k == l) for l in range(m - r)] for k in range(m - r)
    ]
    return RelatedMatrix(Matrix(rows, cols=m), m, r)


def relabelled(r: int, C, perm, scales):
    """C' with (I | C') = P (I | C) Q for an invertible P and the monomial Q
    that permutes the copies by perm and rescales the tops by scales, or None
    when the first r columns of (I | C) Q are dependent."""
    beta = [[Fraction(int(i == j)) for j in range(r)] + list(C[i]) for i in range(r)]
    cols = [[beta[i][p] * k for i in range(r)] for p, k in zip(perm, scales)]
    head = Matrix.from_columns([sparse(c) for c in cols[:r]], r)
    if rank(head) < r:
        return None
    C2 = inverse(head) * Matrix.from_columns([sparse(c) for c in cols[r:]], r)
    return [[C2.entry(i, j) for j in range(C2.cols)] for i in range(C2.rows)]


def relabel(rng: random.Random, r: int, C) -> list:
    m = r + len(C[0])
    while True:
        C2 = relabelled(r, C, rng.sample(range(m), m), [rng.choice(NONZERO) for _ in range(m)])
        if C2 is not None:
            return C2


def random_C(rng: random.Random, r: int, m: int, values, zero_columns: bool = False) -> list:
    while True:
        C = [[rng.choice(values) for _ in range(m - r)] for _ in range(r)]
        if zero_columns or all(any(C[i][k] for i in range(r)) for k in range(m - r)):
            return C


def block_C(rng: random.Random, r: int, m: int) -> list:
    """Block form: each extra copy glues onto one top, so the kernel columns
    repeat the r unit directions."""
    C = [[Fraction(0)] * (m - r) for _ in range(r)]
    for k in range(m - r):
        C[rng.randrange(r)][k] = rng.choice(NONZERO)
    return C


def generic_C(rng: random.Random, r: int, m: int) -> list:
    """Dense C whose kernel columns are pairwise non-proportional."""
    while True:
        C = random_C(rng, r, m, NONZERO)
        beta = [[Fraction(int(i == j)) for i in range(r)] for j in range(r)]
        beta += [[C[i][k] for i in range(r)] for k in range(m - r)]
        units = {tuple(x / next(y for y in v if y) for x in v) for v in beta}
        if len(units) == m:
            return C


def _pairs(rng, label, r, m, make, count, positives):
    out = []
    for k in range(count):
        C1 = make(rng, r, m)
        C2 = relabel(rng, r, C1) if k < positives else make(rng, r, m)
        out.append((f"{label}-r{r}m{m}-{k}", annihilator(r, C1), annihilator(r, C2)))
    return out


def equivalence_battery() -> list:
    """Seeded (label, R1, R2) pairs, degenerate and generic."""
    rng = random.Random(20061)
    mixing = lambda rng, r, m: random_C(rng, r, m, NONZERO)  # noqa: E731
    zeros = lambda rng, r, m: random_C(rng, r, m, WITH_ZEROS)  # noqa: E731
    zero_columns = lambda rng, r, m: random_C(rng, r, m, WITH_ZEROS, zero_columns=True)  # noqa: E731
    battery = []
    for r, m in ((2, 4), (2, 5), (3, 5), (2, 6)):
        battery += _pairs(rng, "block", r, m, block_C, 4, 2)
    for m in (2, 3, 4, 5):
        battery += _pairs(rng, "r1", 1, m, mixing, 3, 1)
    for r in (1, 2, 3):
        battery.append((f"m=r-{r}", annihilator(r, []), annihilator(r, [])))
    for r, m in ((2, 4), (2, 5), (3, 4), (3, 5)):
        battery += _pairs(rng, "zeros", r, m, zeros, 6, 2)
    for r, m in ((2, 4), (3, 5)):
        battery += _pairs(rng, "zero-columns", r, m, zero_columns, 4, 2)
    for r, m in ((2, 4), (2, 5), (3, 4)):
        battery += _pairs(rng, "mixing", r, m, mixing, 5, 2)
    for m in (4, 5):
        battery += _pairs(rng, "generic", 3, m, generic_C, 6, 3)
    for m in (5, 5, 6):
        battery += _pairs(rng, "cross", 2, m, generic_C, 4, 0)
    return battery


EQUIVALENCE_BATTERY = equivalence_battery()


class TestPrunedSearchMatchesSweep:
    def test_battery_is_wide(self):
        outcomes = [monomial_equivalence(R1, R2) for _, R1, R2 in EQUIVALENCE_BATTERY]
        assert len(EQUIVALENCE_BATTERY) >= 100
        assert sum(isinstance(o, EquivalenceWitness) for o in outcomes) >= 40
        assert sum(isinstance(o, NotEquivalent) for o in outcomes) >= 30

    @pytest.mark.parametrize(
        "R1,R2", [pair[1:] for pair in EQUIVALENCE_BATTERY], ids=[pair[0] for pair in EQUIVALENCE_BATTERY]
    )
    def test_same_outcome_as_sweep(self, R1, R2):
        assert monomial_equivalence(R1, R2) == sweep_equivalence(R1, R2)


@st.composite
def relabelled_gluings(draw):
    """A random gluing and a copy of it under a random copy permutation and
    random nonzero top rescalings, renormalized to (I | B)."""
    n = draw(st.sampled_from([5, 7, 9]))
    m = draw(st.integers(2, 6))
    r = draw(st.integers(1, m - 1))
    values = st.sampled_from(WITH_ZEROS)
    B = [[draw(values) for _ in range(m - r)] for _ in range(r)]
    assume(all(any(B[i][k] for i in range(r)) for k in range(m - r)))
    perm = draw(st.permutations(range(m)))
    scales = draw(st.lists(st.sampled_from(NONZERO), min_size=m, max_size=m))
    B2 = relabelled(r, B, perm, scales)
    assume(B2 is not None)
    return make_spec(n, m, r, B), make_spec(n, m, r, B2)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(relabelled_gluings())
def test_relabelled_gluing_is_isomorphic(pair):
    spec1, spec2 = pair
    v = iso_decide(spec1, spec2)
    assert v.isomorphic
    R1, R2 = related_matrix_of(spec1), related_matrix_of(spec2)
    assert v.equivalence == sweep_equivalence(R1, R2)
    assert v.equivalence.E * R1.matrix * v.equivalence.K.densify() == R2.matrix
    L1, L2 = build_quasi(spec1), build_quasi(spec2)
    assert rank(v.map) == L1.dim
    assert bracket_preserving(L1, L2, v.map)


def _cross_ratios(B) -> list:
    """Sorted cross-ratios of all ordered 4-tuples of the columns of (I | B),
    r = 2: a monomial-equivalence invariant for pairwise non-proportional
    columns."""
    cols = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    cols += [(Fraction(B[0][k]), Fraction(B[1][k])) for k in range(len(B[0]))]
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]  # noqa: E731
    return sorted(
        det(p, r) * det(q, s) / (det(p, s) * det(q, r))
        for p, q, r, s in itertools.permutations(cols, 4)
    )


def _dependent_triples(r: int, B) -> int:
    cols = [[Fraction(int(i == j)) for i in range(r)] for j in range(r)]
    cols += [[Fraction(B[i][k]) for i in range(r)] for k in range(len(B[0]))]
    triples = itertools.combinations([sparse(c) for c in cols], 3)
    return sum(rank(Matrix.from_columns(list(t), r)) < 3 for t in triples)


class TestScaleGuard:
    # A negative that the class screen cannot refute cost the m! sweep about
    # a minute at m = 8; the pruned search pins A after three (r = 2) or four
    # (r = 3) assignments.
    CROSS_B1 = [["1", "2", "-1", "3", "1/2", "-2"], ["1", "-1", "2", "1", "3", "5"]]
    CROSS_B2 = [["1", "2", "-1", "3", "1/2", "-2"], ["1", "-1", "2", "1", "3", "7"]]
    # Seven points of P^2 with no three on a line, against seven with one
    # collinear triple (copies 1, 2 and 4, since B2's first column lies on
    # the plane spanned by e_1 and e_2).
    R3_B1 = [["1", "2", "-1", "3"], ["1", "-1", "2", "1"], ["1", "3", "5", "-2"]]
    R3_B2 = [["1", "2", "-1", "3"], ["1", "-1", "2", "1"], ["0", "3", "5", "-2"]]

    def test_invariants_separate_the_pairs(self):
        assert _cross_ratios(self.CROSS_B1) != _cross_ratios(self.CROSS_B2)
        assert (_dependent_triples(3, self.R3_B1), _dependent_triples(3, self.R3_B2)) == (0, 1)

    @pytest.mark.parametrize(
        "shape,B1,B2",
        [((5, 8, 2), CROSS_B1, CROSS_B2), ((5, 7, 3), R3_B1, R3_B2)],
        ids=["m8r2", "m7r3"],
    )
    def test_negative_within_five_seconds(self, shape, B1, B2):
        spec1, spec2 = make_spec(*shape, B1), make_spec(*shape, B2)
        start = time.perf_counter()
        v = iso_decide(spec1, spec2)
        elapsed = time.perf_counter() - start
        assert not v.isomorphic
        assert elapsed < 5.0, f"{elapsed:.2f}s"


def _class_gluing(k: int, c: int):
    """r = 2 with beta's columns e_1, e_2, (1,1) and (1,c), k copies each."""
    columns = [(1, 0)] * (k - 1) + [(0, 1)] * (k - 1) + [(1, 1)] * k + [(1, c)] * k
    return make_spec(5, 4 * k, 2, [[x for x, _ in columns], [y for _, y in columns]])


@pytest.mark.parametrize("c2,isomorphic", [(3, False), (2, True)], ids=["negative", "positive"])
def test_equal_copies_are_tried_once_per_class(monkeypatch, c2, isomorphic):
    # Every ordering of the four copies in each class used to be refuted
    # separately: about 50 s for the negative at m = 16.
    monkeypatch.setenv("QFLA_MAX_M", "16")
    spec1, spec2 = _class_gluing(4, 2), _class_gluing(4, c2)
    start = time.perf_counter()
    v = iso_decide(spec1, spec2)
    elapsed = time.perf_counter() - start
    assert v.isomorphic is isomorphic
    assert elapsed < 2.0, f"{elapsed:.2f}s"
