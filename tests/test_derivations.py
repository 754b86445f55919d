"""Derivation machinery: extension, condition battery, oracle, explicit bases."""
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    BLOCK_SPECS,
    TEST_MATRIX,
    flatten,
    random_images,
    random_passing_images,
    random_supported_images,
    spec_id,
)
from qfla import build_quasi, make_spec
from qfla.builder import NonBlockForm
from qfla.derivations import (
    GeneratorImages,
    closed_form_extension,
    der_dimension,
    derivation_conditions,
    derivation_oracle,
    extend_derivation_candidate,
    h1_derivation,
    is_derivation,
    nilpotent_basis,
    top_weights,
    torus_basis,
    weight_decomposition,
    weight_torus,
    NotSimultaneouslyDiagonal,
)
from qfla.liecore import lower_central_series
from qfla.linalg import Matrix, column_span, sparse_nullspace
from test_iso import NONZERO, WITH_ZEROS, relabelled

SPEC521 = make_spec(5, 2, 1, [["1"]])


def images_with(spec, assignments):
    """Zero images except the listed (which, copy, basis-index) -> value."""
    e0 = [[Fraction(0)] * spec.dim for _ in range(spec.m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(spec.m)]
    for which, s, k, v in assignments:
        (e0 if which == 0 else e1)[s - 1][k] = Fraction(v)
    return GeneratorImages.from_vectors(e0, e1)


class TestExtension:
    def test_diagonal_images_give_weighted_diagonal(self):
        s = SPEC521
        gi = images_with(s, [(0, 1, s.gen_index(1, 0), 2), (1, 1, s.gen_index(1, 1), 3)])
        D = extend_derivation_candidate(s, gi)
        # the tower levels pick up weights (t-1)a + b, the top (n-2)a + 2b
        for t in range(1, s.n):
            assert D.entry(s.gen_index(1, t), s.gen_index(1, t)) == (t - 1) * 2 + 3
        assert D.entry(s.top_index(1), s.top_index(1)) == 3 * 2 + 2 * 3

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_matches_closed_form_on_random_images(self, spec, rng):
        for _ in range(25):
            gi = random_images(spec, rng)
            assert extend_derivation_candidate(spec, gi) == closed_form_extension(spec, gi)


class TestConditions:
    def test_all_pass_on_zero(self):
        gi = images_with(SPEC521, [])
        assert derivation_conditions(SPEC521, gi).ok

    def test_e0_support_violation(self):
        s = SPEC521
        gi = images_with(s, [(0, 1, s.gen_index(1, 1), 1)])
        v = derivation_conditions(s, gi)
        assert (v.ok, v.failed) == (False, "e0-support")

    def test_e1_support_violation(self):
        s = SPEC521
        gi = images_with(s, [(1, 1, s.gen_index(2, 2), 1)])
        v = derivation_conditions(s, gi)
        assert (v.ok, v.failed) == (False, "e1-support")

    def test_odd_level_violation(self):
        s = SPEC521
        gi = images_with(s, [(1, 1, s.gen_index(1, 3), 1)])
        v = derivation_conditions(s, gi)
        assert (v.ok, v.failed) == (False, "odd-level-vanishing")

    def test_glued_weight_violation(self):
        s = SPEC521
        # copy 2 is glued to top 1; unequal diagonal weights break the top
        gi = images_with(s, [(1, 1, s.gen_index(1, 1), 1)])
        v = derivation_conditions(s, gi)
        assert (v.ok, v.failed) == (False, "glued-weight-match")

    def test_cross_pair_violation(self):
        s = SPEC521
        gi = images_with(s, [(1, 1, s.gen_index(2, 4), 1)])
        v = derivation_conditions(s, gi)
        assert (v.ok, v.failed) == (False, "cross-pair-balance")

    def test_cross_pair_balanced_passes(self):
        # both cross coefficients present with the exact ratio the gluing needs
        s = SPEC521
        gi = images_with(
            s,
            [(1, 1, s.gen_index(2, 4), 3), (1, 2, s.gen_index(1, 4), 3)],
        )
        assert derivation_conditions(s, gi).ok

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_equivalence_with_leibniz(self, spec, rng):
        L = build_quasi(spec)
        passes = 0
        for draw in (random_images, random_supported_images, random_passing_images):
            for _ in range(30):
                gi = draw(spec, rng)
                predicted = derivation_conditions(spec, gi).ok
                actual = is_derivation(L, extend_derivation_candidate(spec, gi))
                assert predicted == actual
                passes += predicted
        assert passes > 0  # the sampler hits both verdicts


class TestOracle:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            (make_spec(5, 1, 1), 9),
            (SPEC521, 18),
            (make_spec(7, 1, 1), 12),
        ],
        ids=["q5", "n5m2r1", "q7"],
    )
    def test_dimensions(self, spec, expected):
        assert len(derivation_oracle(build_quasi(spec))) == expected

    def test_every_member_is_a_derivation(self):
        L = build_quasi(SPEC521)
        for D in derivation_oracle(L):
            assert is_derivation(L, D)

    def test_abelian_algebra_has_full_matrix_space(self):
        from qfla.liecore import LieAlgebra

        L = LieAlgebra(3, {})
        assert len(derivation_oracle(L)) == 9


# Block-form gluings with r >= 2 beyond the standard battery, with the oracle's
# Der dimension.  Each is a direct sum of r algebras N(Q_n, m_l, 1), so its
# torus has m + r directions.
MULTI_BLOCK_DER_DIM = [
    (make_spec(7, 3, 2, [["1"], ["0"]]), 42),
    (make_spec(5, 4, 2, [["1", "0"], ["0", "1"]]), 44),
    (make_spec(5, 4, 2, [["1", "2"], ["0", "0"]]), 45),
    (make_spec(5, 2, 2), 22),
    (make_spec(5, 3, 3), 39),
]
MULTI_BLOCK_SPECS = [spec for spec, _ in MULTI_BLOCK_DER_DIM]


def oracle_torus_dimension(spec) -> int:
    """dim of Der meets the diagonal matrices: the combinations of the
    oracle's basis whose off-diagonal entries all vanish."""
    L = build_quasi(spec)
    oracle = derivation_oracle(L)
    rows = [
        {k: D.entry(i, j) for k, D in enumerate(oracle)}
        for i in range(L.dim)
        for j in range(L.dim)
        if i != j
    ]
    return len(sparse_nullspace(rows, len(oracle)))


def independent_diagonals(torus) -> int:
    """The number of members, after checking that they are diagonal and
    linearly independent."""
    dim = torus[0].rows
    assert all(set(col) <= {j} for D in torus for j, col in enumerate(D.columns()))
    diagonals = [{i: D.entry(i, i) for i in range(dim)} for D in torus]
    assert column_span(diagonals, dim).cols == len(torus)
    return len(torus)


@st.composite
def mixing_gluings(draw):
    """A gluing with some column of B on two or more tops, r >= 2."""
    m = draw(st.integers(3, 5))
    r = draw(st.integers(2, m - 1))
    B = [[draw(st.sampled_from(WITH_ZEROS)) for _ in range(m - r)] for _ in range(r)]
    assume(all(any(B[i][k] for i in range(r)) for k in range(m - r)))
    assume(any(sum(1 for i in range(r) if B[i][k]) >= 2 for k in range(m - r)))
    return make_spec(5, m, r, B)


class TestExplicitBases:
    @pytest.mark.parametrize("spec", BLOCK_SPECS + MULTI_BLOCK_SPECS, ids=spec_id)
    def test_counts_and_span_match_oracle(self, spec):
        L = build_quasi(spec)
        torus = torus_basis(spec)
        nilp = nilpotent_basis(spec)
        oracle = derivation_oracle(L)
        assert len(torus) == spec.m + spec.r
        for i, A in enumerate(torus):
            for B in torus[i + 1 :]:
                assert A * B == B * A
        assert len(torus) + len(nilp) == der_dimension(spec) == len(oracle)
        combined = column_span([flatten(D) for D in torus + nilp], L.dim**2)
        assert combined == column_span([flatten(D) for D in oracle], L.dim**2)

    @pytest.mark.parametrize(
        "spec,expected", MULTI_BLOCK_DER_DIM, ids=[spec_id(s) for s in MULTI_BLOCK_SPECS]
    )
    def test_multi_block_dimension(self, spec, expected):
        assert der_dimension(spec) == expected

    def test_mixing_gluing_keeps_weight_torus(self):
        spec = make_spec(5, 3, 2, [["1"], ["1"]])
        assert torus_basis(spec) == weight_torus(spec)
        assert len(torus_basis(spec)) == spec.m + 1

    def test_mixing_torus_is_maximal(self):
        # Copy 4 glues onto the tops of copies 1 and 2 while copy 3 stays
        # apart: two components, so the diagonal derivations form an
        # m + 2 = 6-dimensional space, and torus_basis spans all of it.
        spec = make_spec(5, 4, 3, [["1"], ["1"], ["0"]])
        assert independent_diagonals(torus_basis(spec)) == oracle_torus_dimension(spec) == 6

    @given(mixing_gluings())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_mixing_torus_is_maximal_on_random_gluings(self, spec):
        assert independent_diagonals(torus_basis(spec)) == oracle_torus_dimension(spec)

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=spec_id)
    def test_every_element_is_a_derivation(self, spec):
        L = build_quasi(spec)
        for D in torus_basis(spec) + nilpotent_basis(spec):
            assert is_derivation(L, D)

    def test_torus_is_abelian_and_diagonal(self):
        torus = torus_basis(SPEC521)
        for A in torus:
            for B in torus:
                assert A * B == B * A

    def test_nilpotent_ideal_is_closed_under_bracket_with_everything(self):
        spec = SPEC521
        L = build_quasi(spec)
        nilp = nilpotent_basis(spec)
        everything = torus_basis(spec) + nilp
        ideal = column_span([flatten(N) for N in nilp], L.dim**2)
        for A in everything:
            for N in nilp:
                commutator = A * N - N * A
                stacked = column_span(
                    [flatten(commutator)] + [flatten(X) for X in nilp], L.dim**2
                )
                assert stacked == ideal

    def test_non_block_form_refused(self):
        with pytest.raises(NonBlockForm):
            nilpotent_basis(make_spec(5, 3, 2, [["1"], ["1"]]))
        with pytest.raises(NonBlockForm):
            der_dimension(make_spec(5, 3, 2, [["1"], ["1"]]))


class TestEigenvalueBookkeeping:
    def test_top_weights_of_torus_members(self):
        spec = SPEC521
        grading = torus_basis(spec)[0]
        assert top_weights(spec, grading) == (Fraction(2), Fraction(2))
        assert [grading.entry(k, k) for k in range(1, spec.n)] == [1, 1, 1, 1]

    def test_h1_separates_copies(self):
        spec = SPEC521
        D = h1_derivation(spec)
        assert top_weights(spec, D) == (Fraction(0), Fraction(0))
        # the e_{s1} .. e_{s,n-1} eigenvalues, per copy s
        first = [spec.gen_index(s, 1) for s in range(1, spec.m + 1)]
        levels = {tuple(D.entry(k + i, k + i) for i in range(spec.n - 1)) for k in first}
        assert len(levels) == spec.m

    def test_weight_decomposition_separates_levels(self):
        spec = SPEC521
        L = build_quasi(spec)
        torus = torus_basis(spec)
        spaces = weight_decomposition(L, torus)
        assert sum(space.cols for space in spaces.values()) == L.dim
        # the full torus separates every basis vector
        assert all(space.cols == 1 for space in spaces.values())
        assert len(spaces) == L.dim

    def test_empty_torus_single_space(self):
        L = build_quasi(SPEC521)
        spaces = weight_decomposition(L, [])
        assert list(spaces.values())[0].cols == L.dim

    def test_rejects_non_diagonal(self):
        L = build_quasi(SPEC521)
        rows = [[0] * L.dim for _ in range(L.dim)]
        rows[0][1] = Fraction(1)
        with pytest.raises(NotSimultaneouslyDiagonal):
            weight_decomposition(L, [Matrix(rows)])


# -- the Der property suite: random gluings with n <= 9 and m <= 5 ------------------


@st.composite
def block_gluings(draw):
    """A block-form gluing: each extra copy glues onto one independent top."""
    n = draw(st.sampled_from([5, 7, 9]))
    m = draw(st.integers(1, 5))
    r = draw(st.integers(1, m))
    B = [[Fraction(0)] * (m - r) for _ in range(r)]
    for k in range(m - r):
        B[draw(st.integers(0, r - 1))][k] = draw(st.sampled_from(NONZERO))
    return make_spec(n, m, r, B)


@st.composite
def relabelled_pairs(draw):
    """A gluing, block form or mixing, and a copy of it under a random copy
    permutation and nonzero top rescalings, renormalized to (I | B)."""
    n = draw(st.sampled_from([5, 7, 9]))
    m = draw(st.integers(2, 5))
    r = draw(st.integers(1, m - 1))
    B = [[draw(st.sampled_from(WITH_ZEROS)) for _ in range(m - r)] for _ in range(r)]
    assume(all(any(B[i][k] for i in range(r)) for k in range(m - r)))
    perm = draw(st.permutations(range(m)))
    scales = draw(st.lists(st.sampled_from(NONZERO), min_size=m, max_size=m))
    B2 = relabelled(r, B, perm, scales)
    assume(B2 is not None)
    return make_spec(n, m, r, B), make_spec(n, m, r, B2)


class TestDerProperties:
    @given(block_gluings())
    @settings(max_examples=8, deadline=None)
    def test_oracle_matches_closed_form_and_explicit_span(self, spec):
        L = build_quasi(spec)
        oracle = derivation_oracle(L)
        assert len(oracle) == der_dimension(spec)
        explicit = torus_basis(spec) + nilpotent_basis(spec)
        assert column_span([flatten(D) for D in explicit], L.dim**2) == column_span(
            [flatten(D) for D in oracle], L.dim**2
        )

    @given(relabelled_pairs())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_isomorphic_gluings_share_der_and_lcs_dimensions(self, pair):
        L1, L2 = (build_quasi(spec) for spec in pair)
        assert len(derivation_oracle(L1)) == len(derivation_oracle(L2))
        assert [c.cols for c in lower_central_series(L1)] == [
            c.cols for c in lower_central_series(L2)
        ]
