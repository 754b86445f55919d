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
    from_dense,
    random_images,
    random_passing_images,
    random_supported_images,
    reshape,
    spec_id,
    zero_copy_variants,
)
from qfla import derivations
from qfla.builder import build_quasi, make_spec
from qfla.derivations import (
    ConditionVerdict,
    closed_form_extension,
    der_dimension,
    derivation_conditions,
    derivation_oracle,
    extend_derivation_candidate,
    is_derivation,
    nilpotent_basis,
    top_weights,
    torus_basis,
    weight_decomposition,
)
from qfla.liecore import LieAlgebra, lower_central_series
from qfla.linalg import Matrix, column_span, sparse_nullspace, spans_kernel
from test_iso import NONZERO, WITH_ZEROS, relabelled
from test_liecore import dense_tables

SPEC521 = make_spec(5, 2, 1, [["1"]])


def images_with(spec, assignments):
    """Zero images except the listed (which, copy, basis-index) -> value."""
    e0 = [[Fraction(0)] * spec.dim for _ in range(spec.m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(spec.m)]
    for which, s, k, v in assignments:
        (e0 if which == 0 else e1)[s - 1][k] = Fraction(v)
    return from_dense(e0, e1)


def reference_conditions(spec, images):
    """The condition battery as a dense scan: per copy, the allowed support
    as a set of every allowed index, and every copy pair s < p visited."""
    n, m, r = spec.n, spec.m, spec.r
    beta = spec.beta

    for s in range(1, m + 1):
        allowed = {spec.gen_index(s, 0)}
        allowed.update(spec.gen_index(s, i) for i in range(2, n))
        allowed.update(spec.top_index(t) for t in range(1, r + 1))
        k = min((k for k in images.e0[s - 1] if k not in allowed), default=None)
        if k is not None:
            return ConditionVerdict(
                False, "e0-support", f"d(e_{{{s},0}}) has a component on basis index {k}"
            )
    for s in range(1, m + 1):
        allowed = {spec.gen_index(s, i) for i in range(1, n - 1)}
        allowed.update(spec.gen_index(p, n - 1) for p in range(1, m + 1))
        allowed.update(spec.top_index(t) for t in range(1, r + 1))
        k = min((k for k in images.e1[s - 1] if k not in allowed), default=None)
        if k is not None:
            return ConditionVerdict(
                False, "e1-support", f"d(e_{{{s},1}}) has a component on basis index {k}"
            )
    for s in range(1, m + 1):
        for i in range(3, n - 1, 2):
            if spec.gen_index(s, i) in images.e1[s - 1]:
                return ConditionVerdict(
                    False,
                    "odd-level-vanishing",
                    f"d(e_{{{s},1}}) has a component on e_{{{s},{i}}}",
                )
    lam = [
        (n - 2) * images.e0[s - 1].get(spec.gen_index(s, 0), 0)
        + 2 * images.e1[s - 1].get(spec.gen_index(s, 1), 0)
        for s in range(1, m + 1)
    ]
    for s in range(r + 1, m + 1):
        for j in range(1, r + 1):
            if beta[s - 1][j - 1] != 0 and lam[s - 1] != lam[j - 1]:
                return ConditionVerdict(
                    False,
                    "glued-weight-match",
                    f"top eigenvalue of copy {s} is {lam[s - 1]} but copy {j} has {lam[j - 1]}",
                )
    for s in range(1, m + 1):
        for p in range(s + 1, m + 1):
            csp = images.e1[s - 1].get(spec.gen_index(p, n - 1), 0)
            cps = images.e1[p - 1].get(spec.gen_index(s, n - 1), 0)
            for j in range(1, r + 1):
                residue = -csp * beta[p - 1][j - 1] + cps * beta[s - 1][j - 1]
                if residue != 0:
                    return ConditionVerdict(
                        False,
                        "cross-pair-balance",
                        f"copies ({s},{p}) leave residue {residue} on top {j}",
                    )
    return ConditionVerdict(True)


# One gluing of each kind for the battery against its dense reference: block
# form with fractional B, a mixing gluing (copy 3 on both tops), and r = m.
VERDICT_SPECS = [
    make_spec(7, 3, 1, [["2", "-1/2"]]),
    make_spec(5, 4, 2, [["1", "1/2"], ["-1", "0"]]),
    make_spec(7, 3, 3),
]


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

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_top_with_one_zero_source_column(self, spec):
        # weights a = 1, b = 2 - n kill every e_{s,n-1} but not the tops, so
        # each top's column comes from e_{t1}'s image alone
        n = spec.n
        entries = [(0, s, spec.gen_index(s, 0), 1) for s in range(1, spec.m + 1)]
        entries += [(1, s, spec.gen_index(s, 1), 2 - n) for s in range(1, spec.m + 1)]
        gi = images_with(spec, entries)
        D = extend_derivation_candidate(spec, gi)
        assert not D.columns()[spec.gen_index(1, n - 1)]
        assert [D.entry(k, k) for k in range(spec.m * n, spec.dim)] == [2 - n] * spec.r
        assert D == closed_form_extension(spec, gi)

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_matches_closed_form_with_zero_copies(self, spec, rng):
        # the extension skips a copy whose images are zero, and a top whose
        # source columns are; random_images fills every copy
        for draw in (random_images, random_supported_images, random_passing_images):
            for _ in range(5):
                for gi in zero_copy_variants(draw(spec, rng), rng):
                    D = extend_derivation_candidate(spec, gi)
                    assert D == closed_form_extension(spec, gi)


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


    @pytest.mark.parametrize("spec", VERDICT_SPECS, ids=spec_id)
    def test_verdicts_match_dense_reference_on_draws(self, spec, rng):
        for draw in (random_images, random_supported_images, random_passing_images):
            for _ in range(40):
                for gi in zero_copy_variants(draw(spec, rng), rng):
                    assert derivation_conditions(spec, gi) == reference_conditions(spec, gi)

    @pytest.mark.parametrize("spec", VERDICT_SPECS, ids=spec_id)
    def test_verdicts_match_dense_reference_on_single_entries(self, spec):
        failed = set()
        for which in (0, 1):
            for s in range(1, spec.m + 1):
                for k in range(spec.dim):
                    for value in (1, Fraction(-2, 3)):
                        gi = images_with(spec, [(which, s, k, value)])
                        v = derivation_conditions(spec, gi)
                        assert v == reference_conditions(spec, gi)
                        failed.add(v.failed)
        glued = {"glued-weight-match"} if spec.r < spec.m else set()
        assert failed == {
            None,
            "e0-support",
            "e1-support",
            "odd-level-vanishing",
            "cross-pair-balance",
        } | glued


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
            assert is_derivation(L, reshape(D, L.dim))

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
        {k: x for k, D in enumerate(oracle) if (x := D.get(i * L.dim + j))}
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
def mixing_gluings(draw, max_m=5):
    """A gluing with some column of B on two or more tops, r >= 2."""
    m = draw(st.integers(3, max_m))
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
        assert combined == column_span(oracle, L.dim**2)

    @pytest.mark.parametrize(
        "spec,expected", MULTI_BLOCK_DER_DIM, ids=[spec_id(s) for s in MULTI_BLOCK_SPECS]
    )
    def test_multi_block_dimension(self, spec, expected):
        assert der_dimension(spec) == expected

    def test_mixing_gluing_keeps_weight_torus(self):
        # `qfla weights` decomposes under torus_basis(spec)[: m + 1], Grading
        # and the CopyWeights: the whole torus on one support component, and
        # all but ComponentGrading 2 (top weight 2 on copy 2 alone) on two
        for spec, c in ((make_spec(5, 3, 2, [["1"], ["1"]]), 1), (make_spec(5, 2, 2), 2)):
            torus = torus_basis(spec)
            assert len(torus) == spec.m + c
            grading, *copy_weights = torus[: spec.m + 1]
            assert top_weights(spec, flatten(grading)) == (2,) * spec.m
            weights = [top_weights(spec, flatten(D)) for D in copy_weights]
            assert weights == [(0,) * spec.m] * spec.m
            weights = [top_weights(spec, flatten(D)) for D in torus[spec.m + 1 :]]
            assert weights == [(0, 2)] * (c - 1)

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
                AN, NA = flatten(A * N), flatten(N * A)
                commutator = {k: AN.get(k, 0) - NA.get(k, 0) for k in AN.keys() | NA.keys()}
                stacked = column_span([commutator] + [flatten(X) for X in nilp], L.dim**2)
                assert stacked == ideal

    @pytest.mark.parametrize(
        "spec",
        [
            SPEC521,
            make_spec(9, 6, 1, [["1", "2", "-1", "1/2", "3"]]),
            make_spec(7, 4, 2, [["1", "0"], ["0", "-2"]]),
        ],
        ids=spec_id,
    )
    def test_members_bracket_only_their_copies(self, spec, monkeypatch):
        # a member's images touch at most two copies, each extended in
        # 2(n-2) + 2 bracket calls at most; a call count, not a timing
        build_quasi(spec)
        calls, per_member = [0], []
        bracket, element = LieAlgebra.bracket, derivations._element

        def counted_bracket(L, x, y):
            calls[0] += 1
            return bracket(L, x, y)

        def counted_element(*args):
            before = calls[0]
            D = element(*args)
            per_member.append(calls[0] - before)
            return D

        monkeypatch.setattr(LieAlgebra, "bracket", counted_bracket)
        monkeypatch.setattr(derivations, "_element", counted_element)
        members = nilpotent_basis(spec)
        assert len(per_member) == len(members) > 0
        assert max(per_member) <= 4 * (spec.n - 1)

    def test_non_block_form_refused(self):
        # the closed forms answer None off block form, never a wrong value
        assert nilpotent_basis(make_spec(5, 3, 2, [["1"], ["1"]])) is None
        assert der_dimension(make_spec(5, 3, 2, [["1"], ["1"]])) is None


class TestEigenvalueBookkeeping:
    def test_top_weights_of_torus_members(self):
        spec = SPEC521
        grading, *copy_weights = torus_basis(spec)
        assert top_weights(spec, flatten(grading)) == (Fraction(2), Fraction(2))
        # Grading kills each e_{s0}, fixes e_{s1}..e_{s,n-1} and doubles the top
        assert [grading.entry(k, k) for k in range(spec.dim)] == [0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 2]
        assert len(copy_weights) == spec.m
        for s, D in enumerate(copy_weights, start=1):
            # CopyWeight s: -2 at e_{s0}, n - 2t at e_{st}, 0 off copy s and on the top
            expected = [0] * spec.dim
            expected[spec.gen_index(s, 0)] = -2
            for t in range(1, spec.n):
                expected[spec.gen_index(s, t)] = spec.n - 2 * t
            assert [D.entry(k, k) for k in range(spec.dim)] == expected
            assert top_weights(spec, flatten(D)) == (0, 0)

    def test_weight_decomposition_separates_levels(self):
        spec = SPEC521
        L = build_quasi(spec)
        torus = torus_basis(spec)
        spaces = weight_decomposition(L, torus)
        assert sum(spaces.values()) == L.dim
        # the full torus separates every basis vector
        assert all(dim == 1 for dim in spaces.values())
        assert len(spaces) == L.dim

    def test_empty_torus_single_space(self):
        L = build_quasi(SPEC521)
        spaces = weight_decomposition(L, [])
        assert spaces == {(): L.dim}

    def test_rejects_non_diagonal(self):
        L = build_quasi(SPEC521)
        rows = [[0] * L.dim for _ in range(L.dim)]
        rows[0][1] = Fraction(1)
        with pytest.raises(ValueError, match=r"^map has off-diagonal entry at \(0,1\)$"):
            weight_decomposition(L, [Matrix(rows)])


# -- the Der property suite: random gluings with n <= 9 and m <= 5 ------------------


@st.composite
def block_gluings(draw, ns=(5, 7, 9), max_m=5):
    """A block-form gluing: each extra copy glues onto one independent top."""
    n = draw(st.sampled_from(ns))
    m = draw(st.integers(1, max_m))
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
            oracle, L.dim**2
        )

    @given(relabelled_pairs())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_isomorphic_gluings_share_der_and_lcs_dimensions(self, pair):
        L1, L2 = (build_quasi(spec) for spec in pair)
        assert len(derivation_oracle(L1)) == len(derivation_oracle(L2))
        assert [c.cols for c in lower_central_series(L1)] == [
            c.cols for c in lower_central_series(L2)
        ]


# -- der --compare's span test against the column spans it replaced ------------------


def spoils(members, rng):
    """The explicit basis (flat vectors) and seeded spoils of it: a member
    dropped, one duplicated, one scaled, and a non-derivation added."""
    k = rng.randrange(len(members))
    scaled = {i: Fraction(-2, 3) * x for i, x in members[k].items()}
    unit = {0: 1}  # e_0 -> e_0 alone: [e_0, e_j] != 0 for some j, so no derivation
    return {
        "as is": members,
        "dropped": members[:k] + members[k + 1 :],
        "duplicated": members + [members[k]],
        "scaled": members[:k] + [scaled] + members[k + 1 :],
        "non-derivation": members[:k] + [unit] + members[k:],
    }


class TestCompare:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_spans_kernel_matches_column_spans(self, spec, rng):
        L = build_quasi(spec)
        oracle = derivation_oracle(L)
        explicit = [flatten(D) for D in torus_basis(spec) + (nilpotent_basis(spec) or [])]
        assert not is_derivation(L, reshape({0: 1}, L.dim))
        answers = {}
        for name, members in spoils(explicit, rng).items():
            expected = column_span(members, L.dim**2) == column_span(oracle, L.dim**2)
            assert spans_kernel(members, oracle) is expected, name
            answers[name] = expected
        block_form = spec in BLOCK_SPECS
        assert answers == {
            "as is": block_form,
            "dropped": False,
            "duplicated": block_form,
            "scaled": block_form,
            "non-derivation": False,
        }


# -- the oracle's assembly against the per-pair reference ----------------------------


def reference_leibniz_rows(L, pairs=None):
    """The Leibniz system assembled pair by pair with dim fresh rows each,
    every coefficient added to 0: the oracle's assembly before it built
    rows only for the outputs some term touches, on every pair i < j, or on
    those of ``pairs``."""
    dim = L.dim
    hits = [[(k, b) for k in range(dim) if (b := L.structure(k, j))] for j in range(dim)]
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            if pairs is not None and (i, j) not in pairs:
                continue
            eq = [dict() for _ in range(dim)]
            for k, c in L.structure(i, j).items():  # D[e_i, e_j]
                for out in range(dim):
                    key = out * dim + k
                    eq[out][key] = eq[out].get(key, 0) + c
            for k, b in hits[j]:  # -[D e_i, e_j]
                for out, c in b.items():
                    key = k * dim + i
                    eq[out][key] = eq[out].get(key, 0) - c
            for k, b in hits[i]:  # -[e_i, D e_j] = [D e_j, e_i]
                for out, c in b.items():
                    key = k * dim + j
                    eq[out][key] = eq[out].get(key, 0) + c
            rows.extend(row for e in eq if (row := {k: x for k, x in e.items() if x}))
    return rows


def reference_oracle(L):
    return sparse_nullspace(reference_leibniz_rows(L), L.dim**2)


class TestOracleAssembly:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_battery(self, spec):
        L = build_quasi(spec)
        assert derivation_oracle(L) == reference_oracle(L)

    @given(st.one_of(block_gluings(ns=(5, 7), max_m=4), mixing_gluings(max_m=4)))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_gluings(self, spec):
        L = build_quasi(spec)
        assert derivation_oracle(L) == reference_oracle(L)

    @given(dense_tables(ns=(5,)))
    @settings(max_examples=5, deadline=None)
    def test_q5_in_a_random_basis(self, L):
        # non-integer structure constants, and brackets dense in the basis
        assert derivation_oracle(L) == reference_oracle(L)


def sl2():
    """sl2 on (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h.  It equals
    its own derived algebra, so no basis vector lies outside [L, L]."""
    return LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def reversed_basis(L):
    """L on the basis e'_k = e_{dim-1-k}: still nilpotent, but every bracket
    now lands below both of its indices."""
    last = L.dim - 1
    return LieAlgebra(
        L.dim,
        {
            (last - j, last - i): {last - k: -c for k, c in value.items()}
            for (i, j), value in L.sc.items()
        },
    )


def oracle_rows(monkeypatch, L) -> list:
    """The rows the oracle hands its solver, which is not run."""
    rows = []
    monkeypatch.setattr(derivations, "sparse_nullspace", lambda it, ncols: rows.extend(it) or [])
    derivations.derivation_oracle(L)
    return rows


def canonical(rows) -> list:
    return sorted(sorted(row.items()) for row in rows)


# The ladder's (9,4,1) and (21,8,3): rows made against the all-pairs count.
LADDER_ROWS = [
    (make_spec(9, 4, 1, [["1", "2", "-1"]]), 2518, 4004),
    (make_spec(21, 8, 3, [["1", "2", "0", "0", "0"], ["0", "0", "1", "-1", "0"],
                          ["0", "0", "0", "0", "3"]]), 57023, 110808),
]


class TestGeneratorPairs:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_generators_are_the_copy_heads(self, spec):
        heads = [spec.gen_index(s, t) for s in range(1, spec.m + 1) for t in (0, 1)]
        assert derivations._generator_indices(build_quasi(spec)) == heads

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_rows_are_those_of_pairs_holding_a_generator(self, spec, monkeypatch):
        L = build_quasi(spec)
        gens = set(derivations._generator_indices(L))
        pairs = {(i, j) for i in range(L.dim) for j in range(i + 1, L.dim) if {i, j} & gens}
        assert canonical(oracle_rows(monkeypatch, L)) == canonical(reference_leibniz_rows(L, pairs))

    @pytest.mark.parametrize("spec, made, all_pairs", LADDER_ROWS, ids=["n9m4r1", "n21m8r3"])
    def test_row_counts_on_the_ladder(self, spec, made, all_pairs, monkeypatch):
        L = build_quasi(spec)
        assert len(oracle_rows(monkeypatch, L)) == made
        assert len(oracle_rows(monkeypatch, reversed_basis(L))) == all_pairs

    def test_sl2_makes_every_index_a_generator(self):
        L = sl2()
        assert derivations._generator_indices(L) == [0, 1, 2]
        oracle = derivation_oracle(L)
        assert len(oracle) == 3  # every derivation of sl2 is inner
        assert oracle == reference_oracle(L)

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_reversed_basis(self, spec):
        L = reversed_basis(build_quasi(spec))
        assert derivations._generator_indices(L) == list(range(L.dim))
        assert derivation_oracle(L) == reference_oracle(L)
