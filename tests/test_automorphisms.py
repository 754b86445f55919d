"""Automorphism machinery: extension, condition battery, brute-force check."""
import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from conftest import (
    TEST_MATRIX,
    dense,
    from_dense,
    passing_aut_candidate,
    random_aut_candidate,
    spec_id,
    zero_copy_variants,
)
from qfla.automorphisms import (
    automorphism_conditions,
    closed_form_endomorphism,
    exp_ad,
    extend_endomorphism,
    extend_through_grading,
    make_scaling_automorphism,
)
from qfla.builder import build_quasi, make_spec
from qfla.liecore import is_isomorphism
from qfla.linalg import Matrix
from test_derivations import sl2

SPEC521 = make_spec(5, 2, 1, [["1"]])


def identity_candidate(spec):
    return make_scaling_automorphism(spec, [1] * spec.m, [1] * spec.m)


def degree(spec, k: int) -> int:
    """deg e_k in the grading: 1 on e_{s0} and e_{s1}, t on e_{st}, n on
    every top."""
    return spec.n if k >= spec.m * spec.n else max(k % spec.n, 1)


class TestExtension:
    def test_identity(self):
        L = build_quasi(SPEC521)
        M = extend_endomorphism(SPEC521, L, identity_candidate(SPEC521))
        assert M == Matrix.identity(L.dim)

    def test_diagonal_scaling_weights(self):
        # e_{s0} -> a e_{s0}, e_{s1} -> b e_{s1} scales level t by a^{t-1} b
        spec = make_spec(5, 1, 1)
        L = build_quasi(spec)
        cand = make_scaling_automorphism(spec, [1], [2])
        M = extend_endomorphism(spec, L, cand)
        for t in range(1, 5):
            assert M.entry(t, t) == 2  # a=1: every level scales by b
        assert M.entry(5, 5) == 4  # top picks up a^{n-2} b^2

    def test_scaling_with_nontrivial_a(self):
        spec = make_spec(5, 1, 1)
        L = build_quasi(spec)
        M = extend_endomorphism(spec, L, make_scaling_automorphism(spec, [3], [2]))
        for t in range(1, 5):
            assert M.entry(t, t) == Fraction(3) ** (t - 1) * 2
        assert M.entry(5, 5) == 27 * 4

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_matches_closed_form_on_random_candidates(self, spec, rng):
        L = build_quasi(spec)
        for _ in range(20):
            cand = random_aut_candidate(spec, rng)
            assert extend_endomorphism(spec, L, cand) == closed_form_endomorphism(
                spec, spec, cand
            )

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_matches_closed_form_with_zero_copies(self, spec, rng):
        # the extension skips a copy whose images are zero, and a top whose
        # source columns are; the candidate draws fill every copy
        L = build_quasi(spec)
        for draw in (random_aut_candidate, passing_aut_candidate):
            for _ in range(5):
                for cand in zero_copy_variants(draw(spec, rng), rng):
                    M = extend_endomorphism(spec, L, cand)
                    assert M == closed_form_endomorphism(spec, spec, cand)


class TestThroughGrading:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_column_k_is_D_to_its_degree_times_phi(self, spec, rng):
        L = build_quasi(spec)
        integral_table = all(type(c) is int for v in L.sc.values() for c in v.values())
        denominators = set()
        for draw in (random_aut_candidate, passing_aut_candidate):
            for _ in range(5):
                for cand in zero_copy_variants(draw(spec, rng), rng):
                    D = lcm(*(x.denominator for v in cand.e0 + cand.e1 for x in v.values()))
                    phi = extend_endomorphism(spec, L, cand).columns()
                    N = extend_through_grading(spec, L, cand).columns()
                    assert N == [
                        {i: D ** degree(spec, k) * x for i, x in col.items()}
                        for k, col in enumerate(phi)
                    ]
                    if integral_table:
                        assert all(type(x) is int for col in N for x in col.values())
                    denominators.add(D)
        assert max(denominators) > 1  # fractional images among the draws

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_the_grading_automorphism(self, spec):
        L = build_quasi(spec)
        for D in (2, factorial(20), Fraction(-3, 7)):
            cand = make_scaling_automorphism(spec, [D] * spec.m, [D] * spec.m)
            delta = extend_endomorphism(spec, L, cand)
            assert delta == Matrix.from_columns(
                [{k: D ** degree(spec, k)} for k in range(L.dim)], L.dim
            )
            assert is_isomorphism(L, L, delta)


class TestConditions:
    def test_identity_passes(self):
        for spec in TEST_MATRIX:
            assert automorphism_conditions(spec, identity_candidate(spec)).ok

    def test_two_copy_image_fails_first(self):
        s = SPEC521
        cand = identity_candidate(s)
        e0, e1 = dense(cand, s.dim)
        e0[0][s.gen_index(2, 0)] = Fraction(1)  # copy 1 image leaks into copy 2
        v = automorphism_conditions(s, from_dense(e0, e1))
        assert (v.ok, v.failed) == (False, "single-target-copy")

    def test_non_bijective_copy_map(self):
        s = SPEC521
        e0 = [[Fraction(0)] * s.dim for _ in range(2)]
        e1 = [[Fraction(0)] * s.dim for _ in range(2)]
        for c in range(2):  # both copies land in copy 1
            e0[c][s.gen_index(1, 0)] = Fraction(1)
            e1[c][s.gen_index(1, 1)] = Fraction(1)
        v = automorphism_conditions(s, from_dense(e0, e1))
        assert (v.ok, v.failed) == (False, "copy-permutation")

    def test_zero_leading_product(self):
        s = SPEC521
        cand = identity_candidate(s)
        e0, e1 = dense(cand, s.dim)
        e1[0][s.gen_index(1, 1)] = Fraction(0)
        e1[0][s.gen_index(1, 2)] = Fraction(1)  # keeps the copy detectable
        v = automorphism_conditions(s, from_dense(e0, e1))
        assert (v.ok, v.failed) == (False, "leading-coefficients")

    def test_odd_convolution_example(self):
        # b_1 = 1, b_2 = 1, b_3 = 1/2 satisfies -b_1 b_3 + b_2^2 - b_3 b_1 = 0
        s = make_spec(5, 1, 1)
        cand = identity_candidate(s)
        e0, e1 = dense(cand, s.dim)
        e1[0][s.gen_index(1, 2)] = Fraction(1)
        e1[0][s.gen_index(1, 3)] = Fraction(1, 2)
        assert automorphism_conditions(s, from_dense(e0, e1)).ok
        e1[0][s.gen_index(1, 3)] = Fraction(0)
        v = automorphism_conditions(s, from_dense(e0, e1))
        assert (v.ok, v.failed) == (False, "odd-convolution")

    def test_gluing_scale_mismatch(self):
        v = automorphism_conditions(
            SPEC521, make_scaling_automorphism(SPEC521, [1, 1], [2, 3])
        )
        assert (v.ok, v.failed) == (False, "gluing-compatibility")

    def test_gluing_scale_match(self):
        assert automorphism_conditions(
            SPEC521, make_scaling_automorphism(SPEC521, [1, 1], [2, 2])
        ).ok
        assert automorphism_conditions(
            SPEC521, make_scaling_automorphism(SPEC521, [4, 1], [1, 8])
        ).ok  # k = 4^3 = 64 = 8^2 on both copies

    def test_copy_swap_needs_compatible_gluing(self):
        # swapping the two glued copies of N(Q_5,2,1) preserves the gluing
        cand = make_scaling_automorphism(SPEC521, [1, 1], [1, 1], perm=[2, 1])
        assert automorphism_conditions(SPEC521, cand).ok
        L = build_quasi(SPEC521)
        assert is_isomorphism(L, L, extend_endomorphism(SPEC521, L, cand))

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_equivalence_with_brute_force(self, spec, rng):
        L = build_quasi(spec)
        passes = 0
        for draw in (random_aut_candidate, passing_aut_candidate):
            for _ in range(25):
                cand = draw(spec, rng)
                predicted = automorphism_conditions(spec, cand).ok
                actual = is_isomorphism(L, L, extend_endomorphism(spec, L, cand))
                assert predicted == actual
                passes += predicted
        assert passes > 0


class TestBruteForce:
    def test_identity(self):
        L = build_quasi(SPEC521)
        assert is_isomorphism(L, L, Matrix.identity(L.dim))

    def test_generator_swap_is_not(self):
        s = SPEC521
        L = build_quasi(s)
        cols = Matrix.identity(L.dim).columns()
        i0, i1 = s.gen_index(1, 0), s.gen_index(1, 1)
        cols[i0], cols[i1] = cols[i1], cols[i0]
        assert not is_isomorphism(L, L, Matrix.from_columns(cols, L.dim))

    def test_singular_map_is_not(self):
        L = build_quasi(SPEC521)
        assert not is_isomorphism(L, L, Matrix([[0] * L.dim] * L.dim))


class TestFactories:
    # the factory checks none of its scales and perm: the battery names the fault
    def test_zero_scale_fails_leading_coefficients(self):
        v = automorphism_conditions(SPEC521, make_scaling_automorphism(SPEC521, [0, 1], [1, 1]))
        assert (v.ok, v.failed) == (False, "leading-coefficients")

    def test_repeated_copy_fails_copy_permutation(self):
        cand = make_scaling_automorphism(SPEC521, [1, 1], [1, 1], perm=[1, 1])
        v = automorphism_conditions(SPEC521, cand)
        assert (v.ok, v.failed) == (False, "copy-permutation")

    def test_exp_ad_is_inner_automorphism(self):
        s = SPEC521
        L = build_quasi(s)
        for idx in (s.gen_index(1, 0), s.gen_index(1, 1), s.gen_index(2, 2)):
            M = exp_ad(L, {idx: 1})
            assert is_isomorphism(L, L, M)

    def test_exp_ad_refuses_a_non_nilpotent_ad(self):
        L = sl2()
        with pytest.raises(ValueError, match="^ad x is not nilpotent$"):
            exp_ad(L, {0: 1})  # ad h has eigenvalues 0, 2, -2
        assert isinstance(exp_ad(L, {1: 1}), Matrix)  # ad e is nilpotent

    def test_composition_closure(self, rng):
        s = SPEC521
        L = build_quasi(s)
        # compatible scales: the top scale k = a^3 b^2 matches across copies
        A = extend_endomorphism(s, L, make_scaling_automorphism(s, [4, 1], [1, 8]))
        B = exp_ad(L, {s.gen_index(1, 1): 1})
        assert is_isomorphism(L, L, A * B)
        assert is_isomorphism(L, L, B * A)
