"""Derivation machinery: extension, condition battery, oracle, explicit bases."""
import ast
import hashlib
import inspect
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    BLOCK_SPECS,
    TEST_MATRIX,
    extended,
    flatten,
    from_dense,
    random_images,
    random_passing_images,
    random_supported_images,
    reshape,
    spec_id,
    zero_copy_variants,
)
from qfla import automorphisms, derivations, linalg
from qfla.builder import build_quasi, make_spec
from qfla.cli import _spans_der, main
from qfla.derivations import (
    ConditionVerdict,
    GeneratorImages,
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
from qfla.jsonio import dumps, spec_to_json
from qfla.linalg import Matrix, column_span, scalar, sparse_nullspace
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
                "e0-support", f"d(e_{{{s},0}}) has a component on basis index {k}"
            )
    for s in range(1, m + 1):
        allowed = {spec.gen_index(s, i) for i in range(1, n - 1)}
        allowed.update(spec.gen_index(p, n - 1) for p in range(1, m + 1))
        allowed.update(spec.top_index(t) for t in range(1, r + 1))
        k = min((k for k in images.e1[s - 1] if k not in allowed), default=None)
        if k is not None:
            return ConditionVerdict(
                "e1-support", f"d(e_{{{s},1}}) has a component on basis index {k}"
            )
    for s in range(1, m + 1):
        for i in range(3, n - 1, 2):
            if spec.gen_index(s, i) in images.e1[s - 1]:
                return ConditionVerdict(
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
                        "cross-pair-balance",
                        f"copies ({s},{p}) leave residue {residue} on top {j}",
                    )
    return ConditionVerdict()


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

    def test_ok_is_derived_from_the_failed_condition(self):
        # every condition either battery can name reads as a failure, and
        # only the verdict that names none passes
        named = {
            call.args[0].value
            for module in (derivations, automorphisms)
            for call in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "ConditionVerdict"
            and call.args
        }
        assert named == {
            "e0-support", "e1-support", "odd-level-vanishing", "glued-weight-match",
            "cross-pair-balance", "single-target-copy", "copy-permutation",
            "leading-coefficients", "odd-convolution", "gluing-compatibility",
        }
        for failed in named:
            assert not ConditionVerdict(failed).ok
            assert not ConditionVerdict(failed, "detail").ok
        assert derivation_conditions(SPEC521, images_with(SPEC521, [])) == ConditionVerdict()
        assert ConditionVerdict().ok
        assert "ok" not in ConditionVerdict._fields and isinstance(ConditionVerdict.ok, property)

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

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_verdicts_match_dense_reference_on_spoils(self, spec, rng):
        explicit = torus_basis(spec) + (nilpotent_basis(spec) or [])
        for name, members in spoils(spec, explicit, rng).items():
            for gi in members:
                assert derivation_conditions(spec, gi) == reference_conditions(spec, gi), name

    @pytest.mark.parametrize("spec", [s for s in TEST_MATRIX if s.r < s.m], ids=spec_id)
    def test_glued_weight_spoils_fail_on_an_untouched_copy(self, spec):
        # a top weight on one copy of a glued pair (s, j), or on both, fails
        # at the smallest glued pair whose weights differ, which may hold a
        # copy the images leave untouched: reached through beta's entries
        for s in range(spec.r + 1, spec.m + 1):
            for j in (j for j, c in enumerate(spec.beta[s - 1], start=1) if c):
                for entries in (
                    [(1, j, spec.gen_index(j, 1), 1)],  # copy s untouched
                    [(0, s, spec.gen_index(s, 0), 1)],  # copy j untouched
                    [(1, j, spec.gen_index(j, 1), 1), (1, s, spec.gen_index(s, 1), 1)],
                ):
                    gi = images_with(spec, entries)
                    v = derivation_conditions(spec, gi)
                    assert v == reference_conditions(spec, gi)
                    if len(entries) == 1:
                        assert v.failed == "glued-weight-match"


class CountedColumn(tuple):
    """A column of beta that counts the entries read from it, in ``reads``."""

    reads = 0

    def __getitem__(self, t):
        CountedColumn.reads += 1
        return tuple.__getitem__(self, t)

    def __iter__(self):
        for x in tuple.__iter__(self):
            CountedColumn.reads += 1
            yield x


def test_each_nilpotent_member_reads_beta_per_touched_copy(monkeypatch):
    # glued copy r + k on top k: a scan of beta's glued columns would read
    # (m - r) r = 400 entries per member, where a member touches one or two copies
    m, r = 40, 20
    spec = make_spec(5, m, r, [[int(k == t) for k in range(m - r)] for t in range(r)])
    spec = spec._replace(beta=tuple(CountedColumn(v) for v in spec.beta))
    battery, reads = derivations.derivation_conditions, []

    def counted(spec, images):
        before = CountedColumn.reads
        verdict = battery(spec, images)
        touched = sum(1 for e0, e1 in zip(images.e0, images.e1) if e0 or e1)
        reads.append((CountedColumn.reads - before, touched))
        return verdict

    monkeypatch.setattr(derivations, "derivation_conditions", counted)
    members = nilpotent_basis(spec)
    assert len(reads) == len(members) == der_dimension(spec) - m - r
    assert all(read <= r * touched for read, touched in reads)
    assert sum(read for read, _ in reads) == 2 * r * r  # the r OffDiag pairs, 2r each


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
        torus = extended(spec, torus_basis(spec))
        nilp = extended(spec, nilpotent_basis(spec))
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
            torus = extended(spec, torus_basis(spec))
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
        torus = extended(spec, torus_basis(spec))
        assert independent_diagonals(torus) == oracle_torus_dimension(spec) == 6

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_building_a_member_changes_no_earlier_member(self, spec, monkeypatch):
        # a member's untouched copies share one empty image, and a touched
        # copy gets its own dict: building, checking and extending later
        # members moves no image of an earlier one
        def frozen(images):
            return [sorted(v.items()) for v in images.e0 + images.e1]

        built = []
        element = derivations._element

        def spy(*args):
            images = element(*args)
            assert len({id(v) for v in images.e0 + images.e1 if not v}) <= 1
            assert all(frozen(M) == before for M, before in built)
            built.append((images, frozen(images)))
            return images

        monkeypatch.setattr(derivations, "_element", spy)
        members = torus_basis(spec) + (nilpotent_basis(spec) or [])
        extended(spec, members)
        assert len(built) == len(members)
        assert all(frozen(M) == before for M, before in built)

    @given(mixing_gluings())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_mixing_torus_is_maximal_on_random_gluings(self, spec):
        torus = extended(spec, torus_basis(spec))
        assert independent_diagonals(torus) == oracle_torus_dimension(spec)

    @pytest.mark.parametrize("spec", BLOCK_SPECS, ids=spec_id)
    def test_every_element_is_a_derivation(self, spec):
        L = build_quasi(spec)
        for D in extended(spec, torus_basis(spec) + nilpotent_basis(spec)):
            assert is_derivation(L, D)

    def test_torus_is_abelian_and_diagonal(self):
        torus = extended(SPEC521, torus_basis(SPEC521))
        for A in torus:
            for B in torus:
                assert A * B == B * A

    def test_nilpotent_ideal_is_closed_under_bracket_with_everything(self):
        spec = SPEC521
        L = build_quasi(spec)
        nilp = extended(spec, nilpotent_basis(spec))
        everything = extended(spec, torus_basis(spec)) + nilp
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
        # a member is its generator images, checked by the condition battery
        # and never extended; a call count, not a timing
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
        assert max(per_member) == 0

    def test_non_block_form_refused(self):
        # the closed forms answer None off block form, never a wrong value
        assert nilpotent_basis(make_spec(5, 3, 2, [["1"], ["1"]])) is None
        assert der_dimension(make_spec(5, 3, 2, [["1"], ["1"]])) is None


class TestEigenvalueBookkeeping:
    def test_top_weights_of_torus_members(self):
        spec = SPEC521
        grading, *copy_weights = extended(spec, torus_basis(spec))
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
        torus = extended(spec, torus_basis(spec))
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
        dense = [flatten(D) for D in extended(spec, explicit)]
        assert column_span(dense, L.dim**2) == column_span(oracle, L.dim**2)
        assert _spans_der(spec, explicit, oracle)

    @given(relabelled_pairs())
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_isomorphic_gluings_share_der_and_lcs_dimensions(self, pair):
        L1, L2 = (build_quasi(spec) for spec in pair)
        assert len(derivation_oracle(L1)) == len(derivation_oracle(L2))
        assert [c.cols for c in lower_central_series(L1)] == [
            c.cols for c in lower_central_series(L2)
        ]


# -- der --compare's span test against the dense column spans -----------------------


def non_derivation(spec):
    """Generator images whose extension is no derivation: d(e_{1,0}) = e_{1,1}
    breaks the e0 support."""
    return GeneratorImages(({spec.gen_index(1, 1): 1},) + ({},) * (spec.m - 1), ({},) * spec.m)


def spoils(spec, members, rng):
    """The explicit basis (generator images) and seeded spoils of it: a
    member dropped, one duplicated, one scaled, and a non-derivation added."""
    k = rng.randrange(len(members))
    scaled = GeneratorImages(
        *(tuple({i: Fraction(-2, 3) * x for i, x in v.items()} for v in vs) for vs in members[k])
    )
    unit = non_derivation(spec)
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
        # whether the members span the oracle's kernel, Der: der --compare
        # decides it in generator coordinates, the dense reference by the
        # column spans of the extended members and of the oracle's vectors
        L = build_quasi(spec)
        oracle = derivation_oracle(L)
        explicit = torus_basis(spec) + (nilpotent_basis(spec) or [])
        answers = {}
        for name, members in spoils(spec, explicit, rng).items():
            dense = [flatten(D) for D in extended(spec, members)]
            expected = column_span(dense, L.dim**2) == column_span(oracle, L.dim**2)
            assert _spans_der(spec, members, oracle) is expected, name
            answers[name] = expected
        assert not is_derivation(L, extend_derivation_candidate(spec, non_derivation(spec)))
        block_form = spec in BLOCK_SPECS
        assert answers == {
            "as is": block_form,
            "dropped": False,
            "duplicated": block_form,
            "scaled": block_form,
            "non-derivation": False,
        }


# -- der's printed members against the matrices the closed forms used to print ----


def seeded_block_gluings(seed: int, count: int) -> list:
    """Block-form gluings drawn by random.Random(seed): each glued copy on one top."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        n, m = rng.choice([5, 7, 9]), rng.randint(1, 5)
        r = rng.randint(1, m)
        B = [["0"] * (m - r) for _ in range(r)]
        for k in range(m - r):
            B[rng.randrange(r)][k] = rng.choice(["1", "-1", "2", "1/2", "-3/2"])
        specs.append(make_spec(n, m, r, B if m > r else None))
    return specs


def matrices_digest(matrices) -> str:
    """sha256 of the matrices' nonzero entries [row, column, "p/q"], column by column."""
    text = json.dumps([
        [(i, j, str(x)) for j, col in enumerate(M.columns()) for i, x in sorted(col.items())]
        for M in matrices
    ])
    return hashlib.sha256(text.encode()).hexdigest()


# matrices_digest of torus_basis(spec) + (nilpotent_basis(spec) or []) from
# when both returned the dense member matrices that der printed
MEMBER_DIGESTS = {
    "n5m1r1": "ca1f6c662f7e335ae08de4816eaebc733b2a1c58d85408b6963ee82f55810e69",  # 9 members
    "n5m2r1B1": "6e81048cc537292f2cbe97f1b8076ce22748659a1274607975cde668622a021c",  # 18 members
    "n5m3r1B1x1": "bf0ad0887fc55bf0769e0a926a5c8cd9478be17b739cb0c7d64972d281d83d82",  # 28 members
    "n5m3r2B1,0": "8ee58f73c2a4e685ad9bf4008d1b710ad333e037a9843e73bcd772900da6d6aa",  # 33 members
    "n5m3r2B1,1": "d7f6b28f67c4d3885da60703dbe1a8b0815b04d3a7981a53e9ac31208240b1c7",  # 4 members
    "n7m1r1": "e27375a8ecff0b9e934fcb9ab074044eb2f03b4e49e7f6bc4a2ac41532ec6e03",  # 12 members
    "n7m2r1B1": "de435f360bc8d2d701c4b3312d9a1789e999fa48d6e82049b7e0a788c20968be",  # 24 members
    "n5m3r1B1/2x-2/3": "8f6880c8337676ad1c6e17211c73a49a7d4815e9570879df647846c7bc906147",  # 28 members
    "n7m4r2B1,3x2,-1": "fb437d0ceb776c07b1c11ce79fe77ae0d7eaf8160e995160b3f92ffb415f4138",  # 5 members
    "n5m5r3B1,1,0x0,0,1": "57fe57a2e200c1e15d9ab0308022b354a2b648e2f7f0bed6d91e85287e5fd64c",  # 7 members
    "n9m4r1B1x3x-1": "e4fafc9f963456df3d5cfe59e3d4f702bdbc18bbe59ef7a1068f34ced99de9e6",  # 63 members
    "n5m4r4": "eac7685a13cbd14d4a27cc57ee33c4716dbc7ac5ddff8436be518a64056b0ff2",  # 60 members
    "n5m5r2B1,0x1,0x2,0": "19987502520923b7ced820159ca931600e62ecfbad58dc9185f64d4da95d983d",  # 58 members
    "n11m3r1B1x-2": "65cb4dbc24e116585eff2b57527852f8101e76cc1cf30e6695dc18d54cbee951",  # 55 members
    "n5m6r3B1,1,2x2,-1,1x-1,3,1": "91b9172ca1a2a3dba2026a525f5b394bb549c04b7660a19661035fd02aa06c75",  # 7 members
    "n5m4r1B2x1x-3/2": "5366f9cce10eab0b8666db01d7fa9f66a3c313f0c3351b7e3b7237b50e619ee7",  # 39 members
    "n7m3r2B-3/2,0": "91885b05a67e00ee089cec68eada1e14a84f97dd867ae0b12a9bdc92d8a107d6",  # 42 members
    "n9m3r2B0,2": "a99bae83434cf371f3f1dba00cca53b4619662933c573e458246b95fe2b5aa29",  # 51 members
    "n9m2r1B2": "6cf2d102418488f553971a60a8a36eb62c91e6368257071a35f1be3c44581e15",  # 30 members
    "n9m4r2B0,1x1,0": "0c6c2f6104e8b1a47215cb8b95500002f8b651fff6a8df48a2d1af1feba2445d",  # 68 members
    "n7m2r1B-1": "fb0e34d787fe0acf3dc456c22e6abadc1abec30a9265fb0a4baa9092f058ca49",  # 24 members
}


def printed_images(spec, member) -> GeneratorImages:
    """A member as der prints it, {"e_st": [[index, "p/q"], ...]}, read back
    as generator images, after checking its form: keys of the spec's
    generators, nonempty images, ascending indices and nonzero scalars."""
    keys = [f"e_{s}{t}" for s in range(1, spec.m + 1) for t in (0, 1)]
    assert set(member) <= set(keys) and member
    for pairs in member.values():
        indices = [k for k, _ in pairs]
        assert pairs and indices == sorted(set(indices)) and all(scalar(x) for _, x in pairs)
    vectors = {key: {k: scalar(x) for k, x in pairs} for key, pairs in member.items()}
    return GeneratorImages(*(tuple(vectors.get(k, {}) for k in keys[t::2]) for t in (0, 1)))


class TestPrintedMembers:
    @pytest.mark.parametrize("spec", TEST_MATRIX + seeded_block_gluings(3619, 6), ids=spec_id)
    def test_printed_members_extend_to_the_matrices_der_printed(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(dumps(spec_to_json(spec)))
        assert main(["der", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        members = [printed_images(spec, M) for M in data["torus"] + (data["nilpotent"] or [])]
        assert members == torus_basis(spec) + (nilpotent_basis(spec) or [])
        matrices = extended(spec, members)
        assert matrices == [closed_form_extension(spec, images) for images in members]
        assert matrices_digest(matrices) == MEMBER_DIGESTS[spec_id(spec)]


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


class TestOracleFootprint:
    """The solve keeps a one-entry row's column as a flag, so the oracle
    holds no row for the entries it pins to zero."""

    def test_peak_at_the_ladders_n15m6r2(self):
        # about 2.9 MB while every unit was kept as a {c: 1} row, 0.65 MB as flags
        L = build_quasi(make_spec(15, 6, 2, [["1", "1", "0", "0"], ["0", "0", "1", "1"]]))
        tracemalloc.start()
        try:
            derivation_oracle(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_flags_and_coupled_rows_at_the_ladders_n21m8r3(self, monkeypatch):
        L = build_quasi(LADDER_ROWS[1][0])
        peel, seen = linalg._peel, []
        monkeypatch.setattr(linalg, "_peel", lambda rows, n: seen.append(peel(rows, n)) or seen[-1])
        derivation_oracle(L)
        (units, coupled), = seen
        assert (units.count(1), len(coupled)) == (27184, 1759)
