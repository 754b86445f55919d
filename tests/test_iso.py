"""Isomorphism decision: annihilators, monomial equivalence, verified witnesses."""
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conftest import TEST_MATRIX, sparse, spec_id
from test_linalg import dense_rows, reference_kernel, reference_rref
from qfla import iso
from qfla.builder import BadInput, build_quasi, copy_cells, make_spec, related_matrix
from qfla.iso import (
    EquivalenceWitness,
    IsoVerdict,
    build_algebra_witness,
    iso_decide,
    monomial_equivalence,
    split_scale,
)
from qfla.liecore import bracket_preserving
from qfla.linalg import Matrix, column_span, inverse, rank, scalar, sparse_nullspace


class TestKernel:
    """The columns of beta span the kernel of related_matrix(beta) = (A | I)."""

    @staticmethod
    def kernel_basis(spec) -> Matrix:
        """The m x r matrix whose rows are the columns of beta."""
        g = spec.beta
        m, r = len(g), len(g[0])
        M = related_matrix(g)
        basis = Matrix([list(v) for v in g], cols=r)
        assert M * basis == Matrix([[0] * r] * M.rows, cols=r)
        assert rank(basis) == r
        assert rank(M) == m - r
        return basis

    def test_two_glued_columns(self):
        basis = self.kernel_basis(make_spec(5, 3, 2, [["1"], ["1"]]))
        assert basis.columns() == [{0: 1, 2: 1}, {1: 1, 2: 1}]  # the rows of beta

    def test_scaled(self):
        basis = self.kernel_basis(make_spec(5, 2, 1, [["5"]]))
        assert column_span(basis.columns(), 2) == column_span([{0: 1, 1: 5}], 2)

    def test_full_space_when_no_gluing(self):
        basis = self.kernel_basis(make_spec(5, 2, 2))
        assert basis == Matrix.identity(2)


def monomial(perm, scale) -> Matrix:
    """The monomial matrix whose column j holds scale[j] in row perm[j],
    written out here so that the tests share no code with the search."""
    m = len(perm)
    return Matrix([[scale[j] if perm[j] == i else 0 for j in range(m)] for i in range(m)], cols=m)


def pick_columns(M: Matrix, cols) -> Matrix:
    """The columns of M at the given indices, in that order."""
    return Matrix([[M.entry(i, j) for j in cols] for i in range(M.rows)], cols=len(cols))


class TestMonomialEquivalence:
    def test_same_matrix_identity_witness(self):
        g = make_spec(5, 3, 2, [["1"], ["1"]]).beta
        w = monomial_equivalence(g, g)
        assert isinstance(w, EquivalenceWitness)
        assert (w.perm, w.scale) == ((0, 1, 2), (1, 1, 1))
        M = related_matrix(g)
        assert w.E * M * monomial(w.perm, w.scale) == M

    def test_rescaled_gluings_are_equivalent(self):
        g1 = make_spec(5, 3, 2, [["1"], ["1"]]).beta
        g2 = make_spec(5, 3, 2, [["2"], ["1"]]).beta
        w = monomial_equivalence(g1, g2)
        assert isinstance(w, EquivalenceWitness)
        assert w.perm == (0, 1, 2)
        assert w.scale == (Fraction(2), Fraction(1), Fraction(1))
        assert w.E * related_matrix(g1) * monomial(w.perm, w.scale) == related_matrix(g2)

    def test_nonzero_pattern_obstruction(self):
        g1 = make_spec(5, 3, 2, [["1"], ["0"]]).beta
        g2 = make_spec(5, 3, 2, [["1"], ["1"]]).beta
        assert monomial_equivalence(g1, g2) is None

    def test_permutation_needed(self):
        # swapping which top the extra copy glues to is a copy relabeling
        g1 = make_spec(5, 3, 2, [["1"], ["0"]]).beta
        g2 = make_spec(5, 3, 2, [["0"], ["1"]]).beta
        w = monomial_equivalence(g1, g2)
        assert isinstance(w, EquivalenceWitness)
        assert w.E * related_matrix(g1) * monomial(w.perm, w.scale) == related_matrix(g2)

    def test_trivial_when_m_equals_r(self):
        g = make_spec(5, 2, 2).beta
        w = monomial_equivalence(g, g)
        assert isinstance(w, EquivalenceWitness)

    @pytest.mark.parametrize(
        "other", [make_spec(5, 3, 1, [["1", "1"]]), make_spec(5, 4, 2, [["1", "1"], ["1", "2"]])],
        ids=["r", "m"],
    )
    def test_refuses_betas_of_different_shape(self, other, monkeypatch):
        # monomial_equivalence takes betas of one (m, r): iso_decide refuses
        # the pair on its parameters before the betas reach it
        def unreachable(g1, g2):
            raise AssertionError("monomial_equivalence reached with betas of different shape")

        monkeypatch.setattr(iso, "monomial_equivalence", unreachable)
        g = make_spec(5, 3, 2, [["1"], ["1"]])
        for v in (iso_decide(g, other), iso_decide(other, g)):
            assert not v.isomorphic and "parameters differ" in v.reason

    def test_search_cap(self, monkeypatch):
        monkeypatch.setattr(iso, "MAX_COPIES", 2)
        g = make_spec(5, 3, 2, [["1"], ["1"]]).beta
        with pytest.raises(BadInput, match="^m:"):
            monomial_equivalence(g, g)
        monkeypatch.setattr(iso, "MAX_COPIES", 3)
        assert isinstance(monomial_equivalence(g, g), EquivalenceWitness)


def reference_split(k: Fraction, n: int):
    """The split by valuations that ``split_scale`` had before its square
    split, kept as its reference: (n-2) a_p + 2 b_p = v_p(k) with a_p = v_p
    mod 2, base by base.  The bases are the primes below 2^16, by trial
    division, and what is left of the numerator or the denominator, prime
    or not; the numerator and the denominator are coprime, so they share no
    base.  The sign of k goes into alpha."""

    def valuations(k: int) -> dict:
        out = {}
        p = 2
        while p * p <= k and p < 1 << 16:
            while k % p == 0:
                out[p] = out.get(p, 0) + 1
                k //= p
            p += 1 if p == 2 else 2
        if k > 1:
            out[k] = out.get(k, 0) + 1
        return out

    vals = valuations(abs(k.numerator))
    vals.update((p, -v) for p, v in valuations(k.denominator).items())
    alpha = 1 if k > 0 else -1
    beta = 1
    for p, v in vals.items():
        a = v % 2
        b = (v - (n - 2) * a) // 2
        alpha *= Fraction(p) ** a
        beta *= Fraction(p) ** b
    return alpha, beta


# Bases of the drawn scales: primes below the trial bound 2^16 (65521 is the
# largest), and primes above it, which stay in the cofactor.  A scale with a
# large cofactor costs a full trial division, about 7 ms at 40 digits, so few
# draws take one.
SMALL_BASES = (2, 3, 5, 7, 11, 13, 97, 65521)
LARGE_BASES = (65537, 65539, 1_000_003, 2**61 - 1)


@st.composite
def witness_scales(draw) -> Fraction:
    """A signed product of small bases to exponents -4..4, times one large
    base to such an exponent in about one draw of four."""
    k = Fraction(draw(st.sampled_from((1, -1))))
    for p in draw(st.lists(st.sampled_from(SMALL_BASES), max_size=4)):
        k *= Fraction(p) ** draw(st.integers(-4, 4))
    if draw(st.integers(0, 3)) == 0:
        k *= Fraction(draw(st.sampled_from(LARGE_BASES))) ** draw(st.integers(-4, 4))
    return k


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

    @pytest.mark.parametrize("k", [65537 * 65539, 65537**2, Fraction(3 * 65539**2, 65537 * 4)])
    def test_primes_above_the_trial_bound(self, k):
        # 65537 and 65539 are primes past 2^16, so they stay in one cofactor
        for n in (5, 7):
            alpha, beta = split_scale(Fraction(k), n)
            assert alpha ** (n - 2) * beta ** 2 == k

    @settings(max_examples=300, deadline=None)
    @given(witness_scales(), st.sampled_from((5, 7, 9, 11, 13)))
    @example(Fraction(8), 5)
    @example(Fraction(6, 35), 9)
    @example(Fraction(-1, 4), 7)
    @example(Fraction(12), 13)
    @example(Fraction((2**61 - 1) ** 2), 5)
    @example(Fraction(1, 65537**2), 9)
    @example(Fraction(65537 * 65539), 7)  # a composite cofactor above the bound
    @example(Fraction(3 * 65539**2, 65537 * 4), 11)
    def test_values_match_the_valuation_split(self, k, n):
        # the same rationals, not only the same equation: every witness map,
        # and so every iso byte, is read from these values
        assert split_scale(k, n) == reference_split(k, n)


class TestIsoDecide:
    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_reflexive(self, spec):
        v = iso_decide(spec, spec)
        assert v.isomorphic
        assert v.map is not None

    def test_parameter_mismatch(self):
        v = iso_decide(make_spec(5, 1, 1), make_spec(7, 1, 1))
        assert not v.isomorphic and "parameters differ" in v.reason

    def test_isomorphic_exactly_when_both_certificates_are_set(self):
        a, b, c = (make_spec(5, 3, 2, B) for B in ([["1"], ["1"]], [["2"], ["1"]], [["1"], ["0"]]))
        pairs = [(a, b), (a, a), (c, a), (a, make_spec(7, 3, 2, [["1"], ["1"]]))]
        verdicts = [iso_decide(s1, s2) for s1, s2 in pairs]
        assert [v.isomorphic for v in verdicts] == [True, True, False, False]
        for v in verdicts:
            certified = v.equivalence is not None and v.map is not None
            assert v.isomorphic is certified is (v.reason is None)
        assert "isomorphic" not in IsoVerdict._fields
        assert isinstance(IsoVerdict.isomorphic, property)

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

    def test_class_sizes_refute_before_any_cell_is_made(self, monkeypatch):
        # beta columns (1,0), (0,1), (2,0), (1,1) against (1,0), (0,1), (1,1),
        # (1,2): class sizes 2,1,1 against 1,1,1,1
        def no_cells(columns):
            raise AssertionError("copy_cells called on a class negative")

        monkeypatch.setattr(iso, "copy_cells", no_cells)
        s1 = make_spec(5, 4, 2, [["2", "1"], ["0", "1"]])
        s2 = make_spec(5, 4, 2, [["1", "1"], ["1", "2"]])
        assert not iso_decide(s1, s2).isomorphic
        assert not iso_decide(s2, s1).isomorphic

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
        M = build_algebra_witness(s1, s2, v.equivalence)
        assert M == v.map


# -- the pruned search against the plain sweep ----------------------------------------


def reference_annihilator(g) -> Matrix:
    """(A | I) with A = -C^t, from the columns g of beta = (I | C), written
    out here so that the sweep shares no code with ``related_matrix``."""
    m, r = len(g), len(g[0])
    rows = [
        [-g[r + k][i] for i in range(r)] + [int(k == l) for l in range(m - r)] for k in range(m - r)
    ]
    return Matrix(rows, cols=m)


def scan_point(basis: list, m: int):
    """The sweep's own point picker: a point of the span of the sparse
    vectors ``basis`` with every coordinate nonzero, or None.

    Coordinate j vanishes on the whole span iff it vanishes on every basis
    vector; otherwise sum_k t^k v_k has coordinate j given by a nonzero
    polynomial in t, so scanning t = 1, 2, ... finds an all-nonzero point.
    """
    if not basis or any(all(j not in v for v in basis) for j in range(m)):
        return None
    for t in itertools.count(1):
        point = tuple(sum(t**k * v.get(j, 0) for k, v in enumerate(basis)) for j in range(m))
        if 0 not in point:
            return point


def sweep_solutions(M1: Matrix, ker2: list, perm) -> list:
    """The diagonals d, as sparse vectors, with M1 K annihilating every
    vector of ker2, K the monomial of perm and d, by the dense reference."""
    m = M1.cols
    eq_rows = [
        [M1.entry(row, perm[j]) * v[j] for j in range(m)] for v in ker2 for row in range(M1.rows)
    ]
    return [sparse(v) for v in reference_kernel(Matrix(eq_rows, cols=m))]


def sweep_equivalence(g1, g2):
    """Reference: try all m! copy permutations in lexicographic order, each
    with its own exact solve for the diagonal, and return the first hit.  The
    kernel, the diagonal solve and the pivots come from the textbook dense
    elimination, and the diagonal from ``scan_point``, so the reference shares
    no solve with the search."""
    m, r = len(g1), len(g1[0])
    if m == r:
        return EquivalenceWitness(Matrix([], cols=0), tuple(range(m)), (1,) * m)
    M1, M2 = reference_annihilator(g1), reference_annihilator(g2)
    ker2 = reference_kernel(M2)
    for perm in itertools.permutations(range(m)):
        point = scan_point(sweep_solutions(M1, ker2, perm), m)
        if point is None:
            continue
        prod = M1 * monomial(perm, point)
        _, piv = reference_rref(dense_rows(prod), m)
        E = pick_columns(M2, piv) * inverse(pick_columns(prod, piv))
        assert E * prod == M2
        return EquivalenceWitness(E, tuple(perm), point)
    return None


NONZERO = [Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2")]
WITH_ZEROS = [Fraction(0)] * 4 + NONZERO


def beta_columns(r: int, C) -> tuple:
    """The m columns of beta = (I | C) in Q^r, C r x (m - r): the r unit
    columns, then C's.  A zero column of C is kept, though no QuasiQnSpec
    allows one."""
    units = tuple(tuple(Fraction(int(i == p)) for i in range(r)) for p in range(r))
    return units + tuple(tuple(C[i][k] for i in range(r)) for k in range(len(C[0]) if C else 0))


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
    """Dense C whose kernel columns are pairwise non-proportional; r >= 2,
    since any two nonzero columns in Q^1 are proportional."""
    if r < 2:
        raise ValueError(f"r: pairwise non-proportional columns need r >= 2, got {r}")
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
        out.append((f"{label}-r{r}m{m}-{k}", beta_columns(r, C1), beta_columns(r, C2)))
    return out


def equivalence_battery() -> list:
    """Seeded (label, g1, g2) pairs of beta columns, degenerate and generic."""
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
        battery.append((f"m=r-{r}", beta_columns(r, []), beta_columns(r, [])))
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
    # r > m / 2: the search runs on the m - r dimensional columns of (A | I),
    # and zero rows of C give zero columns there
    for r, m in ((4, 5), (4, 6), (5, 6)):
        battery += _pairs(rng, "dual-generic", r, m, generic_C, 4, 2)
        battery += _pairs(rng, "dual-zeros", r, m, zeros, 4, 2)
    return battery


EQUIVALENCE_BATTERY = equivalence_battery()


def test_related_matrix_annihilates_beta():
    betas = [g for _, g1, g2 in EQUIVALENCE_BATTERY for g in (g1, g2)]
    assert any(not any(v) for g in betas for v in g)  # zero columns are covered
    for g in betas:
        m, r = len(g), len(g[0])
        M = related_matrix(g)
        assert (M.rows, M.cols) == (m - r, m)
        assert pick_columns(M, range(r, m)) == Matrix.identity(m - r)
        assert M * Matrix([list(v) for v in g], cols=r) == Matrix([[0] * r] * (m - r), cols=r)
        assert rank(M) == m - r


class TestPrunedSearchMatchesSweep:
    def test_battery_is_wide(self):
        outcomes = [monomial_equivalence(g1, g2) for _, g1, g2 in EQUIVALENCE_BATTERY]
        assert len(EQUIVALENCE_BATTERY) >= 100
        assert sum(isinstance(o, EquivalenceWitness) for o in outcomes) >= 40
        assert sum(o is None for o in outcomes) >= 30

    @pytest.mark.parametrize(
        "g1,g2", [pair[1:] for pair in EQUIVALENCE_BATTERY], ids=[pair[0] for pair in EQUIVALENCE_BATTERY]
    )
    def test_same_outcome_as_sweep(self, g1, g2):
        assert monomial_equivalence(g1, g2) == sweep_equivalence(g1, g2)


def test_the_diagonal_is_the_sum_of_one_vector_per_component(monkeypatch):
    # every permutation of the small battery pairs, admissible or not, is
    # handed to the diagonal solve: the sum of the kernel basis has no zero
    # coordinate exactly when the sweep's scan finds a point, and then equals
    # it, and on a positive the basis vectors' supports split range(m)
    bases = []

    def spy(rows, ncols):
        bases.append(sparse_nullspace(rows, ncols))
        return bases[-1]

    monkeypatch.setattr(iso, "sparse_nullspace", spy)
    counts = {"positive": 0, "negative": 0, "components": 0}
    for _, g1, g2 in (pair for pair in EQUIVALENCE_BATTERY if len(pair[1]) <= 5):
        m = len(g1)
        M1, ker2 = reference_annihilator(g1), reference_kernel(reference_annihilator(g2))
        for perm in itertools.permutations(range(m)):
            monkeypatch.setattr(iso, "_first_admissible_perm", lambda h1, h2, perm=perm: perm)
            point = scan_point(sweep_solutions(M1, ker2, perm), m)
            if point is None:
                with pytest.raises(AssertionError, match="exact solve rejects"):
                    monomial_equivalence(g1, g2)
                counts["negative"] += 1
                continue
            assert monomial_equivalence(g1, g2).scale == point
            assert sorted(j for v in bases[-1] for j in v) == list(range(m))
            counts["positive"] += 1
            counts["components"] += len(bases[-1]) > 1
    assert counts["positive"] >= 1000 and counts["negative"] >= 1000
    assert counts["components"] >= 100  # zero entries of C make several components


def rescaled(rng: random.Random, columns) -> list:
    """Each column times its own nonzero rational, drawn from rng."""
    def factor():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 45))

    return [tuple(f * x for x in v) for v, f in zip(columns, (factor() for _ in columns))]


@pytest.mark.parametrize(
    "label,g1,g2", EQUIVALENCE_BATTERY, ids=[pair[0] for pair in EQUIVALENCE_BATTERY]
)
def test_rescaled_columns_give_the_same_permutation(label, g1, g2):
    # A column's scale changes no admissible permutation, no cell and no
    # class, so the search may run on primitive integer columns; on beta's
    # columns and on M's, where the zero rows of C give zero columns
    rng = random.Random(label)
    m, r = len(g1), len(g1[0])
    sides = [(g1, g2)]
    if m > r:
        sides.append(tuple(
            [tuple(M.entry(i, p) for i in range(m - r)) for p in range(m)]
            for M in (related_matrix(g1), related_matrix(g2))
        ))
    for h1, h2 in sides:
        perm = iso._first_admissible_perm(h1, h2)
        assert iso._first_admissible_perm(rescaled(rng, h1), rescaled(rng, h2)) == perm


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
    assert v.equivalence == sweep_equivalence(spec1.beta, spec2.beta)
    M1, M2 = (reference_annihilator(spec.beta) for spec in (spec1, spec2))
    w = v.equivalence
    assert w.E * M1 * monomial(w.perm, w.scale) == M2
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


def test_generic_C_needs_two_tops():
    with pytest.raises(ValueError):
        generic_C(random.Random(0), 1, 3)


@st.composite
def moved_columns(draw):
    """Columns in Q^k, some of them zero or proportional, and their images
    A v_{pi(j)} s_j under a random invertible A, permutation pi and nonzero
    scales s."""
    k = draw(st.integers(2, 4))
    m = draw(st.integers(4, 7))
    values = st.sampled_from(WITH_ZEROS)
    columns = [tuple(draw(values) for _ in range(k)) for _ in range(m)]
    for p in draw(st.lists(st.integers(1, m - 1), max_size=2)):
        q = draw(st.integers(0, p - 1))
        columns[p] = tuple(x * draw(st.sampled_from(NONZERO)) for x in columns[q])
    for p in draw(st.sets(st.integers(0, m - 1), max_size=1)):
        columns[p] = (Fraction(0),) * k
    A = [[draw(values) for _ in range(k)] for _ in range(k)]
    assume(rank(Matrix(A, cols=k)) == k)
    perm = draw(st.permutations(range(m)))
    scales = draw(st.lists(st.sampled_from(NONZERO), min_size=m, max_size=m))
    image = [
        tuple(s * sum(A[i][l] * columns[p][l] for l in range(k)) for i in range(k))
        for p, s in zip(perm, scales)
    ]
    return columns, image, perm


def reference_copy_cells(columns) -> tuple:
    """copy_cells with Fraction arithmetic throughout: the reduced rows of
    each centre by textbook Gauss-Jordan, each other column projected along
    them in Q^k, its two free coordinates scaled to primitive integers, and
    j reduced by Fraction."""
    m, k = len(columns), len(columns[0]) if columns else 0
    cells = [[] for _ in columns]
    for centre in itertools.combinations(range(m), k - 2) if k >= 2 else ():
        rows, pivots = reference_rref([columns[c] for c in centre], k)
        if len(pivots) < k - 2:
            continue
        f, g = (i for i in range(k) if i not in pivots)
        rest, points = [p for p in range(m) if p not in centre], {}
        for p in rest:
            w = [Fraction(x) for x in columns[p]]
            for row, lead in zip(rows, pivots):
                if y := w[lead]:
                    w = [a - y * b for a, b in zip(w, row)]
            u, v = w[f], w[g]
            h = Fraction(
                math.gcd(u.numerator, v.numerator), math.lcm(u.denominator, v.denominator)
            )
            points[p] = (u, v) if h == 0 else (int(u / h), int(v / h))
        for four in itertools.combinations(rest, 4):
            pairs = itertools.combinations([points[q] for q in four], 2)
            brackets = [s[0] * t[1] - s[1] * t[0] for s, t in pairs]
            _, pb, pc, ab, ac, _ = brackets
            x, y, zeros = pb * ac, pc * ab, brackets.count(0)
            value = (-zeros, 0)
            if not zeros:
                j = Fraction((x * x - x * y + y * y) ** 3, (x * y * (x - y)) ** 2)
                value = j.as_integer_ratio()
            for q in centre + four:
                cells[q].append((q in centre, value))
    return tuple(tuple(sorted(cell)) for cell in cells)


class TestCopyCells:
    def test_integer_cells_match_the_fraction_reference(self):
        # copy_cells clears each column's denominators and projects
        # fraction-free; the records must be those of exact rational projection
        rng = random.Random(2020)
        values = WITH_ZEROS + [Fraction(5, 4), Fraction(-7, 6)]
        for _ in range(300):
            k = rng.randint(1, 5)
            m = rng.randint(k, 10)
            columns = [tuple(rng.choice(values) for _ in range(k)) for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                columns[1] = tuple(rng.choice(NONZERO) * x for x in columns[0])
            columns = [tuple(map(scalar, v)) for v in columns]
            assert copy_cells(columns) == reference_copy_cells(columns), columns

    @settings(max_examples=60, deadline=None)
    @given(moved_columns())
    def test_cells_move_with_the_copies(self, moved):
        # a cell that some GL or monomial map changes would refute a
        # positive with no certificate
        columns, image, perm = moved
        before, after = copy_cells(columns), copy_cells(image)
        assert all(after[j] == before[p] for j, p in enumerate(perm))

    def test_plane_records_are_j_invariants_of_cross_ratios(self):
        points = [(1, 0), (0, 1), (1, 1), (1, -2), (3, 1)]
        columns = [tuple(map(Fraction, v)) for v in points]
        det = lambda u, v: u[0] * v[1] - u[1] * v[0]  # noqa: E731
        expected = []
        for p, a, b, c in itertools.combinations(columns, 4):
            lam = det(p, b) * det(a, c) / (det(p, c) * det(a, b))
            j = (lam * lam - lam + 1) ** 3 / (lam * (lam - 1)) ** 2
            expected.append((False, j.as_integer_ratio()))
        cells = copy_cells(columns)
        assert sorted(record for cell in cells for record in cell) == sorted(expected * 4)
        assert all(len(cell) == 4 for cell in cells)  # each point is in four 4-sets

    def test_vanishing_brackets_are_counted(self):
        # copies 0 and 1 are proportional and copy 4 is zero
        columns = [(1, 2), (-2, -4), (0, 1), (1, 1), (0, 0)]
        cells = copy_cells([tuple(map(Fraction, v)) for v in columns])
        assert cells[4] == ((False, (-4, 0)),) * 2 + ((False, (-3, 0)),) * 2
        assert cells[0] == ((False, (-4, 0)),) * 2 + ((False, (-3, 0)), (False, (-1, 0)))

    def test_cells_split_the_scale_guard_pairs(self):
        def cells(r, B):
            beta = [tuple(Fraction(int(i == j)) for i in range(r)) for j in range(r)]
            beta += [tuple(Fraction(B[i][k]) for i in range(r)) for k in range(len(B[0]))]
            return sorted(copy_cells(beta))

        assert cells(2, TestScaleGuard.CROSS_B1) != cells(2, TestScaleGuard.CROSS_B2)
        assert cells(3, TestScaleGuard.R3_B1) != cells(3, TestScaleGuard.R3_B2)

    def test_no_cells_below_the_plane(self):
        assert copy_cells([(1,), (-1,), (Fraction(0),)]) == ((), (), ())
        assert copy_cells([(), ()]) == ((), ())


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

    # Generic gluings with r > m / 2: the search over beta's columns pinned A
    # only after r + 1 positions, and the negatives took about 13 s, 47 s and
    # over two minutes; on the (m - r)-dimensional side cells refute them.
    @pytest.mark.parametrize("r", [4, 5, 6])
    @pytest.mark.parametrize("isomorphic", [False, True], ids=["no", "yes"])
    def test_generic_large_r_within_two_seconds(self, r, isomorphic):
        rng = random.Random(800 + r)
        B1 = generic_C(rng, r, 8)
        B2 = relabel(rng, r, B1) if isomorphic else generic_C(rng, r, 8)
        spec1, spec2 = make_spec(5, 8, r, B1), make_spec(5, 8, r, B2)
        start = time.perf_counter()
        v = iso_decide(spec1, spec2)
        elapsed = time.perf_counter() - start
        assert v.isomorphic is isomorphic
        assert elapsed < 2.0, f"{elapsed:.2f}s"

    # The default cap admits m = 12; generic pairs there took about 0.7 s on
    # both sides (r = 6, about 3 s, is a ladder rung only).
    @pytest.mark.parametrize("r", [4, 8])
    @pytest.mark.parametrize("isomorphic", [False, True], ids=["no", "yes"])
    def test_generic_m12_within_five_seconds(self, r, isomorphic):
        rng = random.Random(1200 + r)
        B1 = generic_C(rng, r, 12)
        B2 = relabel(rng, r, B1) if isomorphic else generic_C(rng, r, 12)
        spec1, spec2 = make_spec(5, 12, r, B1), make_spec(5, 12, r, B2)
        start = time.perf_counter()
        v = iso_decide(spec1, spec2)
        elapsed = time.perf_counter() - start
        assert v.isomorphic is isomorphic
        assert elapsed < 5.0, f"{elapsed:.2f}s"


def _class_gluing(k: int, c: int):
    """r = 2 with beta's columns e_1, e_2, (1,1) and (1,c), k copies each."""
    columns = [(1, 0)] * (k - 1) + [(0, 1)] * (k - 1) + [(1, 1)] * k + [(1, c)] * k
    return make_spec(5, 4 * k, 2, [[x for x, _ in columns], [y for _, y in columns]])


@pytest.mark.parametrize("c2,isomorphic", [(3, False), (2, True)], ids=["negative", "positive"])
def test_equal_copies_are_tried_once_per_class(monkeypatch, c2, isomorphic):
    # Every ordering of the four copies in each class used to be refuted
    # separately: about 50 s for the negative at m = 16.
    monkeypatch.setattr(iso, "MAX_COPIES", 16)
    spec1, spec2 = _class_gluing(4, 2), _class_gluing(4, c2)
    start = time.perf_counter()
    v = iso_decide(spec1, spec2)
    elapsed = time.perf_counter() - start
    assert v.isomorphic is isomorphic
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_scales_rechecked_only_where_the_solutions_change(monkeypatch):
    # A child whose rows add no pivot keeps its parent's solutions, so only
    # the new position's scale can newly vanish; re-checking every position
    # cost m(m+1)/2 = 36 reductions on this positive at m = 8.
    calls = []
    reduce = iso._reduce

    def counted(echelon, row):
        calls.append(1)
        return reduce(echelon, row)

    monkeypatch.setattr(iso, "_reduce", counted)
    rng = random.Random(804)
    B1 = generic_C(rng, 4, 8)
    spec1, spec2 = make_spec(5, 8, 4, B1), make_spec(5, 8, 4, relabel(rng, 4, B1))
    assert iso_decide(spec1, spec2).isomorphic
    assert len(calls) <= 18
