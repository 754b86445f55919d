"""Isomorphism testing for N(Q_n, m, r).

Two gluings with the same (n, m, r) are isomorphic exactly when their
annihilator matrices M_i = (-B_i^t | I) are monomially equivalent:
E M_1 K = M_2 for an invertible E and a monomial K.  The rows of the kernel
basis (I ; B_i^t) of M_i are the columns of beta_i = (I | B_i), so no solve
is needed to find them.  With g1_p and g2_j those columns, a copy permutation pi
admits such a K exactly when A g1_{pi(j)} = d_j g2_j for some A in GL_r and
nonzero d_j.
The permutation is found by a depth-first search over copies in
lexicographic order, pruned by necessary conditions on A (Leon-style
backtracking in the code-equivalence sense), after a screen by the sizes of
the classes of proportional columns.  An exact linear solve then fixes the
diagonal scales, and every positive answer is certified by an explicit
algebra isomorphism.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .automorphisms import extend_endomorphism
from .builder import (
    QuasiQnSpec,
    RelatedMatrix,
    build_quasi,
    proportional_classes,
    related_matrix_of,
)
from .derivations import GeneratorImages
from .liecore import bracket_preserving
from .linalg import (
    Matrix,
    MonomialMatrix,
    ONE,
    ZERO,
    _back_substitute,
    _insert,
    _kernel,
    _reduce,
    inverse,
    rank,
    sparse_nullspace,
)

DEFAULT_MAX_COPIES = 8


class SearchTooLarge(RuntimeError):
    """The copy-permutation search was refused because m exceeds the cap; a
    search that never pins A can still visit on the order of m! nodes.  Raise
    the cap via the QFLA_MAX_M environment variable to force it."""


class BadSearchCap(ValueError):
    """The QFLA_MAX_M environment variable is not an integer."""


@dataclass(frozen=True)
class EquivalenceWitness:
    """Certificate for E M1 K = M2: the invertible factor and the monomial."""

    E: Matrix
    K: MonomialMatrix


@dataclass(frozen=True)
class NotEquivalent:
    reason: str


def _max_copies() -> int:
    raw = os.environ.get("QFLA_MAX_M")
    if not raw:
        return DEFAULT_MAX_COPIES
    try:
        return int(raw)
    except ValueError:
        raise BadSearchCap(f"QFLA_MAX_M: expected an integer, got {raw!r}") from None


def _generic_nonzero_point(basis: List[dict], m: int) -> Optional[tuple]:
    """A point of the span of sparse vectors with every coordinate nonzero,
    or None.

    Coordinate j vanishes on the whole span iff it vanishes on every basis
    vector; otherwise sum_k t^k v_k has coordinate j given by a nonzero
    polynomial in t, so scanning small integers t finds an all-nonzero point.
    """
    if not basis:
        return None
    for j in range(m):
        if all(j not in v for v in basis):
            return None
    t = 1
    while True:
        point = tuple(
            sum((Fraction(t) ** k) * v.get(j, ZERO) for k, v in enumerate(basis))
            for j in range(m)
        )
        if all(x != 0 for x in point):
            return point
        t += 1


def _kernel_columns(R: RelatedMatrix) -> List[tuple]:
    """The rows of the kernel basis (I ; -A) of R = (A | I), which are the
    columns of beta = (I | B)."""
    r = R.r
    units = [tuple(ONE if i == p else ZERO for i in range(r)) for p in range(r)]
    return units + [tuple(-R.matrix.entry(k, i) for i in range(r)) for k in range(R.m - r)]


def _first_admissible_perm(g1: List[tuple], g2: List[tuple], r: int) -> Optional[tuple]:
    """The lexicographically first pi with A g1_{pi(j)} = d_j g2_j for some A
    in GL_r and nonzero d_j, or None.

    Target positions j are filled in order with source copies p in increasing
    order.  A node keeps the constraints "A g1_p is a multiple of g2_j" of its
    assignments and is pruned once some d_j vanishes on all their solutions.
    When the solutions are one line, A is pinned up to scale and each
    remaining j takes the smallest unused p with A g1_p proportional to g2_j.
    Every pruning is a necessary condition, so no admissible permutation that
    precedes the answer is skipped.  At each position only the smallest
    unused copy of each proportional class of g1 is tried: swapping two
    copies of one class keeps a permutation admissible, so a larger copy of
    a class that failed there fails too.
    """
    m = len(g1)
    class_of = {p: k for k, members in enumerate(proportional_classes(g1)) for p in members}
    size = r * r  # entry (i, k) of A is unknown i * r + k
    leads = [next((i for i, x in enumerate(v) if x != 0), None) for v in g2]

    def multiple_rows(p: int, j: int) -> list:
        # u . (A g1_p) = 0 for every u orthogonal to g2_j
        l, g = leads[j], g2[j]
        if l is None:
            annihilator = [{i: ONE} for i in range(r)]
        else:
            annihilator = [{i: g[l], l: -g[i]} for i in range(r) if i != l]
        return [
            {i * r + k: a * b for i, a in u.items() if a for k, b in enumerate(g1[p]) if b}
            for u in annihilator
        ]

    def scale_vanishes(pivots: dict, p: int, j: int) -> bool:
        # d_j is coordinate leads[j] of A g1_p, up to the factor g2_j[lead]
        l = leads[j]
        if l is None:
            return False
        return not _reduce(pivots, {l * r + k: g1[p][k] for k in range(r) if g1[p][k]})

    perm: List[int] = []

    def complete(pivots: dict) -> Optional[tuple]:
        (x,) = _kernel(_back_substitute(pivots), size)  # A, up to scale
        image = [
            tuple(sum(x.get(i * r + k, ZERO) * v[k] for k in range(r)) for i in range(r))
            for v in g1
        ]
        classes = proportional_classes(image + g2)  # g2_j is entry m + j
        out = list(perm)
        for j in range(len(perm), m):
            members = next(c for c in classes if m + j in c)
            p = next((p for p in members if p < m and p not in out), None)
            if p is None:
                return None
            out.append(p)
        return tuple(out)

    def search(pivots: dict) -> Optional[tuple]:
        j = len(perm)
        if j == m:
            return tuple(perm)
        tried = set()
        for p in range(m):
            if p in perm or class_of[p] in tried:
                continue
            tried.add(class_of[p])
            child = _insert(pivots, multiple_rows(p, j))
            perm.append(p)
            if not any(scale_vanishes(child, q, k) for k, q in enumerate(perm)):
                found = complete(child) if len(child) == size - 1 else search(child)
                if found is not None:
                    return found
            perm.pop()
        return None

    return search({})


def monomial_equivalence(
    R1: RelatedMatrix, R2: RelatedMatrix
) -> Union[EquivalenceWitness, NotEquivalent]:
    """Find (E, K) with E R1 K = R2, or explain why none exists.

    K is monomial, so E exists for a given K exactly when K maps ker(R2) onto
    ker(R1); that is linear in the diagonal of K once its permutation is
    fixed.  The two kernels must first have equal sizes of classes of
    proportional columns.  The lexicographically first admissible
    permutation is then found by a pruned depth-first search, and the exact
    solve for the diagonal runs on that permutation alone, so the witness is
    the one a sweep over all m! permutations in lexicographic order returns.
    """
    if (R1.m, R1.r) != (R2.m, R2.r):
        raise ValueError("annihilators must share (m, r)")
    m, r = R1.m, R1.r
    cap = _max_copies()
    if m > cap:
        raise SearchTooLarge(f"m = {m} exceeds the permutation search cap {cap}")
    if m == r:
        return EquivalenceWitness(Matrix([], cols=0), MonomialMatrix.identity(m))
    M1, M2 = R1.matrix, R2.matrix
    g1, g2 = _kernel_columns(R1), _kernel_columns(R2)
    perm = None
    if sorted(map(len, proportional_classes(g1))) == sorted(map(len, proportional_classes(g2))):
        perm = _first_admissible_perm(g1, g2, r)
    if perm is None:
        return NotEquivalent(
            "no copy permutation makes the annihilator kernels match under a monomial map"
        )
    # K's diagonal d must make M1 K annihilate each kernel vector of M2
    eq_rows = [
        {j: M1.entry(k, perm[j]) * g2[j][c] for j in range(m)}
        for c in range(r)
        for k in range(m - r)
    ]
    point = _generic_nonzero_point(sparse_nullspace(eq_rows, m), m)
    if point is None:
        raise AssertionError("the pruned search returned a permutation the exact solve rejects")
    K = MonomialMatrix(m, perm, point)
    prod = M1 * K.densify()
    # E M1 K = M2 = (A2 | I), so E inverts the last m - r columns of M1 K
    E = inverse(prod.submatrix(range(m - r), range(r, m)))
    if E * prod != M2:
        raise AssertionError("kernel match did not yield a row-space match")
    return EquivalenceWitness(E, K)


# -- algebra-level certificates ----------------------------------------------------


def _prime_valuations(k: int) -> dict:
    """Prime factorization {p: exponent} of a positive integer, trial division."""
    out = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            out[p] = out.get(p, 0) + 1
            k //= p
        p += 1 if p == 2 else 2
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def split_scale(k: Fraction, n: int) -> Tuple[Fraction, Fraction]:
    """Rational (alpha, beta) with alpha^{n-2} beta^2 = k, k nonzero, n odd.

    Solved prime by prime: (n-2) a_p + 2 b_p = v_p(k) with a_p = v_p mod 2.
    The sign of k goes into alpha, which is safe because n - 2 is odd.
    """
    if k == 0:
        raise ValueError("scale must be nonzero")
    vals: dict = {}
    for p, v in _prime_valuations(abs(k.numerator)).items():
        vals[p] = vals.get(p, 0) + v
    for p, v in _prime_valuations(k.denominator).items():
        vals[p] = vals.get(p, 0) - v
    alpha = ONE if k > 0 else -ONE
    beta = ONE
    for p, v in vals.items():
        a = v % 2
        b = (v - (n - 2) * a) // 2
        alpha *= Fraction(p) ** a
        beta *= Fraction(p) ** b
    return alpha, beta


def build_algebra_witness(
    spec1: QuasiQnSpec, spec2: QuasiQnSpec, K: MonomialMatrix
) -> Matrix:
    """Turn an annihilator certificate into an explicit isomorphism matrix.

    Column j of K pairs copy pi(j)+1 of the source with copy j+1 of the
    target and prescribes the scale its top vector must pick up; generators
    are mapped by e_{s0} -> alpha_s e_{sigma(s),0}, e_{s1} -> beta_s
    e_{sigma(s),1} with alpha^{n-2} beta^2 equal to that scale, and the rest
    of the map follows from the bracket recurrences.
    """
    m, n = spec1.m, spec1.n
    sigma = [0] * (m + 1)  # sigma[s] = target copy of source copy s
    for j in range(m):
        sigma[K.perm[j] + 1] = j + 1
    e0, e1 = [], []
    for s in range(1, m + 1):
        alpha, beta = split_scale(K.scale[sigma[s] - 1], n)
        e0.append({spec2.gen_index(sigma[s], 0): alpha})
        e1.append({spec2.gen_index(sigma[s], 1): beta})
    images = GeneratorImages(tuple(e0), tuple(e1), spec2.dim)
    return extend_endomorphism(spec1, build_quasi(spec2), images)


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of the isomorphism decision.

    On a positive answer both certificates are present and verified: the
    matrix pair (E, K) and the algebra map sending the first basis to the
    second.
    """

    isomorphic: bool
    reason: Optional[str] = None
    equivalence: Optional[EquivalenceWitness] = None
    map: Optional[Matrix] = None


def iso_decide(spec1: QuasiQnSpec, spec2: QuasiQnSpec) -> IsoVerdict:
    """Decide whether two gluings give isomorphic algebras."""
    if (spec1.n, spec1.m, spec1.r) != (spec2.n, spec2.m, spec2.r):
        return IsoVerdict(
            False,
            reason=(
                f"parameters differ: ({spec1.n},{spec1.m},{spec1.r}) vs "
                f"({spec2.n},{spec2.m},{spec2.r})"
            ),
        )
    outcome = monomial_equivalence(related_matrix_of(spec1), related_matrix_of(spec2))
    if isinstance(outcome, NotEquivalent):
        return IsoVerdict(False, reason=outcome.reason)
    witness = build_algebra_witness(spec1, spec2, outcome.K)
    L1, L2 = build_quasi(spec1), build_quasi(spec2)
    if rank(witness) != L1.dim or not bracket_preserving(L1, L2, witness):
        raise AssertionError("certificate construction produced a non-isomorphism")
    return IsoVerdict(True, equivalence=outcome, map=witness)
