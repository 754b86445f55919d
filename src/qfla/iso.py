"""Isomorphism testing for N(Q_n, m, r).

Two gluings with the same (n, m, r) are isomorphic exactly when their
annihilator matrices M_i = builder.related_matrix(g_i) = (-B_i^t | I) are
monomially equivalent: E M_1 K = M_2 for an invertible E and a monomial K.
The search reads the gluings' own data, the columns g1_p and g2_j of
beta_i = (I | B_i), which are the rows of the kernel basis (I ; B_i^t) of
M_i: a copy permutation pi admits such a K exactly when
A g1_{pi(j)} = d_j g2_j for some A in GL_r and nonzero d_j.  The columns of
M_i, the dual codes, admit the same pi with inverted d_j, so the search runs
in dimension k = min(r, m - r).
It is a depth-first search over copies in lexicographic order, pruned by
necessary conditions on A (Leon-style backtracking in the code-equivalence
sense), after a screen by the sizes of the classes of proportional columns
and by copy cells, j-invariants of fours of copies projected from k - 2
others (builder.copy_cells), which every admissible pi keeps: Leon's
partition refinement and Sendrier's support splitting.  An exact linear
solve then fixes the diagonal scales, and every positive answer is
certified by an explicit algebra isomorphism.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .automorphisms import extend_endomorphism, make_scaling_automorphism
from .builder import (
    BadInput, QuasiQnSpec, _normalised, build_quasi, copy_cells, proportional_classes,
    related_matrix,
)
from .liecore import is_isomorphism
from .linalg import Matrix, Scalar, _insert, _reduce, inverse, sparse_nullspace

# The largest m the copy-permutation search takes: a search that never pins
# A can still visit on the order of m! nodes.
MAX_COPIES = 12


class EquivalenceWitness(NamedTuple):
    """Certificate for E M1 K = M2: the invertible factor E and the monomial
    K, whose column j holds scale[j] in row perm[j] (0-based) and is zero
    elsewhere."""

    E: Matrix
    perm: tuple
    scale: tuple


def _first_admissible_perm(g1: List[tuple], g2: List[tuple]) -> Optional[tuple]:
    """The lexicographically first pi with A g1_{pi(j)} = d_j g2_j for some A
    in GL_r and nonzero d_j, or None.

    Every admissible pi keeps the sizes of the classes of proportional
    columns and sends cells (builder.copy_cells) to cells: cells1[pi(j)] ==
    cells2[j].  So these must agree, and position j, filled in order, tries
    only copies p of cell cells2[j], in increasing order.  A node keeps the
    constraints "A g1_p is a multiple of g2_j" of its assignments and is
    pruned once some d_j vanishes on all their solutions.  Once the
    solutions are one line, A is pinned up to scale: a copy p with A g1_p
    not proportional to g2_j leaves only A = 0, every d_j vanishes, and that
    child is pruned, so the same search completes the match.  Every
    pruning is a necessary condition, so no admissible permutation that
    precedes the answer is skipped.  Only the smallest unused copy of each
    proportional class of g1 is tried: swapping two copies of one class
    keeps a permutation admissible.  Rescaling a column changes none of
    these conditions, so a column and its multiples give the same pi.
    """
    m, r = len(g1), len(g1[0])
    classes1 = proportional_classes(g1)
    if sorted(map(len, classes1)) != sorted(map(len, proportional_classes(g2))):
        return None  # before any cell is made
    cells1, cells2 = copy_cells(g1), copy_cells(g2)
    if sorted(cells1) != sorted(cells2):
        return None
    class_of = {p: k for k, members in enumerate(classes1) for p in members}
    leads = [next((i for i, x in enumerate(v) if x != 0), None) for v in g2]

    def multiple_rows(p: int, j: int) -> list:
        # u . (A g1_p) = 0 for every u orthogonal to g2_j; A_ik is unknown i * r + k
        l, g = leads[j], g2[j]
        if l is None:
            annihilator = [{i: 1} for i in range(r)]
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

    def children(pivots: dict):
        # the pivots of each unpruned child of the node perm, in order; perm
        # holds the child's assignment while it is searched
        j, tried = len(perm), set()
        for p in range(m):
            if p in perm or class_of[p] in tried or cells1[p] != cells2[j]:
                continue
            tried.add(class_of[p])
            child = _insert(pivots, multiple_rows(p, j))
            perm.append(p)
            # with no new pivot the solutions are the parent's: only d_j can vanish
            checked = enumerate(perm) if len(child) > len(pivots) else [(j, p)]
            if not any(scale_vanishes(child, q, k) for k, q in checked):
                yield child
            perm.pop()

    # depth first on an explicit stack of the open nodes' child iterators,
    # so no function refers to itself and the search leaves no cycle
    stack = [children({})]
    while stack and len(perm) < m:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(children(child))
    return tuple(perm) if stack else None


def monomial_equivalence(g1: Sequence[tuple], g2: Sequence[tuple]) -> Optional[EquivalenceWitness]:
    """Find E and the monomial K, as its (perm, scale), with E M1 K = M2,
    M_i = related_matrix(g_i), from the m columns g_i of two betas in Q^r
    (the same m and r: ``iso_decide`` compares (n, m, r) first), or None
    when none exists.

    K is monomial, so E exists for a given K exactly when K maps ker(M2)
    onto ker(M1), whose bases have the columns of beta as rows; that is
    linear in the diagonal of K once its permutation is fixed.  The first
    admissible permutation is found by a pruned search on beta's columns or,
    when m - r < r, on M's columns in Q^(m-r): a code and its dual admit the
    same permutations.  The search reads them as primitive integer vectors
    (builder._normalised): rescaling a column changes the d_j it needs but
    not whether a nonzero one exists, nor any cell or class, so the
    permutation is the same and the search's solves stay in ``int``.  The
    exact solve for the diagonal runs on that permutation alone, with the
    original columns, so the witness is the one a sweep over all m!
    permutations in lexicographic order returns.

    K's diagonal is the sum of the solve's canonical kernel basis.  Its
    solutions are the d with A g1_{perm(j)} = d_j g2_j for an r x r map A.
    Let d* be one with no zero coordinate, as the permutation is admissible;
    its A* is invertible, because the vectors d*_j g2_j span Q^r.  For any
    solution (d, A), each d*_j g2_j is an eigenvector of A A*^-1 with
    eigenvalue d_j / d*_j.  On a connected component of the matroid of the
    g2_j these are all equal: two different ones would split the component's
    span into a direct sum.  The components' spans form a direct sum, so the
    kernel is one line per component (a zero column is one, its d_j free).
    ``linalg._kernel``'s vector is 1 at its free column and 0 at the others,
    so it gives one vector per component, holding that component's scales:
    the supports are disjoint and cover every copy.
    """
    m, r = len(g1), len(g1[0])
    if m > MAX_COPIES:
        raise BadInput(f"m: {m} exceeds the permutation search cap {MAX_COPIES}")
    M1, M2 = related_matrix(g1), related_matrix(g2)
    h1, h2 = g1, g2
    if m - r < r:  # M's columns admit the same permutations, with inverted scales
        h1, h2 = ([tuple(M.entry(i, p) for i in range(m - r)) for p in range(m)] for M in (M1, M2))
    perm = _first_admissible_perm(*([_normalised(v) for v in h] for h in (h1, h2)))
    if perm is None:
        return None
    # K's diagonal d must make M1 K annihilate each kernel vector of M2
    eq_rows = [
        {j: x for j in range(m) if (x := M1.entry(k, perm[j]) * g2[j][c])}
        for c in range(r)
        for k in range(m - r)
    ]
    basis = sparse_nullspace(eq_rows, m)
    scale = tuple(sum(v.get(j, 0) for v in basis) for j in range(m))
    if 0 in scale:  # as is every coordinate when the basis is empty
        raise AssertionError("the pruned search returned a permutation the exact solve rejects")
    # column j of M1 K is scale[j] times column perm[j] of M1
    M1_columns = M1.columns()
    columns = [{i: x * d for i, x in M1_columns[p].items()} for p, d in zip(perm, scale)]
    # E M1 K = M2 = (A2 | I), so E inverts the last m - r columns of M1 K
    E = inverse(Matrix.from_columns(columns[r:], m - r))
    if E * Matrix.from_columns(columns, m - r) != M2:
        raise AssertionError("kernel match did not yield a row-space match")
    return EquivalenceWitness(E, perm, scale)


# -- algebra-level certificates ----------------------------------------------------


def _square_split(k: int) -> Tuple[int, int]:
    """(s, t) with s t^2 = k > 0: t collects p^(v_p // 2) for the primes p
    below 2^16 by trial division, and s the rest, times whatever is left of
    k above that bound, prime or not."""
    s = t = 1
    p = 2
    while p * p <= k and p < 1 << 16:
        while k % p == 0:
            k //= p
            if k % p:
                s *= p
                break
            k //= p
            t *= p
        p += 1 if p == 2 else 2
    return s * k, t


def split_scale(k: Scalar, n: int) -> Tuple[int, Fraction]:
    """Rational (alpha, beta) with alpha^{n-2} beta^2 = k, for n odd and k
    nonzero, as are a witness's scales.  With k = +-s t^2, s a positive
    integer and t rational, alpha = +-s and beta = t s^{-(n-3)/2} give
    alpha^{n-2} beta^2 = s^{n-2} t^2 / s^{n-3} = k: the sign of k goes into
    alpha, which is safe because n - 2 is odd."""
    s1, t1 = _square_split(abs(k.numerator))
    s2, t2 = _square_split(k.denominator)
    s = s1 * s2  # k = +-s (t1 / (s2 t2))^2
    return (s if k > 0 else -s), Fraction(t1, s2 * t2 * s ** ((n - 3) // 2))


def build_algebra_witness(
    spec1: QuasiQnSpec, spec2: QuasiQnSpec, w: EquivalenceWitness
) -> Matrix:
    """Turn an annihilator certificate into an explicit isomorphism matrix.

    Column j of K pairs copy perm[j]+1 of the source with copy j+1 of the
    target and prescribes the scale[j] its top vector must pick up; generators
    are mapped by e_{s0} -> alpha_s e_{sigma(s),0}, e_{s1} -> beta_s
    e_{sigma(s),1} with alpha^{n-2} beta^2 equal to that scale, and the rest
    of the map follows from the bracket recurrences.
    """
    m, n = spec1.m, spec1.n
    sigma = [0] * (m + 1)  # sigma[s] = target copy of source copy s
    for j in range(m):
        sigma[w.perm[j] + 1] = j + 1
    alphas, betas = zip(*(split_scale(w.scale[sigma[s] - 1], n) for s in range(1, m + 1)))
    images = make_scaling_automorphism(spec2, alphas, betas, sigma[1:])
    return extend_endomorphism(spec1, build_quasi(spec2), images)


class IsoVerdict(NamedTuple):
    """Outcome of the isomorphism decision: a ``reason`` for a "no", or both
    certificates of a "yes", verified: the matrix pair (E, K) and the
    algebra map sending the first basis to the second.
    """

    reason: Optional[str] = None
    equivalence: Optional[EquivalenceWitness] = None
    map: Optional[Matrix] = None

    @property
    def isomorphic(self) -> bool:
        return self.equivalence is not None


def iso_decide(spec1: QuasiQnSpec, spec2: QuasiQnSpec) -> IsoVerdict:
    """Decide whether two gluings give isomorphic algebras."""
    if (spec1.n, spec1.m, spec1.r) != (spec2.n, spec2.m, spec2.r):
        return IsoVerdict(
            f"parameters differ: ({spec1.n},{spec1.m},{spec1.r}) vs "
            f"({spec2.n},{spec2.m},{spec2.r})"
        )
    outcome = monomial_equivalence(spec1.beta, spec2.beta)
    if outcome is None:
        return IsoVerdict(
            "no copy permutation makes the annihilator kernels match under a monomial map"
        )
    witness = build_algebra_witness(spec1, spec2, outcome)
    if not is_isomorphism(build_quasi(spec1), build_quasi(spec2), witness):
        raise AssertionError("certificate construction produced a non-isomorphism")
    return IsoVerdict(equivalence=outcome, map=witness)
