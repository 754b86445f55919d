"""Derivations of N(Q_n, m, r).

A derivation is determined by where it sends the generators e_{s0}, e_{s1} of
each copy; the remaining columns follow from the Leibniz rule.  This module
provides that extension, a closed-form test for when generator images extend
to a derivation, a brute-force kernel oracle for cross-validation, and
explicit torus / nilpotent bases of the derivation algebra by their images.
Generator images are taken as given: the functions here assume one image pair
per copy, in the shape's dimension, and check neither (see ``GeneratorImages``).
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .builder import QuasiQnSpec, build_quasi, proportional_classes, support_components
from .liecore import LieAlgebra, _generator_indices
from .linalg import Matrix, _combine, _subtract, sparse_nullspace


class GeneratorImages(NamedTuple):
    """Proposed images of the generators: e0[s-1] and e1[s-1] are the sparse
    image vectors {index: scalar} of e_{s0} and e_{s1} (copies 1-based),
    under a derivation or an endomorphism alike.  They must come one pair per
    copy of the shape they are used with, in a target of the shape's
    dimension; ``jsonio.candidate_from_json`` checks both on a file."""

    e0: tuple
    e1: tuple


def extend_images(
    shape: QuasiQnSpec,
    images: GeneratorImages,
    bracket_image: Callable[[int, int, dict, dict], dict],
) -> Matrix:
    """Extend generator images to every column of the ``shape`` basis.

    Walks e_{st} = [e_{s0}, e_{s,t-1}] for 2 <= t <= n-1, then
    e_{tn} = -[e_{t1}, e_{t,n-1}] for the tops.  ``bracket_image(i, j, x, y)``
    gives the image of [e_i, e_j] from the images x, y of e_i, e_j, all as
    sparse vectors: the Leibniz rule for a derivation, the target bracket of x
    and y for a homomorphism.  Both vanish when x and y do, so a copy whose two
    images are zero, and a top whose two source columns are zero, stay zero
    without a call: 2(n-1) calls per copy that carries an image, at most.
    """
    n = shape.n
    cols: List[dict] = [{}] * shape.dim
    for s in range(1, shape.m + 1):
        head = shape.gen_index(s, 0)
        cols[head], cols[head + 1] = images.e0[s - 1], images.e1[s - 1]
        if not (cols[head] or cols[head + 1]):
            continue
        for t in range(2, n):
            cols[head + t] = bracket_image(head, head + t - 1, cols[head], cols[head + t - 1])
    for t in range(1, shape.r + 1):
        one, last = shape.gen_index(t, 1), shape.gen_index(t, n - 1)
        if cols[one] or cols[last]:
            w = bracket_image(one, last, cols[one], cols[last])
            cols[shape.top_index(t)] = {k: -x for k, x in w.items()}
    return Matrix.from_columns(cols, shape.dim)


def _leibniz(L: LieAlgebra, i: int, j: int, di: dict, dj: dict) -> dict:
    """[d e_i, e_j] + [e_i, d e_j] from the sparse images di, dj."""
    out = L.bracket(di, {j: 1})
    _subtract(out, -1, L.bracket({i: 1}, dj))
    return out


def extend_derivation_candidate(spec: QuasiQnSpec, images: GeneratorImages) -> Matrix:
    """Extend generator images to a linear map on all of N(Q_n, m, r) by the
    Leibniz rule d[x, y] = [dx, y] + [x, dy] (see ``extend_images``).  The
    result is a derivation iff ``derivation_conditions`` passes.
    """
    return extend_images(spec, images, functools.partial(_leibniz, build_quasi(spec)))


def closed_form_extension(spec: QuasiQnSpec, images: GeneratorImages) -> Matrix:
    """Same map as ``extend_derivation_candidate``, from the explicit formula.

    With a = coefficient of e_{s0} in d(e_{s0}), b = coefficient of e_{s1} in
    d(e_{s1}), c_i the e_{si} coefficients of d(e_{s1}) and g_i those of
    d(e_{s0}):

        d(e_{st}) = ((t-1) a + b) e_{st}
                    + sum_{j=2}^{n-t} c_j e_{s,j+t-1}
                    + (-1)^t g_{n-t+1} e_{sn}        for 2 <= t <= n-1,
        d(e_{sn}) = ((n-2) a + 2 b) e_{sn}           for s <= r,

    valid for arbitrary generator images (cross-copy and central components
    contribute nothing to the recurrence).
    """
    n = spec.n
    cols: List[dict] = [None] * spec.dim
    for s in range(1, spec.m + 1):
        de0 = images.e0[s - 1]
        de1 = images.e1[s - 1]
        cols[spec.gen_index(s, 0)] = de0
        cols[spec.gen_index(s, 1)] = de1
        a = de0.get(spec.gen_index(s, 0), 0)
        b = de1.get(spec.gen_index(s, 1), 0)
        for t in range(2, n):
            v = {spec.gen_index(s, t): (t - 1) * a + b}
            for j in range(2, n - t + 1):
                v[spec.gen_index(s, j + t - 1)] = de1.get(spec.gen_index(s, j), 0)
            sign = 1 if t % 2 == 0 else -1
            g = de0.get(spec.gen_index(s, n - t + 1), 0)
            for tt, c in enumerate(spec.beta[s - 1], start=1):
                v[spec.top_index(tt)] = sign * g * c
            cols[spec.gen_index(s, t)] = v
    for t in range(1, spec.r + 1):
        a = images.e0[t - 1].get(spec.gen_index(t, 0), 0)
        b = images.e1[t - 1].get(spec.gen_index(t, 1), 0)
        cols[spec.top_index(t)] = {spec.top_index(t): (n - 2) * a + 2 * b}
    return Matrix.from_columns([{k: x for k, x in v.items() if x} for v in cols], spec.dim)


class ConditionVerdict(NamedTuple):
    """Outcome of a condition battery; ``failed`` names the first failing
    condition (None when everything passes)."""

    failed: Optional[str] = None
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failed is None


def derivation_conditions(spec: QuasiQnSpec, images: GeneratorImages) -> ConditionVerdict:
    """Closed-form test: do the generator images extend to a derivation?

    Checks, in order:
      e0-support            d(e_{s0}) lies in span{e_{s0}, e_{s2..s,n-1}, tops}
      e1-support            d(e_{s1}) lies in span{e_{s1..s,n-2}, e_{*,n-1}, tops}
      odd-level-vanishing   d(e_{s1}) has no e_{si} component for odd 3<=i<=n-2
      glued-weight-match    top eigenvalues agree across glued copies
      cross-pair-balance    e_{*,n-1} cross terms cancel against the gluing
    Equivalent to the Leibniz rule holding for the extended map.  A failure
    names the smallest offending index or pair.  It pays per copy the images
    touch: supports and odd levels cost one test per image entry, the
    balance O(r) per copy pair that an e_{s1} image links at level n-1, and
    the weights read beta's column of each copy s > r, and row of each copy
    s <= r, whose top weight (n-2) a + 2 b is nonzero (zero weights agree).
    """
    n, m, r = spec.n, spec.m, spec.r
    beta, mn = spec.beta, m * n  # index k < mn is level k % n of copy k // n + 1
    e0 = [(s, image) for s, image in enumerate(images.e0, start=1) if image]
    e1 = [(s, image) for s, image in enumerate(images.e1, start=1) if image]

    for s, image in e0:
        k = min((k for k in image if k < mn and (k // n != s - 1 or k % n == 1)), default=None)
        if k is not None:
            return ConditionVerdict(
                "e0-support", f"d(e_{{{s},0}}) has a component on basis index {k}"
            )
    for s, image in e1:
        k = min(
            (k for k in image if k < mn and k % n != n - 1 and (k // n != s - 1 or k % n == 0)),
            default=None,
        )
        if k is not None:
            return ConditionVerdict(
                "e1-support", f"d(e_{{{s},1}}) has a component on basis index {k}"
            )
    for s, image in e1:
        k = min((k for k in image if k // n == s - 1 and k % n % 2 and k % n > 1), default=None)
        if k is not None:
            why = f"d(e_{{{s},1}}) has a component on e_{{{s},{k % n}}}"
            return ConditionVerdict("odd-level-vanishing", why)
    lam = {}  # the nonzero top weights (n-2) a_s + 2 b_s; every other copy's is 0
    for s, _ in e0 + e1:
        head = spec.gen_index(s, 0)
        x = (n - 2) * images.e0[s - 1].get(head, 0) + 2 * images.e1[s - 1].get(head + 1, 0)
        if x:
            lam[s] = x
    glued = [(s, j) for s in lam if s > r for j, c in enumerate(beta[s - 1], start=1) if c]
    glued += [(s, j) for j in lam if j <= r for s in range(r + 1, m + 1) if beta[s - 1][j - 1]]
    failing = min(((s, j) for s, j in glued if lam.get(s, 0) != lam.get(j, 0)), default=None)
    if failing:
        s, j = failing
        return ConditionVerdict(
            "glued-weight-match",
            f"top eigenvalue of copy {s} is {lam.get(s, 0)} but copy {j} has {lam.get(j, 0)}",
        )
    linked = {
        (min(s, k // n + 1), max(s, k // n + 1))
        for s, image in e1
        for k in image
        if k < mn and k % n == n - 1 and k // n != s - 1
    }
    for s, p in sorted(linked):
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


# -- brute force oracle ---------------------------------------------------------


def is_derivation(L: LieAlgebra, D: Matrix) -> bool:
    """Leibniz rule D[x,y] = [Dx,y] + [x,Dy] checked on all basis pairs."""
    if D.rows != L.dim or D.cols != L.dim:
        return False
    cols = D.columns()
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            if _combine(L.structure(i, j), cols) != _leibniz(L, i, j, cols[i], cols[j]):
                return False
    return True


def derivation_oracle(L: LieAlgebra) -> List[dict]:
    """Canonical basis of the full derivation algebra, found by solving the
    Leibniz rule as a sparse linear system in the dim^2 matrix entries, as
    the flat kernel vectors {a * dim + b: D[a, b]} that ``sparse_nullspace``
    makes, one per free column.

    Basis pair (i, j) gives one equation per output index `out` that some
    term touches: the e_out coefficient of D[e_i, e_j] - [D e_i, e_j] -
    [e_i, D e_j], in the unknown D[a, b] at column a * dim + b.  Only the
    pairs where e_i or e_j is one of the generators G of
    ``liecore._generator_indices`` are written.  The theorem: for fixed D, the x
    with D[x, y] = [Dx, y] + [x, Dy] for every y form a subalgebra, by
    Jacobi, so the rule on G x L is the rule on L x L once G generates L.
    On a table whose indices do not rise, G is every index, and the system
    is the all-pairs one.  The kernel is the same space either way, and its
    reduced basis is unique.

    The rows are made pair by pair as the solver reads them, and a term
    that cancels an entry deletes it, so no row carries a zero entry.  The
    solver peels each row as it comes (see ``linalg._peel``): a unit is a
    column flag, not a row, and only the coupled rows are kept, so the
    system is never held whole.  At (9,4,1) the oracle makes 2,518 rows
    where all pairs make 4,004.  At (21,8,3) it makes 57,023 where all
    pairs make 110,808; 53,550 of them arrive with one entry, 27,184
    columns are flagged and 1,759 coupled rows are left reduced."""
    dim, partners = L.dim, L.partners
    gens = _generator_indices(L)
    gen_set = set(gens)
    # per j, the k whose bracket with e_j is nonzero, with [e_j, e_k] and [e_k, e_j]
    hits = [[(k, partners[k][j], kj) for k, kj in partners[j].items()] for j in range(dim)]

    def add(eq: dict, out: int, col: int, c) -> None:
        row = eq.get(out)
        if row is None:
            eq[out] = {col: c}
        elif col not in row:
            row[col] = c
        else:
            c += row[col]
            if c:
                row[col] = c
            else:
                del row[col]

    def leibniz_rows():
        for i in range(dim):
            for j in range(i + 1, dim) if i in gen_set else [g for g in gens if g > i]:
                base = L.structure(i, j)  # D[e_i, e_j]
                eq = {}
                if base:
                    eq = {out: {out * dim + k: c for k, c in base.items()} for out in range(dim)}
                for k, jk, _ in hits[j]:  # -[D e_i, e_j] = [e_j, D e_i]
                    for out, c in jk.items():
                        add(eq, out, k * dim + i, c)
                for k, _, ki in hits[i]:  # -[e_i, D e_j] = [D e_j, e_i]
                    for out, c in ki.items():
                        add(eq, out, k * dim + j, c)
                yield from eq.values()

    return sparse_nullspace(leibniz_rows(), dim * dim)


# -- explicit bases ---------------------------------------------------------------


def _element(spec: QuasiQnSpec, kind: str, indices: tuple, entries) -> GeneratorImages:
    """The derivation whose generator images vanish except at ``entries``:
    (0 or 1 for d(e_{s0}) or d(e_{s1}), copy s, basis index, value), as
    those images, once ``derivation_conditions`` has passed them.
    ``kind`` and ``indices`` name the basis member in the error message.
    It pays per entry and per copy, and the battery per copy the entries
    touch: no column beyond the 2m images is made.  The untouched copies
    share one empty image, as in ``extend_images``; a touched copy gets a new
    dict, so the shared one is never changed."""
    empty: dict = {}
    e0: List[dict] = [empty] * spec.m
    e1: List[dict] = [empty] * spec.m
    for which, s, k, value in entries:
        copies = e1 if which else e0
        copies[s - 1] = {**copies[s - 1], k: value}
    images = GeneratorImages(tuple(e0), tuple(e1))
    verdict = derivation_conditions(spec, images)
    if not verdict.ok:
        raise AssertionError(f"basis element {kind}{indices} is not a derivation: {verdict}")
    return images


def torus_basis(spec: QuasiQnSpec) -> List[GeneratorImages]:
    """A maximal torus of diagonal derivations, each by its generator images
    (``extend_derivation_candidate`` makes its matrix): m+c members, c the
    number of ``support_components`` of the gluing (c = r on block form).

    A diagonal derivation is fixed by the weights a_s, b_s of e_{s0}, e_{s1}:
    it scales e_{s0} by a_s, e_{st} by (t-1) a_s + b_s for 1 <= t <= n-1,
    and the top e_{sn} (s <= r) by (n-2) a_s + 2 b_s.  The Leibniz rule only
    ties the top weights together along the nonzero entries of beta, so each
    component has one free top weight and m+c directions remain.  The
    members, in order: ``Grading`` (every b_s = 1) kills each e_{s0}, fixes
    each e_{st} for 1 <= t <= n-1 and doubles the tops; ``CopyWeight s``
    (a_s = -2, b_s = n-2) scales e_{s0} by -2 and e_{st} by n-2t on copy s
    alone and kills the tops; ``ComponentGrading k``, for each component
    k >= 2, sets b_s = 1 on the copies of component k.
    ``qfla weights`` decomposes under the first m+1 members.
    """
    copies = range(1, spec.m + 1)
    out = [_element(spec, "Grading", (), [(1, s, spec.gen_index(s, 1), 1) for s in copies])]
    for s in copies:
        entries = [(0, s, spec.gen_index(s, 0), -2), (1, s, spec.gen_index(s, 1), spec.n - 2)]
        out.append(_element(spec, "CopyWeight", (s,), entries))
    for k, members in enumerate(support_components(spec)[1:], start=2):
        entries = [(1, s, spec.gen_index(s, 1), 1) for s in members]
        out.append(_element(spec, "ComponentGrading", (k,), entries))
    return out


def nilpotent_basis(spec: QuasiQnSpec) -> Optional[List[GeneratorImages]]:
    """Explicit basis of the nilpotent complement, for block-form gluings,
    each member by its generator images as in ``torus_basis``.

    Per copy s: ``AdGen`` sends e_{s0} to e_{si} (2 <= i <= n-1); ``TopFromE0``
    sends e_{s0} to a top vector; ``Even`` sends e_{s1} to an even level
    e_{s,2i} (1 <= i <= d-1); ``TopFromE1`` sends e_{s1} to a top vector;
    ``DiagTop`` sends e_{s1} to e_{s,n-1}.  Per block (a class of proportional
    columns of beta), ``OffDiag`` pairs member copies i < j via e_{i1} -> k_i
    e_{j,n-1}, e_{j1} -> k_j e_{i,n-1}, scaled by the gluing coefficients k so
    the cross terms cancel.

    None off block form: when beta has more proportional classes than r.
    """
    blocks = proportional_classes(spec.beta)
    if len(blocks) != spec.r:
        return None
    out = []
    for s in range(1, spec.m + 1):
        for i in range(2, spec.n):
            out.append(_element(spec, "AdGen", (s, i), [(0, s, spec.gen_index(s, i), 1)]))
        for t in range(1, spec.r + 1):
            out.append(_element(spec, "TopFromE0", (s, t), [(0, s, spec.top_index(t), 1)]))
        for i in range(1, spec.d):
            out.append(_element(spec, "Even", (s, i), [(1, s, spec.gen_index(s, 2 * i), 1)]))
        for t in range(1, spec.r + 1):
            out.append(_element(spec, "TopFromE1", (s, t), [(1, s, spec.top_index(t), 1)]))
        out.append(_element(spec, "DiagTop", (s,), [(1, s, spec.gen_index(s, spec.n - 1), 1)]))
    for t, members in enumerate(blocks, start=1):  # class t holds copy t
        for i, j in itertools.combinations([s + 1 for s in members], 2):
            entries = [
                (1, i, spec.gen_index(j, spec.n - 1), spec.beta[i - 1][t - 1]),
                (1, j, spec.gen_index(i, spec.n - 1), spec.beta[j - 1][t - 1]),
            ]
            out.append(_element(spec, "OffDiag", (i, j), entries))
    return out


def der_dimension(spec: QuasiQnSpec) -> Optional[int]:
    """Predicted dimension of the derivation algebra for block-form gluings:
    m+r torus directions (see ``torus_basis``) plus the nilpotent count
    sum_l ((2r + n + d - 2) m_l + m_l (m_l - 1) / 2) over beta's proportional
    classes l.  None off block form, when there are more classes than r."""
    blocks = proportional_classes(spec.beta)
    if len(blocks) != spec.r:
        return None
    total = spec.m + spec.r
    for m_l in map(len, blocks):
        total += (2 * spec.r + spec.n + spec.d - 2) * m_l + m_l * (m_l - 1) // 2
    return total


# -- eigenvalue bookkeeping -------------------------------------------------------


def top_weights(spec: QuasiQnSpec, D: dict) -> tuple:
    """Per copy s, the e_{sn} eigenvalue (n-2) a_s + 2 b_s of a derivation
    whose diagonal has a_s at e_{s0} and b_s at e_{s1}.  D is given by its
    flat entries {a * dim + b: D[a, b]}, as ``derivation_oracle`` returns
    it, so diagonal entry k sits at index k (dim + 1)."""
    step = spec.dim + 1
    return tuple(
        (spec.n - 2) * D.get(spec.gen_index(s, 0) * step, 0)
        + 2 * D.get(spec.gen_index(s, 1) * step, 0)
        for s in range(1, spec.m + 1)
    )


def weight_decomposition(L: LieAlgebra, torus: Sequence[Matrix]) -> Dict[tuple, int]:
    """Split the underlying space into joint eigenspaces of diagonal maps.

    Returns {weight tuple: dimension of its eigenspace}.  Raises ValueError
    when some map is not diagonal on this basis.
    """
    for D in torus:
        off = [(i, j) for j, col in enumerate(D.columns()) for i in col if i != j]
        if off:
            i, j = min(off)
            raise ValueError(f"map has off-diagonal entry at ({i},{j})")
    dims: Dict[tuple, int] = {}
    for k in range(L.dim):
        weight = tuple(D.entry(k, k) for D in torus)
        dims[weight] = dims.get(weight, 0) + 1
    return dims
