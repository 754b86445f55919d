"""Derivations of N(Q_n, m, r).

A derivation is determined by where it sends the generators e_{s0}, e_{s1} of
each copy; the remaining columns follow from the Leibniz rule.  This module
provides that extension, a closed-form test for when generator images extend
to a derivation, a brute-force kernel oracle for cross-validation, and
explicit torus / nilpotent bases of the derivation algebra.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .builder import NonBlockForm, QuasiQnSpec, block_structure, build_quasi, support_components
from .liecore import LieAlgebra
from .linalg import Matrix, ONE, ZERO, _combine, _subtract, column_span, scalar, sparse_nullspace


class NotSimultaneouslyDiagonal(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorImages:
    """Proposed images of the generators: e0[s-1] and e1[s-1] are the sparse
    image vectors {index: Fraction} of e_{s0} and e_{s1} (copies 1-based) in a
    ``dim``-dimensional target, under a derivation or an endomorphism alike."""

    e0: tuple
    e1: tuple
    dim: int

    @staticmethod
    def from_vectors(e0: Sequence[Sequence], e1: Sequence[Sequence]) -> "GeneratorImages":
        """From dense coordinate sequences, which must share one length."""
        dims = {len(v) for v in [*e0, *e1]}
        if len(dims) > 1:
            raise ValueError(f"image vectors have differing lengths {sorted(dims)}")

        def sparse(v):
            return {k: x for k, x in enumerate(map(scalar, v)) if x}

        return GeneratorImages(
            tuple(map(sparse, e0)), tuple(map(sparse, e1)), dims.pop() if dims else 0
        )

    def validate(self, shape: QuasiQnSpec, target_dim: Optional[int] = None) -> None:
        """One image pair per copy of ``shape``, in a target of ``target_dim``
        (``shape.dim`` unless the images live in another algebra)."""
        if target_dim is None:
            target_dim = shape.dim
        if len(self.e0) != shape.m or len(self.e1) != shape.m:
            raise ValueError(f"need one image pair per copy ({shape.m})")
        if self.dim != target_dim:
            raise ValueError(f"image vectors must have length {target_dim}")


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
    and y for a homomorphism.
    """
    n = shape.n
    cols: List[dict] = [None] * shape.dim
    for s in range(1, shape.m + 1):
        head = shape.gen_index(s, 0)
        for t, image in ((0, images.e0[s - 1]), (1, images.e1[s - 1])):
            cols[head + t] = image
        for t in range(2, n):
            cols[head + t] = bracket_image(head, head + t - 1, cols[head], cols[head + t - 1])
    for t in range(1, shape.r + 1):
        one, last = shape.gen_index(t, 1), shape.gen_index(t, n - 1)
        w = bracket_image(one, last, cols[one], cols[last])
        cols[shape.top_index(t)] = {k: -x for k, x in w.items()}
    return Matrix.from_columns(cols, images.dim)


def _leibniz(L: LieAlgebra, i: int, j: int, di: dict, dj: dict) -> dict:
    """[d e_i, e_j] + [e_i, d e_j] from the sparse images di, dj."""
    out = L.bracket(di, {j: ONE})
    _subtract(out, -ONE, L.bracket({i: ONE}, dj))
    return out


def extend_derivation_candidate(spec: QuasiQnSpec, images: GeneratorImages) -> Matrix:
    """Extend generator images to a linear map on all of N(Q_n, m, r) by the
    Leibniz rule d[x, y] = [dx, y] + [x, dy] (see ``extend_images``).  The
    result is a derivation iff ``derivation_conditions`` passes.
    """
    images.validate(spec)
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
    images.validate(spec)
    n = spec.n
    cols: List[dict] = [None] * spec.dim
    for s in range(1, spec.m + 1):
        de0 = images.e0[s - 1]
        de1 = images.e1[s - 1]
        cols[spec.gen_index(s, 0)] = de0
        cols[spec.gen_index(s, 1)] = de1
        a = de0.get(spec.gen_index(s, 0), ZERO)
        b = de1.get(spec.gen_index(s, 1), ZERO)
        for t in range(2, n):
            v = {spec.gen_index(s, t): (t - 1) * a + b}
            for j in range(2, n - t + 1):
                v[spec.gen_index(s, j + t - 1)] = de1.get(spec.gen_index(s, j), ZERO)
            sign = ONE if t % 2 == 0 else -ONE
            g = de0.get(spec.gen_index(s, n - t + 1), ZERO)
            for tt, c in enumerate(spec.beta[s - 1], start=1):
                v[spec.top_index(tt)] = sign * g * c
            cols[spec.gen_index(s, t)] = v
    for t in range(1, spec.r + 1):
        a = images.e0[t - 1].get(spec.gen_index(t, 0), ZERO)
        b = images.e1[t - 1].get(spec.gen_index(t, 1), ZERO)
        cols[spec.top_index(t)] = {spec.top_index(t): (n - 2) * a + 2 * b}
    return Matrix.from_columns(cols, spec.dim)


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a condition battery; ``failed`` names the first failing
    condition (None when everything passes)."""

    ok: bool
    failed: Optional[str] = None
    detail: Optional[str] = None


def derivation_conditions(spec: QuasiQnSpec, images: GeneratorImages) -> ConditionVerdict:
    """Closed-form test: do the generator images extend to a derivation?

    Checks, in order:
      e0-support            d(e_{s0}) lies in span{e_{s0}, e_{s2..s,n-1}, tops}
      e1-support            d(e_{s1}) lies in span{e_{s1..s,n-2}, e_{*,n-1}, tops}
      odd-level-vanishing   d(e_{s1}) has no e_{si} component for odd 3<=i<=n-2
      glued-weight-match    top eigenvalues agree across glued copies
      cross-pair-balance    e_{*,n-1} cross terms cancel against the gluing
    Equivalent to the Leibniz rule holding for the extended map.
    """
    images.validate(spec)
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
    lam = [  # top eigenvalues (n-2) a_s + 2 b_s
        (n - 2) * images.e0[s - 1].get(spec.gen_index(s, 0), ZERO)
        + 2 * images.e1[s - 1].get(spec.gen_index(s, 1), ZERO)
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
            csp = images.e1[s - 1].get(spec.gen_index(p, n - 1), ZERO)
            cps = images.e1[p - 1].get(spec.gen_index(s, n - 1), ZERO)
            if not (csp or cps):
                continue  # no cross terms, no residue
            for j in range(1, r + 1):
                residue = -csp * beta[p - 1][j - 1] + cps * beta[s - 1][j - 1]
                if residue != 0:
                    return ConditionVerdict(
                        False,
                        "cross-pair-balance",
                        f"copies ({s},{p}) leave residue {residue} on top {j}",
                    )
    return ConditionVerdict(True)


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


def derivation_oracle(L: LieAlgebra) -> List[Matrix]:
    """Canonical basis of the full derivation algebra, found by solving the
    Leibniz rule as a sparse linear system in the dim^2 matrix entries."""
    dim = L.dim
    # per j, the k whose bracket [e_k, e_j] is nonzero, with that bracket
    hits = [[(k, b) for k in range(dim) if (b := L.structure(k, j))] for j in range(dim)]
    rows: List[dict] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            eq: List[dict] = [dict() for _ in range(dim)]
            for k, c in L.structure(i, j).items():  # D[e_i, e_j]
                for out in range(dim):
                    key = out * dim + k
                    eq[out][key] = eq[out].get(key, ZERO) + c
            for k, b in hits[j]:  # -[D e_i, e_j]
                for out, c in b.items():
                    key = k * dim + i
                    eq[out][key] = eq[out].get(key, ZERO) - c
            for k, b in hits[i]:  # -[e_i, D e_j] = [D e_j, e_i]
                for out, c in b.items():
                    key = k * dim + j
                    eq[out][key] = eq[out].get(key, ZERO) + c
            rows.extend(e for e in eq if e)
    out = []
    for vec in sparse_nullspace(rows, dim * dim):
        cols: List[dict] = [{} for _ in range(dim)]
        for key, x in vec.items():  # key a * dim + b is entry (a, b)
            cols[key % dim][key // dim] = x
        out.append(Matrix.from_columns(cols, dim))
    return out


# -- explicit bases ---------------------------------------------------------------


def _element(spec: QuasiQnSpec, kind: str, indices: tuple, entries) -> Matrix:
    """The derivation whose generator images vanish except at ``entries``:
    (0 or 1 for d(e_{s0}) or d(e_{s1}), copy s, basis index, value).
    ``kind`` and ``indices`` name the basis member in the error message."""
    e0: List[dict] = [{} for _ in range(spec.m)]
    e1: List[dict] = [{} for _ in range(spec.m)]
    for which, s, k, value in entries:
        (e1 if which else e0)[s - 1][k] = scalar(value)
    images = GeneratorImages(tuple(e0), tuple(e1), spec.dim)
    verdict = derivation_conditions(spec, images)
    if not verdict.ok:
        raise AssertionError(f"basis element {kind}{indices} is not a derivation: {verdict}")
    return extend_derivation_candidate(spec, images)


def weight_torus(spec: QuasiQnSpec) -> List[Matrix]:
    """m+1 commuting diagonalizable derivations, on any gluing.

    ``Grading`` scales e_{st} by t; ``CopyWeight s`` acts only on copy s with
    e_{s0} -> -2 e_{s0}, e_{s1} -> (n-2) e_{s1}, killing the top vector.
    ``qfla weights`` decomposes under this torus.
    """
    copies = range(1, spec.m + 1)
    out = [_element(spec, "Grading", (), [(1, s, spec.gen_index(s, 1), 1) for s in copies])]
    for s in copies:
        entries = [(0, s, spec.gen_index(s, 0), -2), (1, s, spec.gen_index(s, 1), spec.n - 2)]
        out.append(_element(spec, "CopyWeight", (s,), entries))
    return out


def torus_basis(spec: QuasiQnSpec) -> List[Matrix]:
    """A maximal torus of diagonal derivations: m+c members, c the number of
    ``support_components`` of the gluing (c = r on block form).

    A diagonal derivation is fixed by the weights a_s, b_s of e_{s0}, e_{s1};
    the Leibniz rule only ties the top weights (n-2) a_s + 2 b_s together
    along the nonzero entries of beta, so each component has one free top
    weight and m+c directions remain.  They are the ``weight_torus`` members
    plus, for each component k >= 2, ``ComponentGrading k`` sending
    e_{s1} -> e_{s1} for every member copy s of component k.
    """
    out = weight_torus(spec)
    for k, members in enumerate(support_components(spec)[1:], start=2):
        entries = [(1, s, spec.gen_index(s, 1), 1) for s in members]
        out.append(_element(spec, "ComponentGrading", (k,), entries))
    return out


def h1_derivation(spec: QuasiQnSpec) -> Matrix:
    """The diagonal derivation e_{s0} -> -2s e_{s0}, e_{s1} -> s(n-2) e_{s1}.

    Its level eigenvalues separate the copies while every top eigenvalue is 0.
    No verb uses it: ``qfla weights`` decomposes under ``weight_torus``."""
    entries = []
    for s in range(1, spec.m + 1):
        entries.append((0, s, spec.gen_index(s, 0), -2 * s))
        entries.append((1, s, spec.gen_index(s, 1), s * (spec.n - 2)))
    return _element(spec, "H1", (), entries)


def nilpotent_basis(spec: QuasiQnSpec) -> List[Matrix]:
    """Explicit basis of the nilpotent complement, for block-form gluings.

    Per copy s: ``AdGen`` sends e_{s0} to e_{si} (2 <= i <= n-1); ``TopFromE0``
    sends e_{s0} to a top vector; ``Even`` sends e_{s1} to an even level
    e_{s,2i} (1 <= i <= d-1); ``TopFromE1`` sends e_{s1} to a top vector;
    ``DiagTop`` sends e_{s1} to e_{s,n-1}.  Per block, ``OffDiag`` pairs member
    copies i < j via e_{i1} -> k_i e_{j,n-1}, e_{j1} -> k_j e_{i,n-1}, scaled by
    the gluing coefficients k so the cross terms cancel.

    Raises NonBlockForm when some glued top mixes two independent tops.
    """
    blocks = block_structure(spec)
    if blocks is None:
        raise NonBlockForm("gluing matrix mixes independent top vectors")
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
    for t, members in enumerate(blocks, start=1):
        for i, j in itertools.combinations(members, 2):
            entries = [
                (1, i, spec.gen_index(j, spec.n - 1), spec.beta[i - 1][t - 1]),
                (1, j, spec.gen_index(i, spec.n - 1), spec.beta[j - 1][t - 1]),
            ]
            out.append(_element(spec, "OffDiag", (i, j), entries))
    return out


def der_dimension(spec: QuasiQnSpec) -> int:
    """Predicted dimension of the derivation algebra for block-form gluings:
    m+r torus directions (see ``torus_basis``) plus the nilpotent count
    sum_l ((2r + n + d - 2) m_l + m_l (m_l - 1) / 2)."""
    blocks = block_structure(spec)
    if blocks is None:
        raise NonBlockForm("no closed-form dimension outside block form")
    total = spec.m + spec.r
    for m_l in map(len, blocks):
        total += (2 * spec.r + spec.n + spec.d - 2) * m_l + m_l * (m_l - 1) // 2
    return total


# -- eigenvalue bookkeeping -------------------------------------------------------


def top_weights(spec: QuasiQnSpec, D: Matrix) -> tuple:
    """Per copy s, the e_{sn} eigenvalue (n-2) a_s + 2 b_s of a derivation
    whose diagonal has a_s at e_{s0} and b_s at e_{s1}."""
    return tuple(
        (spec.n - 2) * D.entry(spec.gen_index(s, 0), spec.gen_index(s, 0))
        + 2 * D.entry(spec.gen_index(s, 1), spec.gen_index(s, 1))
        for s in range(1, spec.m + 1)
    )


def weight_decomposition(L: LieAlgebra, torus: Sequence[Matrix]) -> Dict[tuple, Matrix]:
    """Split the underlying space into joint eigenspaces of diagonal maps.

    Returns {weight tuple: canonical column-span matrix}.  Raises
    NotSimultaneouslyDiagonal when some map is not diagonal on this basis.
    """
    for D in torus:
        off = [(i, j) for j, col in enumerate(D.columns()) for i in col if i != j]
        if off:
            i, j = min(off)
            raise NotSimultaneouslyDiagonal(f"map has off-diagonal entry at ({i},{j})")
    groups: Dict[tuple, list] = {}
    for k in range(L.dim):
        weight = tuple(D.entry(k, k) for D in torus)
        groups.setdefault(weight, []).append(k)
    return {
        w: column_span([{k: ONE} for k in idxs], L.dim)
        for w, idxs in groups.items()
    }
