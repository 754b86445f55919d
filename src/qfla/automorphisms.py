"""Automorphisms of N(Q_n, m, r).

Like derivations, an endomorphism that is multiplicative on brackets is
pinned down by the generator images e_{s0}, e_{s1}; the rest extends via
rho(e_{st}) = [rho(e_{s0}), rho(e_{s,t-1})].  This module provides the
extension, the closed-form condition battery deciding when a candidate is an
automorphism, and a few automorphism factories; the brute-force check is
``liecore.is_isomorphism``, which decides bijectivity modulo [L, L].
``aut-check`` hands it the extension through the grading automorphism
delta_D (``extend_through_grading``), built from integral images, which is
an isomorphism exactly when the candidate's own extension is.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import factorial, lcm
from typing import List, Optional, Sequence

from .builder import QuasiQnSpec, build_quasi
from .derivations import ConditionVerdict, GeneratorImages, extend_images
from .liecore import LieAlgebra
from .linalg import Matrix, Scalar, _scaled, _subtract, scalar


def extend_endomorphism(
    shape: QuasiQnSpec, target: LieAlgebra, candidate: GeneratorImages
) -> Matrix:
    """Extend generator images to a map defined on the whole source basis.

    ``shape`` fixes the source basis layout; the images live in ``target``,
    the same algebra for automorphism checking or a second one with equal
    (n, m, r) when testing maps between two gluings, so in either case of
    dimension ``shape.dim``.  Columns follow
    rho([x, y]) = [rho(x), rho(y)] along ``extend_images``, in the images'
    own scalars: iso's witness, whose map is printed, is built here, and
    ``extend_through_grading`` runs it on integral images.
    """
    return extend_images(shape, candidate, lambda i, j, x, y: target.bracket(x, y))


def extend_through_grading(
    shape: QuasiQnSpec, target: LieAlgebra, candidate: GeneratorImages
) -> Matrix:
    """N = phi o delta_D, for phi the candidate's ``extend_endomorphism``.

    D is the lcm of the denominators of the 2m images' entries, and
    delta_D: e_k -> D^{deg k} e_k, where deg e_{s0} = deg e_{s1} = 1,
    deg e_{st} = t and every top has degree n.  Every bracket of a gluing
    adds degrees (the gluing relates tops only), so delta_D is an
    automorphism of each: the torus element with a_s = b_s = D.  The images
    scaled by D are integral, and their extension is N, whose column k is
    D^{deg k} times column k of phi, in ``int`` when the target's table is.
    N is an isomorphism exactly when phi is; nothing is divided back.
    """
    D = lcm(*(x.denominator for v in candidate.e0 + candidate.e1 for x in v.values()))
    e0, e1 = (tuple(_scaled(v, D) for v in vs) for vs in (candidate.e0, candidate.e1))
    return extend_endomorphism(shape, target, GeneratorImages(e0, e1))


def closed_form_endomorphism(
    shape: QuasiQnSpec, target_spec: QuasiQnSpec, candidate: GeneratorImages
) -> Matrix:
    """Same map as ``extend_endomorphism`` via the explicit column formulas.

    Writing b0/b1 for the per-copy level coefficients of the two generator
    images, the level part of the column for e_{st} is
    (b0_{i0})^{t-2} (b0_{i0} b1_{ij} - b0_{ij} b1_{i0}) on e_{i,j+t-1} and the
    central part collects (-1)^j b0_{ij} (...) on the top of copy i; valid for
    arbitrary candidates.  ``target_spec`` shares the (n, m, r) of
    ``shape``, and so its dimension.  Column e_{st} is homogeneous of degree
    t in the image coefficients, and a top column of degree n, so images
    scaled by D give ``extend_through_grading``'s phi o delta_D here too.
    """
    target = build_quasi(target_spec)
    n, dim = shape.n, target.dim

    def b(vecs, s, i, j):
        return vecs[s - 1].get(target_spec.gen_index(i, j), 0)

    def add_top(v, i, coeff):
        if coeff:
            for tt, c in enumerate(target_spec.beta[i - 1], start=1):
                v[target_spec.top_index(tt)] += coeff * c

    cols: List[dict] = [None] * shape.dim
    for s in range(1, shape.m + 1):
        cols[shape.gen_index(s, 0)] = candidate.e0[s - 1]
        cols[shape.gen_index(s, 1)] = candidate.e1[s - 1]
        for t in range(2, n):
            v = defaultdict(int)
            for i in range(1, shape.m + 1):
                b00 = b(candidate.e0, s, i, 0)
                b10 = b(candidate.e1, s, i, 0)
                if t == 2:
                    for j in range(1, n - 1):
                        c = b00 * b(candidate.e1, s, i, j) - b(candidate.e0, s, i, j) * b10
                        v[target_spec.gen_index(i, j + 1)] += c
                    for j in range(1, n):
                        add_top(
                            v,
                            i,
                            (-1) ** j * b(candidate.e0, s, i, j) * b(candidate.e1, s, i, n - j),
                        )
                else:
                    head = b00 ** (t - 2)
                    for j in range(1, n - t + 1):
                        c = b00 * b(candidate.e1, s, i, j) - b(candidate.e0, s, i, j) * b10
                        v[target_spec.gen_index(i, j + t - 1)] += head * c
                    head = b00 ** (t - 3)
                    for j in range(1, n - t + 2):
                        c = (
                            b00 * b(candidate.e1, s, i, n - j - t + 2)
                            - b(candidate.e0, s, i, n - j - t + 2) * b10
                        )
                        add_top(v, i, (-1) ** j * b(candidate.e0, s, i, j) * head * c)
            cols[shape.gen_index(s, t)] = v
    for t in range(1, shape.r + 1):
        v = defaultdict(int)
        for i in range(1, shape.m + 1):
            b00 = b(candidate.e0, t, i, 0)
            c = b00 * b(candidate.e1, t, i, 1) - b(candidate.e0, t, i, 1) * b(
                candidate.e1, t, i, 0
            )
            add_top(v, i, b(candidate.e1, t, i, 1) * b00 ** (n - 3) * c)
        cols[shape.top_index(t)] = v
    return Matrix.from_columns([{k: x for k, x in v.items() if x} for v in cols], dim)


def _target_copies(spec: QuasiQnSpec, candidate: GeneratorImages) -> tuple:
    """Per copy s: the unique copy its generator images land in, or a failure
    reason string."""
    n, m = spec.n, spec.m
    targets = []
    for s in range(1, m + 1):
        v0 = candidate.e0[s - 1]
        v1 = candidate.e1[s - 1]
        # copy k // n + 1 holds level k % n; indices from m * n on are tops
        hit = {k // n + 1 for k in v0 if k < m * n}
        hit.update(k // n + 1 for k in v1 if k < m * n and 0 < k % n < n - 1)
        if len(hit) != 1:
            return None, f"images of copy {s} touch copies {sorted(hit)}"
        q = hit.pop()
        if spec.gen_index(q, 1) in v0:
            return None, f"image of e_{{{s},0}} has a component on e_{{{q},1}}"
        for p in range(1, m + 1):
            if spec.gen_index(p, 0) in v1:
                return None, f"image of e_{{{s},1}} has a component on e_{{{p},0}}"
        targets.append(q)
    return tuple(targets), None


def automorphism_conditions(spec: QuasiQnSpec, candidate: GeneratorImages) -> ConditionVerdict:
    """Closed-form test: does the candidate extend to an automorphism?

    Checks, in order:
      single-target-copy      each copy's generators land in exactly one copy,
                              avoiding the e_{q,1} and e_{*,0} slots
      copy-permutation        the induced copy map is a bijection
      leading-coefficients    leading products nonzero; e_{*,n-1} cross terms
                              match after expanding tops
      odd-convolution         alternating coefficient convolutions vanish at
                              odd orders
      gluing-compatibility    permutation and scales preserve the gluing
    Equivalent to the extended map being an automorphism.
    """
    n, m, r = spec.n, spec.m, spec.r

    targets, why = _target_copies(spec, candidate)
    if targets is None:
        return ConditionVerdict("single-target-copy", why)
    if sorted(targets) != list(range(1, m + 1)):
        return ConditionVerdict("copy-permutation", f"copy map {targets} is not a bijection")

    def c0(s: int, q: int, j: int) -> Scalar:  # e_{qj} coefficient of the e_{s0} image
        return candidate.e0[s - 1].get(spec.gen_index(q, j), 0)

    def c1(s: int, q: int, j: int) -> Scalar:  # e_{qj} coefficient of the e_{s1} image
        return candidate.e1[s - 1].get(spec.gen_index(q, j), 0)

    def top_vec(i: int, coeff: Scalar) -> tuple:
        return tuple(coeff * c for c in spec.beta[i - 1])

    for s in range(1, m + 1):
        q = targets[s - 1]
        if c0(s, q, 0) * c1(s, q, 1) == 0:
            return ConditionVerdict("leading-coefficients", f"copy {s} has a zero leading product")
    for s in range(1, m + 1):
        for p in range(s + 1, m + 1):
            qs, qp = targets[s - 1], targets[p - 1]
            lhs = top_vec(qs, c1(s, qs, 1) * c1(p, qs, n - 1))
            rhs = top_vec(qp, c1(s, qp, n - 1) * c1(p, qp, 1))
            if lhs != rhs:
                return ConditionVerdict(
                    "leading-coefficients",
                    f"copies ({s},{p}) have mismatched e_{{*,n-1}} cross terms",
                )
    for s in range(1, m + 1):
        q = targets[s - 1]
        for p in range(3, n - 1, 2):
            total = 0
            for j in range(1, p + 1):
                total += (-1) ** j * c1(s, q, j) * c1(s, q, p - j + 1)
            if total != 0:
                return ConditionVerdict(
                    "odd-convolution",
                    f"copy {s} convolution at order {p} is {total}",
                )
    # copy s sends e_{sn} to k_s e_{q_s n}, so beta's column s must map to
    # k_s beta_{q_s} = sum_t beta_{t,s} k_t beta_{q_t}
    beta = spec.beta
    image = [
        tuple(c0(s, q, 0) ** (n - 2) * c1(s, q, 1) ** 2 * x for x in beta[q - 1])
        for s, q in enumerate(targets, start=1)
    ]
    if any(
        image[s] != tuple(sum(c * image[t][i] for t, c in enumerate(beta[s])) for i in range(r))
        for s in range(r, m)
    ):
        return ConditionVerdict(
            "gluing-compatibility", "permutation and scales do not preserve the gluing"
        )
    return ConditionVerdict()


def make_scaling_automorphism(
    spec: QuasiQnSpec,
    alphas: Sequence,
    betas: Sequence,
    perm: Optional[Sequence[int]] = None,
) -> GeneratorImages:
    """Candidate with e_{s0} -> alpha_s e_{perm(s),0}, e_{s1} -> beta_s e_{perm(s),1}.

    ``perm`` maps copies to copies (1-based, identity by default).  The images
    may live in a second gluing with the same (n, m, r), given as ``spec``.
    The scales must be m nonzero ones of each kind and ``perm`` a bijection,
    as ``iso.build_algebra_witness`` passes them: none of it is checked.
    The result is an automorphism only when the induced top scales
    alpha^{n-2} beta^2 are compatible with the gluing; run
    ``automorphism_conditions`` to find out.
    """
    if perm is None:
        perm = range(1, spec.m + 1)
    e0 = tuple({spec.gen_index(q, 0): scalar(a)} for q, a in zip(perm, alphas))
    e1 = tuple({spec.gen_index(q, 1): scalar(b)} for q, b in zip(perm, betas))
    return GeneratorImages(e0, e1)


def exp_ad(L: LieAlgebra, x: dict) -> Matrix:
    """exp(ad x) for a sparse vector x in a nilpotent algebra: an inner
    automorphism."""
    cols = []
    for j in range(L.dim):
        total, term, k = {j: 1}, {j: 1}, 0
        while term:
            k += 1
            term = L.bracket(x, term)
            _subtract(total, -Fraction(1, factorial(k)), term)
            if k > L.dim:
                raise ValueError("ad x is not nilpotent")
        cols.append(total)
    return Matrix.from_columns(cols, L.dim)
