"""Generic Lie algebra machinery over structure constants.

Algebras are stored as an antisymmetric structure-constant tensor: brackets
[e_i, e_j] are recorded only for i < j, so antisymmetry holds by construction.
All coefficients are exact rationals.  Vectors are sparse {index: Fraction}
dicts: ``LieAlgebra.bracket`` takes and returns them, and the series and
splittings below feed brackets of sparse basis vectors straight to the
``linalg`` elimination engine.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .linalg import Matrix, ONE, _combine, _subtract, column_span, scalar


class DimensionMismatch(ValueError):
    pass


class JacobiViolation(ValueError):
    pass


class NotNilpotent(RuntimeError):
    pass


class NotDirect(RuntimeError):
    pass


class NotSpanning(RuntimeError):
    pass


class LieAlgebra:
    """Finite dimensional Lie algebra given by structure constants.

    ``sc`` maps basis pairs (i, j) with i < j to {k: c} meaning
    [e_i, e_j] = sum_k c * e_k.  Pairs absent from ``sc`` bracket to zero.
    ``labels`` name the basis vectors as the JSON prints them; by default
    e_i is "x_i".
    """

    __slots__ = ("dim", "labels", "sc")

    def __init__(
        self,
        dim: int,
        sc: Dict[Tuple[int, int], Dict[int, Fraction]],
        labels: Optional[Sequence[str]] = None,
        validate: bool = True,
    ):
        self.dim = dim
        labels = tuple(f"x_{i}" for i in range(dim)) if labels is None else tuple(labels)
        if len(labels) != dim:
            raise DimensionMismatch("label count != dim")
        if len(set(labels)) != dim:
            raise ValueError("labels must be pairwise distinct")
        self.labels = labels
        clean: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), val in sc.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"structure constants must be stored for i<j, got ({i},{j})")
            entry = {k: scalar(c) for k, c in val.items() if c != 0}
            for k in entry:
                if not 0 <= k < dim:
                    raise ValueError("target index out of range")
            if entry:
                clean[(i, j)] = entry
        self.sc = clean
        if validate:
            ok, triple = check_jacobi(self)
            if not ok:
                raise JacobiViolation(f"Jacobi identity fails on basis triple {triple}")

    # -- bracket evaluation ---------------------------------------------------

    def structure(self, i: int, j: int) -> Dict[int, Fraction]:
        """[e_i, e_j] as a sparse vector, for any index order."""
        if i == j:
            return {}
        if i < j:
            return self.sc.get((i, j), {})
        back = self.sc.get((j, i))
        if not back:
            return {}
        return {k: -c for k, c in back.items()}

    def bracket(self, x: dict, y: dict) -> Dict[int, Fraction]:
        """Bilinear extension of the structure constants to sparse vectors
        {index: scalar}; the result has no zero entries."""
        out: Dict[int, Fraction] = {}
        for i, a in x.items():
            for j, b in y.items():
                # [e_i, e_j] is sc[(i, j)] for i < j and -sc[(j, i)] otherwise
                if i < j:
                    c = self.sc.get((i, j))
                    if c:
                        _subtract(out, -a * b, c)
                else:
                    c = self.sc.get((j, i))
                    if c:
                        _subtract(out, a * b, c)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.labels == other.labels and self.sc == other.sc

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.sc)})"


def check_jacobi(L: LieAlgebra):
    """Jacobi check over the basis triples where it can fail.

    [e_x, [e_a, e_b]] is nonzero only when (a, b) is a stored pair and e_x
    brackets nonzero with some e_t in the support of [e_a, e_b]; every other
    triple has three zero terms.  Those candidates are checked in sorted order.
    Returns (True, None), or (False, (i, j, k)) for the first failing triple.
    """
    sc = L.sc
    partners = [set() for _ in range(L.dim)]  # partners[t]: x with [e_x, e_t] != 0
    for i, j in sc:
        partners[i].add(j)
        partners[j].add(i)
    candidates = {
        tuple(sorted((a, b, x)))
        for (a, b), value in sc.items()
        for t in value
        for x in partners[t]
        if x != a and x != b
    }
    for i, j, k in sorted(candidates):
        total: Dict[int, Fraction] = {}
        for pair, extra in (((j, k), i), ((k, i), j), ((i, j), k)):
            for t, c in L.structure(*pair).items():
                _subtract(total, c, L.structure(t, extra))  # += c [e_extra, e_t]
        if total:
            return False, (i, j, k)
    return True, None


def _bracket_span(L: LieAlgebra, left: list, right: list) -> Matrix:
    """span{ [u, v] : u in left, v in right } of sparse vectors."""
    return column_span([L.bracket(u, v) for u in left for v in right], L.dim)


def lower_central_series(L: LieAlgebra) -> tuple:
    """c^0 = L, c^{i+1} = [L, c^i] as canonical column-span matrices, ending
    with the zero space; raises NotNilpotent if it stabilizes nonzero."""
    basis = [{k: ONE} for k in range(L.dim)]
    spaces = [Matrix.identity(L.dim)]
    current = basis
    while current:
        nxt = _bracket_span(L, basis, current)
        if nxt.cols == len(current):
            raise NotNilpotent(f"series stabilizes at dimension {nxt.cols}")
        spaces.append(nxt)
        current = nxt.columns()
    return tuple(spaces)


def is_filiform(chain: tuple) -> bool:
    """Maximal nilpotency class, read off the lower central series of L:
    dim c^i = dim L - i - 1 for 1 <= i <= dim L - 1."""
    dims = [space.cols for space in chain]
    for i in range(1, dims[0]):
        actual = dims[i] if i < len(dims) else 0
        if actual != dims[0] - i - 1:
            return False
    return True


def minimal_generator_count(chain: tuple) -> int:
    """dim L - dim c^1 L from the lower central series of L (c^1 of the zero
    algebra is 0): the size of any minimal system of generators."""
    return chain[0].cols - (chain[1].cols if len(chain) > 1 else 0)


def is_minimal_generating_set(L: LieAlgebra, vectors: Sequence[dict]) -> bool:
    """True iff the residues of the sparse vectors mod c^1 L form a basis of
    L / c^1 L."""
    c1 = lower_central_series(L)[1]
    if len(vectors) != L.dim - c1.cols:
        return False
    return column_span(list(vectors) + c1.columns(), L.dim).cols == L.dim


def quasi_cyclic_split(L: LieAlgebra, U: Matrix) -> tuple:
    """Chain U, [U,U], [U,[U,U]], ... when the sum is direct and spans L.

    Raises NotDirect if the partial sums overlap and NotSpanning if the total
    falls short of L.
    """
    chain = [column_span(U.columns(), L.dim)]
    first = cols = chain[0].columns()
    all_cols = list(first)
    while True:
        nxt = _bracket_span(L, first, cols)
        if nxt.cols == 0:
            break
        chain.append(nxt)
        cols = nxt.columns()
        all_cols += cols
    total = len(all_cols)
    r = column_span(all_cols, L.dim).cols
    if r < total:
        raise NotDirect(f"sum of chain spaces has rank {r} < {total}")
    if r < L.dim:
        raise NotSpanning(f"chain spans only {r} of {L.dim} dimensions")
    return tuple(chain)


def bracket_preserving(L1: LieAlgebra, L2: LieAlgebra, M: Matrix) -> bool:
    """True iff M[x,y]_1 = [Mx, My]_2 on all basis pairs of L1."""
    if M.rows != L2.dim or M.cols != L1.dim:
        raise DimensionMismatch("map shape does not match the two algebras")
    cols = M.columns()
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            if _combine(L1.structure(i, j), cols) != L2.bracket(cols[i], cols[j]):
                return False
    return True
