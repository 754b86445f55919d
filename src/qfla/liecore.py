"""Generic Lie algebra machinery over structure constants.

Algebras are stored as an antisymmetric structure-constant tensor: brackets
[e_i, e_j] are recorded only for i < j, so antisymmetry holds by construction.
All coefficients are nonzero exact scalars in ``linalg.scalar``'s normal
form.  ``LieAlgebra`` trusts its table and checks none of this: a table read
from a file has passed ``jsonio``'s checks, and every table the package uses
has passed ``check_jacobi``.  Vectors are sparse
{index: scalar} dicts: ``LieAlgebra.bracket`` takes and returns them, and the
series and splittings below feed brackets of sparse basis vectors straight to
the ``linalg`` elimination engine.

Who brackets with whom is read off one partner table, built once per algebra:
``partners[i]`` maps each j with [e_i, e_j] != 0 to [e_j, e_i], for both index
orders.  The sign is folded in for ``bracket``, which accumulates
out -= x_i y_j [e_j, e_i] through ``_subtract`` and so negates nothing per hit.
It walks each x_i against the smaller of ``partners[i]`` and supp(y), so it
pays per nonzero bracket, not per index pair.  ``structure``, the Jacobi
check, ``_walk`` (the lower central series and the quasi-cyclic split) and
the derivation oracle read the same table.  ``structure`` returns the
table's own dicts, which callers must not change.

Each way a check can fail raises one class, caught by one handler:
``JacobiViolation``, ``NotNilpotent``, and ``NotQuasiCyclic`` for a chain
that overlaps or falls short, the message telling which.
"""
from __future__ import annotations

from itertools import islice
from typing import Dict, Sequence, Tuple

from .linalg import Matrix, Scalar, _combine, _peel, _subtract, _transpose, column_span


class JacobiViolation(ValueError):
    pass


class NotNilpotent(RuntimeError):
    pass


class NotQuasiCyclic(RuntimeError):
    pass


class LieAlgebra:
    """Finite dimensional Lie algebra given by structure constants.

    ``sc`` maps basis pairs (i, j) with i < j to {k: c} meaning
    [e_i, e_j] = sum_k c * e_k.  Pairs absent from ``sc`` bracket to zero.
    The table is taken as given, so it must satisfy 0 <= i < j < dim and
    0 <= k < dim, hold every c as an exact scalar in ``linalg.scalar``'s
    normal form, and carry no zero entry and no empty bracket: ``jsonio``
    checks a file against this before it builds one, and ``check_jacobi``
    checks the identity.
    ``partners[i]`` maps every j with [e_i, e_j] != 0 to [e_j, e_i], in
    ascending j; for i > j that is the dict ``sc[(j, i)]`` itself.
    """

    __slots__ = ("dim", "sc", "partners")

    def __init__(self, dim: int, sc: Dict[Tuple[int, int], Dict[int, Scalar]]):
        self.dim = dim
        self.sc = sc
        # in sorted pair order every partners[t] fills in ascending index order
        partners: Tuple[Dict[int, Dict[int, Scalar]], ...] = tuple({} for _ in range(dim))
        for i, j in sorted(sc):
            value = sc[(i, j)]
            partners[i][j] = {k: -c for k, c in value.items()}
            partners[j][i] = value
        self.partners = partners

    # -- bracket evaluation ---------------------------------------------------

    def structure(self, i: int, j: int) -> Dict[int, Scalar]:
        """[e_i, e_j] as a sparse vector, for any index order; the dict is the
        algebra's own and must not be changed."""
        return self.partners[j].get(i, {})

    def bracket(self, x: dict, y: dict) -> Dict[int, Scalar]:
        """Bilinear extension of the structure constants to sparse vectors
        {index: scalar}; the result is a fresh dict without zero entries."""
        out: Dict[int, Scalar] = {}
        partners, ny = self.partners, len(y)
        for i, a in x.items():
            row = partners[i]  # {j: [e_j, e_i]}
            if len(row) < ny:
                for j, c in row.items():
                    b = y.get(j)
                    if b:
                        _subtract(out, a * b, c)
            else:
                for j, b in y.items():
                    c = row.get(j)
                    if c:
                        _subtract(out, a * b, c)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.sc == other.sc

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.sc)})"


def check_jacobi(L: LieAlgebra) -> LieAlgebra:
    """L itself, once the Jacobi identity holds on every basis triple where
    it can fail; raises JacobiViolation naming the first failing triple.

    [e_x, [e_a, e_b]] is nonzero only when (a, b) is a stored pair and e_x
    brackets nonzero with some e_t in the support of [e_a, e_b]; every other
    triple has three zero terms.  Those candidates are checked in sorted order.
    """
    partners = L.partners  # partners[t]: the x with [e_x, e_t] != 0
    candidates = {
        tuple(sorted((a, b, x)))
        for (a, b), value in L.sc.items()
        for t in value
        for x in partners[t]
        if x != a and x != b
    }
    for i, j, k in sorted(candidates):
        total: Dict[int, Scalar] = {}
        for pair, extra in (((j, k), i), ((k, i), j), ((i, j), k)):
            for t, c in L.structure(*pair).items():
                _subtract(total, c, L.structure(t, extra))  # += c [e_extra, e_t]
        if total:
            raise JacobiViolation(f"Jacobi identity fails on basis triple {(i, j, k)}")
    return L


def _walk(L: LieAlgebra, vectors: Sequence[dict]):
    """S_0 = span(vectors), then S_{i+1} = [S_0, S_i] while it is nonzero,
    as canonical column-span matrices.

    [u, v] vanishes unless supp(u) meets the partners of supp(v).  So each
    basis vector v of S_i is bracketed only with the basis vectors u of S_0
    that do, and the walk pays per nonzero bracket, not per pair: copies
    commute, so a gluing's e_{st} meets at most the two generators of its
    own copy."""
    space = column_span(vectors, L.dim)
    first = cols = space.columns()
    meets: Dict[int, list] = {}  # basis index a -> the places t with a in supp(first[t])
    for t, u in enumerate(first):
        for a in u:
            meets.setdefault(a, []).append(t)
    while space.cols:
        yield space
        brackets = []
        for v in cols:
            near = {t for j in v for a in L.partners[j] for t in meets.get(a, ())}
            brackets += [L.bracket(first[t], v) for t in sorted(near)]
        space = column_span(brackets, L.dim)
        cols = space.columns()


def lower_central_series(L: LieAlgebra) -> tuple:
    """c^0 = L, c^{i+1} = [L, c^i] as canonical column-span matrices, ending
    with the zero space; raises NotNilpotent if it stabilizes nonzero.  It is
    the walk of the whole basis."""
    spaces = []
    for space in _walk(L, Matrix.identity(L.dim).columns()):
        if spaces and space.cols == spaces[-1].cols:
            raise NotNilpotent(f"series stabilizes at dimension {space.cols}")
        spaces.append(space)
    return (*spaces, column_span([], L.dim))


def is_filiform(dims: Sequence[int]) -> bool:
    """Maximal nilpotency class, read off the dims of the lower central series
    of L: dim c^i = dim L - i - 1 for 1 <= i <= dim L - 1."""
    for i in range(1, dims[0]):
        actual = dims[i] if i < len(dims) else 0
        if actual != dims[0] - i - 1:
            return False
    return True


def minimal_generator_count(dims: Sequence[int]) -> int:
    """dim L - dim c^1 L from the dims of the lower central series of L (c^1
    of the zero algebra is 0): the size of any minimal system of generators."""
    return dims[0] - (dims[1] if len(dims) > 1 else 0)


def is_minimal_generating_set(L: LieAlgebra, vectors: Sequence[dict]) -> bool:
    """True iff the residues of the sparse vectors mod c^1 L form a basis of
    L / c^1 L."""
    c1 = lower_central_series(L)[1]
    if len(vectors) != L.dim - c1.cols:
        return False
    return column_span(list(vectors) + c1.columns(), L.dim).cols == L.dim


def quasi_cyclic_split(L: LieAlgebra, U: Matrix) -> tuple:
    """Chain U, [U,U], [U,[U,U]], ... when the sum is direct and spans L.

    Raises NotQuasiCyclic if the partial sums overlap or the total falls
    short of L.  The chain is the walk of U, cut after level dim L: level i
    lies in c^i L, so a nilpotent L never reaches the cut, and a cut walk has
    over dim L columns ([U, U] = 0 if dim U < 2), so its sum overlaps."""
    chain = tuple(islice(_walk(L, U.columns()), L.dim + 1))
    all_cols = [col for space in chain for col in space.columns()]
    total = len(all_cols)
    r = column_span(all_cols, L.dim).cols
    if r < total:
        raise NotQuasiCyclic(f"sum of chain spaces has rank {r} < {total}")
    if r < L.dim:
        raise NotQuasiCyclic(f"chain spans only {r} of {L.dim} dimensions")
    return chain


def _derived_rows(L: LieAlgebra) -> list:
    """Fresh copies of the table's bracket values, which span [L, L], when
    every target k of a stored [e_i, e_j] (i < j) has k > j; no rows
    otherwise.  The first case makes L nilpotent, as each ad e_i raises the
    index, and in a nilpotent L a subalgebra S with S + [L, L] = L is L
    itself: these rows may join any spanning set of a subalgebra that is to
    be shown to be L.  A gluing's are mostly one-entry rows, which
    ``_peel`` flags with no arithmetic."""
    if all(k > j for (_, j), value in L.sc.items() for k in value):
        return [dict(value) for value in L.sc.values()]
    return []


def _generator_indices(L: LieAlgebra) -> list:
    """Basis indices whose vectors generate L, read off its table: the
    indices outside the pivots of ``_derived_rows``, which are every index
    when that gives no rows.  A gluing's generators are the 2m indices of
    the e_{s0}, e_{s1}."""
    units, reduced = _peel(_derived_rows(L), L.dim)
    return [g for g in range(L.dim) if not units[g] and g not in reduced]


def is_isomorphism(L1: LieAlgebra, L2: LieAlgebra, M: Matrix) -> bool:
    """Brute force: M, a map from L1 to L2, is multiplicative on all basis
    brackets and bijective.  The one check of both an automorphism (L2 = L1)
    and an iso witness.

    Bijectivity is decided after the bracket check: a homomorphism's image
    is a subalgebra, so M is bijective iff its columns and
    ``_derived_rows(L2)`` span L2.  On a gluing the one-entry rows strike
    M's columns down to their generator coordinates: no full rank is needed.
    """
    if L1.dim != L2.dim or not bracket_preserving(L1, L2, M):
        return False
    # the one-entry bracket values go first, so they strike M's columns at once
    rows = _derived_rows(L2) + [dict(c) for c in M.columns()]
    units, reduced = _peel(rows, L2.dim)
    return units.count(1) + len(reduced) == L2.dim


def bracket_preserving(L1: LieAlgebra, L2: LieAlgebra, M: Matrix) -> bool:
    """True iff M[e_i, e_j]_1 = [M e_i, M e_j]_2 on all basis pairs of L1,
    compared in the scalars that M and the two tables hold.

    Only the pairs i < j where [e_i, e_j]_1 != 0, or M e_j meets the partners
    in L2 of supp(M e_i), are evaluated, in ascending order; at every other
    pair both sides are zero by support.  The ladder's dense exp(ad x) map
    leaves 92 of 666 pairs at (9,4,1) and 952 of 14,535 at (21,8,3); the
    (5,7,4) iso witness leaves 35 of 741.
    """
    if M.rows != L2.dim or M.cols != L1.dim:
        raise ValueError("map shape does not match the two algebras")
    cols = M.columns()
    rows = _transpose(cols, L2.dim)
    for i, col in enumerate(cols):
        dom = set().union(*(L2.partners[a] for a in col))
        reach = set(L1.partners[i]).union(*(rows[b] for b in dom))
        for j in sorted(j for j in reach if j > i):
            if _combine(L1.structure(i, j), cols) != L2.bracket(col, cols[j]):
                return False
    return True
