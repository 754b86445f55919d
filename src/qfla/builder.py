"""Constructors for the filiform algebra Q_n and its glued sums N(Q_n, m, r).

Q_n (n = 2d+1 odd) lives on e_0..e_n with [e_0, e_i] = e_{i+1} (i <= n-2) and
[e_i, e_{n-i}] = (-1)^i e_n.  N(Q_n, m, r) is m pairwise-commuting copies whose
top vectors e_{sn} span an r-dimensional space: e_{sn} = sum_j B[j][s-r-1] e_{jn}
for s > r.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .linalg import Matrix, ONE, ZERO, _combine, inverse
from .liecore import LieAlgebra


class BadSpec(ValueError):
    pass


class BadN(BadSpec):
    pass


class NonBlockForm(ValueError):
    pass


@dataclass(frozen=True)
class QuasiQnSpec:
    """Parameters (n, m, r, B) of N(Q_n, m, r).

    ``B`` is the r x (m-r) gluing matrix: column s-r-1 holds the coefficients
    expressing e_{sn} (s > r) over the independent tops e_{1n}..e_{rn}.
    """

    n: int
    m: int
    r: int
    B: Matrix

    def __post_init__(self):
        if self.n < 5 or self.n % 2 == 0:
            raise BadN(f"n must be odd and >= 5, got {self.n}")
        if self.m < 1:
            raise BadSpec(f"m must be >= 1, got {self.m}")
        if not 1 <= self.r <= self.m:
            raise BadSpec(f"r must satisfy 1 <= r <= m, got r={self.r}, m={self.m}")
        if self.B.rows != self.r or self.B.cols != self.m - self.r:
            raise BadSpec(
                f"B must be {self.r}x{self.m - self.r}, got {self.B.rows}x{self.B.cols}"
            )
        for j, column in enumerate(self.beta[self.r :]):
            if not any(column):
                raise BadSpec(f"column {j} of B is zero: top vector {self.r + j + 1} would vanish")

    @cached_property
    def beta(self) -> tuple:
        """The m columns of beta = (I | B) as r-tuples: column s-1 expands
        e_{sn} over e_{1n}..e_{rn}."""
        units = tuple(tuple(ONE if t == s else ZERO for t in range(self.r)) for s in range(self.r))
        return units + tuple(
            tuple(self.B.entry(t, k) for t in range(self.r)) for k in range(self.B.cols)
        )

    @property
    def d(self) -> int:
        return (self.n - 1) // 2

    @property
    def dim(self) -> int:
        return self.m * self.n + self.r

    # -- basis index layout: e_{s,j} at (s-1)*n + j, e_{tn} at m*n + (t-1) ------

    def gen_index(self, s: int, j: int) -> int:
        if not (1 <= s <= self.m and 0 <= j <= self.n - 1):
            raise IndexError(f"no basis vector e_{{{s},{j}}}")
        return (s - 1) * self.n + j

    def top_index(self, t: int) -> int:
        if not 1 <= t <= self.r:
            raise IndexError(f"no top vector index {t}")
        return self.m * self.n + (t - 1)

    def labels(self) -> tuple:
        gens = [f"e_{s}_{j}" for s in range(1, self.m + 1) for j in range(self.n)]
        return tuple(gens + [f"e_{t}_n" for t in range(1, self.r + 1)])


def make_spec(n: int, m: int, r: int, B=None) -> QuasiQnSpec:
    """Spec from plain data; B may be a Matrix, nested lists of scalars, or None."""
    if B is None:
        B = Matrix([[]] * r)
    elif not isinstance(B, Matrix):
        B = Matrix(B)
    return QuasiQnSpec(n, m, r, B)


@lru_cache(maxsize=None)
def build_quasi(spec: QuasiQnSpec) -> LieAlgebra:
    """Construct N(Q_n, m, r); Jacobi is verified on construction."""
    n, m, r = spec.n, spec.m, spec.r
    sc: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for s in range(1, m + 1):
        top = {spec.top_index(t): c for t, c in enumerate(spec.beta[s - 1], start=1) if c}
        for i in range(1, n - 1):
            sc[(spec.gen_index(s, 0), spec.gen_index(s, i))] = {spec.gen_index(s, i + 1): ONE}
        for i in range(1, spec.d + 1):  # [e_i, e_{n-i}] = (-1)^i e_n, stored once
            sign = ONE if i % 2 == 0 else -ONE
            sc[(spec.gen_index(s, i), spec.gen_index(s, n - i))] = {
                k: sign * c for k, c in top.items()
            }
    return LieAlgebra(spec.dim, sc, labels=spec.labels())


def build_qn(n: int) -> LieAlgebra:
    """The filiform algebra Q_n itself, as the degenerate gluing N(Q_n, 1, 1)."""
    if not isinstance(n, int) or n < 5 or n % 2 == 0:
        raise BadN(f"n must be odd and >= 5, got {n}")
    return build_quasi(make_spec(n, 1, 1))


def qn_x_basis(n: int) -> LieAlgebra:
    """Q_n in its defining x-basis: [x_0, x_i] = x_{i+1} (i <= n-1),
    [x_i, x_{n-i}] = (-1)^i x_n."""
    if n < 5 or n % 2 == 0:
        raise BadN(f"n must be odd and >= 5, got {n}")
    sc: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(1, n):
        sc[(0, i)] = {i + 1: ONE}
    for i in range(1, (n - 1) // 2 + 1):
        sign = ONE if i % 2 == 0 else -ONE
        tgt = sc.setdefault((i, n - i), {})
        tgt[n] = tgt.get(n, ZERO) + sign
    return LieAlgebra(n + 1, sc)


def change_of_basis(L: LieAlgebra, P: Matrix, labels=None) -> LieAlgebra:
    """Transport the structure tensor to the basis whose vectors are the columns of P."""
    inverse_cols = inverse(P).columns()
    dim = L.dim
    sc: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    cols = P.columns()
    for a in range(dim):
        for b in range(a + 1, dim):
            entry = _combine(L.bracket(cols[a], cols[b]), inverse_cols)
            if entry:
                sc[(a, b)] = entry
    return LieAlgebra(dim, sc, labels=labels)


def rebase_x_to_e(n: int) -> Matrix:
    """Matrix taking x-coordinates to e-coordinates (e_0 = x_0 + x_1, e_i = x_i)."""
    if n < 5 or n % 2 == 0:
        raise BadN(f"n must be odd and >= 5, got {n}")
    grid = [[ONE if i == j else ZERO for j in range(n + 1)] for i in range(n + 1)]
    grid[1][0] = -ONE  # x_1 = e_1 picks up -e_0's x_1 component
    return Matrix(grid, cols=n + 1)


@dataclass(frozen=True)
class RelatedMatrix:
    """(A | I_{m-r}) annihilating the row of top vectors (e_{1n} ... e_{mn})."""

    matrix: Matrix
    m: int
    r: int

    def __post_init__(self):
        if self.matrix.rows != self.m - self.r or self.matrix.cols != self.m:
            raise ValueError("related matrix must be (m-r) x m")
        for i in range(self.m - self.r):
            for j in range(self.m - self.r):
                expected = ONE if i == j else ZERO
                if self.matrix.entry(i, self.r + j) != expected:
                    raise ValueError("trailing block is not the identity")


def related_matrix_of(spec: QuasiQnSpec) -> RelatedMatrix:
    """(-B^t | I): each row encodes e_{sn} - sum_j b_{js} e_{jn} = 0 for s > r."""
    rows = []
    for s in range(spec.r + 1, spec.m + 1):
        row = [ZERO] * spec.m
        row[: spec.r] = [-c for c in spec.beta[s - 1]]
        row[s - 1] = ONE
        rows.append(row)
    return RelatedMatrix(Matrix(rows, cols=spec.m), spec.m, spec.r)


def _normalised(v: tuple) -> tuple:
    """v scaled to leading entry 1; () for the zero vector."""
    lead = next((x for x in v if x != 0), None)
    return () if lead is None else tuple(x / lead for x in v)


def proportional_classes(columns: Sequence[tuple]) -> tuple:
    """The classes of proportional columns, as tuples of 0-based column
    indices in ascending order, listed by their first member."""
    classes: Dict[tuple, list] = {}
    for p, v in enumerate(columns):
        classes.setdefault(_normalised(v), []).append(p)
    return tuple(tuple(members) for members in classes.values())


def block_structure(spec: QuasiQnSpec) -> Optional[tuple]:
    """The blocks of a block-form gluing: per independent top t, the copies
    (1-based, ascending) whose e_{sn} is a multiple of e_{tn}.

    The r unit columns of beta = (I | B) fall in r distinct proportional
    classes, so the gluing is in block form exactly when beta has no other
    class, and its classes are then the blocks.  Returns None when some
    column of B mixes two tops.
    """
    classes = proportional_classes(spec.beta)
    if len(classes) != spec.r:
        return None
    return tuple(tuple(s + 1 for s in members) for members in classes)


def support_components(spec: QuasiQnSpec) -> tuple:
    """The connected components of the graph joining copy s to copy t <= r
    when beta_{t,s} != 0: tuples of 1-based copies in ascending order,
    listed by first member.  On block form they are the blocks."""
    parent = list(range(spec.m + 1))

    def root(s: int) -> int:
        while parent[s] != s:
            s = parent[s]
        return s

    for s, column in enumerate(spec.beta, start=1):
        for t, c in enumerate(column, start=1):
            if c:
                parent[root(s)] = root(t)
    components: Dict[int, list] = {}
    for s in range(1, spec.m + 1):
        components.setdefault(root(s), []).append(s)
    return tuple(tuple(members) for members in components.values())
