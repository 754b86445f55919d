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
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Sequence, Tuple

from .linalg import Matrix, Scalar, _combine, inverse
from .liecore import LieAlgebra, check_jacobi


class BadInput(ValueError):
    """Malformed, inconsistent or oversized input: the one refusal, exit 2
    in the CLI.  The message leads with the field at fault."""


# The largest dim an algebra file or a spec may have: 40 times the largest
# any test or workload builds, and far below what exhausts memory.
MAX_DIM = 10_000


def _check_n(n: int) -> None:
    if n < 5 or n % 2 == 0:
        raise BadInput(f"n: must be odd and >= 5, got {n}")


@dataclass(frozen=True)
class QuasiQnSpec:
    """Parameters (n, m, r, B) of N(Q_n, m, r).

    ``B`` is the r x (m-r) gluing matrix: column s-r-1 holds the coefficients
    expressing e_{sn} (s > r) over the independent tops e_{1n}..e_{rn}.
    Every refusal is a ``BadInput`` whose message leads with the field at
    fault: ``n``, ``m``, ``r``, ``dim`` or ``B``.
    """

    n: int
    m: int
    r: int
    B: Matrix

    def __post_init__(self):
        _check_n(self.n)
        if self.m < 1:
            raise BadInput(f"m: must be >= 1, got {self.m}")
        if not 1 <= self.r <= self.m:
            raise BadInput(f"r: must satisfy 1 <= r <= m, got r={self.r}, m={self.m}")
        if self.dim > MAX_DIM:
            raise BadInput(
                f"dim: m*n + r = {self.dim} exceeds {MAX_DIM} (n={self.n}, m={self.m}, r={self.r})"
            )
        if self.B.rows != self.r or self.B.cols != self.m - self.r:
            raise BadInput(
                f"B: must be {self.r}x{self.m - self.r}, got {self.B.rows}x{self.B.cols}"
            )
        for j, column in enumerate(self.B.columns()):
            if not column:
                raise BadInput(f"B: column {j} is zero: top vector {self.r + j + 1} would vanish")

    @cached_property
    def beta(self) -> tuple:
        """The m columns of beta = (I | B) as r-tuples: column s-1 expands
        e_{sn} over e_{1n}..e_{rn}."""
        units = tuple(tuple(1 if t == s else 0 for t in range(self.r)) for s in range(self.r))
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
    """Spec from plain data; B may be a Matrix, nested lists of scalars, or
    None for no glued copies (an r x 0 matrix)."""
    if B is None:
        B = Matrix.from_columns([], r)
    elif not isinstance(B, Matrix):
        B = Matrix(B)
    return QuasiQnSpec(n, m, r, B)


@lru_cache(maxsize=None)
def build_quasi(spec: QuasiQnSpec) -> LieAlgebra:
    """Construct N(Q_n, m, r); Jacobi is verified on construction."""
    n, m, r = spec.n, spec.m, spec.r
    sc: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for s in range(1, m + 1):
        top = {spec.top_index(t): c for t, c in enumerate(spec.beta[s - 1], start=1) if c}
        for i in range(1, n - 1):
            sc[(spec.gen_index(s, 0), spec.gen_index(s, i))] = {spec.gen_index(s, i + 1): 1}
        for i in range(1, spec.d + 1):  # [e_i, e_{n-i}] = (-1)^i e_n, stored once
            sign = 1 if i % 2 == 0 else -1
            sc[(spec.gen_index(s, i), spec.gen_index(s, n - i))] = {
                k: sign * c for k, c in top.items()
            }
    return check_jacobi(LieAlgebra(spec.dim, sc))


def build_qn(n: int) -> LieAlgebra:
    """The filiform algebra Q_n itself, as the degenerate gluing N(Q_n, 1, 1)."""
    return build_quasi(make_spec(n, 1, 1))


def qn_x_basis(n: int) -> LieAlgebra:
    """Q_n in its defining x-basis: [x_0, x_i] = x_{i+1} (i <= n-1),
    [x_i, x_{n-i}] = (-1)^i x_n."""
    _check_n(n)
    sc: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for i in range(1, n):
        sc[(0, i)] = {i + 1: 1}
    for i in range(1, (n - 1) // 2 + 1):
        sc[(i, n - i)] = {n: 1 if i % 2 == 0 else -1}
    return check_jacobi(LieAlgebra(n + 1, sc))


def change_of_basis(L: LieAlgebra, P: Matrix) -> LieAlgebra:
    """Transport the structure tensor to the basis whose vectors are the columns of P."""
    inverse_cols = inverse(P).columns()
    dim = L.dim
    sc: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    cols = P.columns()
    for a in range(dim):
        for b in range(a + 1, dim):
            entry = _combine(L.bracket(cols[a], cols[b]), inverse_cols)
            if entry:
                sc[(a, b)] = entry
    return check_jacobi(LieAlgebra(dim, sc))


def rebase_x_to_e(n: int) -> Matrix:
    """Matrix taking x-coordinates to e-coordinates (e_0 = x_0 + x_1, e_i = x_i)."""
    _check_n(n)
    grid = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    grid[1][0] = -1  # x_1 = e_1 picks up -e_0's x_1 component
    return Matrix(grid, cols=n + 1)


def related_matrix(beta: Sequence[tuple]) -> Matrix:
    """(-B^t | I) from the m columns of beta = (I | B) in Q^r: row s - r - 1
    encodes e_{sn} - sum_t beta_{t,s} e_{tn} = 0 for each s > r."""
    m, r = len(beta), len(beta[0])
    units = [[1 if t == s else 0 for t in range(r, m)] for s in range(r, m)]
    return Matrix([[-c for c in beta[s]] + units[s - r] for s in range(r, m)], cols=m)


def _normalised(v: tuple) -> tuple:
    """v scaled to leading entry 1; () for the zero vector."""
    lead = next((x for x in v if x != 0), None)
    return () if lead is None else tuple(Fraction(x) / lead for x in v)


def proportional_classes(columns: Sequence[tuple]) -> tuple:
    """The classes of proportional columns, as tuples of 0-based column
    indices in ascending order, listed by their first member."""
    classes: Dict[tuple, list] = {}
    for p, v in enumerate(columns):
        classes.setdefault(_normalised(v), []).append(p)
    return tuple(tuple(members) for members in classes.values())


def _eliminate(rows: dict, w: list) -> list:
    """A nonzero multiple of w's projection along integer echelon rows {lead:
    row}, fraction-free: w <- row[lead] w - w[lead] row, lead by lead."""
    for lead in sorted(rows):
        row, y = rows[lead], w[lead]
        if y:
            x0 = row[lead]
            w = [x0 * a - y * b for a, b in zip(w, row)]
    return w


def copy_cells(columns: Sequence[tuple]) -> tuple:
    """One label per column of vectors in Q^k that GL_k and monomial maps
    carry along: cells(A v_{pi(j)} s_j)[j] == cells(v)[pi(j)].

    For every set C of k - 2 columns with independent vectors, the other
    columns are projected from span(C) onto Q^2, and every four of them,
    p, a, b, c, give j = (x^2 - xy + y^2)^3 / (xyz)^2 with x = [pb][ac],
    y = [pc][ab] and z = x - y = [pa][bc] (Pluecker), [uv] a 2x2 determinant.
    Such a map multiplies each bracket by one determinant and by its two
    points' scales, so x, y and z share one factor, and j, of degree 0 in
    every point and symmetric in the four, stays.  A record is j as a reduced
    pair, or (-vanishing brackets, 0); a cell sorts a column's (in C, record).
    Nor do records see a column's scale: its denominators are cleared once.
    """
    m, k = len(columns), len(columns[0]) if columns else 0
    vectors = []
    for v in columns:
        d = lcm(*(x.denominator for x in v))
        vectors.append([x.numerator * (d // x.denominator) for x in v])
    cells: list = [[] for _ in columns]
    for centre in combinations(range(m), k - 2) if k >= 2 else ():
        rows: dict = {}
        for c in centre:
            w = _eliminate(rows, vectors[c])
            if any(w):
                rows[next(i for i, x in enumerate(w) if x)] = w
        if len(rows) < k - 2:
            continue
        f, g = (i for i in range(k) if i not in rows)
        rest, points = [p for p in range(m) if p not in centre], {}
        for p in rest:
            w = _eliminate(rows, vectors[p])
            h = gcd(w[f], w[g]) or 1
            points[p] = (w[f] // h, w[g] // h)  # primitive integers
        for four in combinations(rest, 4):
            pairs = combinations([points[q] for q in four], 2)
            brackets = [s[0] * t[1] - s[1] * t[0] for s, t in pairs]
            _, pb, pc, ab, ac, _ = brackets  # [pa] and [bc] only count as zeros
            x, y, zeros = pb * ac, pc * ab, brackets.count(0)
            value = (-zeros, 0)  # j > 0 below, so the two kinds of record never meet
            if not zeros:
                num, den = (x * x - x * y + y * y) ** 3, (x * y * (x - y)) ** 2
                h = gcd(num, den)
                value = (num // h, den // h)  # a reduced pair: tuples sort fast
            for q in centre + four:
                cells[q].append((q in centre, value))
    return tuple(tuple(sorted(cell)) for cell in cells)


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
