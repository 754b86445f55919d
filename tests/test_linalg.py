"""Exact linear algebra: reduction, kernels, column spans, sparse elimination.

The package has one elimination engine, so it is checked against the
textbook dense Gauss-Jordan elimination kept here as an independent reference.
"""
import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_MATRIX, extended, random_aut_candidate, random_images, sparse, spec_id
from qfla import linalg
from qfla.automorphisms import (
    closed_form_endomorphism,
    exp_ad,
    extend_endomorphism,
    extend_through_grading,
)
from qfla.builder import build_quasi, make_spec, related_matrix
from qfla.derivations import (
    GeneratorImages,
    closed_form_extension,
    nilpotent_basis,
    torus_basis,
)
from qfla.iso import iso_decide
from qfla.liecore import LieAlgebra, is_isomorphism, lower_central_series
from qfla.linalg import (
    Matrix,
    column_span,
    inverse,
    rank,
    scalar,
    sparse_nullspace,
)

scalars = st.fractions(min_value=-30, max_value=30, max_denominator=7)
nonzero_scalars = scalars.filter(lambda x: x != 0)


def random_matrix(draw_rows, draw_cols):
    return st.integers(1, draw_rows).flatmap(
        lambda r: st.integers(1, draw_cols).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix)
        )
    )


@st.composite
def sparse_matrix(draw):
    """A wide, mostly zero matrix shaped like the dim^2-wide spans, with
    repeated, rescaled and all-zero rows mixed in."""
    cols = draw(st.sampled_from([k * k for k in range(2, 9)]))
    entries = st.dictionaries(st.integers(0, cols - 1), nonzero_scalars, max_size=4)
    grid = [
        [row.get(j, 0) for j in range(cols)]
        for row in draw(st.lists(entries, min_size=1, max_size=8))
    ]
    factors = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), scalars)
    copies = draw(st.lists(st.tuples(st.integers(0, len(grid) - 1), factors), max_size=3))
    grid += [[f * x for x in grid[i]] for i, f in copies]
    return Matrix(draw(st.permutations(grid)), cols=cols)


matrices = st.one_of(random_matrix(5, 5), sparse_matrix())


# Cheap to draw, and enough to cancel: the Leibniz rows carry small entries.
LEIBNIZ_ENTRIES = [Fraction(x) for x in (1, -1, 2, -3, "1/2", "-2/3", "7/5")]


@st.composite
def leibniz_like(draw):
    """(ncols, rows) shaped like the derivation oracle's Leibniz system: mostly
    one-entry rows.  Base row k brings in column order[k], with up to two
    columns brought in earlier; the first three form a chain {a}, {a, b},
    {b, c}, so peeling takes at least three rounds.  Some base rows are left
    out, so kernels are not trivial; coupled rows off the chain, repeated and
    rescaled rows, explicit zeros, int values and empty rows are mixed in."""
    entries = st.sampled_from(LEIBNIZ_ENTRIES)
    ncols = draw(st.integers(5, 16))
    order = draw(st.permutations(range(ncols)))
    base = [{order[0]: draw(entries)}]
    for k in range(1, ncols):
        if k < 3:
            earlier = [order[k - 1]]
        else:
            earlier = st.lists(st.sampled_from(order[:k]), min_size=1, max_size=2, unique=True)
            earlier = draw(earlier)
            if draw(st.integers(0, 2)):  # two thirds of the later rows stay units
                earlier = []
        base.append({c: draw(entries) for c in [*earlier, order[k]]})
    keep = draw(st.lists(st.booleans(), min_size=ncols - 3, max_size=ncols - 3))
    rows = base[:3] + [row for row, kept in zip(base[3:], keep) if kept]
    # coupled rows mostly on the columns whose base row was left out, so that
    # some of them survive the peeling
    free = [c for c, kept in zip(order[3:], keep) if not kept]
    if len(free) < 2 or draw(st.booleans()):
        free = order[3:]
    coupled = st.dictionaries(st.sampled_from(free), entries, min_size=2, max_size=4)
    rows += draw(st.lists(coupled, max_size=5))
    factors = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), entries)
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), factors), max_size=4))
    rows += [{c: f * x for c, x in rows[i].items()} for i, f in copies]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    for row in rows:
        if draw(st.booleans()):
            row.setdefault(draw(st.integers(0, ncols - 1)), Fraction(0))
    rows = [{c: int(x) if x.denominator == 1 else x for c, x in row.items()} for row in rows]
    return ncols, draw(st.permutations(rows))


def as_grid(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def square_grid(system):
    """The first ncols rows of a system as a square grid, padded with zero rows."""
    ncols, rows = system
    return as_grid(rows[:ncols] + [{}] * (ncols - len(rows)), ncols)


def reference_peel(rows):
    """(rounds, coupled rows) of peeling one-entry rows off a system: each
    round strikes the columns of the rows with one entry left among the
    columns not yet struck, until no such row is left."""
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    struck, rounds = set(), 0
    while units := {c for row in rows if len(left := row.keys() - struck) == 1 for c in left}:
        struck |= units
        rounds += 1
    coupled = [{c: x for c, x in row.items() if c not in struck} for row in rows]
    return rounds, [row for row in coupled if row]


def reference_rref(grid, ncols):
    """Textbook dense Gauss-Jordan elimination: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in grid]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        p = next((i for i in range(top, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(c)
    return rows, pivots


def dense_rows(M):
    return [[M.entry(i, j) for j in range(M.cols)] for i in range(M.rows)]


def row_vectors(M):
    """The rows of M as sparse vectors."""
    return [sparse(row) for row in dense_rows(M)]


def reference_kernel(M):
    rows, pivots = reference_rref(dense_rows(M), M.cols)
    basis = []
    for free in (c for c in range(M.cols) if c not in pivots):
        v = [Fraction(0)] * M.cols
        v[free] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -rows[k][free]
        basis.append(v)
    return basis


class TestAgainstReference:
    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_rref_and_rank(self, M):
        # the span of M's rows is held as M's reduced row echelon form
        rows, pivots = reference_rref(dense_rows(M), M.cols)
        span = column_span(row_vectors(M), M.cols)
        assert span == Matrix.from_columns([sparse(row) for row in rows[: len(pivots)]], M.cols)
        assert [min(col) for col in span.columns()] == pivots
        assert span.cols == rank(M) == len(pivots)

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_nullspace(self, M):
        kernel = sparse_nullspace(row_vectors(M), M.cols)
        assert [[v.get(i, 0) for i in range(M.cols)] for v in kernel] == reference_kernel(M)

    @given(matrices, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_column_span(self, M, with_zeros):
        # vectors may also carry explicit zeros
        rows, pivots = reference_rref(dense_rows(M), M.cols)
        expected = Matrix.from_columns([sparse(row) for row in rows[: len(pivots)]], M.cols)
        vectors = [dict(enumerate(row)) if with_zeros else sparse(row) for row in dense_rows(M)]
        assert column_span(vectors, M.cols) == expected

    @given(
        st.one_of(
            st.integers(1, 5).flatmap(
                lambda n: st.lists(
                    st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n
                )
            ),
            leibniz_like().map(square_grid),  # mostly one-entry rows: the peel runs
        ),
        st.one_of(st.none(), scalars),
    )
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, grid, last_row_factor):
        n = len(grid)
        if last_row_factor is not None:  # a rescaled first row: singular when n > 1
            grid[-1] = [last_row_factor * x for x in grid[0]]
        M = Matrix(grid)
        augmented = [row + [int(i == k) for k in range(n)] for i, row in enumerate(grid)]
        rows, pivots = reference_rref(augmented, 2 * n)
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError):
                inverse(M)
        else:
            assert inverse(M) == Matrix([row[n:] for row in rows])


def item_lists(rows):
    return sorted(sorted(row.items()) for row in rows)


class TestUnitRowPeeling:
    """Every solve strikes one-entry rows before it pivots; the result is
    still the textbook reduced form, and only the coupled rows left over
    reach ``_insert``."""

    @staticmethod
    def eliminated_rows(solve):
        seen = []

        def recording(echelon, rows):
            rows = list(rows)
            seen.extend(dict(row) for row in rows)
            return insert(echelon, rows)

        insert = linalg._insert
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_insert", recording)
            result = solve()
        return result, seen

    @given(leibniz_like())
    @settings(max_examples=100, deadline=None)
    def test_nullspace_and_span_match_dense(self, system):
        ncols, rows = system
        rounds, coupled = reference_peel(rows)
        assert rounds >= 3
        M = Matrix(as_grid(rows, ncols), cols=ncols)
        # the solve takes rows without zeros and may change them: it gets copies
        fresh = [{c: x for c, x in row.items() if x} for row in rows]
        kernel, seen = self.eliminated_rows(lambda: sparse_nullspace(fresh, ncols))
        assert [[v.get(c, 0) for c in range(ncols)] for v in kernel] == reference_kernel(M)
        assert item_lists(seen) == item_lists(coupled)
        reduced, pivots = reference_rref(as_grid(rows, ncols), ncols)
        expected = Matrix.from_columns([sparse(row) for row in reduced[: len(pivots)]], ncols)
        span, seen = self.eliminated_rows(lambda: column_span(rows, ncols))
        assert span == expected
        assert item_lists(seen) == item_lists(coupled)

    @given(leibniz_like(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_units_after_the_rows_they_strike(self, system, reverse):
        # Rows are read once, as they come.  Longest rows first puts every
        # unit after the coupled rows holding its column, and the chain
        # {b, c}, {a, b}, {a} before its unit: {a, b} becomes a unit only
        # once {a} is struck, and {b, c} only after that.
        ncols, rows = system
        rows = sorted(rows, key=len, reverse=True)
        if reverse:
            rows.reverse()  # units first: the strikes on arrival do the work
        M = Matrix(as_grid(rows, ncols), cols=ncols)
        one_shot = ({c: x for c, x in row.items() if x} for row in rows)
        kernel = sparse_nullspace(one_shot, ncols)
        assert [[v.get(c, 0) for c in range(ncols)] for v in kernel] == reference_kernel(M)
        reduced, pivots = reference_rref(as_grid(rows, ncols), ncols)
        expected = Matrix.from_columns([sparse(row) for row in reduced[: len(pivots)]], ncols)
        assert column_span((dict(row) for row in rows), ncols) == expected


@st.composite
def peel_systems(draw):
    """(ncols, rows) that reach every branch of the peel, ncols = 0 included.
    A chain {c_k, c_(k-1)}, ..., {c_1, c_0} comes before its unit {c_0}, so
    each unit strikes a row read before it and the peel takes k + 1 passes.
    Units repeat, rescaled; a row on unit columns only is struck to empty;
    coupled rows, empty rows and the order are drawn too."""
    entries = st.sampled_from(LEIBNIZ_ENTRIES)
    ncols = draw(st.integers(0, 6))
    if not ncols:
        return 0, draw(st.lists(st.just({}), max_size=2))
    cols = st.integers(0, ncols - 1)
    chain = draw(st.lists(cols, unique=True, max_size=ncols))
    rows = [{a: draw(entries), b: draw(entries)} for a, b in zip(chain[:0:-1], chain[-2::-1])]
    units = chain[:1] + draw(st.lists(cols, max_size=3))
    if units:
        units += draw(st.lists(st.sampled_from(units), max_size=2))
    rows += [{c: draw(entries)} for c in units]
    if len(set(units)) > 1:
        rows.append({c: draw(entries) for c in units})  # struck to empty, or a unit
    if ncols > 1:
        rows += draw(st.lists(st.dictionaries(cols, entries, min_size=2, max_size=4), max_size=3))
    rows += [{} for _ in range(draw(st.integers(0, 1)))]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return ncols, [{c: int(x) if x.denominator == 1 else x for c, x in r.items()} for r in rows]


class TestPeelFlags:
    """The peel keeps units as column flags: every solve still gives the
    textbook reduced form, and the rank is the flag count plus the coupled
    rows left over."""

    @given(peel_systems())
    @settings(max_examples=200, deadline=None)
    def test_every_solve_matches_the_reference(self, system):
        ncols, rows = system
        grid = as_grid(rows, ncols)
        reduced, pivots = reference_rref(grid, ncols)
        units, coupled = linalg._peel([dict(row) for row in rows], ncols)
        assert units.count(1) + len(coupled) == len(pivots)
        assert sorted([c for c in range(ncols) if units[c]] + list(coupled)) == pivots
        kernel = sparse_nullspace([dict(row) for row in rows], ncols)
        M = Matrix(grid, cols=ncols)
        assert [[v.get(c, 0) for c in range(ncols)] for v in kernel] == reference_kernel(M)
        expected = Matrix.from_columns([sparse(row) for row in reduced[: len(pivots)]], ncols)
        assert column_span(iter(rows), ncols) == expected
        # the first ncols rows as the columns of a map of the abelian algebra:
        # every map preserves its zero bracket, so only the rank decides
        square = rows[:ncols] + [{}] * (ncols - len(rows))
        A = LieAlgebra(ncols, {})
        X = Matrix.from_columns([dict(row) for row in square], ncols)
        full = len(reference_rref(as_grid(square, ncols), ncols)[1]) == ncols
        assert is_isomorphism(A, A, X) == full
        G = Matrix(as_grid(square, ncols), cols=ncols)  # inverse peels G's rows
        if full:
            assert inverse(G) * G == Matrix.identity(ncols)
        else:
            with pytest.raises(ValueError):
                inverse(G)

    def test_a_unit_found_on_a_later_pass_strikes_a_row_read_earlier(self):
        # {2, 1} is kept, {1, 0} becomes {1} once {0} is read, and {2, 1}
        # becomes {2} only on the pass after that
        rows = [{2: 1, 1: 3}, {1: 2, 0: 5}, {0: 7}, {3: 1, 4: 1}]
        units, coupled = linalg._peel([dict(row) for row in rows], 5)
        assert list(units) == [1, 1, 1, 0, 0]
        assert coupled == {3: {3: 1, 4: 1}}
        assert sparse_nullspace(rows, 5) == [{4: 1, 3: -1}]


def grids(rows, cols):
    """rows x cols grids of scalars, about half of the entries zero."""
    entry = st.one_of(st.just(Fraction(0)), scalars)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def reference_product(a, b, inner):
    """a times b for row grids a (m x inner) and b (inner x n, n >= 1)."""
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(len(b[0]))]
        for row in a
    ]


class TestSparseMatrixAgainstDense:
    """The sparse-column Matrix against plain arithmetic on its row grids."""

    @given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_arithmetic(self, data, rows, inner, cols):
        a = data.draw(grids(rows, inner))
        b = data.draw(grids(inner, cols))
        A, B = Matrix(a, cols=inner), Matrix(b, cols=cols)
        assert dense_rows(A) == a
        assert dense_rows(A * B) == reference_product(a, b, inner)
        assert Matrix.from_columns(A.columns(), rows) == A
        assert A.columns() == [sparse(col) for col in zip(*a)]
        assert A == Matrix(a)

    def test_shape_mismatches_raise(self):
        A = Matrix([[1, 2]])
        with pytest.raises(ValueError):
            A * A

    def test_cols_must_match_the_row_width(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]], cols=3)
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])
        assert Matrix([[1, 2]], cols=2) == Matrix([[1, 2]])
        assert (Matrix([], cols=3).rows, Matrix([], cols=3).cols) == (0, 3)


def parse_outcome(text):
    """(value, its type) of ``scalar(text)``, or (error type, message)."""
    try:
        x = scalar(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return x, type(x)


def reference_parse_outcome(text):
    """parse_outcome of the plain ``scalar(Fraction(text))``."""
    if "e" in text or "E" in text:
        return ValueError, f"exponent notation in {text!r} is not accepted"
    try:
        x = scalar(Fraction(text))
    except ZeroDivisionError:
        return ValueError, f"zero denominator in {text!r}"
    except ValueError as exc:
        return ValueError, str(exc)
    return x, type(x)


SCALAR_TEXTS = st.one_of(
    st.text(alphabet="0123456789-+/_. ", max_size=8),
    st.text(alphabet="0127-/²١٣\u00a0", max_size=5),  # non-ASCII digits and space
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-999, 999), st.integers(-9, 99)),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["-0", "-0/7", "3/-4", "/0", "5/0", "-3/0", "0/0", "+3", " 3", "3\n",
                     "1_000", "1/2_0", "0.5", "-.5", "²", "١", "-١/٢", "007/010", "-", "/"]),
)


class TestScalar:
    def test_parses_fraction_strings(self):
        assert scalar("3/4") == Fraction(3, 4)
        assert scalar("-2") == Fraction(-2)
        assert scalar(5) == Fraction(5)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            scalar(0.5)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            scalar(True)

    def test_rejects_zero_denominators(self):
        with pytest.raises(ValueError, match="zero denominator in '3/0'"):
            scalar("3/0")

    def test_round_trip(self):
        for x in [Fraction(3, 4), Fraction(-7), Fraction(0)]:
            assert scalar(str(x)) == x

    @pytest.mark.parametrize("text", ["1e99999999", "2E3", "-1.5e-2", "3/1e2"])
    def test_rejects_exponent_notation(self, text):
        # before any arithmetic: Fraction("1e99999999") would compute 10**99999999
        with pytest.raises(ValueError, match="exponent notation"):
            scalar(text)

    def test_repeated_strings_parse_alike_and_errors_repeat(self):
        for _ in range(2):
            assert scalar("-3/6") == Fraction(-1, 2)
            assert scalar("0.25") == Fraction(1, 4)
            with pytest.raises(ValueError, match="zero denominator"):
                scalar("5/0")

    def test_a_long_integer_text_is_refused_as_fraction_refuses_it(self):
        for text in ["1" * 5000, "-" + "7" * 5000, "1/" + "3" * 5000]:
            assert parse_outcome(text) == reference_parse_outcome(text)
            assert parse_outcome(text)[0] is ValueError

    @given(SCALAR_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_text_parses_as_fraction_parses_it(self, text):
        # ASCII "-?digits" and "-?digits/digits" are read with int; the
        # rest go to Fraction, and every outcome is Fraction's
        assert parse_outcome(text) == reference_parse_outcome(text)


def in_normal_form(values) -> bool:
    """Every value an int, or a Fraction that is not integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in values)


SCALAR_INPUTS = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=12),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 12)),
    st.sampled_from(["4/2", "-0", "0/5", "-6/3", "7", "-12/8", "0.5", " 3 "]),
)


class TestNormalForm:
    """Integral scalars are ints: the engine and the algebras keep them so,
    and so never fall back to Fraction arithmetic on integral values."""

    @given(SCALAR_INPUTS)
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_an_int_exactly_when_integral(self, value):
        x = scalar(value)
        assert x == Fraction(value)
        assert (type(x) is int) == (Fraction(value).denominator == 1)
        assert in_normal_form([x])

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_engine_results_hold_no_integral_fraction(self, M):
        assert in_normal_form(x for row in row_vectors(M) for x in row.values())
        span = column_span(row_vectors(M), M.cols)
        assert in_normal_form(x for col in span.columns() for x in col.values())
        kernel = sparse_nullspace(row_vectors(M), M.cols)
        assert in_normal_form(x for v in kernel for x in v.values())
        if M.rows == M.cols and rank(M) == M.rows:
            assert in_normal_form(x for col in inverse(M).columns() for x in col.values())

    def test_fractions_that_cancel_to_integers_become_ints(self):
        # 1/2 - (-1/2) = 1 on the way to each result
        half = Fraction(1, 2)
        rows = [{0: 1, 1: half}, {0: 1, 1: -half, 2: 1}, {0: 2, 1: 3 * half, 3: half}]
        span = column_span([dict(row) for row in rows], 4)
        kernel = sparse_nullspace([dict(row) for row in rows], 4)
        assert in_normal_form(x for v in span.columns() + kernel for x in v.values())
        M = Matrix([[half, half], [-half, half]])
        assert in_normal_form(x for col in inverse(M).columns() for x in col.values())

    @given(leibniz_like())
    @settings(max_examples=60, deadline=None)
    def test_peeled_kernels_hold_no_integral_fraction(self, system):
        ncols, rows = system
        rows = [{c: x for c, x in row.items() if x} for row in rows]
        assert in_normal_form(x for v in sparse_nullspace(rows, ncols) for x in v.values())

    def test_partners_hold_no_integral_fraction(self):
        L = build_quasi(make_spec(5, 5, 2, [["1/2", "4/2", "-3"], ["-2/3", "0", "6/4"]]))
        values = [x for row in L.partners for value in row.values() for x in value.values()]
        assert any(type(x) is Fraction for x in values) and in_normal_form(values)

    def test_two_and_fraction_two_share_one_build(self):
        a = make_spec(5, 3, 1, [[2, 1]])
        b = make_spec(5, 3, 1, Matrix.from_columns([{0: Fraction(2)}, {0: Fraction(1)}], 1))
        assert type(b.B.entry(0, 0)) is Fraction
        assert a == b and hash(a) == hash(b)
        before = build_quasi.cache_info()
        assert build_quasi(b) is build_quasi(a)
        after = build_quasi.cache_info()
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 1


@st.composite
def dense_rational_grids(draw):
    """A grid with every entry a nonzero rational of up to three digits over
    up to two, plus rows that are rational combinations of those, so that
    the rank falls short: fill and cancellation, not unit rows."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.fractions(min_value=-999, max_value=999, max_denominator=97).filter(bool)
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows,
                         max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(entry, min_size=rows, max_size=rows))
        grid.append([sum((c * row[j] for c, row in zip(coeffs, grid[:rows])), Fraction(0))
                     for j in range(cols)])
    return draw(st.permutations(grid))


class TestDenseRationalSystems:
    """Dense rational systems, where the primitive integer rows do all the
    work, against the textbook reference."""

    @given(dense_rational_grids())
    @settings(max_examples=120, deadline=None)
    def test_every_solve_matches_the_reference(self, grid):
        ncols = len(grid[0])
        M = Matrix(grid, cols=ncols)
        reduced, pivots = reference_rref(grid, ncols)
        expected = Matrix.from_columns([sparse(row) for row in reduced[: len(pivots)]], ncols)
        span = column_span(row_vectors(M), ncols)
        assert span == expected and rank(M) == len(pivots)
        kernel = sparse_nullspace(row_vectors(M), ncols)
        assert [[v.get(c, 0) for c in range(ncols)] for v in kernel] == reference_kernel(M)
        values = [x for v in span.columns() + kernel for x in v.values()]
        assert in_normal_form(values)
        square = Matrix(grid[:ncols] + [[0] * ncols] * (ncols - len(grid)), cols=ncols)
        if rank(square) == ncols:
            assert inverse(square) * square == Matrix.identity(ncols)
        else:
            with pytest.raises(ValueError):
                inverse(square)

    def test_a_rational_row_is_told_by_its_entries_types(self, monkeypatch):
        # the engine reads a row as int or rational without adding its
        # entries: a sum ran one Fraction addition per entry of a rational row
        def no_addition(self, other):
            raise AssertionError("a Fraction was added")

        echelon = {0: {0: 1, 1: 2}}
        rows = [{0: Fraction(1, 2), 2: Fraction(-2, 3), 5: 3}, {1: Fraction(3, 4)}]
        expected = [{0: 3, 2: -4, 5: 18}, {1: 1}, {1: 3, 2: 2, 5: -9}, {1: 1}]
        monkeypatch.setattr(Fraction, "__add__", no_addition)
        monkeypatch.setattr(Fraction, "__radd__", no_addition)
        reduced = [linalg._reduce(pivots, row) for pivots in ({}, echelon) for row in rows]
        assert reduced == expected


class TestCallersDataStays:
    """The engine works on copies: after each call its arguments equal deep
    copies taken before it.  An engine helper that handed back the row it
    was given let ``rank`` rewrite the columns of an iso witness."""

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_solves_leave_their_arguments(self, M):
        vectors = row_vectors(M)
        before = copy.deepcopy((M, vectors))
        rank(M)
        column_span(vectors, M.cols)
        if M.rows == M.cols:
            try:
                inverse(M)
            except ValueError:
                pass
        assert (M, vectors) == before

    @given(matrices, st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_insert_and_reduce_leave_their_arguments(self, M, split):
        rows = M.columns()  # the package's own zero-free vectors, ints among them
        echelon = linalg._insert({}, rows[:split])
        before = copy.deepcopy((rows, echelon))
        grown = linalg._insert(echelon, rows[split:])
        assert (rows, echelon) == before
        assert not any(stored is row for stored in grown.values() for row in rows)
        grown_before = copy.deepcopy(grown)
        for row in rows:
            assert not linalg._reduce(grown, row)
            remainder = linalg._reduce(echelon, row)
            assert remainder is not row
            remainder[-1] = 1  # the remainder is the caller's own to change
        assert (rows, echelon) == before and grown == grown_before

    def test_rank_keeps_an_iso_witness(self):
        spec1 = make_spec(5, 3, 2, [["1"], ["1"]])
        spec2 = make_spec(5, 3, 2, [["2"], ["1"]])
        v = iso_decide(spec1, spec2)
        before = copy.deepcopy(v.map)
        assert rank(v.map) == v.map.rows and v.map == before
        assert is_isomorphism(build_quasi(spec1), build_quasi(spec2), v.map)


def holds_zero(M) -> bool:
    return any(0 in col.values() for col in M.columns())


class TestZeroFreeColumns:
    """``Matrix.from_columns`` takes its columns as given, so every matrix
    the package builds must come with columns that hold no zero entry."""

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_no_column_the_package_builds_holds_a_zero(self, spec, rng):
        L = build_quasi(spec)
        X = exp_ad(L, {k: Fraction(1 + k % 3, 2) for k in range(spec.dim)})
        cols = X.columns()
        e0, e1 = (tuple(cols[spec.gen_index(s, t)] for s in range(1, spec.m + 1)) for t in (0, 1))
        candidate = GeneratorImages(e0, e1)
        # scaling B's rows and columns gives an isomorphic gluing
        r, glued = spec.r, spec.m - spec.r
        twin = [
            [Fraction(t + 1, j + 2) * spec.B.entry(t, j) for j in range(glued)] for t in range(r)
        ]
        iso = iso_decide(spec, make_spec(spec.n, spec.m, r, twin if glued else None))
        assert iso.isomorphic
        made = {
            "torus_basis": extended(spec, torus_basis(spec)),
            "nilpotent_basis": extended(spec, nilpotent_basis(spec) or []),
            "exp_ad": [X],
            "extend_endomorphism": [extend_endomorphism(spec, L, candidate)],
            "extend_through_grading": [extend_through_grading(spec, L, candidate)],
            "column_span": [column_span(cols[: spec.n], spec.dim)],
            "lower_central_series": lower_central_series(L),
            "inverse": [inverse(X)],
            "related_matrix": [related_matrix(spec.beta)],
            "iso E": [iso.equivalence.E],
            "iso map": [iso.map],
            "closed_form_extension": [closed_form_extension(spec, random_images(spec, rng))],
            "closed_form_endomorphism": [
                closed_form_endomorphism(spec, spec, random_aut_candidate(spec, rng))
            ],
        }
        zeros = [name for name, Ms in made.items() if any(map(holds_zero, Ms))]
        assert not zeros


class TestMatrix:
    def test_multiply(self):
        A = Matrix([[1, 2], [3, 4]])
        B = Matrix([[0, 1], [1, 0]])
        assert A * B == Matrix([[2, 1], [4, 3]])

    def test_inverse(self):
        A = Matrix([[2, 1], [1, 1]])
        assert A * inverse(A) == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 2], [2, 4]]))

    def test_non_square_inverse_raises(self):
        # change_of_basis passes its caller's P to inverse unchecked
        with pytest.raises(ValueError, match="^not square$"):
            inverse(Matrix([[1, 2]]))

    def test_equality_with_a_non_matrix_is_false(self):
        assert Matrix.__eq__(Matrix([[1]]), 3) is NotImplemented
        assert (Matrix([[1]]) == 3) is False

    def test_repr_lists_the_rows(self):
        assert repr(Matrix([[1, 2], [3, "1/2"]])) == "Matrix(2x2: 1 2; 3 1/2)"

    def test_from_columns_round_trip(self):
        A = Matrix([[1, 2, 3], [4, 5, 6]])
        assert A.columns() == [{0: 1, 1: 4}, {0: 2, 1: 5}, {0: 3, 1: 6}]
        assert Matrix.from_columns(A.columns(), A.rows) == A


class TestRref:
    """The reduced row echelon form, as column_span of the rows holds it."""

    def test_known_reduction(self):
        M = Matrix([[1, 2, 3], [2, 4, 7]])
        span = column_span(row_vectors(M), M.cols)
        assert rank(M) == span.cols == 2
        assert span.columns() == [{0: 1, 1: 2}, {2: 1}]

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, M):
        once = column_span(row_vectors(M), M.cols)
        assert column_span(once.columns(), M.cols) == once

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, M):
        assert rank(M) + len(sparse_nullspace(row_vectors(M), M.cols)) == M.cols

    @given(random_matrix(5, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, M):
        for v in sparse_nullspace(row_vectors(M), M.cols):
            assert M * Matrix.from_columns([v], M.cols) == Matrix([[0]] * M.rows)


class TestColumnSpan:
    def test_canonical_equality(self):
        a = column_span([{0: 1, 1: 1}, {1: 1, 2: 1}], 3)
        b = column_span([{0: 1, 1: 2, 2: 1}, {0: 1, 2: -1}], 3)
        assert a == b
        assert a.cols == 2

    def test_empty(self):
        assert column_span([], 4).cols == 0


class TestSparseNullspace:
    @given(st.one_of(random_matrix(6, 6), sparse_matrix()))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense(self, M):
        # the dense reference; rows may carry int values (never zeros: callers drop them)
        rows = [
            {j: int(x) if x.denominator == 1 else x for j, x in enumerate(row) if x}
            for row in dense_rows(M)
        ]
        kernel = sparse_nullspace(rows, M.cols)
        assert [[v.get(j, 0) for j in range(M.cols)] for v in kernel] == reference_kernel(M)

    def test_empty_system(self):
        basis = sparse_nullspace([], 3)
        assert len(basis) == 3

    @given(st.one_of(matrices, leibniz_like().map(lambda s: Matrix(as_grid(s[1], s[0])))))
    @settings(max_examples=80, deadline=None)
    def test_each_vector_is_one_at_its_free_column_and_zero_at_the_others(self, M):
        # the canonical basis: the free columns are those the dense reference
        # does not pivot on, each vector's largest index is its own
        _, pivots = reference_rref(dense_rows(M), M.cols)
        free = [c for c in range(M.cols) if c not in pivots]
        kernel = sparse_nullspace(row_vectors(M), M.cols)
        assert [max(v) for v in kernel] == free
        for c, v in zip(free, kernel):
            assert [v.get(f, 0) for f in free] == [int(f == c) for f in free]
