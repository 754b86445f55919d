"""Construction of Q_n, the glued sums, and their annihilator matrices."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BATTERY, TEST_MATRIX, spec_id
from qfla.builder import (
    MAX_DIM,
    BadInput,
    QuasiQnSpec,
    build_qn,
    build_quasi,
    change_of_basis,
    copy_cells,
    make_spec,
    proportional_classes,
    qn_x_basis,
    rebase_x_to_e,
    related_matrix,
    support_components,
)
from qfla.derivations import ConditionVerdict, GeneratorImages, der_dimension, nilpotent_basis
from qfla.iso import iso_decide
from qfla.jsonio import spec_from_json
from qfla.linalg import Matrix, inverse


class TestSpecValidation:
    def test_rejects_even_or_small_n(self):
        for bad in (4, 6, 3, 1):
            with pytest.raises(BadInput, match="^n:"):
                make_spec(bad, 1, 1)

    def test_rejects_bad_r(self):
        with pytest.raises(BadInput):
            make_spec(5, 2, 0, [[]])
        with pytest.raises(BadInput):
            make_spec(5, 2, 3)

    def test_rejects_zero_column(self):
        with pytest.raises(BadInput):
            make_spec(5, 3, 2, [["1", "0"], ["1", "0"]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(BadInput):
            make_spec(5, 3, 2, Matrix([["1"]]))

    def test_rejects_dim_over_cap(self):
        m = MAX_DIM // 6  # r = m: the spec needs no B
        assert make_spec(5, m, m).dim == 6 * m <= MAX_DIM
        with pytest.raises(BadInput, match=rf"^dim: .*\(n=5, m={m + 1}, r={m + 1}\)$"):
            make_spec(5, m + 1, m + 1)

    def test_dim_and_indexing(self):
        s = make_spec(5, 3, 2, [["1"], ["0"]])
        assert s.dim == 17
        assert s.gen_index(1, 0) == 0
        assert s.gen_index(2, 3) == 8
        assert s.top_index(2) == 16
        with pytest.raises(IndexError):
            s.gen_index(4, 0)
        with pytest.raises(IndexError):
            s.top_index(3)

    def test_beta_columns(self):
        s = make_spec(5, 3, 2, [["1"], ["0"]])
        assert s.beta == ((1, 0), (0, 1), (1, 0))
        assert s.beta is s.beta  # held by the record, not computed

    def test_no_record_field_can_be_assigned(self):
        # the records are named tuples: neither a field nor a derived flag,
        # nor a new attribute, can be set on one
        spec = make_spec(5, 3, 2, [["1"], ["1"]])
        verdict = iso_decide(spec, spec)
        records = [
            spec,
            GeneratorImages(({},) * 3, ({},) * 3),
            ConditionVerdict("e0-support", "why"),
            verdict.equivalence,
            verdict,
        ]
        for record in records:
            for name in (*record._fields, "ok", "isomorphic", "dim", "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_spec_is_the_record_of_beta(self):
        # the record takes its data as given: make_spec is where it is checked
        assert make_spec(5, 3, 2, [["1"], ["0"]]) == QuasiQnSpec(5, 3, 2, ((1, 0), (0, 1), (1, 0)))
        assert QuasiQnSpec(4, 0, 0, ()).dim == 0

    @pytest.mark.parametrize("params", BATTERY, ids=lambda p: spec_id(make_spec(*p)))
    def test_B_is_the_gluing_matrix_given(self, params):
        n, m, r, B = params
        given = Matrix.from_columns([], r) if B is None else Matrix(B)
        spec = make_spec(n, m, r, B)
        assert spec.B == given and (spec.B.rows, spec.B.cols) == (r, m - r)
        assert make_spec(n, m, r, given) == spec and make_spec(n, m, r, given).B == given
        units = tuple(tuple(int(t == s) for t in range(r)) for s in range(r))
        dense = tuple(tuple(given.entry(t, j) for t in range(r)) for j in range(m - r))
        assert spec.beta == units + dense

    # each row is bad in its field and in every field checked after it, so
    # the text pins which refusal comes first
    REFUSALS = [
        ((4, 0, 3, [["0"]]), "n: must be odd and >= 5, got 4"),
        ((5, 0, 3, [["0"]]), "m: must be >= 1, got 0"),
        ((5, 2, 3, [["0"]]), "r: must satisfy 1 <= r <= m, got r=3, m=2"),
        ((5, 2, 0, [["0"]]), "r: must satisfy 1 <= r <= m, got r=0, m=2"),
        (
            (5, 2001, 2001, [["0"]]),
            "dim: m*n + r = 12006 exceeds 10000 (n=5, m=2001, r=2001)",
        ),
        ((5, 3, 2, [["0"]]), "B: must be 2x1, got 1x1"),
        ((5, 3, 1, None), "B: must be 1x2, got 1x0"),
        ((5, 4, 1, [["1", "0", "0"]]), "B: column 1 is zero: top vector 3 would vanish"),
        ((5, 3, 2, [["0"], ["0"]]), "B: column 0 is zero: top vector 3 would vanish"),
    ]

    @pytest.mark.parametrize("params, message", REFUSALS)
    def test_first_refusal_and_its_text(self, params, message):
        with pytest.raises(BadInput) as refusal:
            make_spec(*params)
        assert str(refusal.value) == message

    def test_ragged_B_is_refused_before_a_bad_n(self):
        # B becomes a Matrix before any field is checked
        with pytest.raises(ValueError) as refusal:
            make_spec(4, 0, 0, [["1"], ["1", "2"]])
        assert type(refusal.value) is ValueError and str(refusal.value) == "ragged rows"
        with pytest.raises(BadInput, match="^B: ragged rows$"):
            spec_from_json({"n": 4, "m": 0, "r": 0, "B": [["1"], ["1", "2"]]})


class TestBuildQn:
    def test_q5_bracket_table(self):
        L = build_qn(5)

        def e(i):
            return {i: 1}

        assert L.dim == 6
        for i in range(1, 4):
            assert L.bracket(e(0), e(i)) == e(i + 1)
        assert L.bracket(e(0), e(4)) == {}
        assert L.bracket(e(1), e(4)) == {5: -1}
        assert L.bracket(e(2), e(3)) == {5: 1}
        assert all(L.bracket(e(5), e(i)) == {} for i in range(6))

    def test_bad_n(self):
        with pytest.raises(BadInput, match="^n:"):
            build_qn(6)

    def test_x_basis_conjugates_to_standard(self):
        # columns of P are the standard basis written in x-coordinates:
        # first basis vector = x_0 + x_1, the rest are x_i
        n = 5
        P = inverse(rebase_x_to_e(n))
        rebased = change_of_basis(qn_x_basis(n), P)
        assert rebased == build_qn(n)

    def test_x_basis_has_full_tower(self):
        L = qn_x_basis(7)
        # unlike the standard basis, [x_0, x_{n-1}] = x_n here
        assert L.bracket({0: 1}, {6: 1}) == {7: 1}


def literal_table(spec):
    """The table of N(Q_n, m, r) as the module docstring writes it, copy by
    copy: [e_0, e_i] = e_{i+1} for 1 <= i <= n-2, then [e_i, e_{n-i}] =
    (-1)^i e_n for 1 <= i <= d, copy s's e_n being sum_t beta_{t,s} e_{tn}."""
    sc = {}
    for s in range(1, spec.m + 1):
        for i in range(1, spec.n - 1):
            sc[(spec.gen_index(s, 0), spec.gen_index(s, i))] = {spec.gen_index(s, i + 1): 1}
        for i in range(1, spec.d + 1):
            top = enumerate(spec.beta[s - 1], start=1)
            sc[(spec.gen_index(s, i), spec.gen_index(s, spec.n - i))] = {
                spec.top_index(t): (-1) ** i * c for t, c in top if c
            }
    return sc


def assert_literal_table(spec):
    """build_quasi's table is the literal one: the same keys in the same
    order, each bracket's entries in the same order and of the same types,
    and every bracket a dict of its own."""
    sc, expected = build_quasi(spec).sc, literal_table(spec)
    assert list(sc) == list(expected)
    for key, value in expected.items():
        assert list(sc[key].items()) == list(value.items())
        assert [type(c) for c in sc[key].values()] == [type(c) for c in value.values()]
    assert len({id(value) for value in sc.values()}) == len(sc)


LITERAL_ENTRIES = [Fraction(x) for x in ("0", "1", "-1", "2", "1/3", "-3/2")]


@st.composite
def literal_gluings(draw):
    """A gluing with n in {5, 7} and B's entries in LITERAL_ENTRIES, zeros
    among them in every column that is not zero."""
    n, m = draw(st.sampled_from([5, 7])), draw(st.integers(1, 5))
    r = draw(st.integers(1, m))
    column = st.lists(st.sampled_from(LITERAL_ENTRIES), min_size=r, max_size=r).filter(any)
    columns = draw(st.lists(column, min_size=m - r, max_size=m - r))
    return make_spec(n, m, r, [[v[t] for v in columns] for t in range(r)] if columns else None)


class TestBuildQuasi:
    def test_cross_copy_brackets_vanish(self):
        s = make_spec(5, 2, 1, [["1"]])
        L = build_quasi(s)
        for i in range(5):
            for j in range(5):
                assert L.bracket({s.gen_index(1, i): 1}, {s.gen_index(2, j): 1}) == {}

    def test_glued_top(self):
        # second copy's tower ends on the shared top vector
        s = make_spec(5, 2, 1, [["1"]])
        L = build_quasi(s)
        v = L.bracket({s.gen_index(2, 1): 1}, {s.gen_index(2, 4): 1})
        assert v == {s.top_index(1): Fraction(-1)}

    def test_scaled_glue(self):
        s = make_spec(5, 3, 2, [["2"], ["3"]])
        L = build_quasi(s)
        v = L.bracket({s.gen_index(3, 2): 1}, {s.gen_index(3, 3): 1})
        assert v == {s.top_index(1): Fraction(2), s.top_index(2): Fraction(3)}

    def test_labels(self):
        s = make_spec(5, 2, 1, [["1"]])
        labels = s.labels()
        assert len(labels) == s.dim
        assert labels[0] == "e_1_0"
        assert labels[s.gen_index(2, 4)] == "e_2_4"
        assert labels[s.top_index(1)] == "e_1_n"

    def test_dims(self):
        for args, dim in [
            ((5, 1, 1, None), 6),
            ((5, 2, 1, [["1"]]), 11),
            ((5, 3, 2, [["1"], ["0"]]), 17),
            ((7, 2, 1, [["1"]]), 15),
        ]:
            assert build_quasi(make_spec(*args)).dim == dim

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_battery_table_is_the_literal_one(self, spec):
        assert_literal_table(spec)

    @given(literal_gluings())
    @settings(max_examples=40, deadline=None)
    def test_random_table_is_the_literal_one(self, spec):
        assert_literal_table(spec)


class TestRelatedMatrix:
    def test_shape_and_content(self):
        s = make_spec(5, 3, 1, [["1", "1"]])
        assert related_matrix(s.beta) == Matrix([[-1, 1, 0], [-1, 0, 1]])

    def test_annihilates_tops(self):
        # rows encode e_{sn} - sum_j b_{js} e_{jn} = 0
        s = make_spec(5, 3, 2, [["1"], ["2"]])
        beta_t = Matrix(s.beta)  # the columns of beta are the rows of its transpose
        product = related_matrix(s.beta) * beta_t
        assert product == Matrix([[0] * product.cols] * product.rows)

    def test_m_equals_r(self):
        M = related_matrix(make_spec(5, 2, 2).beta)
        assert M.rows == 0 and M.cols == 2


def one_nonzero_grouping(spec):
    """Reference: block form means one nonzero per glued column of beta, and
    block t holds copy t and the copies glued onto top t; None otherwise."""
    groups = {t: [t] for t in range(1, spec.r + 1)}
    for s in range(spec.r + 1, spec.m + 1):
        tops = [t for t, c in enumerate(spec.beta[s - 1], start=1) if c]
        if len(tops) != 1:
            return None
        groups[tops[0]].append(s)
    return tuple(tuple(groups[t]) for t in range(1, spec.r + 1))


VALUES = [Fraction(x) for x in ("1", "-1", "2", "1/2", "-3")]


@st.composite
def gluings(draw):
    """A block-form gluing (one nonzero per column of B) or a mixing one."""
    m = draw(st.integers(1, 7))
    r = draw(st.integers(1, m))
    B = [[Fraction(0)] * (m - r) for _ in range(r)]
    for k in range(m - r):
        rows = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=r, unique=True))
        for i in rows:
            B[i][k] = draw(st.sampled_from(VALUES))
    return make_spec(5, m, r, B)


class TestBlockStructure:
    """The blocks of a block-form gluing are beta's proportional classes."""

    def test_single_top(self):
        s = make_spec(5, 3, 1, [["1", "1"]])
        assert proportional_classes(s.beta) == ((0, 1, 2),)

    def test_interleaved_members(self):
        # copy 3 glues to top 1, so block membership is not contiguous
        s = make_spec(5, 3, 2, [["1"], ["0"]])
        assert proportional_classes(s.beta) == ((0, 2), (1,))

    def test_mixed_column_is_not_block_form(self):
        s = make_spec(5, 3, 2, [["1"], ["1"]])
        assert proportional_classes(s.beta) == ((0,), (1,), (2,))

    @given(gluings())
    @settings(max_examples=100, deadline=None)
    def test_classes_match_the_one_nonzero_grouping(self, spec):
        grouping = one_nonzero_grouping(spec)
        classes = proportional_classes(spec.beta)
        if grouping is None:
            assert len(classes) > spec.r
        else:
            assert classes == tuple(tuple(s - 1 for s in block) for block in grouping)
        # both closed forms refuse exactly off block form
        assert (der_dimension(spec) is None) == (grouping is None)
        assert (nilpotent_basis(spec) is None) == (grouping is None)


def fraction_classes(columns) -> tuple:
    """proportional_classes as it grouped before its columns were made
    primitive integers: by each column divided by its leading entry in
    Fraction, () for a zero column."""
    classes: dict = {}
    for p, v in enumerate(columns):
        lead = next((x for x in v if x != 0), None)
        key = () if lead is None else tuple(Fraction(x) / lead for x in v)
        classes.setdefault(key, []).append(p)
    return tuple(tuple(members) for members in classes.values())


class TestProportionalClasses:
    """Grouping by primitive integer column groups as division by the lead did."""

    @given(st.data(), st.integers(1, 4), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_grouping(self, data, k, m):
        entries = st.sampled_from([0, 0, 1, -1, 2, -6, Fraction(1, 2), Fraction(-2, 3),
                                   Fraction(2), Fraction(-4, 2), Fraction(0)])
        factors = st.sampled_from([1, -1, 3, Fraction(-1, 3), Fraction(5, 7), Fraction(2)])
        columns = []
        for _ in range(m):  # fresh columns, zero ones among them, and rescaled copies
            if columns and data.draw(st.booleans()):
                f, v = data.draw(factors), data.draw(st.sampled_from(columns))
                columns.append(tuple(f * x for x in v))
            else:
                columns.append(tuple(data.draw(entries) for _ in range(k)))
        assert proportional_classes(columns) == fraction_classes(columns)

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_battery_and_its_annihilator_columns(self, spec):
        # M's columns are C's rows: a zero row of C is a zero column there
        M = related_matrix(spec.beta)
        columns = [tuple(M.entry(i, p) for i in range(M.rows)) for p in range(M.cols)]
        for g in (spec.beta, columns):
            assert proportional_classes(g) == fraction_classes(g)


def dense_projection(centre, k):
    """The map sending a vector of Q^k to its projection from the span of
    the independent columns `centre` onto the two free coordinates of their
    reduced rows, by textbook Gauss-Jordan in Fraction; None when the
    columns are dependent."""
    rows, leads = [], []
    for v in centre:
        w = [Fraction(x) for x in v]
        for row, lead in zip(rows, leads):
            w = [a - w[lead] * b for a, b in zip(w, row)]
        lead = next((i for i, x in enumerate(w) if x), None)
        if lead is None:
            return None
        w = [x / w[lead] for x in w]
        rows = [[a - row[lead] * b for a, b in zip(row, w)] for row in rows] + [w]
        leads.append(lead)
    f, g = (i for i in range(k) if i not in leads)

    def project(v):
        w = [Fraction(x) for x in v]
        for row, lead in zip(rows, leads):
            w = [a - w[lead] * b for a, b in zip(w, row)]
        return w[f], w[g]

    return project


def reference_cells(columns) -> tuple:
    """copy_cells as its docstring states it, in Fraction throughout: for
    every independent centre C of k - 2 columns, each other column projected
    onto the two free coordinates of C's reduced rows, and every four of them
    giving j of their cross-ratio, or the count of vanishing brackets."""
    m, k = len(columns), len(columns[0]) if columns else 0
    cells = [[] for _ in columns]
    for centre in itertools.combinations(range(m), k - 2) if k >= 2 else ():
        project = dense_projection([columns[c] for c in centre], k)
        if project is None:
            continue
        rest = [p for p in range(m) if p not in centre]
        points = {p: project(columns[p]) for p in rest}
        for four in itertools.combinations(rest, 4):
            pairs = itertools.combinations([points[q] for q in four], 2)
            brackets = [s[0] * t[1] - s[1] * t[0] for s, t in pairs]
            _, pb, pc, ab, ac, _ = brackets
            x, y, zeros = pb * ac, pc * ab, brackets.count(0)
            value = (-zeros, 0)
            if not zeros:
                value = ((x * x - x * y + y * y) ** 3 / (x * y * (x - y)) ** 2).as_integer_ratio()
            for q in centre + four:
                cells[q].append((q in centre, value))
    return tuple(tuple(sorted(cell)) for cell in cells)


@st.composite
def cell_columns(draw):
    """k - 1 <= m <= 8 columns of Q^k, 2 <= k <= 5: fresh integer and
    rational ones, zero ones, and combinations of two earlier ones (a
    multiple when the second factor is 0), so that some centres are
    dependent."""
    k = draw(st.integers(2, 5))
    m = draw(st.integers(k - 1, 8))
    entries = st.sampled_from([0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3),
                               Fraction(7, 4), Fraction(6, 3)])
    factors = st.sampled_from([1, -1, 2, Fraction(-1, 3), Fraction(5, 2)])
    columns = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "zero", "combination"]))
        if kind == "zero":
            columns.append((0,) * k)
        elif kind == "combination" and columns:
            u, v = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            f, g = draw(factors), draw(st.sampled_from([0, 1, Fraction(-3, 2)]))
            columns.append(tuple(f * a + g * b for a, b in zip(u, v)))
        else:
            columns.append(tuple(draw(entries) for _ in range(k)))
    return columns


class TestCopyCells:
    """copy_cells against a dense Fraction reference that shares none of the
    engine's code."""

    @given(cell_columns())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_reference(self, columns):
        assert copy_cells(columns) == reference_cells(columns)

    @pytest.mark.parametrize("spec", TEST_MATRIX, ids=spec_id)
    def test_battery_and_its_annihilator_columns(self, spec):
        M = related_matrix(spec.beta)
        columns = [tuple(M.entry(i, p) for i in range(M.rows)) for p in range(M.cols)]
        for g in (spec.beta, columns):
            assert copy_cells(g) == reference_cells(g)


def linked_grouping(spec):
    """Reference: flood-fill the copies from each unvisited copy, stepping
    from copy s to copy t <= r and back when beta_{t,s} != 0."""
    edges = {s: set() for s in range(1, spec.m + 1)}
    for s in range(1, spec.m + 1):
        for t, c in enumerate(spec.beta[s - 1], start=1):
            if c:
                edges[s].add(t)
                edges[t].add(s)
    seen, out = set(), []
    for s in range(1, spec.m + 1):
        if s in seen:
            continue
        group, todo = set(), [s]
        while todo:
            x = todo.pop()
            if x not in group:
                group.add(x)
                todo.extend(edges[x])
        seen |= group
        out.append(tuple(sorted(group)))
    return tuple(out)


class TestSupportComponents:
    def test_mixing_column_links_two_tops(self):
        # copy 4 glues onto the tops of copies 1 and 2; copy 3 stays apart
        s = make_spec(5, 4, 3, [["1"], ["1"], ["0"]])
        assert support_components(s) == ((1, 2, 4), (3,))

    @given(gluings())
    @settings(max_examples=100, deadline=None)
    def test_matches_flood_fill(self, spec):
        assert support_components(spec) == linked_grouping(spec)
        classes = proportional_classes(spec.beta)
        if len(classes) == spec.r:  # block form: the components are the blocks
            assert support_components(spec) == tuple(tuple(s + 1 for s in c) for c in classes)
