"""Construction of Q_n, the glued sums, and their annihilator matrices."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfla.builder import (
    MAX_DIM,
    BadInput,
    QuasiQnSpec,
    build_qn,
    build_quasi,
    change_of_basis,
    make_spec,
    proportional_classes,
    qn_x_basis,
    rebase_x_to_e,
    related_matrix,
    support_components,
)
from qfla.derivations import der_dimension, nilpotent_basis
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
        assert s.beta is s.beta  # computed once per spec


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
