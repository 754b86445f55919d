"""The JSON emitter: byte-identical to the standard library's sorted,
two-space indented output, which the golden digests of the CLI pin, with
each Matrix read as the string grid of "p/q" strings that the verbs used to
build for it; a payload hands each scalar over as that text.  And the algebra reader, which checks a table
before a ``LieAlgebra`` holds it, and the candidate reader, which makes each
image array one sparse vector."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfla import jsonio
from qfla.builder import MAX_DIM, BadInput, make_spec
from qfla.jsonio import algebra_from_json, candidate_from_json, dumps, pieces
from qfla.linalg import Matrix


def matrix_to_json(M: Matrix) -> list:
    """Rows of "p/q" strings: a grid of "0" with the nonzero entries written in."""
    grid = [["0"] * M.cols for _ in range(M.rows)]
    for j, col in enumerate(M.columns()):
        for i, x in col.items():
            grid[i][j] = str(x)
    return grid


def plain(obj):
    """obj with every Matrix as its string grid."""
    if isinstance(obj, Matrix):
        return matrix_to_json(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"


# "p/q" scalars, the bulk of every matrix the verbs print
scalar_strings = st.from_regex(r"-?[0-9]{1,4}(/[1-9][0-9]{0,3})?", fullmatch=True)
# printable ASCII, with the quote and backslash that need escaping now and then
ascii_strings = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)
fractions = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))
# three entries in four are zero, so whole rows are often zero too
mostly_zero = st.integers(0, 3).flatmap(lambda k: fractions if k == 0 else st.just(0))
# the empty shapes (an r x 0 B at m = r) and 1 x 1 come up as often as the rest
shapes = st.one_of(
    st.sampled_from([(0, 0), (3, 0), (0, 2), (1, 1)]),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
)
matrices = shapes.flatmap(
    lambda shape: st.lists(
        st.lists(mostly_zero, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda grid: Matrix(grid, cols=shape[1]))
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.text(max_size=6),  # control characters and non-ASCII included
    scalar_strings,
    fractions.map(str),  # a payload's scalar, as the verbs hand it over
    matrices,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.lists(scalar_strings, max_size=6),
        st.lists(ascii_strings, max_size=4),
    )


payloads = st.recursive(leaves, containers, max_leaves=40)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_matches_the_standard_library(obj):
    assert dumps(obj) == "".join(pieces(obj)) == reference(obj)


@given(st.dictionaries(st.text(max_size=4), st.lists(payloads, max_size=3), max_size=3))
@settings(max_examples=100, deadline=None)
def test_one_piece_per_member_of_a_listed_member(obj):
    # the verbs' shape: a dict whose large members are lists (of matrices)
    parts = list(pieces(obj))
    assert "".join(parts) == reference(obj)
    if obj:
        lists = [v for v in obj.values() if v]
        assert len(parts) == 2 + len(obj) + sum(len(v) + 1 for v in lists)


@given(st.lists(matrices, max_size=3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_matrices_at_every_depth(ms, depth):
    obj = ms
    for level in range(depth):
        obj = {"k": obj, "f": str(Fraction(-level, 3))} if level % 2 else [obj, str(level)]
    assert dumps(obj) == "".join(pieces(obj)) == reference(obj)


def test_a_scalar_is_handed_over_as_its_text():
    assert dumps({"x": [str(Fraction(-3, 4)), str(Fraction(6, 3))]}) == reference(
        {"x": ["-3/4", "2"]}
    )
    with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
        dumps({"x": [Fraction(-3, 4)]})


def test_empty_and_one_by_one_matrices():
    obj = {
        "none": Matrix([], cols=0),
        "rows_only": Matrix([[], [], []]),
        "cols_only": Matrix([], cols=2),
        "one": Matrix([["-3/4"]]),
        "zero": Matrix([["0"]]),
        "nested": [[Matrix([["0", "2"], ["0", "0"]])]],
    }
    assert dumps(obj) == reference(obj)
    assert '"rows_only": [\n    [],\n    [],\n    []\n  ]' in dumps(obj)


def test_matrix_rows_and_empty_containers():
    obj = {"m": [["1", "-3/4"], ["0", "0"]], "e": [], "d": {}, "t": (), "q": ['a"b', "\\", "é"]}
    assert dumps(obj) == reference(obj)


class TestAlgebraFromJson:
    def test_rejects_upper_triangular_violation(self):
        with pytest.raises(BadInput, match="^brackets: indices"):
            algebra_from_json({"dim": 3, "brackets": [{"i": 1, "j": 0, "value": [[2, "1"]]}]})

    def test_rejects_out_of_range_target(self):
        with pytest.raises(BadInput, match="^value: target index 5"):
            algebra_from_json({"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [[5, "1"]]}]})

    def test_dim_cap(self):
        assert algebra_from_json({"dim": MAX_DIM})[0].dim == MAX_DIM
        with pytest.raises(BadInput, match=f"^dim: {MAX_DIM + 1} exceeds {MAX_DIM}$"):
            algebra_from_json({"dim": MAX_DIM + 1, "labels": ["a"]})

    def test_drops_zero_coefficients(self):
        L, spec = algebra_from_json({"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [[2, 0]]}]})
        assert (L.sc, spec) == ({}, None)

    def test_drops_zero_coefficients_given_as_strings(self):
        brackets = [
            {"i": 0, "j": 1, "value": [[2, "0"], [1, "0/5"]]},
            {"i": 0, "j": 2, "value": [[1, "-3/6"], [0, "0"]]},
        ]
        L, _ = algebra_from_json({"dim": 3, "brackets": brackets})
        assert L.sc == {(0, 2): {1: Fraction(-1, 2)}}
        assert L.structure(0, 1) == {}


class TestCandidateFromJson:
    SPEC = make_spec(5, 2, 1, [["1"]])  # dim 11

    def candidate(self, entries: dict) -> dict:
        """A candidate file of "0" arrays with {(key, index): entry} written in."""
        images = {f"e_{s}{t}": ["0"] * self.SPEC.dim for s in (1, 2) for t in (0, 1)}
        for (key, k), entry in entries.items():
            images[key][k] = entry
        return {"images": images}

    def test_one_scalar_call_per_entry_that_is_not_the_string_0(self, monkeypatch):
        calls = []
        scalar = jsonio.scalar
        monkeypatch.setattr(jsonio, "scalar", lambda x: calls.append(x) or scalar(x))
        entries = {("e_10", 0): "1", ("e_11", 1): "-0", ("e_20", 5): 0, ("e_21", 10): "2/4"}
        images = candidate_from_json(self.candidate(entries), self.SPEC)
        assert calls == ["1", "-0", 0, "2/4"]
        assert (images.e0, images.e1) == (({0: 1}, {}), ({}, {10: Fraction(1, 2)}))

    def test_zeros_in_any_spelling_are_absent_and_fractions_exact(self):
        entries = {
            ("e_10", 0): "-0", ("e_10", 1): "0/7", ("e_10", 2): 0, ("e_10", 3): "-6/4",
            ("e_21", 4): "4/2", ("e_21", 5): 1,
        }
        images = candidate_from_json(self.candidate(entries), self.SPEC)
        assert images.e0 == ({3: Fraction(-3, 2)}, {})
        assert images.e1 == ({}, {4: 2, 5: 1})
        assert type(images.e0[0][3]) is Fraction and type(images.e1[1][4]) is int
