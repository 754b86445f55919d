"""The JSON emitter: byte-identical to the standard library's sorted,
two-space indented output, which the golden digests of the CLI pin."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qfla.jsonio import dumps

# "p/q" scalars, the bulk of every matrix the verbs print
scalar_strings = st.from_regex(r"-?[0-9]{1,4}(/[1-9][0-9]{0,3})?", fullmatch=True)
# printable ASCII, with the quote and backslash that need escaping now and then
ascii_strings = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.text(max_size=6),  # control characters and non-ASCII included
    scalar_strings,
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
@settings(max_examples=150, deadline=None)
def test_matches_the_standard_library(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_matrix_rows_and_empty_containers():
    obj = {"m": [["1", "-3/4"], ["0", "0"]], "e": [], "d": {}, "t": (), "q": ['a"b', "\\", "é"]}
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
