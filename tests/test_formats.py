"""The four text formats (.mg, .cyc, .fac, .ori) and the grammar they share:
'#' comment lines, a 'p <tag>' header whose last integer is the row count,
then tagged integer rows.  Every malformed input raises FormatError at the
offending line, and serializing a parsed canonical file gives it back byte
for byte."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from cyclehit import (
    FormatError,
    Orientation,
    half_pipeline,
    pack_cycles,
    parse_cycles,
    parse_factor,
    parse_multigraph,
    parse_orientation,
    random_regular_multigraph,
    serialize_cycles,
    serialize_factor,
    serialize_multigraph,
    serialize_orientation,
)
from conftest import c4, doubled_triangle, k4

# (parse, serialize) per format; .cyc is read against the doubled triangle
# (edges 0-2 one triangle, 3-5 its parallel copy), .fac and .ori against K4.
FORMATS = {
    "mg": (parse_multigraph, serialize_multigraph),
    "cyc": (lambda text: parse_cycles(text, doubled_triangle()), serialize_cycles),
    "fac": (lambda text: parse_factor(text, k4()), serialize_factor),
    "ori": (lambda text: parse_orientation(text, k4()), serialize_orientation),
}
K4_ORI = "o 0 1\no 1 2\no 2 3\no 3 2\no 4 3\n"  # edges 0-4 of K4, edge 5 missing

MALFORMED = [
    # The shared grammar, in every format.
    ("mg", "", 1, "missing 'p mg' header"),
    ("cyc", "# only a comment\n\n", 2, "missing 'p cyc' header"),
    ("fac", "f 0\n", 1, "expected header 'p fac <t> <count>'"),
    ("ori", "# k4\np mg 4 6\n", 2, "expected header 'p ori <m>'"),
    ("mg", "p mg 3\n", 1, "expected header"),
    ("mg", "p mg 3 x\n", 1, "header counts must be integers"),
    ("cyc", "p cyc two\n", 1, "header counts must be integers"),
    ("mg", "p mg -1 0\n", 1, "non-negative"),
    ("mg", "p mg 3 -1\n", 1, "non-negative"),
    ("cyc", "p cyc -1\n", 1, "non-negative"),
    ("fac", "p fac -1 0\n", 1, "non-negative"),
    ("fac", "p fac 1 -1\n", 1, "non-negative"),
    ("ori", "p ori -6\n", 1, "non-negative"),
    ("mg", "p mg 3 2\ne 0 1\nf 1 2\n", 3, "expected line 'e <u> <v>'"),
    ("cyc", "p cyc 1\no 3 0 1 2\n", 2, "expected line 'c <len> <eids>'"),
    ("fac", "p fac 1 2\n# row 1\nf 0\ne 5\n", 4, "expected line 'f <eid>'"),
    ("ori", "p ori 6\n" + K4_ORI + "e 5 3\n", 7, "expected line 'o <eid> <head>'"),
    ("mg", "p mg 3 2\ne 0 1 2\ne 1 2\n", 2, "expected line"),
    ("cyc", "p cyc 1\nc\n", 2, "expected line"),
    ("fac", "p fac 1 2\nf 0 5\nf 5\n", 2, "expected line"),
    ("ori", "p ori 6\n" + K4_ORI + "o 5\n", 7, "expected line"),
    ("mg", "p mg 3 2\ne 0 1\ne 1 x\n", 3, "entries must be integers"),
    ("cyc", "p cyc 1\nc 3 0 1 2.0\n", 2, "entries must be integers"),
    ("fac", "p fac 1 2\nf zero\nf 5\n", 2, "entries must be integers"),
    ("ori", "p ori 6\no 0 one\n" + K4_ORI[6:] + "o 5 3\n", 2, "entries must be integers"),
    ("mg", "p mg 3 1\ne 0 1\n\ne 1 2\n", 4, "more than the declared 1 rows"),
    ("cyc", "p cyc 1\nc 3 0 1 2\nc 3 3 4 5\n", 3, "more than the declared 1 rows"),
    ("fac", "p fac 1 1\nf 0\nf 5\n", 3, "more than the declared 1 rows"),
    ("ori", "p ori 6\n" + K4_ORI + "o 5 3\no 5 3\n", 8, "more than the declared 6 rows"),
    ("mg", "p mg 3 3\ne 0 1\ne 1 2\n# end\n", 4, "declared 3 rows but found 2"),
    ("cyc", "p cyc 2\nc 3 0 1 2\n", 2, "declared 2 rows but found 1"),
    ("fac", "p fac 1 2\nf 0\n", 2, "declared 2 rows but found 1"),
    ("ori", "p ori 6\n" + K4_ORI, 6, "declared 6 rows but found 5"),
    # What each format means.
    ("mg", "p mg 3 2\ne 0 1\ne 0 3\n", 3, "vertex id out of range 0..2"),
    ("mg", "p mg 3 2\ne -1 1\ne 0 2\n", 2, "vertex id out of range"),
    ("mg", "p mg 3 2\ne 0 1\ne 2 2\n", 3, "loop edge at vertex 2"),
    ("cyc", "p cyc 1\nc 3 0 1\n", 2, "declared length 3 but 2 edge ids"),
    ("cyc", "p cyc 2\nc 3 0 1 2\nc 2 3 4\n", 3, "are not parallel"),
    ("cyc", "p cyc 2\nc 2 0 1\nc 3 3 4 5\n", 2, "are not parallel"),
    ("cyc", "p cyc 2\nc 2 0 3\nc 3 3 4 5\n", 3, "not edge-disjoint at edge 3"),
    ("cyc", "p cyc 1\nc 3 0 1 6\n", 2, "edge id 6 out of range"),
    ("fac", "p fac 1 2\nf 5\nf 0\n", 3, "strictly increasing"),
    ("fac", "p fac 1 2\nf 0\nf 6\n", 3, "edge id 6 out of range"),
    ("ori", "p ori 5\n" + K4_ORI, 1, "orientation is for 5 edges, host has 6"),
    ("ori", "p ori 6\n" + K4_ORI + "o 6 3\n", 7, "edge id 6 out of range"),
    ("ori", "p ori 6\n" + K4_ORI + "o 4 1\n", 7, "edge 4 oriented twice"),
    ("ori", "p ori 6\n" + K4_ORI + "o 5 0\n", 7, "vertex 0 is not an endpoint of edge 5"),
]


@pytest.mark.parametrize(
    "fmt, text, line_no, message", MALFORMED, ids=[f"{i:02d}-{c[0]}-line{c[2]}" for i, c in enumerate(MALFORMED)]
)
def test_malformed_input_names_its_line(fmt, text, line_no, message):
    parse, _ = FORMATS[fmt]
    with pytest.raises(FormatError, match=message) as exc:
        parse(text)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize("parse, serialize, text", [
    (parse_multigraph, serialize_multigraph, "p mg 3 3\ne 0 1\ne 1 2\ne 0 2\n"),
    (FORMATS["cyc"][0], serialize_cycles, "p cyc 2\nc 3 0 1 2\nc 3 3 4 5\n"),
    (FORMATS["fac"][0], serialize_factor, "p fac 1 2\nf 0\nf 5\n"),
    (lambda text: parse_orientation(text, c4()), serialize_orientation,
     serialize_orientation(Orientation(c4(), (1, 2, 3, 3)))),
], ids=list(FORMATS))
def test_parse_serialize_roundtrip(parse, serialize, text):
    assert serialize(parse(text)) == text
    assert serialize(parse(serialize(parse(text)))) == text
    assert serialize(parse(text.encode())) == text


COMMENT = st.text(string.ascii_letters + string.digits + " =:#-", max_size=12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 12), st.integers(0, 10**6), st.lists(COMMENT, max_size=2))
def test_solved_instances_round_trip(n, seed, comments):
    G = random_regular_multigraph(n, 4, seed)
    O = pack_cycles(G, parity="odd")
    report = half_pipeline(G, O, 2)
    for obj, parse, serialize in [
        (G, parse_multigraph, serialize_multigraph),
        (O, lambda text: parse_cycles(text, G), serialize_cycles),
        (report.factor, lambda text: parse_factor(text, G), serialize_factor),
        (report.orientation, lambda text: parse_orientation(text, G), serialize_orientation),
    ]:
        text = serialize(obj)
        assert serialize(parse(text)) == text
        assert serialize(parse(serialize(obj, comments))) == text


@pytest.mark.parametrize("fmt, comments", [
    ("mg", ["two\nlines"]),
    ("cyc", ["fine", "carriage\rreturn"]),
    ("fac", ["crlf\r\n"]),
    ("ori", ["form\x0cfeed"]),
], ids=list(FORMATS))
def test_comment_with_line_break_is_rejected(fmt, comments):
    """A comment the reader would split into several lines is refused when
    written, not at the next read."""
    parse, serialize = FORMATS[fmt]
    obj = parse({
        "mg": "p mg 3 3\ne 0 1\ne 1 2\ne 0 2\n",
        "cyc": "p cyc 1\nc 3 0 1 2\n",
        "fac": "p fac 1 2\nf 0\nf 5\n",
        "ori": "p ori 6\n" + K4_ORI + "o 5 3\n",
    }[fmt])
    with pytest.raises(ValueError, match="contains a line break"):
        serialize(obj, comments)
