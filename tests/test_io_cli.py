import collections
import contextlib
import functools
import io
import json
import pathlib
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cycledec import cli, elementary
from cycledec import io as fio
from cycledec.complexes import TwoComplex, VectorField, field_to_rates, harmonic_basis
from cycledec.discretize import band_potential, discretize_potential
from cycledec.errors import InputFormatError
from cycledec.finite_graph import GraphCycle, GraphDecomposition
from cycledec.lattice import LatticeCycleClass, LatticeMeasure, decompose_lattice
from cycledec.ratio import ONE, ZERO, Rat, parse_rat, rat_decimal, rat_str

from conftest import CUBE_FACES, cube_complex
from oracles import (
    oriented_edges, reference_load_digraph, reference_load_rates, reference_parse_field,
    reference_parse_graph, reference_reconstruct_on_complex,
)


class TestMeasureFormat:
    def test_round_trip(self):
        p = LatticeMeasure(2, {(1, 0): Rat(1, 4), (-1, 2): Rat(3, 4)})
        assert fio.parse_measure(fio.format_measure(p)) == p

    def test_massless_measure_keeps_its_dimension(self):
        p = LatticeMeasure(2, {})
        assert fio.format_measure(p) == "0 0 0/1\n"
        assert fio.parse_measure(fio.format_measure(p)) == p

    def test_comments_and_blanks(self):
        text = "# heading\n\n1 0 1/2\n-1 0 1/2  # tail\n"
        p = fio.parse_measure(text)
        assert p.support() == [(-1, 0), (1, 0)]

    def test_duplicate_point_reports_line(self):
        with pytest.raises(InputFormatError) as info:
            fio.parse_measure("1 0 1/2\n1 0 1/4\n", path="dup.msr")
        assert info.value.line_no == 2

    def test_dimension_mismatch(self):
        with pytest.raises(InputFormatError):
            fio.parse_measure("1 0 1/2\n1 1/2\n")

    def test_negative_mass_reports_line(self):
        with pytest.raises(InputFormatError) as info:
            fio.parse_measure("1 0 1/2\n-1 0 -1/2\n", path="neg.msr")
        assert info.value.line_no == 2
        assert "negative mass -1/2" in str(info.value)


class TestGraphFormat:
    def test_round_trip(self):
        weights = {("a", "b"): Rat(5, 2), ("b", "a"): Rat(1, 3)}
        name, parsed = fio.parse_graph(fio.format_graph("t", weights))
        assert name == "t" and parsed == weights

    def test_missing_header(self):
        with pytest.raises(InputFormatError):
            fio.parse_graph("a b 1/2\n")

    def test_duplicate_edge(self):
        with pytest.raises(InputFormatError) as info:
            fio.parse_graph("digraph g\na b 1/2\na b 1/3\n")
        assert info.value.line_no == 3

    def test_coordinate_labels(self):
        weights = fio.labels_to_coords({("0,1", "1,1"): ONE})
        assert weights == {((0, 1), (1, 1)): ONE}

    def test_label_errors_name_the_edge_line(self, workdir):
        for body, message in (
            ("0,0 1,0 1/2\n# note\n0,0 a 1/2\n", "is not coordinates"),
            ("0,1 1,1 1/2\n\n00,1 1,1 1/3\n", "duplicate edge 00,1 1,1"),
        ):
            path = write(workdir / "labels.wg", "digraph g\n" + body)
            name, weights, lines = fio.read_graph(path)
            with pytest.raises(InputFormatError, match=message) as info:
                fio.labels_to_coords(weights, path, lines)
            assert info.value.line_no == 4

    @pytest.mark.parametrize(
        "token, message",
        [("-1/3", "negative weight -1/3 on b c"), ("1/x", "invalid literal"), ("2/0", "denominator")],
    )
    def test_repeated_bad_weight_names_its_first_line(self, token, message):
        # the token repeats on later lines, and only the first one is named
        text = f"digraph g\na b 1/3\nb c {token}\nc a {token}\na c 1/3\nc b {token}\n"
        with pytest.raises(InputFormatError, match=message) as info:
            fio.parse_graph(text, path="bad.wg")
        assert info.value.line_no == 3

    def test_two_spellings_of_one_point_name_the_second_line(self):
        _, weights, lines = fio._parse_graph("digraph g\n1,0 0,0 1/2\n\n01,0 0,0 1/2\n", "p.wg")
        with pytest.raises(InputFormatError) as info:
            fio.labels_to_coords(weights, "p.wg", lines)
        assert str(info.value) == "p.wg:4: duplicate edge 01,0 0,0"

    @pytest.mark.parametrize(
        "labels, error",
        [
            ([("0,1", "1,0"), ("00,1", "1,0"), ("a", "0,0")], "p.wg:3: duplicate edge 00,1 1,0"),
            ([("0,1", "1,0"), ("a", "0,0"), ("00,1", "1,0")],
             "p.wg:3: label 'a' or '0,0' is not coordinates"),
        ],
    )
    def test_first_of_a_duplicate_and_a_bad_label_is_named(self, labels, error):
        weights = {edge: ONE for edge in labels}
        with pytest.raises(InputFormatError) as info:
            fio.labels_to_coords(weights, "p.wg", [2, 3, 4])
        assert str(info.value) == error

    @pytest.mark.parametrize("u, v", [("0,0", "1,a"), ("1,", "0,0"), ("0;1", "0,0"), ("", "0,0")])
    def test_bad_label_keeps_its_message(self, u, v):
        with pytest.raises(InputFormatError) as info:
            fio.labels_to_coords({("0,0", "0,1"): ONE, (u, v): ONE}, "p.wg", [2, 3])
        assert str(info.value) == f"p.wg:3: label {u!r} or {v!r} is not coordinates"


class TestFieldFormat:
    def test_round_trip(self):
        field, _ = discretize_potential(band_potential(), 10)
        complex2, parsed = fio.parse_field(fio.format_field(field))
        assert parsed.values == field.values

    def test_one_dimensional(self):
        cx = TwoComplex.torus1(4)
        field = VectorField(cx, [ONE, Rat(1, 2), ZERO, -ONE])
        _, parsed = fio.parse_field(fio.format_field(field))
        assert parsed.values == field.values

    def test_bad_direction(self):
        with pytest.raises(InputFormatError):
            fio.parse_field("field torus 3 3\n0 0 3 1/2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(InputFormatError):
            fio.parse_field("field torus 3 3\n5 0 1 1/2\n")

    @pytest.mark.parametrize(
        "header", ["field torus abc", "field torus 2", "field torus 3 2", "field", "field torus"]
    )
    def test_bad_header_reports_its_line(self, header):
        with pytest.raises(InputFormatError) as info:
            fio.parse_field(f"# header next\n{header}\n")
        assert info.value.line_no == 2


FIELD_VALUES = ["1/2", "2/4~0.5", "-3", "0/1", "5/6~0.83"]


def _field_line(data, kind, shape, earlier):
    """One body line of a ``.field`` file on a torus of ``shape``."""
    d = len(shape)
    value = data.draw(st.sampled_from(FIELD_VALUES))
    point = [data.draw(st.integers(0, n - 1)) for n in shape]
    if kind == "duplicate" and earlier:
        return " ".join(data.draw(st.sampled_from(earlier)).split()[:d + 1]) + " " + value
    if kind == "outside":
        k = data.draw(st.integers(0, d - 1))
        point[k] = data.draw(st.sampled_from([-1, shape[k], shape[k] + 2]))
    coords = " ".join(map(str, point))
    if kind == "direction":
        return f"{coords} {data.draw(st.sampled_from([d + 1, 0, d + 2, -1]))} {value}"
    if kind == "token":
        return data.draw(st.sampled_from(
            [f"{coords} 1 x", f"{coords} 1 1/0", f"a {coords} 1", f"{coords} one 1/2"]))
    if kind == "short":
        return data.draw(st.sampled_from([coords, f"{coords} 1", f"{coords} 1 1/2 3"]))
    if kind == "comment":
        return data.draw(st.sampled_from(["# note", f"{coords} 1 1/3~0.33  # tail"]))
    return f"{coords} {data.draw(st.integers(1, d))} {value}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([(3,), (5,), (3, 3), (3, 4), (5, 3), (4, 4)]),
    header=st.sampled_from(["ok"] * 12 + ["field torus 2 3", "field torus x", "field grid 3", None]),
    kinds=st.lists(st.sampled_from(
        ["edge"] * 12 + ["duplicate", "outside", "direction", "token", "short", "comment"]),
        max_size=12),
    data=st.data(),
)
def test_parse_field_reads_like_the_coordinate_reference(shape, header, kinds, data):
    """A field file reads as the reader that worked out each edge from its
    tail's coordinates reads it, or fails with the same error: duplicates,
    vertices outside the torus, bad directions, bad tokens, short lines, a
    bad or missing header, comments and ``~`` decimals included."""
    lines = []
    if header is not None:
        lines.append("field torus " + " ".join(map(str, shape)) if header == "ok" else header)
    edges = []
    for kind in kinds:
        line = _field_line(data, kind, shape, edges)
        if kind in ("edge", "duplicate"):
            edges.append(line)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    try:
        complex, field = reference_parse_field(text, "f.field")
    except InputFormatError as exc:
        with pytest.raises(InputFormatError) as info:
            fio.parse_field(text, "f.field")
        assert str(info.value) == str(exc)
    else:
        read = fio.parse_field(text, "f.field")
        assert (read[0].torus_shape, read[1].values) == (complex.torus_shape, field.values)


class TestSurfaceFormat:
    def test_cube_round_trip(self):
        cx = cube_complex()
        text = fio.format_surface(cx)
        back = fio.parse_surface(text)
        assert back.orientable and back.n_faces == 6
        assert back.edges == cx.edges

    def test_klein_round_trip(self):
        cx = TwoComplex.klein_grid(3, 3)
        back = fio.parse_surface(fio.format_surface(cx))
        assert not back.orientable and back.n_faces == 9

    def test_wrong_orientability_claim_rejected(self):
        cx = TwoComplex.from_face_cycles(CUBE_FACES, orientable=False, name="cube")
        with pytest.raises(InputFormatError):
            fio.parse_surface(fio.format_surface(cx))

    @pytest.mark.parametrize(
        "record, message",
        [
            ("vertex b", "duplicate vertex b"),
            ("edge b a", "duplicate edge between b and a"),
            ("edge a c", "edge (a, c) uses unknown vertex"),
            ("edge b b", "self-loop at b"),
            ("orientable maybe", "expected: orientable yes|no"),
            ("face +1 0", "face needs nonzero signed edge indices"),
            ("face", "face needs nonzero signed edge indices"),
        ],
        ids=["duplicate vertex", "duplicate edge", "unknown endpoint", "self-loop",
             "orientability", "zero edge index", "empty face"],
    )
    def test_record_errors_report_their_line(self, record, message):
        text = f"surface s\norientable yes\nvertex a\nvertex b\nedge a b\n{record}\n"
        with pytest.raises(InputFormatError) as info:
            fio.parse_surface(text, path="bad.surf")
        assert str(info.value) == f"bad.surf:6: {message}"

    def test_edge_may_precede_its_vertices(self):
        cx = fio.parse_surface("orientable yes\nedge a b\nvertex a\nvertex b\n")
        assert cx.edges == [("a", "b")] and cx.vertices == ["a", "b"]


def _rebuild(text, on_complex=False):
    mode, _, records = fio.parse_decomposition(text, "d.dec")
    if on_complex:
        return fio.reconstruct_on_complex(mode, records, TwoComplex.torus2(3), "d.dec")
    return fio.reconstruct_decomposition(mode, records, "d.dec")


@pytest.mark.parametrize("read, error", [
    (lambda: fio.parse_field("# no header\n", "f.field"), "f.field:0: missing field header"),
    (lambda: fio.parse_decomposition("# no header\n", "d.dec"),
     "d.dec:0: missing decomposition header"),
    (lambda: fio.parse_decomposition("decomposition graph g\nterm 1/2\n", "d.dec"),
     "d.dec:2: term needs a weight and a kind"),
    (lambda: _rebuild("decomposition graph g\nterm 1/2 class 1,0*1 -1,0*1\n"),
     "d.dec:0: unexpected term kind 'class'"),
    (lambda: _rebuild("decomposition elementary r\nterm 1/2 perm 0,0>1,0\n", on_complex=True),
     "d.dec:0: unexpected term kind 'perm'"),
], ids=["field header", "decomposition header", "short term", "graph term kind",
        "on-complex term kind"])
def test_reader_diagnostics_name_their_line(read, error):
    with pytest.raises(InputFormatError) as info:
        read()
    assert str(info.value) == error
    assert info.value.line_no == int(error.split(":")[1])


class TestReconstructOnComplex:
    def test_cycles_sum_to_edge_weights(self):
        text = "decomposition elementary r\nterm 1/2 cycle 0,0 1,0\nterm 1/3 cycle 0,0 1,0 1,1 0,1\n"
        mode, _, records = fio.parse_decomposition(text)
        a, b, c, d = (0, 0), (1, 0), (1, 1), (0, 1)
        assert fio.reconstruct_on_complex(mode, records, TwoComplex.torus2(3)) == {
            (a, b): Rat(5, 6), (b, a): Rat(1, 2), (b, c): Rat(1, 3), (c, d): Rat(1, 3),
            (d, a): Rat(1, 3),
        }

    def test_every_step_must_be_an_edge(self):
        mode, _, records = fio.parse_decomposition("decomposition elementary r\nterm 0/1 cycle 0,0 1,1\n")
        with pytest.raises(InputFormatError, match="no edge between"):
            fio.reconstruct_on_complex(mode, records, TwoComplex.torus2(3))

    @pytest.mark.parametrize(
        "text",
        [
            # graph cycles whose steps are torus edges: not summed onto the torus
            "decomposition graph g\nterm 1/2 cycle 0,0 1,0\n",
            "decomposition lattice m\ntrivial 0,0 1/2\n",
        ],
    )
    def test_other_modes_are_refused(self, text):
        mode, _, records = fio.parse_decomposition(text, path="x.dec")
        with pytest.raises(InputFormatError) as info:
            fio.reconstruct_on_complex(mode, records, TwoComplex.torus2(3), "x.dec")
        assert str(info.value) == f"x.dec:0: no reconstruction rule for mode {mode!r}"

    @pytest.mark.parametrize("mode", ["elementary", "1d"])
    def test_empty_cycle_is_refused(self, mode):
        text = f"decomposition {mode} r\nterm 1/2 cycle 0,0 1,0\nterm 1/2 cycle\n"
        _, _, records = fio.parse_decomposition(text)
        with pytest.raises(InputFormatError, match="cycle must be nonempty"):
            fio.reconstruct_on_complex(mode, records, TwoComplex.torus2(3))


# -- readers and writers handle each distinct token once per file; these
# compare them with a token-by-token reference on text that repeats tokens

# equal values in several spellings, with and without a rounded `~` copy
VALUE_TOKENS = ["1/2", "2/4", "1/2~0.500", "2/4~1", "3", "3/1~3", "0/7", "5/6", "10/12~0.8",
                "-1/2", "-2/4~-0.5"]
BAD_TOKENS = ["1/0", "x", "1/2/3", "/2", "3/-4", "-1/2"]


def _reference_value(token):
    """``parse_rat`` of the exact part of ``token``; None when it is no rational."""
    try:
        return parse_rat(token.split("~", 1)[0])
    except ValueError:
        return None


# per reader: its text with the value token of record k on line k + 2, the
# first n values it reads back in record order, and whether it refuses a
# negative value
TOKEN_READERS = {
    "graph": (
        lambda tokens: "digraph g\n" + "".join(
            f"{k % 3},{k // 3} {(k + 1) % 3},{k // 3} {t}\n" for k, t in enumerate(tokens)),
        lambda text, n: list(fio.parse_graph(text)[1].values()),
        True,
    ),
    "measure": (
        lambda tokens: "\n" + "".join(f"{k} 0 {t}\n" for k, t in enumerate(tokens)),
        lambda text, n: [fio.parse_measure(text).mass((k, 0)) for k in range(n)],
        True,
    ),
    "field": (
        lambda tokens: "field torus 3 3\n" + "".join(
            f"{k // 6} {k // 2 % 3} {k % 2 + 1} {t}\n" for k, t in enumerate(tokens)),
        lambda text, n: fio.parse_field(text)[1].values[:n],
        False,
    ),
    "decomposition": (
        lambda tokens: "decomposition elementary r\n" + "".join(
            f"term {t} cycle {k},0 {k},1\n" for k, t in enumerate(tokens)),
        lambda text, n: [record[1] for record in fio.parse_decomposition(text)[2]],
        False,
    ),
}


@pytest.mark.parametrize("reader", TOKEN_READERS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    tokens=st.lists(st.sampled_from(VALUE_TOKENS), min_size=2, max_size=18),
    bad=st.one_of(st.none(), st.sampled_from(BAD_TOKENS)),
    comment=st.booleans(),
    data=st.data(),
)
def test_readers_parse_repeated_tokens_like_parse_rat(reader, tokens, bad, comment, data):
    """A reader returns the values a token-by-token ``parse_rat`` gives, or
    reports the first line whose token is bad; a bad token sits on two lines."""
    build, read, refuses_negative = TOKEN_READERS[reader]
    if bad is not None:
        for k in data.draw(st.lists(st.integers(0, len(tokens) - 1), min_size=2, max_size=2,
                                    unique=True)):
            tokens[k] = bad
    text = build(tokens)
    if comment:
        text = text.replace("\n", "  # note\n", 2)
    values = [_reference_value(t) for t in tokens]
    first_bad = next(
        (k + 2 for k, v in enumerate(values) if v is None or (refuses_negative and v < 0)), None
    )
    if first_bad is None:
        read_back = read(text, len(tokens))
        assert read_back == values
        assert all(type(v) is Rat for v in read_back)
    else:
        with pytest.raises(InputFormatError) as info:
            read(text, len(tokens))
        assert info.value.line_no == first_bad


LABELS = ["0,0", "0,1", "1,0", "00,1", "+1,0", "1,1,1", "a", "0,x"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
                min_size=1, max_size=10, unique=True))
def test_labels_to_coords_names_the_first_bad_or_duplicate_edge(tmp_path_factory, edges):
    """Labels convert as a label-by-label reference does, and the error names
    the line of the first edge with a bad label or an earlier point pair."""
    body = "".join(f"# edge {k}\n{u} {v} {k}/1\n" for k, (u, v) in enumerate(edges))
    path = tmp_path_factory.mktemp("labels") / "g.wg"
    path.write_text("digraph g\n" + body, encoding="utf-8")
    expected, error = {}, None
    for k, (u, v) in enumerate(edges):
        try:
            edge = tuple(int(c) for c in u.split(",")), tuple(int(c) for c in v.split(","))
        except ValueError:
            error = f"{path}:{2 * k + 3}: label {u!r} or {v!r} is not coordinates"
            break
        if edge in expected:
            error = f"{path}:{2 * k + 3}: duplicate edge {u} {v}"
            break
        expected[edge] = Rat(k)
    _, weights, lines = fio.read_graph(path)
    if error is None:
        assert list(fio.labels_to_coords(weights, path, lines).items()) == list(expected.items())
    else:
        with pytest.raises(InputFormatError) as info:
            fio.labels_to_coords(weights, path, lines)
        assert str(info.value) == error


# vertex cycles on the 3 x 3 torus that share edges in both directions;
# the last two take a step that is not an edge
TORUS_CYCLES = [
    "0,0 1,0", "1,0 0,0", "0,1 1,1", "0,0 1,0 1,1 0,1", "1,1 0,1 0,0 1,0", "0,0 0,1 0,2",
    "2,0 0,0 0,1 2,1", "0,0 1,1", "1,0 2,0 0,1",
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(VALUE_TOKENS), st.sampled_from(TORUS_CYCLES)),
                min_size=1, max_size=8))
def test_reconstruct_on_complex_sums_repeated_tokens_like_parse_rat(terms):
    """The edge sums equal a term-by-term ``Rat`` sum, and the first step
    that is not an edge of the torus is named."""
    complex = TwoComplex.torus2(3)
    text = "decomposition elementary r\n" + "".join(
        f"term {w} cycle {cycle}\n" for w, cycle in terms
    )
    mode, _, records = fio.parse_decomposition(text)
    expected, missing = {}, None
    for w, cycle in terms:
        points = [tuple(int(c) for c in token.split(",")) for token in cycle.split()]
        for u, v in zip(points, points[1:] + points[:1]):
            if missing is None and not ((u, v) in complex.edge_index or (v, u) in complex.edge_index):
                missing = u, v
            expected[(u, v)] = expected.get((u, v), ZERO) + _reference_value(w)
    if missing is None:
        assert fio.reconstruct_on_complex(mode, records, complex) == {
            e: w for e, w in expected.items() if w != 0
        }
    else:
        with pytest.raises(InputFormatError) as info:
            fio.reconstruct_on_complex(mode, records, complex)
        assert str(info.value) == f"<decomposition>:0: no edge between {missing[0]} and {missing[1]}"


def _walks(cx):
    """Vertex-label cycles along edges of ``cx``: every edge there and
    back, every face boundary both ways, and on a ring the whole ring."""
    label = fio.vertex_label
    walks = [[label(u), label(v)] for u, v in cx.edges]
    for fid in range(cx.n_faces):
        cycle = [label(v) for v in cx.face_cycle(fid)]
        walks += [cycle, cycle[::-1]]
    if cx.n_faces == 0:
        ring = [label(u) for u, _ in cx.edges]
        walks += [ring, ring[::-1]]
    return walks


# each complex with its mode, its walks, and tokens that are no vertex of
# it or another spelling of one
ON_COMPLEX = {
    "torus2": ("elementary", TwoComplex.torus2(3), ["5,5", "0,x", "00,1", "+1,2", "0", "0,0,0"]),
    "torus1": ("1d", TwoComplex.torus1(4), ["9", "x", "01", "0,0", "-1"]),
    "cube": ("elementary", cube_complex(), ["5,5", "0,x", "0001", "zz"]),
    "klein": ("elementary", TwoComplex.klein_grid(3, 3), ["5,5", "0,x", "00,1", "3,0"]),
}


def _negated(token):
    return token[1:] if token.startswith("-") else "-" + token


@pytest.mark.parametrize("kind", ON_COMPLEX)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reconstruct_on_vertex_ids_matches_the_tuple_reference(kind, data):
    """The rebuild on vertex ids returns the reference's items in the same
    order, or the same error: unknown vertices, bad coordinates, empty
    cycles, later faults and weights that cancel included."""
    mode, cx, odd = ON_COMPLEX[kind]
    walks = _walks(cx)
    lines = [f"decomposition {mode} r", "constant 0/1"]
    for _ in range(data.draw(st.integers(1, 8))):
        cycle = list(data.draw(st.sampled_from(walks)))
        fault = data.draw(st.sampled_from([None, None, None, "replace", "insert", "empty"]))
        if fault == "empty":
            cycle = []
        elif fault is not None:
            at = data.draw(st.integers(0, len(cycle) - 1))
            token = data.draw(st.sampled_from(odd))
            if fault == "replace":
                cycle[at] = token
            else:
                cycle.insert(at, token)
        weight = data.draw(st.sampled_from(VALUE_TOKENS))
        lines.append(f"term {weight} cycle " + " ".join(cycle))
        if data.draw(st.booleans()):
            lines.append(f"term {_negated(weight)} cycle " + " ".join(cycle))
    _, _, records = fio.parse_decomposition("\n".join(lines) + "\n")
    try:
        expected = list(reference_reconstruct_on_complex(mode, records, cx, "d.dec").items())
    except InputFormatError as exc:
        with pytest.raises(InputFormatError) as info:
            fio.reconstruct_on_complex(mode, records, cx, "d.dec")
        assert str(info.value) == str(exc)
    else:
        assert list(fio.reconstruct_on_complex(mode, records, cx, "d.dec").items()) == expected


GRAPH_LABELS = ["a", "b", "c", "0,0", "1,0"]
GRAPH_WEIGHTS = ["1/2", "2/4~0.5", "3", "0/1", "5/6~0.83"]
# per kind of graph line: how to draw it, given the edge lines before it
GRAPH_LINES = {
    "edge": lambda data, earlier: " ".join(data.draw(st.sampled_from(GRAPH_LABELS)) for _ in "uv")
    + " " + data.draw(st.sampled_from(GRAPH_WEIGHTS)),
    "duplicate": lambda data, earlier: " ".join(data.draw(st.sampled_from(earlier)).split()[:2])
    + " " + data.draw(st.sampled_from(GRAPH_WEIGHTS)) if earlier else "",
    "bad": lambda data, earlier: "a c " + data.draw(st.sampled_from(["x", "1/0", "1/2/3"])),
    "negative": lambda data, earlier: "c a " + data.draw(st.sampled_from(["-1/2", "-3~-3.0"])),
    "short": lambda data, earlier: data.draw(st.sampled_from(["a b", "a", "a b 1/2 3"])),
    "comment": lambda data, earlier: "# note",
    "commented edge": lambda data, earlier: "b c 1/3~0.33  # tail",
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    header=st.sampled_from(["digraph g"] * 8 + ["graph g", None]),
    kinds=st.lists(st.sampled_from(["edge", "edge", "edge", *GRAPH_LINES]), max_size=10),
    data=st.data(),
)
def test_parse_graph_names_faults_like_the_line_by_line_reference(header, kinds, data):
    """A graph file reads as the line-by-line reference reads it, or fails
    with the same error: duplicate edges before and after a bad token, a
    negative weight or a short line, a missing header, comments and ``~``
    decimals included."""
    lines = [] if header is None else [header]
    edges = []
    for kind in kinds:
        line = GRAPH_LINES[kind](data, edges)
        if kind in ("edge", "duplicate") and line:
            edges.append(line)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    try:
        expected = reference_parse_graph(text, "g.wg")
    except InputFormatError as exc:
        with pytest.raises(InputFormatError) as info:
            fio._parse_graph(text, "g.wg")
        assert str(info.value) == str(exc)
    else:
        name, weights, numbers = fio._parse_graph(text, "g.wg")
        assert (name, list(weights.items()), numbers) == (
            expected[0], list(expected[1].items()), expected[2])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), data=st.data())
def test_first_fault_returns_the_least_rejected_prefix_and_its_error(n, data):
    """For faults drawn anywhere among ``n`` items, the locator returns the
    shortest prefix that the check rejects and the error of that prefix, in
    at most ceil(log2 n) checks after the full call."""
    faults = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    checks = []

    def check(prefix):
        checks.append(len(prefix))
        bad = next((i for i in prefix if i in faults), None)
        if bad is not None:
            kind = (KeyError, ValueError, lambda m: InputFormatError("p", bad, m))[bad % 3]
            raise kind(f"fault {bad} in a prefix of {len(prefix)}")

    items = list(range(n))
    with pytest.raises((KeyError, ValueError, InputFormatError)) as info:
        check(items)
    checks.clear()
    k, error = fio._first_fault(items, check, info.value)
    first = min(faults)
    assert k == first + 1
    assert f"fault {first} in a prefix of {k}" in str(error)
    assert len(checks) <= (n - 1).bit_length()


RING_RATES = [f"{i},{j} {(i + 1) % 8},{j} 1/2" for i in range(8) for j in range(8)]


@pytest.mark.parametrize("at", [1, 40, 65])
@pytest.mark.parametrize(
    "reader, fault, message",
    [
        ("_graph_edges", "0,0 1,0 1/3", "duplicate edge 0,0 1,0"),
        ("_graph_edges", "0,0 5,5 -1", "negative weight -1 on 0,0 5,5"),
        ("_coords", "00,0 1,0 1/3", "duplicate edge 00,0 1,0"),
        ("_coords", "0,0 east 1", "label '0,0' or 'east' is not coordinates"),
    ],
)
def test_reader_faults_are_located_in_a_few_passes(reader, fault, message, at, monkeypatch):
    """A reader that fails on one of 66 edges runs on all of them once, then
    at most ceil(log2 66) = 7 times on prefixes, wherever the fault lies."""
    rates = RING_RATES + ["2,2 6,6 1"]
    rates.insert(at, fault)
    text = "\n".join(["digraph far", *rates]) + "\n"
    passes = []
    real = getattr(fio, reader)

    def counting(items, *rest):
        passes.append(len(items))
        return real(items, *rest)

    monkeypatch.setattr(fio, reader, counting)
    with pytest.raises(InputFormatError) as info:
        _, weights, lines = fio._parse_graph(text, "far.wg")
        fio.labels_to_coords(weights, "far.wg", lines)
    assert str(info.value) == f"far.wg:{at + 2}: {message}"
    assert passes[0] == 66 and len(passes) <= 8


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]), min_size=1,
                                max_size=4, unique=True),
                       st.sampled_from([Rat(1, 2), Rat(2, 4), Rat(-1, 3), ZERO, Rat(7, 3)])),
             max_size=8),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_cycle_writer_formats_repeated_tokens_like_term_by_term(terms, decimals):
    dec = GraphDecomposition([(GraphCycle(cycle), w) for cycle, w in terms])
    lines = ["decomposition graph g"]
    for cycle, w in dec.terms:
        weight = rat_str(w) + ("" if decimals is None else "~" + rat_decimal(w, decimals))
        lines.append(f"term {weight} cycle " + " ".join(fio.coords_label(v) for v in cycle))
    assert fio.format_graph_decomposition(dec, "g", decimals) == "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    entries=st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(tuple),
                               st.integers(-1, 3)), max_size=5),
    balance=st.booleans(),
    junk=st.one_of(st.none(), st.sampled_from(["1,x*1", "1,0", "*2", "1,0*y"])),
)
@example(entries=[((0, 0), 1)], balance=False, junk=None)
@example(entries=[((0, 0), 2)], balance=False, junk=None)
@example(entries=[((0,), 1), ((1,), 1), ((-1,), 1)], balance=False, junk=None)
@example(entries=[((1, 0), 1), ((1,), 1)], balance=False, junk=None)
def test_class_records_read_as_lattice_cycle_class(entries, balance, junk):
    """A ``class`` payload reads as ``LatticeCycleClass`` of its entries, in
    their order, or fails with the text that the class check gives."""
    if balance and entries and len({len(vec) for vec, _ in entries}) == 1:
        total = [sum(n * vec[i] for vec, n in entries) for i in range(len(entries[0][0]))]
        if any(total):
            entries = entries + [(tuple(-t for t in total), 1)]
    tokens = [",".join(map(str, vec)) + f"*{n}" for vec, n in entries]
    parsed = list(entries)
    if junk is not None:
        tokens.insert(len(tokens) // 2, junk)
        parsed.insert(len(parsed) // 2, None)
    seen, error = {}, None
    for token, entry in zip(tokens, parsed):
        if entry is None:
            error = f"malformed class entry {token!r}"
            break
        if entry[0] in seen:
            error = f"repeated displacement {token!r}"
            break
        seen[entry[0]] = entry[1]
    if error is None:
        try:
            expected = LatticeCycleClass(seen)
        except ValueError as exc:
            error = str(exc)
    text = "decomposition lattice m\nterm 1/2 class " + " ".join(tokens) + "\n"
    if error is None:
        cls = fio.parse_decomposition(text)[2][0][3]
        assert cls == expected and hash(cls) == hash(expected)
        assert list(cls.entries.items()) == list(expected.entries.items())
    else:
        with pytest.raises(InputFormatError) as info:
            fio.parse_decomposition(text)
        assert str(info.value) == f"<decomposition>:2: {error}"


class TestLatticeDecompositionFormat:
    @pytest.mark.parametrize(
        "text, record",
        [("0 0 1/1\n", "trivial 0,0 1/1"), ("0 0 0 1/1\n", "trivial 0,0,0 1/1"),
         ("0 0 0/1\n", "trivial 0,0 0/1")],
    )
    def test_mass_only_at_the_origin_reads_back(self, text, record):
        measure = fio.parse_measure(text)
        written = fio.format_lattice_decomposition(decompose_lattice(measure), "m")
        assert written == f"decomposition lattice m\n{record}\n"
        mode, _, records = fio.parse_decomposition(written)
        assert fio.reconstruct_decomposition(mode, records) == measure.atoms
        dec = fio.lattice_decomposition(records)
        assert dec.dimension == measure.dimension and dec.reconstruct() == measure

    @pytest.mark.parametrize(
        "line",
        ["trivial 1/1", "trivial 0,0 1/1 1/1", "trivial 0,1 1/1", "trivial 0,x 1/1",
         "trivial 0.0 1/1", "trivial 0,,0 1/1", "trivial , 1/1"],
    )
    def test_malformed_trivial_record_names_its_line(self, line):
        with pytest.raises(InputFormatError, match=r"expected: trivial 0,\.\.,0 <num/den>") as info:
            fio.parse_decomposition(f"decomposition lattice m\n# note\n{line}\n", path="bad.dec")
        assert info.value.line_no == 3

    def test_records_of_two_dimensions_are_refused(self):
        text = "decomposition lattice m\ntrivial 0,0 1/2\nterm 1/2 class 1*1 -1*1\n"
        mode, _, records = fio.parse_decomposition(text)
        with pytest.raises(InputFormatError, match=r"records of dimensions \[1, 2\]"):
            fio.reconstruct_decomposition(mode, records)


class TestMalformedDecomposition:
    @pytest.mark.parametrize(
        "mode, line",
        [
            ("1d-heavy", "residual 3"),
            ("1d-heavy", "residual x 1/2"),
            ("elementary", "constant"),
            ("1d", "rstar"),
            ("1d", "rstar maybe"),
            ("lattice", "term 1/1 class a,b*1 -1,0*1"),
            ("lattice", "term 1/1 class 1,0*x -1,0*1"),
            ("lattice", "term 1/1 class 1,0*1"),
            ("lattice", "term 1/1 class 1,0*1 1,0*1"),
            ("lattice", "term 1/1 loop 1,0*1"),
            ("birkhoff", "term 1/1 perm ab"),
        ],
    )
    def test_record_reports_its_line(self, mode, line):
        text = f"decomposition {mode} src\n# note\n{line}\n"
        with pytest.raises(InputFormatError) as info:
            fio.parse_decomposition(text, path="bad.dec")
        assert info.value.line_no == 3

    def test_repeated_graph_vertex(self):
        mode, _, records = fio.parse_decomposition("decomposition graph g\nterm 1/1 cycle a b a\n")
        with pytest.raises(InputFormatError, match="distinct"):
            fio.reconstruct_decomposition(mode, records)

    def test_empty_graph_cycle(self):
        mode, _, records = fio.parse_decomposition("decomposition graph g\nterm 1/1 cycle\n")
        with pytest.raises(InputFormatError, match="nonempty"):
            fio.reconstruct_decomposition(mode, records)


# one written decomposition per mode, with the complex it is read on (if any)
VALID_DECOMPOSITIONS = [
    ("decomposition graph t\nterm 2/1 cycle a b c\nterm 1/3 cycle a c\n", None),
    ("decomposition birkhoff h\nterm 1/2 perm a>a b>b\nterm 1/2 perm a>b b>a\n", None),
    ("decomposition lattice m\ntrivial 0,0 1/6\nterm 1/3 class 0,-1*1 0,1*1\n"
     "term 1/6 class -2,-2*1 1,1*2\n", None),
    ("decomposition 1d-heavy m\nterm 1/2 class -1*1 1*1\nterm 1/8 class -2*1 1*2\n"
     "residual -2 0/1\nresidual 1 1/3\n", None),
    ("decomposition elementary r\nconstant 0/1\nterm 1/2 cycle 0,0 1,0\n"
     "term 1/1 cycle 0,0 1,0 1,1 0,1\n", "torus"),
    ("decomposition 1d r\nconstant 1/1\nparameter 0/1\nmax-parameter 1/2\nrstar no\n"
     "term 1/2 cycle 0 1\nterm 1/1 cycle 0 1 2\n", "ring"),
    ("decomposition elementary k\nconstant 0/1\nterm 5/2 cycle 0,0 0,2\n"
     "term 1/1 cycle 0,0 1,0 1,1 0,1\n", "klein"),
]

JUNK = st.one_of(
    st.text(alphabet="0123456789-,*/>~ab", max_size=6),
    st.sampled_from(["term", "class", "cycle", "perm", "trivial", "residual", "rstar",
                     "constant", "decomposition", "lattice", "yes", "0,0*1", "1,0*1", "a>b"]),
)


def _complex(kind):
    if kind == "torus":
        return TwoComplex.torus2(3)
    if kind == "ring":
        return TwoComplex.torus1(3)
    return fio.read_surface(pathlib.Path(__file__).resolve().parent.parent / "samples/klein.surf")


def _mutate(data, lines, junk=JUNK):
    """Drop, replace or insert a token, or copy or drop a line."""
    tokens = data.draw(st.sampled_from(lines))
    op = data.draw(st.sampled_from(["drop", "replace", "insert", "copy line", "drop line"]))
    at = data.draw(st.integers(0, len(tokens)))
    if op == "drop line":
        lines.remove(tokens)
    elif op == "copy line":
        lines.insert(lines.index(tokens), list(tokens))
    elif op == "insert":
        tokens.insert(at, data.draw(junk))
    elif tokens:
        at = min(at, len(tokens) - 1)
        if op == "drop":
            del tokens[at]
        else:
            tokens[at] = data.draw(junk)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(VALID_DECOMPOSITIONS) - 1), st.data())
def test_mutated_decompositions_read_or_report(index, data):
    """Every reader either returns a value or raises InputFormatError."""
    text, kind = VALID_DECOMPOSITIONS[index]
    lines = [line.split() for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        if lines:
            _mutate(data, lines)
    mutated = "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    try:
        mode, _, records = fio.parse_decomposition(mutated)
    except InputFormatError:
        return
    if kind is not None:
        readers = [lambda: fio.reconstruct_on_complex(mode, records, _complex(kind))]
    else:
        readers = [
            lambda: fio.reconstruct_decomposition(mode, records),
            lambda: fio.lattice_decomposition(records),
        ]
    for read in readers:
        try:
            read()
        except InputFormatError:
            pass


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

# per input suffix: the reader, the writer of what it read, and the parts of
# a read value that a write and a second read must reproduce
INPUT_FORMATS = {
    ".msr": (fio.parse_measure, fio.format_measure, lambda measure: measure),
    ".wg": (fio.parse_graph, lambda graph: fio.format_graph(*graph), lambda graph: graph),
    ".field": (fio.parse_field, lambda read: fio.format_field(read[1]),
               lambda read: (read[0].torus_shape, read[1].values)),
    ".surf": (fio.parse_surface, fio.format_surface,
              lambda cx: (cx.name, cx.orientable, cx.vertices, cx.edges, cx.face_edges)),
}

INPUT_JUNK = st.one_of(
    st.text(alphabet="0123456789-+,/~ab", max_size=4),
    st.sampled_from(["digraph", "field", "torus", "surface", "orientable", "vertex", "edge",
                     "face", "yes", "no", "#", "0/1", "1/2", "-1", "+2", "a"]),
)

# errors about the file as a whole, raised after its last line was read
WHOLE_FILE_ERRORS = (
    "empty measure file", "missing digraph header", "missing field header",
    "missing orientable header", "expected exactly 2", "repeats inside a single face",
    "not oriented in agreement", "agreeing face orientation exists",
    "face adjacency graph is disconnected",
)


def _torus_sizes_at_most(text, limit):
    """Whether the integer tokens after ``field torus`` in the first
    content line are at most ``limit``: the reader builds the whole torus."""
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    header = next((tokens for tokens in lines if tokens), [])
    for token in header[2:]:
        try:
            if int(token) > limit:
                return False
        except ValueError:
            pass
    return True


@pytest.mark.parametrize("suffix", INPUT_FORMATS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_read_or_report(suffix, data):
    """A mutated sample reads as a value that survives a write and a second
    read, or fails with InputFormatError on the line of the bad record."""
    parse, write, key = INPUT_FORMATS[suffix]
    sample = data.draw(st.sampled_from(sorted(SAMPLES.glob(f"*{suffix}"))))
    lines = [line.split() for line in sample.read_text(encoding="utf-8").splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        if lines:
            _mutate(data, lines, INPUT_JUNK)
    text = "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    assume(suffix != ".field" or _torus_sizes_at_most(text, 12))
    try:
        value = parse(text)
    except InputFormatError as exc:
        assert exc.line_no >= 1 or any(m in str(exc) for m in WHOLE_FILE_ERRORS), str(exc)
        return
    assert key(parse(write(value))) == key(value)


def run_cli(args):
    return cli.main(args)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCliCheck:
    def test_balanced_graph(self, workdir, capsys):
        path = write(workdir / "t.wg", "digraph t\na b 2/1\nb c 2/1\nc a 2/1\n")
        assert run_cli(["check", "balance", path]) == 0
        assert "yes" in capsys.readouterr().out

    def test_unbalanced_graph_names_its_violators(self, workdir, capsys):
        path = write(workdir / "u.wg", "digraph u\na b 1/1\nb c 2/1\nc a 1/1\n")
        assert run_cli(["check", "balance", path]) == 1
        assert capsys.readouterr().out == "balanced: no violators=b,c\n"

    def test_unbalanced_measure_exit_one(self, workdir, capsys):
        path = write(workdir / "p.msr", "2 -1 1/2\n-1 2 1/2\n")
        assert run_cli(["check", "balance", path]) == 1

    def test_malformed_input_exit_two(self, workdir, capsys):
        path = write(workdir / "bad.wg", "digraph g\na b\n")
        assert run_cli(["check", "balance", path]) == 2
        assert "bad.wg:2" in capsys.readouterr().err

    def test_fig2_elementary_no(self, workdir, capsys):
        field, _ = discretize_potential(band_potential(), 10)
        path = write(workdir / "fig2.field", fio.format_field(field))
        assert run_cli(["check", "elementary", path]) == 1
        out = capsys.readouterr().out
        assert "verdict no" in out and "PolyhedronViolated" in out

    def test_rstar_necessary(self, workdir, capsys):
        field, _ = discretize_potential(band_potential(), 10)
        path = write(workdir / "fig2.field", fio.format_field(field))
        assert run_cli(["check", "rstar", path]) == 0

    def test_bistochastic(self, workdir, capsys):
        path = write(
            workdir / "b.wg",
            "digraph b\na a 1/2\na b 1/2\nb a 1/2\nb b 1/2\n",
        )
        assert run_cli(["check", "bistochastic", path]) == 0

    def test_empty_digraph_is_not_bistochastic(self, workdir, capsys):
        path = write(workdir / "e.wg", "digraph e\n")
        assert run_cli(["check", "bistochastic", path]) == 1
        assert capsys.readouterr().out == "bistochastic: no\n"
        out = workdir / "e.dec"
        assert run_cli(["decompose", "--mode", "birkhoff", path, "--verify", "-o", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "negative verdict: row or column sums differ from 1\n"


class TestCliDecompose:
    def test_graph_verify(self, workdir, capsys):
        path = write(workdir / "t.wg", "digraph t\na b 2/1\nb c 2/1\nc a 2/1\n")
        out_path = workdir / "t.dec"
        code = run_cli(
            ["decompose", "--mode", "graph", path, "-o", str(out_path), "--verify"]
        )
        assert code == 0
        assert "decomposition graph" in out_path.read_text()
        assert "confirmed" in capsys.readouterr().out

    def test_lattice_negative_exit(self, workdir, capsys):
        path = write(workdir / "p.msr", "2 -1 1/2\n-1 2 1/2\n")
        assert run_cli(["decompose", "--mode", "lattice", path]) == 1
        assert "negative verdict" in capsys.readouterr().err

    def test_unbalanced_lattice_reports_its_mean_in_the_file_spelling(self, workdir, capsys):
        path = write(workdir / "p.msr", "1 0 1/2\n0 0 1/2\n")
        assert run_cli(["decompose", "--mode", "lattice", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "negative verdict: measure has nonzero mean mean=1/2 0/1\n"

    def test_unbalanced_graph_reports_its_violators_as_labels(self, workdir, capsys):
        path = write(workdir / "u.wg", "digraph u\na b 1/1\nb c 2/1\nc a 1/1\n")
        assert run_cli(["decompose", "--mode", "graph", path]) == 1
        assert capsys.readouterr().err == (
            "negative verdict: in-weight differs from out-weight violators=b,c\n"
        )

    def test_nonconstant_1d_field_reports_its_violators_as_labels(self, workdir, capsys):
        path = write(workdir / "c.wg", "digraph c\n0 1 2/1\n1 2 1/1\n2 0 1/1\n")
        assert run_cli(["decompose", "--mode", "1d", path, "--torus", "3"]) == 1
        assert capsys.readouterr().err == "negative verdict: field is not constant violators=0,1\n"

    def test_lattice_support_above_the_limit_exit_two(self, workdir, capsys):
        lines = [f"{x} {y} 1/1\n" for i in range(2049) for x, y in ((i, 1), (-i, -1))]
        path = write(workdir / "big.msr", "".join(lines))
        assert run_cli(["decompose", "--mode", "lattice", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: support of 4098 points exceeds lattice.SUPPORT_LIMIT = 4096\n"
        )

    def test_lattice_verify_and_lift(self, workdir, capsys):
        path = write(
            workdir / "p.msr", "1 0 1/4\n-1 0 1/4\n0 1 1/4\n0 -1 1/4\n"
        )
        assert run_cli(["decompose", "--mode", "lattice", path, "--verify", "--lift"]) == 0
        out = capsys.readouterr().out
        assert "periodic-lift" in out and "confirmed" in out

    @pytest.mark.parametrize("output", [False, True])
    def test_mass_only_at_the_origin(self, workdir, capsys, output):
        path = write(workdir / "rest.msr", "0 0 1/1\n")
        extra = ["-o", str(workdir / "rest.dec")] if output else []
        args = ["decompose", "--mode", "lattice", path, "--verify", "--lift"] + extra
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert "term 1/1 class 0,0*1 @ all integer translates\n" in out
        assert "verification: exact reconstruction confirmed" in out

    def test_birkhoff_verify(self, workdir, capsys):
        path = write(
            workdir / "b.wg", "digraph b\na a 1/2\na b 1/2\nb a 1/2\nb b 1/2\n"
        )
        assert run_cli(["decompose", "--mode", "birkhoff", path, "--verify"]) == 0

    def test_elementary_verify(self, workdir, capsys):
        field, _ = discretize_potential(band_potential(), 10)
        rates = field_to_rates(field)
        cx = field.complex
        for u, v in oriented_edges(cx):
            rates[(u, v)] = rates.get((u, v), ZERO) + Rat(1, 2)
        weights = {
            (fio.coords_label(u), fio.coords_label(v)): w for (u, v), w in rates.items()
        }
        path = write(workdir / "r.wg", fio.format_graph("r", weights))
        code = run_cli(
            ["decompose", "--mode", "elementary", path, "--torus", "10", "--verify"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "formatter, args",
        [
            ("format_graph_decomposition", ["--mode", "graph", "samples/triangle.wg"]),
            ("format_lattice_decomposition", ["--mode", "lattice", "samples/walk2d.msr"]),
            ("format_elementary_decomposition",
             ["--mode", "elementary", "samples/klein_rates.wg", "--surface", "samples/klein.surf"]),
        ],
    )
    def test_verify_rejects_a_corrupted_term(self, formatter, args, monkeypatch, capsys):
        real = getattr(fio, formatter)

        def corrupting(*a, **kw):
            # the first term weight n/d becomes (n + 1)/d
            head, term, rest = real(*a, **kw).partition("\nterm ")
            weight, _, tail = rest.partition(" ")
            n, d = weight.split("/")
            return f"{head}{term}{int(n) + 1}/{d} {tail}"

        monkeypatch.chdir(SAMPLES.parent)
        monkeypatch.setattr(fio, formatter, corrupting)
        assert run_cli(["decompose", *args, "--verify"]) == 1
        captured = capsys.readouterr()
        assert "confirmed" not in captured.out
        assert captured.err.startswith("negative verdict: reconstruction differs from the input")

    def test_one_dimensional_family(self, workdir, capsys):
        lines = ["digraph c"]
        for i in range(3):
            lines.append(f"{i} {(i + 1) % 3} 2/1")
            lines.append(f"{(i + 1) % 3} {i} 1/1")
        path = write(workdir / "c.wg", "\n".join(lines) + "\n")
        code = run_cli(
            ["decompose", "--mode", "1d", path, "--torus", "3", "--param", "1/2", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rstar no" in out

    def test_heavy_tail(self, workdir, capsys):
        path = write(
            workdir / "h.msr",
            "1 1/4\n-1 1/4\n2 1/16\n-2 1/16\n3 1/36\n-3 1/36\n",
        )
        code = run_cli(
            ["decompose", "--mode", "1d-heavy", path, "--steps", "3", "--verify"]
        )
        assert code == 0


class TestCliOther:
    def test_hodge_output(self, workdir, capsys):
        field, _ = discretize_potential(band_potential(), 10)
        path = write(workdir / "f.field", fio.format_field(field))
        assert run_cli(["hodge", path]) == 0
        out = capsys.readouterr().out
        assert "coefficients 0/1 0/1" in out
        assert out.count("part ") == 3

    def test_elementary_subcommand_with_diameter(self, workdir, capsys):
        field, _ = discretize_potential(band_potential(), 10)
        path = write(workdir / "f.field", fio.format_field(field))
        assert run_cli(["elementary", path, "--diameter"]) == 1
        out = capsys.readouterr().out
        assert "verdict no" in out and "diameter-bound" in out

    def test_elementary_diameter_on_a_field_that_is_no_boundary(self, workdir, capsys):
        field = harmonic_basis(TwoComplex.torus2(3))[0]
        path = write(workdir / "h.field", fio.format_field(field))
        assert run_cli(["elementary", path, "--diameter"]) == 1
        assert capsys.readouterr().out == (
            "verdict no reason=NotHomologous\n"
            "diameter-bound unavailable: field is not a face boundary\n"
        )

    @pytest.mark.parametrize("surface", [False, True])
    def test_elementary_diameter_without_faces(self, workdir, capsys, surface):
        # a 1-d torus field, or rates on a surface file with no faces
        if surface:
            path = write(workdir / "r.wg", "digraph r\na b 1/1\nb a 1/1\n")
            extra = ["--surface", write(workdir / "s.surf", "surface s\norientable yes\n"
                                        "vertex a\nvertex b\nedge a b\n")]
        else:
            path = write(workdir / "f.field", "field torus 4\n" + "".join(
                f"{i} 1 1/1\n" for i in range(4)))
            extra = []
        assert run_cli(["elementary", path, "--diameter", *extra]) == (0 if surface else 1)
        out = capsys.readouterr().out
        assert out.endswith("\ndiameter-bound unavailable: complex has no faces\n")

    def test_elementary_diameter_fault_is_not_unavailable(self, workdir, monkeypatch, capsys):
        # a ValueError raised inside the bound is a fault, not a refusal
        def faulty(chain, complex):
            raise ValueError("fault inside the bound")

        monkeypatch.setattr(cli.el, "_diameter_bound", faulty)
        field, _ = discretize_potential(band_potential(), 10)
        path = write(workdir / "f.field", fio.format_field(field))
        with pytest.raises(ValueError, match="fault inside the bound"):
            run_cli(["elementary", path, "--diameter"])
        assert "unavailable" not in capsys.readouterr().out

    def test_elementary_output_equals_decompose(self, workdir, monkeypatch, capsys):
        surface = ["samples/klein_rates.wg", "--surface", "samples/klein.surf"]
        monkeypatch.chdir(SAMPLES.parent)
        assert run_cli(["elementary", *surface, "-o", str(workdir / "e.dec")]) == 0
        assert capsys.readouterr().out == "verdict yes witness_c=0/1\n"
        assert run_cli(["decompose", "--mode", "elementary", *surface]) == 0
        assert (workdir / "e.dec").read_text(encoding="utf-8") == capsys.readouterr().out

    def test_discretize_writes_field(self, workdir, capsys):
        out_path = workdir / "band.field"
        code = run_cli(
            ["discretize", "--potential", "band", "--n", "10", "-o", str(out_path)]
        )
        assert code == 0
        complex2, parsed = fio.parse_field(out_path.read_text())
        assert complex2.torus_shape == (10, 10)
        ref, _ = discretize_potential(band_potential(), 10)
        assert parsed.values == ref.values

    def test_decimal_annotations(self, workdir, capsys):
        path = write(workdir / "t.wg", "digraph t\na b 1/3\nb a 1/3\n")
        assert run_cli(["decompose", "--mode", "graph", path, "--decimal", "3"]) == 0
        out = capsys.readouterr().out
        assert "1/3~0.333" in out
        # annotated output re-parses: the exact value wins
        mode, _, records = fio.parse_decomposition(out)
        assert records[0][1] == Rat(1, 3)

    def test_decimal_zero_rounds_to_integers(self, workdir, capsys):
        path = write(workdir / "t.wg", "digraph t\na b 5/3\nb a 5/3\n")
        assert run_cli(["decompose", "--mode", "graph", path, "--decimal", "0"]) == 0
        assert "term 5/3~2 cycle a b\n" in capsys.readouterr().out

    def test_negative_decimal_exit_two(self, workdir, capsys):
        path = write(workdir / "t.wg", "digraph t\na b 5/3\nb a 5/3\n")
        with pytest.raises(SystemExit) as info:
            run_cli(["decompose", "--mode", "graph", path, "--decimal", "-1"])
        assert info.value.code == 2
        assert "argument --decimal: expected an integer >= 0, got '-1'" in capsys.readouterr().err

    def test_random_env_deterministic(self, workdir, capsys):
        args = [
            "random-env", "--dims", "4x4", "--potential", "constant",
            "--noise-lo", "1", "--noise-hi", "1", "--seed", "5",
        ]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first
        assert "1/4 1/4 1/4 1/4" in first

    def test_shipped_samples(self, capsys, tmp_path):
        import pathlib

        samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
        out = str(tmp_path / "out.dec")
        assert run_cli(["decompose", "--mode", "graph", str(samples / "triangle.wg"),
                        "--verify", "-o", out]) == 0
        assert run_cli(["decompose", "--mode", "birkhoff", str(samples / "bistochastic.wg"),
                        "--verify", "-o", out]) == 0
        assert run_cli(["decompose", "--mode", "lattice", str(samples / "walk2d.msr"),
                        "--verify", "-o", out]) == 0
        assert run_cli(["check", "balance", str(samples / "unbalanced.msr")]) == 1
        assert run_cli(["decompose", "--mode", "1d", str(samples / "ring.wg"),
                        "--torus", "6", "--param", "1/4", "--verify", "-o", out]) == 0
        assert run_cli(["decompose", "--mode", "1d-heavy", str(samples / "heavy_tail.msr"),
                        "--steps", "20", "--verify", "-o", out]) == 0
        assert run_cli(["check", "elementary", str(samples / "two_columns.field")]) == 1
        assert run_cli(["hodge", str(samples / "two_columns.field"), "-o",
                        str(tmp_path / "parts.txt")]) == 0
        for name in ("cube.surf", "klein.surf"):
            fio.read_surface(samples / name)
        assert run_cli(["elementary", str(samples / "klein_rates.wg"),
                        "--surface", str(samples / "klein.surf")]) == 0
        capsys.readouterr()

    def test_surface_rates_check(self, workdir, capsys):
        cx = cube_complex()
        surf = write(workdir / "cube.surf", fio.format_surface(cx))
        weights = {}
        for u, v in cx.edges:
            weights[(u, v)] = ONE
            weights[(v, u)] = ONE
        path = write(
            workdir / "cube.wg",
            fio.format_graph("cube", {(str(u), str(v)): w for (u, v), w in weights.items()}),
        )
        assert run_cli(["check", "elementary", path, "--surface", surf]) == 0


class TestCliInputErrors:
    def test_self_loop_outside_birkhoff_mode_exit_two(self, capsys):
        path = str(SAMPLES / "bistochastic.wg")
        for args in (["check", "balance", path], ["decompose", "--mode", "graph", path]):
            assert run_cli(args) == 2
            err = capsys.readouterr().err
            assert "bistochastic.wg:3: self-loop at a not allowed" in err

    def test_rates_off_the_complex_exit_two(self, capsys):
        path = str(SAMPLES / "ring.wg")
        assert run_cli(["check", "elementary", path, "--torus", "12"]) == 2
        err = capsys.readouterr().err
        assert "ring.wg:3:" in err and "no edge between (0,) and (1,)" in err

    def test_graph_errors_name_the_offending_edge_line(self, workdir, capsys):
        path = write(workdir / "late.wg", "digraph late\n0,0 1,0 1/2\n1,0 0,0 1/2\n# loop\n2,2 2,2 1\n")
        assert run_cli(["check", "balance", path]) == 2
        assert "late.wg:5: self-loop at 2,2 not allowed" in capsys.readouterr().err
        assert run_cli(["check", "elementary", path, "--torus", "3"]) == 2
        assert "late.wg:5: rates do not fit" in capsys.readouterr().err
        path = write(workdir / "label.wg", "digraph label\n0,0 1,0 1/2\n1,0 east 1/2\n")
        assert run_cli(["check", "elementary", path, "--torus", "3"]) == 2
        assert "label.wg:3: label '1,0' or 'east' is not coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("at", [0, 1, 40, 64])
    def test_rate_errors_are_located_in_a_few_passes(self, at, workdir, monkeypatch, capsys):
        # the first faulty rate is found by bisection over prefixes, so a
        # pass that costs the size of the complex does not run once per rate
        rates = [f"{i},{j} {(i + 1) % 8},{j} 1/2" for i in range(8) for j in range(8)]
        rates.insert(at, "0,0 5,5 1")
        rates.append("2,2 6,6 1")
        path = write(workdir / "far.wg", "\n".join(["digraph far", *rates]) + "\n")
        passes = []
        real = cli._field_and_symmetric

        def counting(rates, complex):
            passes.append(len(rates))
            return real(rates, complex)

        monkeypatch.setattr(cli, "_field_and_symmetric", counting)
        assert run_cli(["check", "elementary", path, "--torus", "8"]) == 2
        assert f"far.wg:{at + 2}: rates do not fit torus2[8x8]: no edge between (0, 0) and (5, 5)" in (
            capsys.readouterr().err
        )
        assert len(passes) <= 8  # the whole map, then at most 7 halvings of 66 rates

    def test_negative_rate_exit_two(self, workdir, capsys):
        path = write(workdir / "neg.wg", "digraph neg\n0,0 1,0 -1/2\n")
        assert run_cli(["check", "elementary", path, "--torus", "3"]) == 2
        assert "neg.wg:2: negative weight -1/2 on 0,0 1,0" in capsys.readouterr().err

    def test_zero_rate_entries_verify(self, workdir, capsys):
        path = write(workdir / "z.wg", "digraph z\n0,0 1,0 1/1\n1,0 0,0 1/1\n0,0 0,1 0/1\n")
        assert run_cli(["decompose", "--mode", "elementary", path, "--torus", "3", "--verify"]) == 0
        assert "confirmed" in capsys.readouterr().out

    def test_one_dimensional_mode_on_a_surface_exit_two(self, capsys):
        path = str(SAMPLES / "two_columns.field")
        assert run_cli(["decompose", "--mode", "1d", path]) == 2
        assert "expects the 1-d torus" in capsys.readouterr().err

    def test_oversized_field_header_exit_two_before_building(self, workdir, capsys):
        path = write(workdir / "huge.field", "field torus 999999 999999\n")
        started = time.perf_counter()
        assert run_cli(["hodge", path]) == 2
        assert time.perf_counter() - started < 1
        limit = fio.FIELD_VERTEX_LIMIT
        assert f"huge.field:1: torus of 999998000001 vertices exceeds the limit of {limit}" in (
            capsys.readouterr().err
        )

    def test_hodge_on_a_one_dimensional_field_exit_two(self, workdir, capsys):
        field = VectorField(TwoComplex.torus1(4), [ONE] * 4)
        path = write(workdir / "one.field", fio.format_field(field))
        assert run_cli(["hodge", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}:1: hodge expects a 2-d torus field\n"

    def test_hodge_above_its_limit_exits_two(self, workdir, capsys):
        # 17 x 241 = HODGE_VERTEX_LIMIT + 1 vertices, under the field file limit
        path = write(workdir / "wide.field", "field torus 17 241\n")
        assert run_cli(["hodge", path]) == 2
        assert "torus of 4097 vertices exceeds complexes.HODGE_VERTEX_LIMIT = 4096" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "elementary", str(SAMPLES / "torus_rates.wg"), "--torus", "5000x5000"],
            ["elementary", str(SAMPLES / "torus_rates.wg"), "--torus", "5000"],
            ["decompose", "--mode", "1d", str(SAMPLES / "ring.wg"), "--torus", "40001"],
            ["check", "elementary", str(SAMPLES / "two_columns.field"), "--torus", "5000"],
            ["random-env", "--potential", "constant", "--seed", "1", "--dims", "5000x5000",
             "--noise-lo", "1", "--noise-hi", "1"],
            ["discretize", "--potential", "band", "--n", "5000"],
        ],
        ids=lambda args: " ".join(a.split("/")[-1] for a in args),
    )
    def test_oversized_torus_arguments_exit_two_before_building(self, args, capsys):
        started = time.perf_counter()
        assert run_cli(args) == 2
        assert time.perf_counter() - started < 1
        err = capsys.readouterr().err
        assert "<args>:0:" in err and f"vertices exceed the limit of {fio.FIELD_VERTEX_LIMIT}" in err

    @pytest.mark.parametrize("flag, value", [("--torus", "6"), ("--surface", "cube.surf")])
    def test_complex_flag_disagreeing_with_a_field_header_exit_two(self, flag, value, capsys):
        path = str(SAMPLES / "two_columns.field")
        value = str(SAMPLES / value) if flag == "--surface" else value
        assert run_cli(["check", "elementary", path, flag, value]) == 2
        err = capsys.readouterr().err
        assert f"<args>:0: {flag} disagrees with the field header of {path}" in err

    def test_square_torus_shorthand_fits_a_square_field_header(self, capsys):
        path = str(SAMPLES / "two_columns.field")
        assert run_cli(["check", "elementary", path]) == 1
        expected = capsys.readouterr().out
        for shape in ("10", "10x10"):
            assert run_cli(["check", "elementary", path, "--torus", shape]) == 1
            assert capsys.readouterr().out == expected

    def test_heavy_tail_on_a_massless_measure_exit_one(self, workdir, capsys):
        path = write(workdir / "zero.msr", "1 0/1\n-1 0/1\n")
        assert run_cli(["decompose", "--mode", "1d-heavy", path]) == 1
        assert "no positive mass" in capsys.readouterr().err


# label pairs that are steps of the 3 x 3 torus; labels, two of them bad
# and one off the torus
WG_STEPS = [("0,0", "1,0"), ("0,1", "0,0"), ("1,1", "0,1"), ("2,0", "0,0"), ("1,2", "1,1"),
            ("2,2", "2,0"), ("1,0", "1,1"), ("0,2", "0,1")]
WG_LABELS = ["a", "0,0", "2,2", "0,5", "1,0", "1,x"]
WG_KINDS = ["step", "repeat", "edge", "respelled", "loop", "weight", "step", "comment"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_names_faults_like_the_line_by_line_loaders(tmp_path_factory, data):
    """``check balance`` and ``check elementary --torus 3`` name the first
    faulty line of a graph file as a line-by-line reference does: repeated
    edges, two spellings of a point, bad labels, self-loops, edges off the
    torus and bad or negative weights, in any order.  A file the reference
    accepts ends in a verdict."""
    lines = ["digraph g"]
    edges = []
    steps = data.draw(st.permutations(WG_STEPS))
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(WG_KINDS))
        weight = data.draw(st.sampled_from(["1/2", "1", "2/4", "0/1"]))
        if kind == "comment":
            lines.append("# note")
            continue
        if kind in ("repeat", "respelled") and edges:
            u, v = data.draw(st.sampled_from(edges))
            if kind == "respelled":
                u = "0" + u  # the same point, spelled another way
        elif kind in ("edge", "loop"):
            u = data.draw(st.sampled_from(WG_LABELS))
            v = u if kind == "loop" else data.draw(st.sampled_from(WG_LABELS))
        else:
            u, v = steps.pop()
            if kind == "weight":
                weight = data.draw(st.sampled_from(["-1/3", "x", "1/0"]))
        edges.append((u, v))
        lines.append(f"{u} {v} {weight}")
    text = "\n".join(lines) + "\n"
    path = write(tmp_path_factory.mktemp("wg") / "g.wg", text)
    for args, reference in (
        (["check", "balance", path], lambda: reference_load_digraph(text, path)),
        (["check", "elementary", path, "--torus", "3"],
         lambda: reference_load_rates(text, path, TwoComplex.torus2(3))),
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(args)
        try:
            reference()
        except InputFormatError as exc:
            assert (code, err.getvalue()) == (2, f"input error: {exc}\n")
        else:
            assert code in (0, 1)


def _sample(name):
    return str(SAMPLES / name)


RANDOM_ENV = ["random-env", "--potential", "constant", "--seed", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["check", "elementary", _sample("torus_rates.wg"), "--torus", "abc"],
        ["check", "elementary", _sample("torus_rates.wg"), "--torus", "2"],
        RANDOM_ENV + ["--dims", "4", "--noise-lo", "1", "--noise-hi", "1"],
        RANDOM_ENV + ["--dims", "2x2", "--noise-lo", "1", "--noise-hi", "1"],
        RANDOM_ENV + ["--dims", "4x4", "--noise-lo", "abc", "--noise-hi", "1"],
        RANDOM_ENV + ["--dims", "4x4", "--noise-lo", "1", "--noise-hi", "1/2"],
        ["decompose", "--mode", "elementary", _sample("torus_rates.wg"), "--torus", "3x4",
         "--constant", "abc"],
        ["decompose", "--mode", "1d", _sample("ring.wg"), "--torus", "6", "--param", "xyz"],
        ["decompose", "--mode", "1d", _sample("ring.wg"), "--torus", "6", "--param", "1/0"],
        ["discretize", "--potential", "band", "--n", "2"],
        ["discretize", "--potential", "band", "--n", "4", "--denominator", "0"],
        ["hodge", "abc.field"],
        ["hodge", "small.field"],
        ["hodge", "bare.field"],
        ["check", "balance", "negative.msr"],
        ["elementary", _sample("klein_rates.wg"), "--surface", _sample("klein.surf"),
         "--constant", "1", "-o", "out"],
        ["decompose", "--mode", "elementary", _sample("klein_rates.wg"), "--surface",
         _sample("klein.surf"), "--constant", "1"],
        ["hodge", _sample("two_columns.field"), "--torus", "3"],
        ["check", "balance", _sample("rest2d.msr"), "--decimal", "3"],
        # decomposable inputs at an infeasible constant or parameter
        ["decompose", "--mode", "elementary", _sample("torus_rates.wg"), "--torus", "3x4",
         "--constant", "5"],
        ["elementary", _sample("torus_rates.wg"), "--torus", "3x4", "--constant", "5",
         "-o", "out"],
        ["decompose", "--mode", "1d", _sample("ring.wg"), "--torus", "6", "--param", "1"],
        # a flag of another mode
        ["decompose", "--mode", "graph", _sample("triangle.wg"), "--constant", "5"],
        ["decompose", "--mode", "elementary", _sample("torus_rates.wg"), "--torus", "3x4",
         "--param", "0"],
        ["decompose", "--mode", "lattice", _sample("walk2d.msr"), "--steps", "10"],
        ["decompose", "--mode", "1d-heavy", _sample("heavy_tail.msr"), "--steps", "-1"],
        # two complexes, or a complex where none is read
        ["elementary", _sample("torus_rates.wg"), "--torus", "3x4", "--surface",
         _sample("cube.surf")],
        ["decompose", "--mode", "graph", _sample("triangle.wg"), "--torus", "3x3"],
        ["decompose", "--mode", "lattice", _sample("walk2d.msr"), "--surface",
         _sample("klein.surf")],
        ["check", "balance", _sample("triangle.wg"), "--torus", "3"],
        # --lift where no lift is written
        ["decompose", "--mode", "graph", _sample("triangle.wg"), "--verify", "--lift"],
        ["decompose", "--mode", "birkhoff", _sample("bistochastic.wg"), "--lift"],
        ["decompose", "--mode", "1d", _sample("ring.wg"), "--torus", "6", "--lift"],
        ["decompose", "--mode", "1d-heavy", _sample("heavy_tail.msr"), "--lift"],
    ],
    ids=lambda args: " ".join(args).replace(f"{SAMPLES}/", ""),
)
def test_bad_arguments_exit_two(args, workdir, capsys):
    write(workdir / "abc.field", "field torus abc\n")
    write(workdir / "small.field", "field torus 2\n")
    write(workdir / "bare.field", "field\n")
    write(workdir / "negative.msr", "1 0 1/2\n-1 0 -1/2\n")
    try:
        code = run_cli(args)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err and "Traceback" not in err


NO_FREEDOM = "--constant: non-orientable recovery admits no constant freedom"
INFEASIBLE = "--constant: constant 5 is infeasible at edge ((0, 0), (1, 0))"


def _refusal(args, message):
    return pytest.param(args, message, id=" ".join(args).replace(f"{SAMPLES}/", ""))


@pytest.mark.parametrize(
    "args, message",
    [
        _refusal(["elementary", _sample("klein_rates.wg"), "--surface", _sample("klein.surf"),
                  "--constant", "1", "-o", "out"], NO_FREEDOM),
        _refusal(["decompose", "--mode", "elementary", _sample("klein_rates.wg"), "--surface",
                  _sample("klein.surf"), "--constant", "1"], NO_FREEDOM),
        _refusal(["elementary", _sample("klein_rates.wg"), "--surface", _sample("klein.surf"),
                  "--constant", "1"], NO_FREEDOM),
        _refusal(["elementary", _sample("torus_rates.wg"), "--torus", "3x4", "--constant", "5",
                  "-o", "out"], INFEASIBLE),
        _refusal(["elementary", _sample("torus_rates.wg"), "--torus", "3x4", "--constant", "5"],
                 INFEASIBLE),
        _refusal(["decompose", "--mode", "elementary", _sample("torus_rates.wg"), "--torus",
                  "3x4", "--constant", "5", "-o", "out"], INFEASIBLE),
        _refusal(["decompose", "--mode", "1d", _sample("ring.wg"), "--torus", "6", "--param",
                  "1", "-o", "out"],
                 "--param: parameter 1 outside [0, 1/2] gives a negative cycle weight"),
        _refusal(["decompose", "--mode", "graph", _sample("triangle.wg"), "--constant", "5",
                  "-o", "out"], "--constant applies to --mode elementary only"),
        _refusal(["decompose", "--mode", "elementary", _sample("torus_rates.wg"), "--torus",
                  "3x4", "--param", "0", "-o", "out"], "--param applies to --mode 1d only"),
        _refusal(["decompose", "--mode", "lattice", _sample("walk2d.msr"), "--steps", "10",
                  "-o", "out"], "--steps applies to --mode 1d-heavy only"),
        _refusal(["decompose", "--mode", "graph", _sample("triangle.wg"), "--torus", "3x3",
                  "-o", "out"], "--torus applies to --mode elementary or 1d only"),
        _refusal(["decompose", "--mode", "lattice", _sample("walk2d.msr"), "--surface",
                  _sample("klein.surf"), "-o", "out"],
                 "--surface applies to --mode elementary or 1d only"),
        _refusal(["check", "balance", _sample("triangle.wg"), "--torus", "3"],
                 "--torus applies to check dlambda2, elementary or rstar only"),
        _refusal(["check", "bistochastic", _sample("bistochastic.wg"), "--surface",
                  _sample("klein.surf")],
                 "--surface applies to check dlambda2, elementary or rstar only"),
    ],
)
def test_refused_constant_leaves_stdout_empty(args, message, workdir, capsys):
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"input error: <args>:0: {message}" in captured.err
    assert not (workdir / "out").exists()


ELEMENTARY_RATES = {
    "torus": [_sample("torus_rates.wg"), "--torus", "3x4"],
    "klein": [_sample("klein_rates.wg"), "--surface", _sample("klein.surf")],
}
ELEMENTARY_COMMANDS = [
    ["elementary", "-o", "out", "--diameter"],
    ["decompose", "--mode", "elementary", "--verify"],
    ["check", "elementary"],
    ["check", "dlambda2"],
    ["check", "rstar"],
]


@pytest.mark.parametrize(
    "args, recoveries",
    [
        pytest.param(command + rates, 1, id=f"{' '.join(command)}-{name}")
        for command in ELEMENTARY_COMMANDS
        for name, rates in ELEMENTARY_RATES.items()
    ]
    + [
        pytest.param(["decompose", "--mode", "1d", _sample("ring.wg"), "--torus", "6", "--verify"],
                     0, id="decompose --mode 1d --verify-ring"),
        pytest.param(["check", "dlambda2", _sample("two_columns.field")], 1,
                     id="check dlambda2-field"),
    ],
)
def test_elementary_commands_recover_one_chain(args, recoveries, workdir, monkeypatch, capsys):
    # the rates pass runs once, in _load_rates, which locates a bad line and
    # hands the pass to the chain step; every verdict, weight and bound reads it
    calls = collections.Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(elementary, "recover_psi")
    count(cli, "_field_and_symmetric")
    count(elementary, "_field_and_symmetric")
    assert run_cli(args) == 0
    assert calls["recover_psi"] == recoveries
    assert calls["_field_and_symmetric"] == 1


@pytest.mark.parametrize(
    "args",
    [
        ["discretize", "--potential", "sine", "--amplitude", "nan", "--n", "4"],
        ["discretize", "--potential", "sine", "--amplitude", "inf", "--n", "4"],
        ["discretize", "--potential", "sine", "--amplitude", "1e308", "--n", "4"],
        ["discretize", "--potential", "band", "--lo", "nan", "--n", "4"],
        ["discretize", "--potential", "band", "--hi=-inf", "--n", "4"],
        RANDOM_ENV + ["--value", "inf", "--dims", "3x3", "--noise-lo", "1/2", "--noise-hi", "1"],
        RANDOM_ENV + ["--value", "1e308", "--dims", "3x3", "--noise-lo", "1/2", "--noise-hi", "1"],
    ],
    ids=" ".join,
)
def test_potentials_that_do_not_snap_exit_two(args, capsys):
    # nan and infinities are refused as arguments; a finite value whose
    # scaled sample overflows a float is refused when it is snapped
    try:
        code = run_cli(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["discretize", "--potential", "band", "--lo", "0.9", "--hi", "0.1", "--n", "4"],
        ["discretize", "--potential", "band", "--lo", "0.5", "--hi", "0.5", "--n", "4"],
        ["random-env", "--potential", "band", "--lo", "3", "--hi", "1", "--dims", "4x4",
         "--noise-lo", "1/2", "--noise-hi", "1", "--seed", "1"],
    ],
    ids=" ".join,
)
def test_empty_band_exits_two_naming_both_ends(args, workdir, capsys):
    lo, hi = (float(args[args.index(flag) + 1]) for flag in ("--lo", "--hi"))
    code = run_cli(args + ["-o", "out"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"input error: <args>:0: empty band: lo={lo!r} is not below hi={hi!r}" in captured.err
    assert "Traceback" not in captured.err
    assert not (workdir / "out").exists()


def _sample_commands():
    """Every subcommand each sample applies to, with every complex option.

    Paths are relative to the repository root, where the commands run.
    """
    complexes = [
        [],
        ["--torus", "6"],
        ["--torus", "3x4"],
        ["--surface", "samples/klein.surf"],
        ["--surface", "samples/cube.surf"],
    ]
    commands = []
    for sample in sorted(SAMPLES.iterdir()):
        path = f"samples/{sample.name}"
        if sample.suffix == ".wg":
            commands += [
                ["check", "balance", path],
                ["check", "bistochastic", path],
                ["decompose", "--mode", "graph", path, "--verify"],
                ["decompose", "--mode", "birkhoff", path, "--verify"],
            ]
        if sample.suffix == ".msr":
            commands += [
                ["check", "balance", path],
                ["decompose", "--mode", "lattice", path, "--verify", "--lift"],
                ["decompose", "--mode", "1d-heavy", path, "--steps", "5", "--verify"],
            ]
        if sample.suffix == ".field":
            commands.append(["hodge", path])
        if sample.suffix in (".wg", ".field"):
            for extra in complexes:
                commands += [["check", prop, path] + extra for prop in ("dlambda2", "elementary", "rstar")]
                commands += [
                    ["elementary", path, "--diameter"] + extra,
                    ["decompose", "--mode", "elementary", path, "--verify", "--lift"] + extra,
                    ["decompose", "--mode", "1d", path, "--verify"] + extra,
                ]
    variants = [[], ["--denominator", "360"], ["--decimal", "3"]]
    for potential in (["sine"], ["band"], ["constant", "--value", "0.25"]):
        for extra in variants:
            commands += [["discretize", "--potential", *potential, "--n", n, *extra] for n in ("3", "7")]
    band = ["band", "--lo", "1", "--hi", "3"]
    for potential in (["sine", "--amplitude", "2"], band, ["constant", "--value", "0.25"]):
        for extra in variants:
            commands += [["random-env", "--dims", dims, "--potential", *potential,
                          "--noise-lo", "1/3", "--noise-hi", "3/2", "--seed", "7", *extra]
                         for dims in ("4x4", "5x3")]
    # the README's example, and a noise too weak to certify
    for noise in (["1/2", "1/2"], ["1/100", "1/50"]):
        commands.append(["random-env", "--dims", "4x4", "--potential", *band,
                         "--noise-lo", noise[0], "--noise-hi", noise[1], "--seed", "7"])
    return commands


# exit code and stdout of every sample command, keyed by the command line
SAMPLE_OUTPUTS = pathlib.Path(__file__).resolve().parent / "sample_outputs.json"


@functools.cache
def _recorded():
    return json.loads(SAMPLE_OUTPUTS.read_text(encoding="utf-8"))


def test_every_sample_command_is_recorded():
    assert sorted(_recorded()) == sorted(" ".join(args) for args in _sample_commands())


@pytest.mark.parametrize(
    "args", _sample_commands(), ids=lambda args: " ".join(a.split("/")[-1] for a in args)
)
def test_sample_commands_end_in_an_exit_code(args, monkeypatch, capsys):
    monkeypatch.chdir(SAMPLES.parent)
    code = run_cli(args)
    assert code in (0, 1, 2)
    assert [code, capsys.readouterr().out] == _recorded()[" ".join(args)]


if __name__ == "__main__":
    # Re-record the sample outputs after an intended output change:
    #   PYTHONPATH=src python tests/test_io_cli.py
    import os

    os.chdir(SAMPLES.parent)
    outputs = {}
    for args in _sample_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(args)
        outputs[" ".join(args)] = [code, out.getvalue()]
    text = json.dumps(outputs, indent=1, sort_keys=True) + "\n"
    SAMPLE_OUTPUTS.write_text(text, encoding="utf-8")
