"""Line-oriented file formats: measures, graphs, fields, surfaces, outputs.

All numeric payloads are ``num/den`` strings.  Writers sort everything, so
identical inputs give byte-identical files.  Readers raise
:class:`InputFormatError` with the offending line number.

Files repeat their tokens heavily, so each distinct token is parsed or
written once per file: every reader, writer and reconstruction keeps a
local ``{token: value}`` dict that lives as long as its call.  Checks run
once per distinct item too: the graph readers find a duplicate edge by
size, and reconstruction on a complex runs on vertex ids, testing each
distinct oriented step once.  A reader that fails names the first faulty
edge line, which :func:`first_fault` finds by bisecting over prefixes,
only when there is a fault.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm, prod
from operator import contains

from .complexes import TwoComplex, VectorField
from .errors import InputFormatError
from .lattice import (
    LatticeCycleClass, LatticeDecomposition, LatticeMeasure, class_error, class_sum,
)
from .finite_graph import GraphDecomposition, canonical_cycle, cycle_edges, edge_sum
from .ratio import ZERO, Rat, parse_rat, rat_str


def content_lines(text: str):
    """``(line number, line)`` for each line left nonempty once its ``#``
    comment is cut and its ends are stripped."""
    comments = "#" in text
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if comments else raw).strip()
        if line:
            yield line_no, line


def _parse_value(token: str, path, line_no, values: dict):
    """``token`` as a ``Rat``; ``values`` holds the tokens of this file
    already parsed, so a repeated token is parsed once."""
    value = values.get(token)
    if value is None:
        try:
            value = values[token] = parse_rat(token.split("~", 1)[0])
        except ValueError as exc:
            raise InputFormatError(path, line_no, str(exc))
    return value


# -- measures -----------------------------------------------------------


def parse_measure(text: str, path="<measure>") -> LatticeMeasure:
    atoms = {}
    values = {}
    dimension = None
    for line_no, line in content_lines(text):
        tokens = line.split()
        if len(tokens) < 2:
            raise InputFormatError(path, line_no, "expected coordinates and a mass")
        try:
            point = tuple(int(t) for t in tokens[:-1])
        except ValueError:
            raise InputFormatError(path, line_no, "coordinates must be integers")
        if dimension is None:
            dimension = len(point)
        elif len(point) != dimension:
            raise InputFormatError(
                path, line_no, f"expected {dimension} coordinates, got {len(point)}"
            )
        if point in atoms:
            raise InputFormatError(path, line_no, f"duplicate point {point}")
        mass = _parse_value(tokens[-1], path, line_no, values)
        if mass.numerator < 0:
            raise InputFormatError(path, line_no, f"negative mass {tokens[-1]} at {point}")
        atoms[point] = mass
    if dimension is None:
        raise InputFormatError(path, 0, "empty measure file")
    return LatticeMeasure(dimension, atoms)


def format_measure(measure: LatticeMeasure) -> str:
    """One ``coordinates mass`` line per atom; a measure without atoms
    writes its origin with mass zero, so its dimension reads back."""
    items = measure.items() or [(measure.origin(), ZERO)]
    lines = [" ".join(str(c) for c in point) + " " + rat_str(mass) for point, mass in items]
    return "\n".join(lines) + "\n"


def read_measure(path) -> LatticeMeasure:
    with open(path, encoding="utf-8") as fh:
        return parse_measure(fh.read(), path)


# -- weighted digraphs --------------------------------------------------


def parse_graph(text: str, path="<graph>"):
    """Returns ``(name, {(u, v): weight})`` with opaque string labels."""
    name, weights, _ = _parse_graph(text, path)
    return name, weights


def _parse_graph(text: str, path):
    """``parse_graph`` plus the line number of each edge, in the order of
    the weights."""
    content = content_lines(text)
    line_no, line = next(content, (0, None))
    if line is None:
        raise InputFormatError(path, 0, "missing digraph header")
    tokens = line.split()
    if tokens[0] != "digraph" or len(tokens) != 2:
        raise InputFormatError(path, line_no, "expected header: digraph <name>")
    content = list(content)
    try:
        weights = _graph_edges(content, path)
    except InputFormatError as exc:
        raise first_fault(content, lambda prefix: _graph_edges(prefix, path), exc)[1]
    return tokens[1], weights, [line_no for line_no, _ in content]


def _graph_edges(content, path) -> dict:
    """The weights of the ``(line_no, line)`` edge lines ``content``.  A
    repeated edge is found by size, and the error then names the last line:
    right only on the shortest prefix that fails (see :func:`first_fault`).
    """
    weights = {}
    values = {}
    for line_no, line in content:
        tokens = line.split()
        if len(tokens) != 3:
            raise InputFormatError(path, line_no, "expected: <u> <v> <num/den>")
        key = tokens[0], tokens[1]
        # a token seen before in this file was parsed and passed the sign check
        weight = values.get(tokens[2])
        if weight is None:
            if key in weights:  # a repeat, named by the size check before its token is read
                break
            weight = _parse_value(tokens[2], path, line_no, values)
            if weight.numerator < 0:
                raise InputFormatError(
                    path, line_no, f"negative weight {tokens[2]} on {key[0]} {key[1]}"
                )
        weights[key] = weight
    if len(weights) != len(content):
        raise InputFormatError(path, line_no, f"duplicate edge {key[0]} {key[1]}")
    return weights


def first_fault(items, check, error):
    """``(k, error)`` for the shortest prefix ``items[:k]`` that ``check``
    rejects, called after ``check(items)`` raised ``error``.

    Each check stops at its first faulty item in order, so the prefixes
    from the first fault on are rejected and the shorter ones pass; a
    bisection finds ``k`` in at most ``ceil(log2(len(items)))`` checks.
    The error is the one the last rejected prefix raised, so no check
    runs twice.
    """
    good, bad = 0, len(items)  # items[:good] pass, items[:bad] fail
    while bad - good > 1:
        middle = (good + bad) // 2
        try:
            check(items[:middle])
            good = middle
        except (KeyError, ValueError, InputFormatError) as exc:
            bad, error = middle, exc
    return bad, error


def format_graph(name: str, weights: dict) -> str:
    lines = [f"digraph {name}"]
    for (u, v), w in sorted(weights.items()):
        lines.append(f"{u} {v} " + rat_str(w))
    return "\n".join(lines) + "\n"


def read_graph(path):
    """Returns ``(name, weights, lines)``: ``lines`` holds the line number
    of each edge, in the order of ``weights``."""
    with open(path, encoding="utf-8") as fh:
        return _parse_graph(fh.read(), path)


def labels_to_coords(weights: dict, path="<graph>", lines=None) -> dict:
    """Convert ``i,j`` (or ``i``) string labels to integer tuples.

    ``lines`` (as from :func:`read_graph`) names the line of the first bad
    edge in the error; without it the error says line 0.  The order of
    ``weights`` is kept.
    """
    try:
        return _coords(weights.items())
    except ValueError as exc:
        k, exc = first_fault(list(weights.items()), _coords, exc)
        raise InputFormatError(path, lines[k - 1] if lines else 0, str(exc))


def _coords(items) -> dict:
    """``{(point, point): weight}`` for the ``((u, v), weight)`` pairs
    ``items``.  Two labels of one point make a duplicate edge, found by
    size, and the error then names the last pair: right only on the
    shortest prefix that fails (see :func:`first_fault`)."""
    points = {}  # each distinct label is converted once
    out = {}
    for (u, v), w in items:
        a = points.get(u)
        b = points.get(v)
        if a is None or b is None:
            try:
                if a is None:
                    a = points[u] = tuple(map(int, u.split(",")))
                if b is None:
                    b = points[v] = tuple(map(int, v.split(",")))
            except ValueError:
                raise ValueError(f"label {u!r} or {v!r} is not coordinates")
        out[a, b] = w
    if len(out) != len(items):
        raise ValueError(f"duplicate edge {u} {v}")
    return out


def coords_label(point) -> str:
    return ",".join(map(str, point))


def vertex_label(v) -> str:
    """Torus vertices print as coordinates, surface labels as themselves."""
    return coords_label(v) if isinstance(v, tuple) else str(v)


# -- fields -------------------------------------------------------------


# a 200 x 200 torus takes about 0.6 s and 100 MB to build (x86_64, Python 3.11)
FIELD_VERTEX_LIMIT = 40_000


def parse_field(text: str, path="<field>"):
    """Returns ``(complex, field)``; the header fixes the torus shape.

    A header of more than :data:`FIELD_VERTEX_LIMIT` vertices is refused
    before the torus is built.  On the ``d``-torus the record of vertex
    id ``v`` and direction ``k`` fills edge ``d v + k - 1``.
    """
    complex = None
    entries = {}  # edge id -> value
    values = {}
    for line_no, line in content_lines(text):
        tokens = line.split()
        if complex is None:
            if len(tokens) not in (3, 4) or tokens[0] != "field" or tokens[1] != "torus":
                raise InputFormatError(
                    path, line_no, "expected header: field torus <N> [<N2>]"
                )
            try:
                dims = [int(t) for t in tokens[2:]]
            except ValueError:
                raise InputFormatError(path, line_no, "torus sizes must be integers")
            if min(dims) >= 3 and prod(dims) > FIELD_VERTEX_LIMIT:
                raise InputFormatError(
                    path, line_no,
                    f"torus of {prod(dims)} vertices exceeds the limit of {FIELD_VERTEX_LIMIT}",
                )
            try:
                complex = (
                    TwoComplex.torus1(*dims) if len(dims) == 1 else TwoComplex.torus2(*dims)
                )
            except ValueError as exc:
                raise InputFormatError(path, line_no, str(exc))
            continue
        d = complex.torus_dimension()
        if len(tokens) != d + 2:
            raise InputFormatError(
                path, line_no, f"expected {d} coordinates, a direction and a value"
            )
        try:
            point = tuple(int(t) for t in tokens[:d])
            direction = int(tokens[d])
        except ValueError:
            raise InputFormatError(path, line_no, "coordinates must be integers")
        if not 1 <= direction <= d:
            raise InputFormatError(path, line_no, f"direction must be in 1..{d}")
        shape = complex.torus_shape
        if any(not 0 <= c < n for c, n in zip(point, shape)):
            raise InputFormatError(path, line_no, f"vertex {point} outside the torus")
        eid = d * complex.vertex_index[point] + direction - 1
        if eid in entries:
            raise InputFormatError(path, line_no, f"duplicate edge {point} dir {direction}")
        entries[eid] = _parse_value(tokens[-1], path, line_no, values)
    if complex is None:
        raise InputFormatError(path, 0, "missing field header")
    field = [entries.get(eid, ZERO) for eid in range(complex.n_edges)]
    return complex, VectorField._exact(complex, field)


def format_field(field: VectorField, decimals=None) -> str:
    complex = field.complex
    if not complex.is_torus():
        raise ValueError("field files are defined for torus complexes")
    shape = complex.torus_shape
    d = len(shape)
    lines = ["field torus " + " ".join(str(n) for n in shape)]
    for eid in sorted(range(complex.n_edges), key=complex.edges.__getitem__):
        value = field.values[eid]
        if not value:
            continue
        lines.append(
            " ".join(map(str, complex.edges[eid][0]))
            + f" {eid % d + 1} " + rat_str(value, decimals)
        )
    return "\n".join(lines) + "\n"


def read_field(path):
    with open(path, encoding="utf-8") as fh:
        return parse_field(fh.read(), path)


# -- surface complexes ---------------------------------------------------


def parse_surface(text: str, path="<surface>") -> TwoComplex:
    """The surface complex a file declares.  A bad vertex or edge record
    names its line; an edge may name vertices declared after it."""
    name = "surface"
    orientable = None
    vertices = {}  # labels in file order
    edges = {}  # (u, v) -> line
    faces = []
    for line_no, line in content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "surface":
            if len(tokens) != 2:
                raise InputFormatError(path, line_no, "expected: surface <name>")
            name = tokens[1]
        elif kind == "orientable":
            if len(tokens) != 2 or tokens[1] not in ("yes", "no"):
                raise InputFormatError(path, line_no, "expected: orientable yes|no")
            orientable = tokens[1] == "yes"
        elif kind == "vertex":
            if len(tokens) != 2:
                raise InputFormatError(path, line_no, "expected: vertex <label>")
            if tokens[1] in vertices:
                raise InputFormatError(path, line_no, f"duplicate vertex {tokens[1]}")
            vertices[tokens[1]] = None
        elif kind == "edge":
            if len(tokens) != 3:
                raise InputFormatError(path, line_no, "expected: edge <u> <v>")
            u, v = tokens[1], tokens[2]
            if u == v:
                raise InputFormatError(path, line_no, f"self-loop at {u}")
            if (u, v) in edges or (v, u) in edges:
                raise InputFormatError(path, line_no, f"duplicate edge between {u} and {v}")
            edges[(u, v)] = line_no
        elif kind == "face":
            try:
                signed = [int(t) for t in tokens[1:]]
            except ValueError:
                raise InputFormatError(path, line_no, "face entries must be signed ints")
            if not signed or any(s == 0 for s in signed):
                raise InputFormatError(
                    path, line_no, "face needs nonzero signed edge indices"
                )
            boundary = []
            for s in signed:
                idx = abs(s) - 1
                if idx >= len(edges):
                    raise InputFormatError(path, line_no, f"edge index {abs(s)} undefined")
                boundary.append((idx, 1 if s > 0 else -1))
            faces.append(tuple(boundary))
        else:
            raise InputFormatError(path, line_no, f"unknown directive {kind!r}")
    if orientable is None:
        raise InputFormatError(path, 0, "missing orientable header")
    for (u, v), line_no in edges.items():
        if u not in vertices or v not in vertices:
            raise InputFormatError(path, line_no, f"edge ({u}, {v}) uses unknown vertex")
    try:
        complex = TwoComplex(list(vertices), list(edges), faces, orientable, name=name)
        complex.validate()
    except ValueError as exc:
        raise InputFormatError(path, 0, str(exc))
    return complex


def format_surface(complex: TwoComplex) -> str:
    lines = [f"surface {complex.name}", f"orientable {'yes' if complex.orientable else 'no'}"]
    lines += [f"vertex {v}" for v in complex.vertices]
    lines += [f"edge {u} {v}" for u, v in complex.edges]
    for boundary in complex.face_edges:
        lines.append(
            "face " + " ".join(f"{sign * (eid + 1):+d}" for eid, sign in boundary)
        )
    return "\n".join(lines) + "\n"


def read_surface(path) -> TwoComplex:
    with open(path, encoding="utf-8") as fh:
        return parse_surface(fh.read(), path)


# -- decomposition records ------------------------------------------------


def _cycle_heads(decimals):
    """A function from a weight to its record head ``term <weight> cycle ``,
    which writes each distinct weight once."""
    texts = {}  # (numerator, denominator) -> text: hashing a Rat costs more than writing it

    def head(weight):
        key = weight.as_integer_ratio()
        text = texts.get(key)
        if text is None:
            text = texts[key] = f"term {rat_str(weight, decimals)} cycle "
        return text

    return head


def _cycle_terms(terms, decimals) -> list:
    """One ``term <weight> cycle <vertices>`` line per ``(cycle, weight)``;
    each distinct weight and vertex is written once."""
    head_of = _cycle_heads(decimals)
    labels = {}
    lines = []
    for cycle, weight in terms:
        head = head_of(weight)
        body = []
        for v in cycle:
            label = labels.get(v)
            if label is None:
                label = labels[v] = vertex_label(v)
            body.append(label)
        lines.append(head + " ".join(body))
    return lines


def _class(cls) -> str:
    """A cycle class as ``class x,y*m ...``."""
    return "class " + " ".join(coords_label(vec) + f"*{mult}" for vec, mult in cls.items())


def _class_terms(terms, decimals) -> list:
    """One ``term <weight> class <entries>`` line per ``(class, weight)``."""
    return [f"term {rat_str(weight, decimals)} {_class(cls)}" for cls, weight in terms]


def format_graph_decomposition(dec: GraphDecomposition, source: str, decimals=None) -> str:
    lines = [f"decomposition graph {source}"] + _cycle_terms(dec.terms, decimals)
    return "\n".join(lines) + "\n"


def format_lattice_decomposition(
    dec: LatticeDecomposition, source: str, decimals=None
) -> str:
    """A decomposition without terms writes its ``trivial`` record even at
    mass zero, so its dimension reads back."""
    lines = [f"decomposition lattice {source}"]
    if dec.trivial_mass or not dec.terms:
        origin = coords_label((0,) * dec.dimension)
        lines.append(f"trivial {origin} {rat_str(dec.trivial_mass, decimals)}")
    return "\n".join(lines + _class_terms(dec.terms, decimals)) + "\n"


def format_birkhoff_decomposition(terms, source: str, decimals=None) -> str:
    """One ``term <weight> perm u>v ...`` record per ``(permutation,
    weight)``, its entries in sorted order.  Raises :class:`ValueError` on
    a label that contains ``>``, whose entries would not read back."""
    body = [
        f"term {rat_str(weight, decimals)} perm " + " ".join([f"{u}>{pi[u]}" for u in sorted(pi)])
        for pi, weight in terms
    ]
    # each entry writes one '>'; any further one comes from a label
    if sum(map(str.count, body, repeat(">"))) != sum([len(pi) for pi, _ in terms]):
        check_perm_labels([x for pi, _ in terms for entry in pi.items() for x in entry])
    return "\n".join([f"decomposition birkhoff {source}"] + body) + "\n"


def check_perm_labels(labels) -> None:
    """Raise :class:`ValueError` on the first of ``labels`` that contains
    ``>``: a ``perm`` entry ``u>v`` with it would not read back."""
    for x in labels:
        if ">" in str(x):
            raise ValueError(f"label {x!r} contains '>', which a perm entry u>v cannot carry")


def format_elementary_decomposition(dec, complex, source: str, decimals=None) -> str:
    """Each term of :meth:`ElementaryDecomposition.cycles` as a ``term
    <weight> cycle <vertices>`` record, written straight from its
    :meth:`~ElementaryDecomposition.term_ids`: each vertex is labelled
    once, each edge reads its tail and head labels by id, and each
    distinct weight writes its record head once."""
    lines = [
        f"decomposition elementary {source}",
        f"constant {rat_str(dec.chosen_constant, decimals)}",
    ]
    live, faces = dec.term_ids(complex)
    labels = {v: vertex_label(v) for v in complex.vertices}
    edges = complex.edges
    tails = [labels[u] for u, _ in edges]
    heads = [labels[v] for _, v in edges]
    head_of = _cycle_heads(decimals)
    weights = dec.edge_weights
    for eid in live:
        lines.append(head_of(weights[eid]) + tails[eid] + " " + heads[eid])
    face_edges = complex.face_edges
    for fid, forward, backward in faces:
        body = [tails[eid] if sign == 1 else heads[eid] for eid, sign in face_edges[fid]]
        if forward:
            lines.append(head_of(forward) + " ".join(body))
        if backward:
            body.reverse()
            lines.append(head_of(backward) + " ".join(body))
    return "\n".join(lines) + "\n"


def format_1d_family(family, source: str, a, decimals=None) -> str:
    lines = [
        f"decomposition 1d {source}",
        f"constant {rat_str(family.constant, decimals)}",
        f"parameter {rat_str(a, decimals)}",
        f"max-parameter {rat_str(family.min_weight, decimals)}",
        f"rstar {'yes' if family.in_r_star else 'no'}",
    ]
    return "\n".join(lines + _cycle_terms(family.cycles_at(a), decimals)) + "\n"


def format_heavy_tail(terms, residual, source: str, decimals=None) -> str:
    lines = [f"decomposition 1d-heavy {source}"] + _class_terms(terms, decimals)
    for x in sorted(residual):
        lines.append(f"residual {x} {rat_str(residual[x], decimals)}")
    return "\n".join(lines) + "\n"


def format_lift(terms, periods=None, decimals=None) -> str:
    """The periodic lift of ``(cycle, weight)`` terms to the infinite
    lattice: each class once, its weight standing for every integer (or
    ``periods``-periodic) translate, which are not enumerated."""
    scope = "integer" if periods is None else "x".join(map(str, periods)) + "-periodic"
    lines = ["periodic-lift"]
    for cycle, weight in terms:
        body = _class(cycle) if isinstance(cycle, LatticeCycleClass) else str(cycle)
        lines.append(f"term {rat_str(weight, decimals)} {body} @ all {scope} translates")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, path="<decomposition>"):
    """Generic reader for the ``decomposition`` formats.

    Returns ``(mode, source, records)`` where records are
    ``("term", weight, kind, payload)``, ``("trivial", origin, mass)``,
    ``("constant", value)``, ``("parameter", value)`` or other
    ``(key, value)`` headers in file order.  A ``class`` payload is the
    parsed :class:`LatticeCycleClass`; ``cycle`` and ``perm`` payloads are
    the tokens.  Each record is checked here, so a malformed one reports
    its line.
    """
    mode = None
    source = None
    records = []
    values = {}
    for line_no, line in content_lines(text):
        tokens = line.split()
        key = tokens[0]
        if mode is None:
            if key != "decomposition" or len(tokens) != 3:
                raise InputFormatError(
                    path, line_no, "expected header: decomposition <mode> <source>"
                )
            mode, source = tokens[1], tokens[2]
        elif key == "term":
            if len(tokens) > 2 and tokens[2] == "cycle":
                weight = _parse_value(tokens[1], path, line_no, values)
                records.append(("term", weight, "cycle", tokens[3:]))
            else:
                records.append(_parse_term(tokens, path, line_no, values))
        elif key in ("constant", "parameter", "max-parameter"):
            if len(tokens) != 2:
                raise InputFormatError(path, line_no, f"expected: {key} <num/den>")
            records.append((key, _parse_value(tokens[1], path, line_no, values)))
        elif key == "trivial":
            # the point is the origin, written out to state the dimension
            if len(tokens) != 3 or set(tokens[1].split(",")) != {"0"}:
                raise InputFormatError(path, line_no, "expected: trivial 0,..,0 <num/den>")
            origin = (0,) * (tokens[1].count(",") + 1)
            records.append(("trivial", origin, _parse_value(tokens[2], path, line_no, values)))
        elif key == "residual":
            if len(tokens) != 3:
                raise InputFormatError(path, line_no, "expected: residual <x> <num/den>")
            try:
                x = int(tokens[1])
            except ValueError:
                raise InputFormatError(path, line_no, "residual point must be an integer")
            records.append(("residual", x, _parse_value(tokens[2], path, line_no, values)))
        elif key == "rstar":
            if len(tokens) != 2 or tokens[1] not in ("yes", "no"):
                raise InputFormatError(path, line_no, "expected: rstar yes|no")
            records.append(("rstar", tokens[1] == "yes"))
        else:
            raise InputFormatError(path, line_no, f"unknown record {key!r}")
    if mode is None:
        raise InputFormatError(path, 0, "missing decomposition header")
    return mode, source, records


def _parse_term(tokens, path, line_no, values):
    if len(tokens) < 3:
        raise InputFormatError(path, line_no, "term needs a weight and a kind")
    weight = _parse_value(tokens[1], path, line_no, values)
    kind, payload = tokens[2], tokens[3:]
    if kind == "class":
        payload = _parse_class(payload, path, line_no)
    elif kind not in ("cycle", "perm"):
        raise InputFormatError(path, line_no, f"unknown term kind {kind!r}")
    elif kind == "perm" and not all(map(contains, payload, repeat(">"))):
        raise InputFormatError(path, line_no, "perm entries must read u>v")
    return ("term", weight, kind, payload)


def _parse_class(tokens, path, line_no) -> LatticeCycleClass:
    """The class of ``x,y*m`` tokens, checked once on its ints."""
    entries = {}
    for token in tokens:
        coords, _, mult = token.rpartition("*")
        try:
            vec, n = tuple(map(int, coords.split(","))), int(mult)
        except ValueError:
            raise InputFormatError(path, line_no, f"malformed class entry {token!r}")
        if vec in entries:
            raise InputFormatError(path, line_no, f"repeated displacement {token!r}")
        entries[vec] = n
    error = class_error(entries)
    if error is not None:
        raise InputFormatError(path, line_no, error)
    return LatticeCycleClass._exact(entries)


def lattice_decomposition(records, path="<decomposition>") -> LatticeDecomposition:
    """The decomposition that lattice-like records describe, in the one
    dimension that its trivial points and classes name (None if none does)."""
    terms = []
    trivial = ZERO
    dims = set()
    for record in records:
        if record[0] == "trivial":
            dims.add(len(record[1]))
            trivial += record[2]
        elif record[0] == "term":
            _, weight, kind, cls = record
            if kind != "class":
                raise InputFormatError(path, 0, f"unexpected term kind {kind!r}")
            dims.add(cls.dimension)
            terms.append((cls, weight))
    if len(dims) > 1:
        raise InputFormatError(path, 0, f"records of dimensions {sorted(dims)}")
    return LatticeDecomposition(terms, trivial, dims.pop() if dims else None)


def reconstruct_decomposition(mode, records, path="<decomposition>"):
    """Rebuild the weight/measure sum encoded by a parsed decomposition.

    Graph-like modes return an oriented-edge weight map (vertex labels as
    written, coordinates as tuples); lattice-like modes return an atom
    map.  The caller compares against its input exactly.
    """
    if mode in ("graph", "birkhoff"):
        terms = [record[1:] for record in records if record[0] == "term"]
        scale = lcm(*(weight.denominator for weight, _, _ in terms))
        if all(kind == "perm" for _, kind, _ in terms):
            # a token names one edge: sum on the tokens, split each once;
            # a file that also has cycles sums on edges
            totals = edge_sum(((tokens, weight) for weight, _, tokens in terms), scale)
            return {tuple(token.split(">", 1)): w for token, w in totals.items()}
        return edge_sum(_graph_term_edges(terms, path), scale)
    if mode in ("lattice", "1d-heavy"):
        return class_sum(lattice_decomposition(records, path).classes())
    raise InputFormatError(path, 0, f"no reconstruction rule for mode {mode!r}")


def _graph_term_edges(terms, path):
    """``(edges, weight)`` per parsed graph or Birkhoff term, checked."""
    for weight, kind, payload in terms:
        if kind == "cycle":
            try:
                edges = cycle_edges(canonical_cycle(payload))
            except ValueError as exc:
                raise InputFormatError(path, 0, str(exc))
        elif kind == "perm":
            edges = [tuple(token.split(">", 1)) for token in payload]
        else:
            raise InputFormatError(path, 0, f"unexpected term kind {kind!r}")
        yield edges, weight


def _parse_vertex(token: str, complex, path):
    if complex.is_torus():
        try:
            return tuple(map(int, token.split(",")))
        except ValueError:
            raise InputFormatError(path, 0, f"bad coordinates {token!r}")
    return token


def reconstruct_on_complex(mode, records, complex, path="<decomposition>"):
    """Rebuild elementary or 1d decomposition weights on a complex.

    Every term is a nonempty vertex cycle; each traversed oriented edge
    (including both directions of a 2-cycle) must exist on the complex and
    collects the term's weight.  Records of any other mode are refused.

    The sum runs on vertex ids: each vertex token is mapped to its id on
    the complex once, each oriented step ``(a, b)`` is the int key
    ``a * n + b`` over the ``n`` vertices, and the weights add as integer
    numerators over one common denominator.  A step is tested against the
    complex when its key first enters the sum, so the first step that is
    no edge, in term order, is named.  A token of a vertex not on the
    complex gets a fresh id from ``n * n`` up, so the key of each of its
    steps lies above the keys of the complex's steps and is tested.
    """
    if mode not in ("elementary", "1d"):
        raise InputFormatError(path, 0, f"no reconstruction rule for mode {mode!r}")
    scale = lcm(*{record[1].denominator for record in records if record[0] == "term"})
    vertices = complex.vertices
    vertex_index = complex.vertex_index
    index = complex.edge_index
    n = len(vertices)
    ids = {}  # token -> vertex id
    extra = []  # vertices not on the complex, by id - n * n
    acc = {}  # step key -> integer numerator over scale
    for record in records:
        if record[0] != "term":
            continue
        _, weight, kind, payload = record
        if kind != "cycle":
            raise InputFormatError(path, 0, f"unexpected term kind {kind!r}")
        if not payload:
            raise InputFormatError(path, 0, "cycle must be nonempty")
        cycle = []
        for token in payload:
            a = ids.get(token)
            if a is None:
                vertex = _parse_vertex(token, complex, path)
                a = vertex_index.get(vertex)
                if a is None:
                    a = n * n + len(extra)
                    extra.append(vertex)
                ids[token] = a
            cycle.append(a)
        w = weight.numerator * (scale // weight.denominator)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            key = a * n + b
            total = acc.get(key)
            if total is None:
                u = vertices[a] if a < n else extra[a - n * n]
                v = vertices[b] if b < n else extra[b - n * n]
                if (u, v) not in index and (v, u) not in index:
                    raise InputFormatError(path, 0, f"no edge between {u} and {v}")
                acc[key] = w
            else:
                acc[key] = total + w
    totals = {}  # many edges share a total; each Rat is built once
    out = {}
    for key, total in acc.items():
        if total:
            value = totals.get(total)
            if value is None:
                value = totals[total] = Rat(total, scale)
            a, b = divmod(key, n)
            out[vertices[a], vertices[b]] = value
    return out

