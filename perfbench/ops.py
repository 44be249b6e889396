"""One op: an input's text through the CLI's library path, with --verify.

Each op kind splits into the four phases the CLI runs for its command:
``parse`` (text to library objects, as the CLI loaders do), ``solve``
(decide and decompose), ``emit`` (the text the CLI would write) and
``verify`` (re-parse the emitted text, rebuild the input from it and
compare bit-exactly).  ``check`` then compares the outcome with the answer
known by construction and the term bound; it runs outside the op's time.

Every library call goes through a module attribute (``fg.decompose_graph``,
``el.in_Re``, ...) so that a tracer replacing that attribute sees it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from cycledec import complexes as cx
from cycledec import elementary as el
from cycledec import finite_graph as fg
from cycledec import io as fio
from cycledec import lattice as lat
from cycledec.errors import NotBalanced
from cycledec.ratio import ZERO, rat_str


class Mismatch(Exception):
    """The emitted text does not rebuild the input exactly."""


def _count_terms(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("term "))


def _as_rates(weights):
    return {(str(u), str(v)): w for (u, v), w in weights.items()}


class GraphOp:
    """``cycledec decompose --mode graph --verify``."""

    def parse(self, case):
        name, weights = fio.parse_graph(case.text)
        graph = fg.WeightedDigraph.from_edges([(u, v, w) for (u, v), w in weights.items()])
        return name, graph

    def solve(self, loaded):
        try:
            return fg.decompose_graph(loaded[1])
        except NotBalanced as exc:
            return exc

    def emit(self, loaded, result):
        if isinstance(result, NotBalanced):
            return "negative verdict violators=" + ",".join(result.violators) + "\n"
        return fio.format_graph_decomposition(result, loaded[0])

    def verify(self, loaded, result, text):
        if isinstance(result, NotBalanced):
            return
        mode, _, records = fio.parse_decomposition(text)
        if fio.reconstruct_decomposition(mode, records) != _as_rates(loaded[1].weights):
            raise Mismatch("reconstruction differs from the input weights")

    def check(self, case, loaded, result, text):
        if case.expect[0] == "no":
            if not isinstance(result, NotBalanced):
                return "unbalanced input was decomposed"
            if tuple(result.violators) != case.expect[1]:
                return f"violators {result.violators} != {list(case.expect[1])}"
            return None
        if isinstance(result, NotBalanced):
            return f"balanced input rejected: {result}"
        n_edges = len(loaded[1].weights)
        if _count_terms(text) > n_edges:
            return f"{_count_terms(text)} terms exceed |E| = {n_edges}"
        return None


class BirkhoffOp:
    """``cycledec decompose --mode birkhoff --verify``."""

    def parse(self, case):
        name, weights = fio.parse_graph(case.text)
        graph = fg.WeightedDigraph.from_edges(
            [(u, v, w) for (u, v), w in weights.items()], allow_self_loops=True
        )
        return name, graph

    def solve(self, loaded):
        return fg.birkhoff_decompose(loaded[1])

    def emit(self, loaded, result):
        return fio.format_birkhoff_decomposition(result, loaded[0])

    def verify(self, loaded, result, text):
        mode, _, records = fio.parse_decomposition(text)
        if fio.reconstruct_decomposition(mode, records) != _as_rates(loaded[1].weights):
            raise Mismatch("reconstruction differs from the input matrix")
        if sum((r[1] for r in records if r[0] == "term"), ZERO) != 1:
            raise Mismatch("birkhoff weights do not sum to one")

    def check(self, case, loaded, result, text):
        n = case.expect[1]
        bound = (n - 1) ** 2 + 1
        if _count_terms(text) > bound:
            return f"{_count_terms(text)} permutations exceed (n-1)^2+1 = {bound}"
        return None


class LatticeOp:
    """``cycledec decompose --mode lattice --verify``."""

    def parse(self, case):
        return fio.parse_measure(case.text)

    def solve(self, measure):
        try:
            return lat.decompose_lattice(measure)
        except NotBalanced as exc:
            return exc

    def emit(self, measure, result):
        if isinstance(result, NotBalanced):
            mean = " ".join(rat_str(c) for c in result.violators[0])
            return f"negative verdict mean={mean}\n"
        return fio.format_lattice_decomposition(result, "measure")

    def verify(self, measure, result, text):
        if isinstance(result, NotBalanced):
            return
        mode, _, records = fio.parse_decomposition(text)
        if fio.reconstruct_decomposition(mode, records) != measure.atoms:
            raise Mismatch("reconstruction differs from the input measure")

    def check(self, case, measure, result, text):
        if case.expect[0] == "no":
            if not isinstance(result, NotBalanced):
                return "measure with nonzero mean was decomposed"
            if tuple(result.violators[0]) != case.expect[1]:
                return f"reported mean {result.violators[0]} != {case.expect[1]}"
            return None
        if isinstance(result, NotBalanced):
            return f"mean-zero measure rejected: {result}"
        support = sum(1 for point in measure.atoms if any(point))
        if _count_terms(text) > support:
            return f"{_count_terms(text)} terms exceed |support| = {support}"
        return None


def _verdict_line(verdict) -> str:
    if verdict.ok:
        return f"verdict yes witness_c={rat_str(verdict.witness_c)}\n"
    edges = ";".join(f"{fio.vertex_label(u)}-{fio.vertex_label(v)}"
                     for u, v in verdict.violating_edges or ())
    return f"verdict no reason={verdict.reason} violating_edges={edges}\n"


class ElementaryOp:
    """``cycledec elementary RATES (--torus N | --surface S) -o OUT``, verified."""

    def parse(self, case):
        name, weights = fio.parse_graph(case.text)
        if case.kind == "torus-elementary":
            n1, n2 = case.extra.split("x")
            return fio.labels_to_coords(weights), cx.TwoComplex.torus2(int(n1), int(n2))
        return weights, fio.parse_surface(case.extra)

    def solve(self, loaded):
        rates, complex = loaded
        verdict = el.in_Re(rates, complex)
        dec = el.elementary_decompose(rates, complex) if verdict.ok else None
        return verdict, dec

    def emit(self, loaded, result):
        verdict, dec = result
        line = _verdict_line(verdict)
        if dec is None:
            return line
        return line + fio.format_elementary_decomposition(dec, loaded[1], "rates")

    def verify(self, loaded, result, text):
        rates, complex = loaded
        if result[1] is None:
            return
        body = text.split("\n", 1)[1]
        mode, _, records = fio.parse_decomposition(body)
        if fio.reconstruct_on_complex(mode, records, complex) != rates:
            raise Mismatch("reconstruction differs from the input rates")

    def check(self, case, loaded, result, text):
        verdict, _ = result
        expect = case.expect
        if verdict.ok != (expect[0] == "yes"):
            return f"verdict {'yes' if verdict.ok else 'no'} ({verdict.reason}) != {expect}"
        if expect[0] == "no":
            if verdict.reason != expect[1]:
                return f"reason {verdict.reason} != {expect[1]}"
            if len(expect) > 2 and verdict.violating_edges != (expect[2],):
                return f"violating edges {verdict.violating_edges} != {(expect[2],)}"
            return None
        complex = loaded[1]
        bound = complex.n_edges + 2 * complex.n_faces
        if _count_terms(text) > bound:
            return f"{_count_terms(text)} terms exceed |E| + 2|F| = {bound}"
        return None


class HodgeOp:
    """``cycledec hodge FIELD -o OUT``, with the three parts re-read and summed."""

    PARTS = ("gradient", "homologous", "harmonic")

    def parse(self, case):
        return fio.parse_field(case.text)

    def solve(self, loaded):
        return cx.hodge_decompose(loaded[1])

    def emit(self, loaded, parts):
        shape = " ".join(str(n) for n in loaded[0].torus_shape)
        lines = [
            f"hodge torus {shape}",
            "coefficients " + " ".join(rat_str(c) for c in parts.harmonic_coefficients),
        ]
        for label in self.PARTS:
            lines.append(f"part {label}")
            lines.extend(fio.format_field(getattr(parts, label)).splitlines()[1:])
        return "\n".join(lines) + "\n"

    def verify(self, loaded, parts, text):
        header, _, body = text.partition("\n")
        field_header = "field" + header[len("hodge"):] + "\n"
        sections = body.split("part ")[1:]
        rebuilt = []
        for label, section in zip(self.PARTS, sections):
            name, _, values = section.partition("\n")
            if name != label:
                raise Mismatch(f"part {name!r} where {label!r} belongs")
            rebuilt.append(fio.parse_field(field_header + values)[1].values)
        if len(rebuilt) != 3:
            raise Mismatch("hodge output lacks a part")
        total = [a + b + c for a, b, c in zip(*rebuilt)]
        if total != loaded[1].values:
            raise Mismatch("the three parts do not sum to the input field")

    def check(self, case, loaded, parts, text):
        _, gradient, homologous, coefficients = case.expect
        if parts.gradient.values != gradient:
            return "gradient part differs from the constructed one"
        if parts.homologous.values != homologous:
            return "homologous part differs from the constructed one"
        if tuple(parts.harmonic_coefficients) != coefficients:
            return f"harmonic coefficients {parts.harmonic_coefficients} != {coefficients}"
        return None


KINDS = {
    "graph": GraphOp(),
    "birkhoff": BirkhoffOp(),
    "lattice": LatticeOp(),
    "torus-elementary": ElementaryOp(),
    "klein-elementary": ElementaryOp(),
    "hodge": HodgeOp(),
}


@dataclass
class Outcome:
    """What one op produced: its time, loaded input, result, text and failure."""

    seconds: float
    loaded: object
    result: object
    text: str
    problem: str | None


class _NullPhase:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


def _no_phase(name):
    return _NULL_PHASE


def execute(case, phase=_no_phase) -> Outcome:
    """Run one op, time it, then check it against the known answer.

    ``phase(name)`` returns a context manager put around the whole op
    (``"op"``) and around its parse, emit and verify phases; the tracer
    passes one that records spans.  An unexpected exception, a failed
    verification, a wrong verdict or an exceeded term bound all come back
    as ``Outcome.problem``; none is raised.
    """
    op = KINDS[case.kind]
    loaded = result = None
    text = ""
    problem = None
    started = time.perf_counter()
    try:
        with phase("op"):
            with phase("io.parse"):
                loaded = op.parse(case)
            result = op.solve(loaded)
            with phase("io.format"):
                text = op.emit(loaded, result)
            with phase("io.verify"):
                op.verify(loaded, result, text)
    except Exception as exc:  # every failure is counted against the op, never raised
        problem = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if problem is None:
        try:
            problem = op.check(case, loaded, result, text)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(seconds, loaded, result, text, problem)
