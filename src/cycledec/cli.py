"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(not balanced, not decomposable), 2 for malformed inputs or bad arguments.
All outputs are deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys

from . import discretize as dz
from . import elementary as el
from . import io as fio
from .complexes import TwoComplex, check_rates, field_to_rates, hodge_decompose
from .errors import CycleDecError, InputFormatError, NotBalanced
from .finite_graph import (
    WeightedDigraph,
    birkhoff_decompose,
    decompose_graph,
    is_balanced_graph,
    is_bistochastic,
)
from .lattice import (
    HeavyTailOracle1D,
    decompose_1d_heavy_tail,
    decompose_lattice,
    is_balanced,
    periodic_lift,
)
from .ratio import ZERO, parse_rat, rat_str


# argparse type converters: a bad value exits 2 with a usage message


def _sizes(*counts):
    def torus_size(text: str) -> tuple:
        shape = tuple(int(t) for t in text.lower().split("x"))
        if len(shape) not in counts or min(shape) < 3:
            form = " or ".join(("N", "N1xN2")[c - 1] for c in counts)
            raise argparse.ArgumentTypeError(f"expected {form}, sizes >= 3, got {text!r}")
        return shape

    return torus_size


def _at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return integer


def _rational(text: str):
    try:
        return parse_rat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/2, got {text!r}")


def _load_complex(args, dim: int = 2):
    if getattr(args, "surface", None):
        return fio.read_surface(args.surface)
    shape = getattr(args, "torus", None)
    if shape is None:
        return None
    return TwoComplex.torus1(*shape) if dim == len(shape) == 1 else TwoComplex.torus2(*shape)


def _edge_line(weights: dict, lines, check) -> int:
    """Line of the first edge that ``check(u, v, w)`` rejects on its own.

    Called after a check of the whole edge map failed; every such check
    goes edge by edge in the order of ``weights``, so this is the edge it
    stopped at.  0 when no single edge fails.
    """
    for ((u, v), w), line in zip(weights.items(), lines):
        try:
            check(u, v, w)
        except (KeyError, ValueError):
            return line
    return 0


def _load_rates(path, args, dim: int = 2):
    """Rates plus complex from a field or graph file."""
    if path.endswith(".field"):
        complex, field = fio.read_field(path)
        declared = _load_complex(args, dim)
        if declared is not None and declared.torus_shape != complex.torus_shape:
            raise InputFormatError(path, 1, "--torus disagrees with the field header")
        return field_to_rates(field), complex
    name, weights, lines = fio.read_graph(path)
    complex = _load_complex(args, dim)
    if complex is None:
        raise InputFormatError(path, 0, "rates files need --torus or --surface")
    if complex.is_torus():
        weights = fio.labels_to_coords(weights, path, lines)
    try:
        return check_rates(weights, complex), complex
    except (KeyError, ValueError) as exc:
        line = _edge_line(weights, lines, lambda u, v, w: check_rates({(u, v): w}, complex))
        raise InputFormatError(path, line, f"rates do not fit {complex.name}: {exc.args[0]}")


def _load_digraph(path, allow_self_loops=False):
    """Name plus weighted digraph from a graph file."""
    name, weights, lines = fio.read_graph(path)

    def build(edges):
        return WeightedDigraph.from_edges(edges, allow_self_loops=allow_self_loops)

    try:
        graph = build([(u, v, w) for (u, v), w in weights.items()])
    except ValueError as exc:
        line = _edge_line(weights, lines, lambda u, v, w: build([(u, v, w)]))
        raise InputFormatError(path, line, str(exc))
    return name, graph


def _elementary_decompose(rates, complex, constant):
    """``elementary_decompose``, reporting a constant that the complex
    admits no freedom for as an argument error."""
    try:
        return el.elementary_decompose(rates, complex, constant)
    except ValueError as exc:
        raise InputFormatError("<args>", 0, f"--constant: {exc}")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decimals(args):
    return args.decimal if getattr(args, "decimal", None) else None


# -- check ----------------------------------------------------------------


def _cmd_check(args) -> int:
    prop = args.property
    path = args.input
    if prop == "balance":
        if path.endswith(".msr"):
            measure = fio.read_measure(path)
            if is_balanced(measure):
                print("balanced: yes")
                return 0
            print("balanced: no (nonzero mean)")
            return 1
        _, graph = _load_digraph(path)
        ok, violators = is_balanced_graph(graph)
        if ok:
            print("balanced: yes")
            return 0
        print("balanced: no violators=" + ",".join(str(v) for v in violators))
        return 1
    if prop == "bistochastic":
        _, graph = _load_digraph(path, allow_self_loops=True)
        ok = is_bistochastic(graph)
        print(f"bistochastic: {'yes' if ok else 'no'}")
        return 0 if ok else 1
    rates, complex = _load_rates(path, args)
    if prop in ("dlambda2", "rstar"):
        ok = el.r_star_necessary(rates, complex)
        if prop == "dlambda2":
            print(f"dlambda2: {'yes' if ok else 'no'}")
        else:
            print(f"rstar-necessary-condition: {'holds' if ok else 'fails'}")
            print("# full homotopically-trivial membership is not decided")
        return 0 if ok else 1
    if prop == "elementary":
        verdict = el.in_Re(rates, complex)
        print(_verdict_line(verdict))
        return 0 if verdict.ok else 1
    raise InputFormatError(path, 0, f"unknown property {prop!r}")


def _verdict_line(verdict) -> str:
    if verdict.ok:
        return f"verdict yes witness_c={rat_str(verdict.witness_c)}"
    parts = [f"verdict no reason={verdict.reason}"]
    if verdict.violating_edges:
        parts.append(
            "violating_edges="
            + ";".join(
                f"{fio.vertex_label(u)}-{fio.vertex_label(v)}"
                for u, v in verdict.violating_edges
            )
        )
    return " ".join(parts)


# -- decompose --------------------------------------------------------------


def _cmd_decompose(args) -> int:
    mode = args.mode
    decimals = _decimals(args)
    if mode == "graph":
        name, graph = _load_digraph(args.input)
        dec = decompose_graph(graph)
        text = fio.format_graph_decomposition(dec, name, decimals)
        expected = ("graph", graph.weights)
    elif mode == "birkhoff":
        name, graph = _load_digraph(args.input, allow_self_loops=True)
        terms = birkhoff_decompose(graph)
        text = fio.format_birkhoff_decomposition(terms, name, decimals)
        expected = ("birkhoff", graph.weights)
    elif mode == "lattice":
        measure = fio.read_measure(args.input)
        dec = decompose_lattice(measure)
        text = fio.format_lattice_decomposition(dec, args.input, decimals)
        expected = ("lattice", measure)
        if args.lift:
            records = periodic_lift(dec.classes(measure.dimension))
            sys.stdout.write(fio.format_lift(records, decimals))
    elif mode == "elementary":
        rates, complex = _load_rates(args.input, args)
        dec = _elementary_decompose(rates, complex, args.constant)
        text = fio.format_elementary_decomposition(dec, complex, args.input, decimals)
        expected = ("on-complex", rates, complex)
        if args.lift and complex.is_torus():
            records = periodic_lift(dec.cycles(complex), periods=complex.torus_shape)
            sys.stdout.write(fio.format_lift(records, decimals))
    elif mode == "1d":
        rates, complex = _load_rates(args.input, args, dim=1)
        try:
            family = el.decompose_1d(rates, complex)
        except ValueError as exc:
            raise InputFormatError(args.input, 0, str(exc))
        text = fio.format_1d_family(family, args.input, args.param, decimals)
        expected = ("on-complex", rates, complex)
    elif mode == "1d-heavy":
        measure = fio.read_measure(args.input)
        if measure.dimension != 1:
            raise InputFormatError(args.input, 0, "1d-heavy expects a 1-d measure")
        oracle = HeavyTailOracle1D(
            lambda x: measure.mass((x,)),
            search_limit=max((abs(x[0]) for x in measure.support()), default=0),
        )
        terms, residual = decompose_1d_heavy_tail(oracle, args.steps)
        text = fio.format_heavy_tail(terms, residual, args.input, decimals)
        expected = ("heavy", measure)
    else:
        raise InputFormatError(args.input, 0, f"unknown mode {mode!r}")

    _emit(text, args.output)
    if args.verify:
        written = open(args.output, encoding="utf-8").read() if args.output else text
        _verify_decomposition(written, expected, args.output or "<stdout>")
        print("verification: exact reconstruction confirmed")
    return 0


def _verify_decomposition(text, expected, path):
    mode, _, records = fio.parse_decomposition(text, path)
    kind = expected[0]
    if kind in ("graph", "birkhoff"):
        rebuilt = fio.reconstruct_decomposition(mode, records, path)
        reference = {
            (str(u), str(v)): w for (u, v), w in expected[1].items()
        }
        if rebuilt != reference:
            raise CycleDecError("reconstruction differs from the input weights")
        if kind == "birkhoff":
            total = sum((r[1] for r in records if r[0] == "term"), ZERO)
            if total != 1:
                raise CycleDecError("birkhoff weights do not sum to one")
    elif kind == "lattice":
        # the file does not state its dimension, so the trivial class takes the input's
        dec = fio.lattice_decomposition(records, path)
        if dec.reconstruct(expected[1].dimension) != expected[1]:
            raise CycleDecError("reconstruction differs from the input measure")
    elif kind == "on-complex":
        rebuilt = fio.reconstruct_on_complex(mode, records, expected[2], path)
        if rebuilt != expected[1]:
            raise CycleDecError("reconstruction differs from the input rates")
    elif kind == "heavy":
        measure = expected[1]
        rebuilt = fio.reconstruct_decomposition("1d-heavy", records, path)
        for (x,), mass in rebuilt.items():
            if mass > measure.mass((x,)):
                raise CycleDecError(f"partial sums exceed the measure at {x}")
        for record in records:
            if record[0] == "residual":
                x, value = record[1], record[2]
                if rebuilt.get((x,), ZERO) + value != measure.mass((x,)):
                    raise CycleDecError(f"residual mismatch at {x}")


# -- other subcommands -------------------------------------------------------


def _cmd_hodge(args) -> int:
    complex, field = fio.read_field(args.input)
    if not (complex.is_torus() and complex.torus_dimension() == 2):
        raise InputFormatError(args.input, 1, "hodge expects a 2-d torus field")
    parts = hodge_decompose(field)
    decimals = _decimals(args)
    shape = complex.torus_shape
    lines = [
        "hodge torus " + " ".join(str(n) for n in shape),
        "coefficients "
        + " ".join(rat_str(c) for c in parts.harmonic_coefficients),
    ]
    for label, part in (
        ("gradient", parts.gradient),
        ("homologous", parts.homologous),
        ("harmonic", parts.harmonic),
    ):
        lines.append(f"part {label}")
        body = fio.format_field(part, decimals).splitlines()[1:]
        lines.extend(body)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_elementary(args) -> int:
    rates, complex = _load_rates(args.input, args)
    verdict = el.in_Re(rates, complex)
    print(_verdict_line(verdict))
    if args.diameter:
        try:
            sufficient, bound = el.sufficient_diameter_bound(rates, complex)
            print(
                f"diameter-bound M={rat_str(bound)} "
                f"sufficient={'yes' if sufficient else 'no'}"
            )
        except CycleDecError as exc:
            print(f"diameter-bound unavailable: {exc}")
    if not verdict.ok:
        return 1
    if args.output:
        dec = _elementary_decompose(rates, complex, args.constant)
        _emit(
            fio.format_elementary_decomposition(
                dec, complex, args.input, _decimals(args)
            ),
            args.output,
        )
    return 0


def _make_potential(args) -> dz.PotentialSampler:
    kind = args.potential
    if kind == "sine":
        sampler = dz.sine_potential(args.amplitude)
    elif kind == "band":
        sampler = dz.band_potential(args.lo, args.hi)
    elif kind == "constant":
        sampler = dz.constant_potential(args.value)
    else:
        raise InputFormatError("<args>", 0, f"unknown potential {kind!r}")
    sampler.denominator = args.denominator
    return sampler


def _cmd_discretize(args) -> int:
    sampler = _make_potential(args)
    field, chain = dz.discretize_potential(sampler, args.n)
    text = fio.format_field(field, _decimals(args))
    text += f"# oscillation {rat_str(dz.oscillation(chain))}\n"
    _emit(text, args.output)
    return 0


def _cmd_random_env(args) -> int:
    sampler = _make_potential(args)
    try:
        spec = dz.EnvironmentSpec(sampler, args.noise_lo, args.noise_hi, args.seed, args.dims)
    except ValueError as exc:
        raise InputFormatError("<args>", 0, str(exc))
    env = dz.random_environment(spec)
    _emit(env.serialize(_decimals(args)), args.output)
    return 0 if env.certificate.ok else 1


# -- argument wiring ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycledec",
        description="Exact cyclic decompositions of measures, graphs and rate fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--torus", type=_sizes(1, 2), help="torus size N or N1xN2")
        p.add_argument("--surface", help="surface complex file")
        p.add_argument("--decimal", type=int, help="append rounded decimals")
        if output:
            p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("check", help="balance / dlambda2 / elementary verdicts")
    p.add_argument("property", choices=["balance", "bistochastic", "dlambda2", "elementary", "rstar"])
    p.add_argument("input")
    common(p, output=False)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("decompose", help="construct a cyclic decomposition")
    p.add_argument("--mode", required=True,
                   choices=["graph", "lattice", "birkhoff", "elementary", "1d", "1d-heavy"])
    p.add_argument("input")
    p.add_argument("--constant", type=_rational,
                   help="additive constant for elementary mode")
    p.add_argument("--param", type=_rational, default=ZERO,
                   help="family parameter a for 1d mode")
    p.add_argument("--steps", type=int, default=10, help="rounds for 1d-heavy mode")
    p.add_argument("--verify", action="store_true",
                   help="re-read the emitted file and re-check the reconstruction")
    p.add_argument("--lift", action="store_true",
                   help="also print the periodic lift records")
    common(p)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("hodge", help="three-part orthogonal field split")
    p.add_argument("input")
    common(p)
    p.set_defaults(run=_cmd_hodge)

    p = sub.add_parser("elementary", help="membership verdict plus decomposition")
    p.add_argument("input")
    p.add_argument("--constant", type=_rational, help="additive constant override")
    p.add_argument("--diameter", action="store_true",
                   help="also report the spanning-tree sufficient bound")
    common(p)
    p.set_defaults(run=_cmd_elementary)

    def potential_args(p):
        p.add_argument("--potential", required=True, choices=["sine", "band", "constant"])
        p.add_argument("--amplitude", type=float, default=1.0)
        p.add_argument("--lo", type=float, default=0.3)
        p.add_argument("--hi", type=float, default=0.7)
        p.add_argument("--value", type=float, default=0.0)
        p.add_argument("--denominator", type=_at_least(1), default=dz.DEFAULT_DENOMINATOR)

    p = sub.add_parser("discretize", help="snap a smooth potential to a field")
    potential_args(p)
    p.add_argument("--n", type=_at_least(3), required=True, help="torus mesh")
    p.add_argument("--decimal", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_discretize)

    p = sub.add_parser("random-env", help="periodic random environment draw")
    potential_args(p)
    p.add_argument("--dims", type=_sizes(2), required=True, help="torus size N1xN2")
    p.add_argument("--noise-lo", type=_rational, required=True)
    p.add_argument("--noise-hi", type=_rational, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--decimal", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_random_env)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NotBalanced as exc:
        detail = f" violators={exc.violators}" if exc.violators else ""
        print(f"negative verdict: {exc}{detail}", file=sys.stderr)
        return 1
    except CycleDecError as exc:
        print(f"negative verdict: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
