"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(not balanced, not decomposable), 2 for malformed inputs, bad arguments or
inputs above a size limit.
All outputs are deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from math import isfinite, prod

from . import discretize as dz
from . import elementary as el
from . import io as fio
from .complexes import TwoComplex, field_to_rates, hodge_decompose, rates_pass
from .errors import CycleDecError, InputFormatError, NegativeEdgeWeight, NotBalanced, TooLarge
from .finite_graph import (
    WeightedDigraph,
    birkhoff_decompose,
    decompose_graph,
    is_balanced_graph,
    is_bistochastic,
)
from .lattice import HeavyTailOracle1D, decompose_1d_heavy_tail, decompose_lattice, mean
from .ratio import ZERO, Rat, parse_rat, rat_str


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


def _finite(text: str) -> float:
    try:
        if isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _bounded(shape, flag):
    """``shape``, refused before it is built when its torus has more
    vertices than a field file may declare."""
    size, limit = prod(shape), fio.FIELD_VERTEX_LIMIT
    if size > limit:
        raise InputFormatError("<args>", 0, f"{flag}: {size} vertices exceed the limit of {limit}")
    return shape


def _torus_shape(args, dim: int):
    """The shape ``--torus`` declares, None without it: ``N`` is the 1-d
    torus in 1-d mode and the ``N x N`` torus otherwise."""
    shape = args.torus
    if shape and dim == 2 and len(shape) == 1:
        shape *= 2
    return shape and _bounded(shape, "--torus")


def _load_complex(args, dim: int = 2):
    if args.surface:
        return fio.read_surface(args.surface)
    shape = _torus_shape(args, dim)
    if shape is None:
        return None
    return TwoComplex.torus1(*shape) if len(shape) == 1 else TwoComplex.torus2(*shape)


def _load_rates(path, args, dim: int = 2):
    """Rates, complex and the rates pass that validated them, from a file."""
    if path.endswith(".field"):
        complex, field = fio.read_field(path)
        if args.surface or _torus_shape(args, dim) not in (None, complex.torus_shape):
            flag = "--surface" if args.surface else "--torus"
            raise InputFormatError("<args>", 0, f"{flag} disagrees with the field header of {path}")
        rates = field_to_rates(field)
        return rates, complex, rates_pass(rates, complex)
    name, weights, lines = fio.read_graph(path)
    complex = _load_complex(args, dim)
    if complex is None:
        raise InputFormatError(path, 0, "rates files need --torus or --surface")
    if complex.is_torus():
        weights = fio.labels_to_coords(weights, path, lines)
    try:
        validated = rates_pass(weights, complex)
    except (KeyError, ValueError) as exc:
        k, exc = fio.first_fault(
            list(weights.items()), lambda prefix: rates_pass(dict(prefix), complex), exc
        )
        raise InputFormatError(path, lines[k - 1], f"rates do not fit {complex.name}: {exc.args[0]}")
    return {e: w for e, w in weights.items() if w}, complex, validated


def _load_digraph(path, allow_self_loops=False, perm=False):
    """Name plus weighted digraph from a graph file; ``perm`` also refuses a
    label that a ``u>v`` perm entry cannot carry."""
    name, weights, lines = fio.read_graph(path)
    edges = [(u, v, w) for (u, v), w in weights.items()]

    def build(edges):
        graph = WeightedDigraph.from_edges(edges, allow_self_loops)
        if perm:
            fio.check_perm_labels(graph.vertices)
        return graph

    try:
        return name, build(edges)
    except ValueError as exc:
        k, exc = fio.first_fault(edges, build, exc)
        raise InputFormatError(path, lines[k - 1], str(exc))


def _elementary_weights(chain, complex, verdict, constant):
    """The decomposition on the one recovered chain, reporting a constant
    that the complex admits no freedom for, or that is infeasible, as an
    argument error."""
    try:
        return el.chain_decomposition(chain, complex, verdict, constant)
    except (ValueError, NegativeEdgeWeight) as exc:
        raise InputFormatError("<args>", 0, f"--constant: {exc}")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- check ----------------------------------------------------------------


def _cmd_check(args) -> int:
    prop = args.property
    path = args.input
    for flag, value in (("--torus", args.torus), ("--surface", args.surface)):
        if value is not None and prop in ("balance", "bistochastic"):
            raise InputFormatError("<args>", 0,
                                   f"{flag} applies to check dlambda2, elementary or rstar only")
    if prop == "balance":
        if path.endswith(".msr"):
            center = mean(fio.read_measure(path))
            ok, violators = not any(center), [center]
        else:
            ok, violators = is_balanced_graph(_load_digraph(path)[1])
        print("balanced: yes" if ok else "balanced: no" + _violators_detail(violators))
        return 0 if ok else 1
    if prop == "bistochastic":
        _, graph = _load_digraph(path, allow_self_loops=True)
        ok = is_bistochastic(graph)
        print(f"bistochastic: {'yes' if ok else 'no'}")
        return 0 if ok else 1
    _, complex, validated = _load_rates(path, args)
    chain = el.recover_chain(validated, complex)
    if prop == "elementary":
        verdict = el.chain_verdict(chain, complex)
        print(_verdict_line(verdict))
        return 0 if verdict.ok else 1
    ok = chain is not None
    if prop == "dlambda2":
        print(f"dlambda2: {'yes' if ok else 'no'}")
    else:
        print(f"rstar-necessary-condition: {'holds' if ok else 'fails'}")
        print("# full homotopically-trivial membership is not decided")
    return 0 if ok else 1


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
    decimals = args.decimal
    flags = (("--constant", args.constant, ["elementary"]), ("--param", args.param, ["1d"]),
             ("--steps", args.steps, ["1d-heavy"]), ("--torus", args.torus, ["elementary", "1d"]),
             ("--surface", args.surface, ["elementary", "1d"]),
             ("--lift", args.lift, ["lattice", "elementary"]))
    for flag, value, owners in flags:
        if value is not None and mode not in owners:
            raise InputFormatError("<args>", 0, f"{flag} applies to --mode {' or '.join(owners)} only")
    if mode == "graph":
        name, graph = _load_digraph(args.input)
        dec = decompose_graph(graph)
        text = fio.format_graph_decomposition(dec, name, decimals)
        expected = ("graph", graph.weights)
    elif mode == "birkhoff":
        name, graph = _load_digraph(args.input, allow_self_loops=True, perm=True)
        terms = birkhoff_decompose(graph)
        text = fio.format_birkhoff_decomposition(terms, name, decimals)
        expected = ("birkhoff", graph.weights)
    elif mode == "lattice":
        measure = fio.read_measure(args.input)
        dec = decompose_lattice(measure)
        text = fio.format_lattice_decomposition(dec, args.input, decimals)
        expected = ("lattice", measure)
        if args.lift:
            sys.stdout.write(fio.format_lift(dec.classes(), decimals=decimals))
    elif mode == "elementary":
        rates, complex, validated = _load_rates(args.input, args)
        chain = el.recover_chain(validated, complex)
        dec = _elementary_weights(chain, complex, el.chain_verdict(chain, complex), args.constant)
        text = fio.format_elementary_decomposition(dec, complex, args.input, decimals)
        expected = ("on-complex", rates, complex)
        if args.lift and complex.is_torus():
            sys.stdout.write(fio.format_lift(dec.cycles(complex), complex.torus_shape, decimals))
    elif mode == "1d":
        rates, complex, validated = _load_rates(args.input, args, dim=1)
        try:
            family = el.family_1d(validated, complex)
        except ValueError as exc:
            raise InputFormatError(args.input, 0, str(exc))
        try:
            text = fio.format_1d_family(family, args.input, args.param or ZERO, decimals)
        except NegativeEdgeWeight as exc:
            raise InputFormatError("<args>", 0, f"--param: {exc}")
        expected = ("on-complex", rates, complex)
    else:  # 1d-heavy
        measure = fio.read_measure(args.input)
        if measure.dimension != 1:
            raise InputFormatError(args.input, 0, "1d-heavy expects a 1-d measure")
        oracle = HeavyTailOracle1D(
            lambda x: measure.mass((x,)),
            search_limit=max((abs(x[0]) for x in measure.support()), default=0),
        )
        steps = 10 if args.steps is None else args.steps
        terms, residual = decompose_1d_heavy_tail(oracle, steps)
        text = fio.format_heavy_tail(terms, residual, args.input, decimals)
        expected = ("heavy", measure)

    _emit(text, args.output)
    if args.verify:
        if args.output:
            with open(args.output, encoding="utf-8") as fh:
                text = fh.read()
        _verify_decomposition(text, expected, args.output or "<stdout>")
        print("verification: exact reconstruction confirmed")
    return 0


def _verify_decomposition(text, expected, path):
    mode, _, records = fio.parse_decomposition(text, path)
    kind = expected[0]
    if kind in ("graph", "birkhoff"):
        if fio.reconstruct_decomposition(mode, records, path) != expected[1]:
            raise CycleDecError("reconstruction differs from the input weights")
        if kind == "birkhoff":
            total = sum((r[1] for r in records if r[0] == "term"), ZERO)
            if total != 1:
                raise CycleDecError("birkhoff weights do not sum to one")
    elif kind == "lattice":
        if fio.reconstruct_decomposition(mode, records, path) != expected[1].atoms:
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
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    complex, field = fio.parse_field(text, args.input)
    if complex.torus_dimension() != 2:  # named on the header's line
        raise InputFormatError(args.input, next(fio.content_lines(text))[0],
                               "hodge expects a 2-d torus field")
    parts = hodge_decompose(field)
    shape = complex.torus_shape
    lines = [
        "hodge torus " + " ".join(str(n) for n in shape),
        "coefficients " + " ".join(rat_str(c, args.decimal) for c in parts.harmonic_coefficients),
    ]
    for label, part in (
        ("gradient", parts.gradient),
        ("homologous", parts.homologous),
        ("harmonic", parts.harmonic),
    ):
        lines.append(f"part {label}")
        body = fio.format_field(part, args.decimal).splitlines()[1:]
        lines.extend(body)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_elementary(args) -> int:
    _, complex, validated = _load_rates(args.input, args)
    chain = el.recover_chain(validated, complex)
    verdict = el.chain_verdict(chain, complex)
    if verdict.ok:
        # decomposed first, so a refused --constant leaves stdout empty
        dec = _elementary_weights(chain, complex, verdict, args.constant)
    print(_verdict_line(verdict))
    if args.diameter:
        try:
            sufficient, bound = el.chain_diameter_bound(chain, complex)
        except CycleDecError as exc:  # no faces, or NotHomologous
            print(f"diameter-bound unavailable: {exc}")
        else:
            print(f"diameter-bound M={rat_str(bound)} sufficient={'yes' if sufficient else 'no'}")
    if not verdict.ok:
        return 1
    if args.output:
        _emit(fio.format_elementary_decomposition(dec, complex, args.input, args.decimal), args.output)
    return 0


def _make_potential(args) -> dz.PotentialSampler:
    """The sampler of ``--potential`` from the flags given, which an absent
    one leaves at its default; ``ValueError`` on an empty band."""
    owners = {"amplitude": "sine", "lo": "band", "hi": "band", "value": "constant"}
    given = {name: getattr(args, name) for name in owners if getattr(args, name) is not None}
    for name in given:
        if owners[name] != args.potential:
            raise InputFormatError("<args>", 0, f"--{name} applies to --potential {owners[name]} only")
    make = {"sine": dz.sine_potential, "band": dz.band_potential, "constant": dz.constant_potential}
    sampler = make[args.potential](**given)
    sampler.denominator = args.denominator
    return sampler


def _cmd_discretize(args) -> int:
    _bounded((args.n, args.n), "--n")
    try:
        field, chain = dz.discretize_potential(_make_potential(args), args.n)
    except ValueError as exc:
        raise InputFormatError("<args>", 0, str(exc))
    text = fio.format_field(field, args.decimal)
    text += f"# oscillation {rat_str(dz.oscillation(chain))}\n"
    _emit(text, args.output)
    return 0


def _cmd_random_env(args) -> int:
    _bounded(args.dims, "--dims")
    try:
        spec = dz.EnvironmentSpec(_make_potential(args), args.noise_lo, args.noise_hi, args.seed, args.dims)
        env = dz.random_environment(spec)
    except ValueError as exc:
        raise InputFormatError("<args>", 0, str(exc))
    _emit(env.serialize(args.decimal), args.output)
    return 0 if env.certificate.ok else 1


# -- argument wiring ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycledec",
        description="Exact cyclic decompositions of measures, graphs and rate fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def complex_args(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--torus", type=_sizes(1, 2), help="torus size N or N1xN2")
        group.add_argument("--surface", help="surface complex file")

    def output_args(p):
        p.add_argument("--decimal", type=_at_least(0), help="append decimals rounded to N digits")
        p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("check", help="balance / dlambda2 / elementary verdicts")
    p.add_argument("property", choices=["balance", "bistochastic", "dlambda2", "elementary", "rstar"])
    p.add_argument("input")
    complex_args(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("decompose", help="construct a cyclic decomposition")
    p.add_argument("--mode", required=True,
                   choices=["graph", "lattice", "birkhoff", "elementary", "1d", "1d-heavy"])
    p.add_argument("input")
    p.add_argument("--constant", type=_rational,
                   help="additive constant for elementary mode")
    p.add_argument("--param", type=_rational, help="family parameter a for 1d mode (default 0)")
    p.add_argument("--steps", type=_at_least(0), help="rounds for 1d-heavy mode (default 10)")
    p.add_argument("--verify", action="store_true",
                   help="re-read the emitted file and re-check the reconstruction")
    p.add_argument("--lift", action="store_true", default=None,
                   help="also print the periodic lift records")
    complex_args(p)
    output_args(p)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("hodge", help="three-part orthogonal field split")
    p.add_argument("input")
    output_args(p)
    p.set_defaults(run=_cmd_hodge)

    p = sub.add_parser("elementary", help="membership verdict plus decomposition")
    p.add_argument("input")
    p.add_argument("--constant", type=_rational, help="additive constant override")
    p.add_argument("--diameter", action="store_true",
                   help="also report the spanning-tree sufficient bound")
    complex_args(p)
    output_args(p)
    p.set_defaults(run=_cmd_elementary)

    def potential_args(p):
        p.add_argument("--potential", required=True, choices=["sine", "band", "constant"])
        for flag in ("--amplitude", "--lo", "--hi", "--value"):
            p.add_argument(flag, type=_finite)
        p.add_argument("--denominator", type=_at_least(1), default=dz.DEFAULT_DENOMINATOR)

    p = sub.add_parser("discretize", help="snap a smooth potential to a field")
    potential_args(p)
    p.add_argument("--n", type=_at_least(3), required=True, help="torus mesh")
    output_args(p)
    p.set_defaults(run=_cmd_discretize)

    p = sub.add_parser("random-env", help="periodic random environment draw")
    potential_args(p)
    p.add_argument("--dims", type=_sizes(2), required=True, help="torus size N1xN2")
    p.add_argument("--noise-lo", type=_rational, required=True)
    p.add_argument("--noise-hi", type=_rational, required=True)
    p.add_argument("--seed", type=int, required=True)
    output_args(p)
    p.set_defaults(run=_cmd_random_env)

    return parser


def _violators_detail(violators) -> str:
    """The violators of an imbalance, as ``check balance`` finds them or a
    :class:`NotBalanced` carries them, in the file spelling: a lattice
    mean, the one violator made of rationals, as `` mean=1/2 0/1``,
    vertices as `` violators=b,c``."""
    if not violators:
        return ""
    first = violators[0]
    if isinstance(first, tuple) and all(type(c) is Rat for c in first):
        return " mean=" + " ".join(map(rat_str, first))
    return " violators=" + ",".join(map(fio.vertex_label, violators))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (InputFormatError, FileNotFoundError, TooLarge) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NotBalanced as exc:
        print(f"negative verdict: {exc}{_violators_detail(exc.violators)}", file=sys.stderr)
        return 1
    except CycleDecError as exc:
        print(f"negative verdict: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
