"""Exact-decomposition benchmark for cycledec.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload graph-peel --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after the other, each in a
fresh process.

Workloads (inputs are generated from ``--seed`` by ``workloads.py``):

* ``graph-peel``: balanced digraphs (|E| 200 to 1000) through greedy cycle
  peeling, one in ten unbalanced by a perturbed edge, plus bistochastic
  matrices (n = 48) through Birkhoff splitting.  Only ``finite_graph`` and
  ``io`` run, so it is the no-change control for work on ``exact_lp``,
  ``complexes`` and ``elementary``.
* ``lattice-caratheodory``: mean-zero measures on Z^2 (support 30 to 120)
  and Z^3 (30 to 60), one in ten with a nonzero mean.  The phase-I simplex
  in ``exact_lp`` does nearly all the work and bit lengths grow.
* ``surface-fields``: elementary queries on 2-torus rates (n = 16 to 32)
  and Klein-bottle grids (6 to 8), yes and no instances, plus Hodge splits
  on tori (n = 5 to 7).  ``exact_lp`` elimination runs here, the simplex
  does not.

The loop is closed, single process, single thread: each op starts when the
previous one has finished, cycling through the generated inputs, until
``--seconds`` have passed, every input has run once and at least
``MIN_OPS`` ops are done.  The ``fractions`` scalar backend is pinned.

End-to-end metrics (``--trace 0``): ``ops_per_s`` is ops per second of
timed wall time; ``op_p50_s`` and ``op_p90_s`` are quantiles over the
inputs, each input counted once at the median latency of its runs;
``setup_s`` is import, input generation and serialization, and warm-up
(the median of ``SETUP_REPEATS``); ``peak_rss_mb`` is the peak resident
set.  Times are scaled to a reference machine speed measured in the same
run (see ``calibration.py``); the raw wall-clock figures are printed too.
``failed_frac`` (failed / attempted op runs) is printed on its own line and
carried by the ``attempted`` and ``failed`` fields of the result.

``--trace 1`` runs every op twice, once plain and once with spans recorded
(alternating which goes first), and prints the per-layer metrics, the
tracing overhead and the share of op time no span covers.

The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it name
each metric with its unit, every failing input, and the run's provenance,
which includes a fingerprint of all emitted decomposition text.  The same
record, with the spans of a traced run, goes to ``perfbench/out/``.

Seed ``HELD_OUT_SEED`` is reserved: do not run it while developing a
change, only to confirm a claim afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
HELD_OUT_SEED = 20110726
SETUP_REPEATS = 5
MIN_OPS = 100  # leaves at least ten inputs beyond the p90 latency

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "io.parse_s": "s/op",
    "io.format_s": "s/op",
    "io.verify_s": "s/op",
    "io.dec_bytes": "bytes/op",
    "finite_graph.balance_s": "s/op",
    "finite_graph.peel_s": "s/op",
    "finite_graph.peel_terms": "terms/peel",
    "finite_graph.terms_per_edge": "ratio",
    "finite_graph.birkhoff_s": "s/op",
    "finite_graph.birkhoff_terms": "terms/split",
    "lattice.decompose_s": "s/op",
    "lattice.self_s": "s/op",
    "lattice.rounds_per_support": "ratio",
    "lattice.max_bits": "bits",
    "exact_lp.barycentric_s": "s/op",
    "exact_lp.barycentric_calls": "calls/op",
    "exact_lp.solve_s": "s/op",
    "exact_lp.solve_calls": "calls/op",
    "exact_lp.solve_cells": "cells/op",
    "complexes.hodge_s": "s/op",
    "complexes.recover_psi_s": "s/op",
    "complexes.recover_psi_calls": "calls/yes-query",
    "elementary.in_Re_s": "s/op",
    "elementary.decompose_s": "s/op",
    "elementary.self_s": "s/op",
    "elementary.yes_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}

ELEMENTARY_KINDS = ("torus-elementary", "klein-elementary")


class LibraryMissing(Exception):
    pass


def load_library():
    """Import cycledec from this checkout's ``src/`` with the fractions backend."""
    package = ROOT / "src" / "cycledec"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no cycledec sources under {package}")
    os.environ["CYCLEDEC_RATIONAL_BACKEND"] = "fractions"
    sys.path.insert(0, str(ROOT / "src"))
    import cycledec

    if Path(cycledec.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"imported cycledec from {cycledec.__file__}, not {package}")
    return cycledec


# -- provenance ----------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly; no git process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cycledec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(cycledec, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "backend": cycledec.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
    }


# -- set-up --------------------------------------------------------------------


def set_up(workloads, ops, calibration, workload, seed):
    """Generate and serialize the inputs, then warm up one op of each kind.

    Repeated ``SETUP_REPEATS`` times, with three reference passes before,
    between and after the repeats.  Returns the cases, the median set-up time, the
    speed factor of the reference passes and whether every repeat produced
    identical text.
    """
    times = []
    passes = [calibration.reference_pass() for _ in range(3)]
    first = None
    identical = True
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cases = workloads.generate(workload, seed)
        seen = set()
        for case in cases:
            if case.kind not in seen:
                seen.add(case.kind)
                ops.execute(case)
        times.append(time.perf_counter() - started)
        passes.extend(calibration.reference_pass() for _ in range(3))
        texts = [(c.text, c.extra) for c in cases]
        if first is None:
            first = texts
        identical = identical and texts == first
    return cases, statistics.median(times), calibration.speed_factor(passes), identical


# -- the closed loop -------------------------------------------------------------


class Ledger:
    """Failures, per-input output digests and the run fingerprint."""

    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failures = {}
        self.digests = {}

    def record(self, index, outcome):
        self.attempted += 1
        case = self.cases[index]
        problem = outcome.problem
        digest = hashlib.sha256(outcome.text.encode()).hexdigest()
        if problem is None and self.digests.setdefault(index, digest) != digest:
            problem = "emitted text differs from this input's earlier run"
        if problem is not None:
            self.failures.setdefault(case.name, []).append(problem)

    @property
    def failed(self):
        return sum(len(v) for v in self.failures.values())

    def fingerprint(self):
        digest = hashlib.sha256()
        for index in sorted(self.digests):
            digest.update(f"{self.cases[index].name}\n{self.digests[index]}\n".encode())
        return digest.hexdigest()


def keep_going(started, seconds, done, minimum):
    return done < minimum or time.perf_counter() - started < seconds


def run_plain(ops, cases, seconds, ledger, calibration):
    latencies = []
    started = time.perf_counter()
    while keep_going(started, seconds, len(latencies), max(len(cases), MIN_OPS)):
        calibration.tick()
        index = len(latencies) % len(cases)
        outcome = ops.execute(cases[index])
        latencies.append(outcome.seconds)
        ledger.record(index, outcome)
    return latencies, time.perf_counter() - started


class LayerTally:
    """Counters taken from each traced op's spans and outputs."""

    def __init__(self):
        self.ops = 0
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.dec_bytes = 0
        self.peels = self.peel_terms = self.peel_edges = 0
        self.splits = self.split_terms = 0
        self.rounds = self.support = self.max_bits = 0
        self.queries = self.yes_queries = self.yes_psi_calls = 0

    def add(self, case, plain, traced, op_spans):
        self.ops += 1
        self.plain_s += plain.seconds
        self.traced_s += traced.seconds
        self.dec_bytes += len(traced.text.encode())
        result = traced.result
        if case.kind == "graph" and hasattr(result, "terms"):
            self.peels += 1
            self.peel_terms += len(result.terms)
            self.peel_edges += len(traced.loaded[1].weights)
        elif case.kind == "birkhoff" and result is not None:
            self.splits += 1
            self.split_terms += len(result)
        elif case.kind == "lattice" and hasattr(result, "terms"):
            self.rounds += len(result.terms)
            self.support += sum(1 for point in traced.loaded.atoms if any(point))
            values = [w for _, w in result.terms] + [result.trivial_mass]
            bits = [max(q.numerator.bit_length(), q.denominator.bit_length()) for q in values]
            bits += [m.bit_length() for cls, _ in result.terms for m in cls.entries.values()]
            self.max_bits = max([self.max_bits] + bits)
        elif case.kind in ELEMENTARY_KINDS and result is not None:
            self.queries += 1
            if result[0].ok:
                self.yes_queries += 1
                self.yes_psi_calls += sum(1 for s in op_spans if s[0] == "complexes.recover_psi")


def run_traced(ops, spans, cases, seconds, ledger, calibration):
    tracer = spans.Tracer()
    tally = LayerTally()
    started = time.perf_counter()
    while keep_going(started, seconds, tally.ops, len(cases)):
        calibration.tick()
        index = tally.ops % len(cases)
        case = cases[index]
        first_span = len(tracer.spans)
        runs = {}
        for mode in (("plain", "traced") if index % 2 == 0 else ("traced", "plain")):
            if mode == "plain":
                runs[mode] = ops.execute(case)
            else:
                tracer.op_id = tally.ops
                with tracer:
                    runs[mode] = ops.execute(case, tracer.span)
            ledger.record(index, runs[mode])
        tally.add(case, runs["plain"], runs["traced"], tracer.spans[first_span:])
    return tracer, tally


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, tracer, tally, speed):
    """Per-layer metrics; seconds are scaled by the run's ``speed`` factor."""
    summary = spans.summarize(tracer.spans)

    def per_op(name, key="total_s"):
        value = summary.get(name, {}).get(key, 0) / tally.ops
        return value * speed if key.endswith("_s") else value

    op_total = summary["op"]["total_s"]
    return {
        "io.parse_s": per_op("io.parse"),
        "io.format_s": per_op("io.format"),
        "io.verify_s": per_op("io.verify"),
        "io.dec_bytes": tally.dec_bytes / tally.ops,
        "finite_graph.balance_s": per_op("finite_graph.is_balanced_graph"),
        "finite_graph.peel_s": per_op("finite_graph.decompose_graph", "self_s"),
        "finite_graph.peel_terms": _ratio(tally.peel_terms, tally.peels),
        "finite_graph.terms_per_edge": _ratio(tally.peel_terms, tally.peel_edges),
        "finite_graph.birkhoff_s": per_op("finite_graph.birkhoff_decompose"),
        "finite_graph.birkhoff_terms": _ratio(tally.split_terms, tally.splits),
        "lattice.decompose_s": per_op("lattice.decompose_lattice"),
        "lattice.self_s": per_op("lattice.decompose_lattice", "self_s"),
        "lattice.rounds_per_support": _ratio(tally.rounds, tally.support),
        "lattice.max_bits": tally.max_bits,
        "exact_lp.barycentric_s": per_op("exact_lp.barycentric_vertex"),
        "exact_lp.barycentric_calls": per_op("exact_lp.barycentric_vertex", "calls"),
        "exact_lp.solve_s": per_op("exact_lp.solve_exact_linear"),
        "exact_lp.solve_calls": per_op("exact_lp.solve_exact_linear", "calls"),
        "exact_lp.solve_cells": per_op("exact_lp.solve_exact_linear", "cells"),
        "complexes.hodge_s": per_op("complexes.hodge_decompose"),
        "complexes.recover_psi_s": per_op("complexes.recover_psi"),
        "complexes.recover_psi_calls": _ratio(tally.yes_psi_calls, tally.yes_queries),
        "elementary.in_Re_s": per_op("elementary.in_Re"),
        "elementary.decompose_s": per_op("elementary.elementary_decompose"),
        "elementary.self_s": per_op("elementary.in_Re", "self_s")
        + per_op("elementary.elementary_decompose", "self_s"),
        "elementary.yes_frac": _ratio(tally.yes_queries, tally.queries),
        "trace.overhead_frac": tally.traced_s / tally.plain_s - 1,
        "trace.uncovered_frac": summary["op"]["self_s"] / op_total,
    }


# -- correctness outside the timed region ----------------------------------------


def cross_check(ops, cases):
    """Polyhedron-violating torus inputs must also fail the all-pairs test."""
    from cycledec import elementary

    problems = []
    for case in cases:
        if case.kind == "torus-elementary" and case.expect[1:] == ("PolyhedronViolated",):
            rates, complex = ops.KINDS[case.kind].parse(case)
            if elementary.pairwise_in_Re(rates, complex):
                problems.append(f"{case.name}: pairwise_in_Re accepts a violating input")
    return problems


# -- main ------------------------------------------------------------------------


def run_all(names, args) -> int:
    """Each workload in a fresh process, one after the other."""
    for name in names:
        print(f"== {name}", flush=True)
        child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(child).returncode
        if code:
            return code
    return 0


def main(argv=None) -> int:
    import_started = time.perf_counter()
    try:
        cycledec = load_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import calibration as calibration_module
    import ops
    import spans
    import workloads

    import_s = time.perf_counter() - import_started

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)

    cases, setup_median, setup_speed, identical = set_up(
        workloads, ops, calibration_module, args.workload, args.seed
    )
    ledger = Ledger(cases)
    calibration = calibration_module.Calibration()
    if args.trace:
        tracer, tally = run_traced(ops, spans, cases, args.seconds, ledger, calibration)
        metrics = layer_metrics(spans, tracer, tally, calibration.speed)
        units = LAYER_UNITS
        print(f"ops = {tally.ops}, each run once plain and once traced")
    else:
        latencies, wall = run_plain(ops, cases, args.seconds, ledger, calibration)
        # Quantiles run over the inputs, each counted once at the median of its
        # runs: a partial last pass then cannot change the mix they measure.
        per_input = [
            statistics.median(latencies[i::len(cases)]) for i in range(len(cases))
        ]
        deciles = statistics.quantiles(per_input, n=10)
        raw = {
            "ops_per_s": len(latencies) / (wall - calibration.spent_s),
            "op_p50_s": statistics.median(per_input),
            "op_p90_s": deciles[8],
            "setup_s": import_s + setup_median,
        }
        metrics = {
            "ops_per_s": raw["ops_per_s"] / calibration.speed,
            "op_p50_s": raw["op_p50_s"] * calibration.speed,
            "op_p90_s": raw["op_p90_s"] * calibration.speed,
            "setup_s": raw["setup_s"] * setup_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        beyond = sum(1 for t in per_input if t > deciles[8])
        print(f"ops = {len(latencies)} over {wall:.3f} s; latency quantiles over "
              f"{len(per_input)} inputs, {beyond} of them beyond p90")
        print("raw wall-clock " + " ".join(f"{k}={v!r}" for k, v in raw.items()))
    print(f"calibration: {len(calibration.samples)} reference passes, speed factor "
          f"{calibration.speed!r}, {setup_speed!r} in set-up (reported s = wall s x factor)")

    problems = cross_check(ops, cases)
    if not identical:
        problems.append("the same seed generated different inputs across set-ups")
    for name, found in sorted(ledger.failures.items()):
        problems.append(f"{name}: failed {len(found)}x: {found[0]}")

    info = provenance(cycledec, args)
    info["speed_factor"] = calibration.speed
    info["setup_speed_factor"] = setup_speed
    info["fingerprint"] = ledger.fingerprint()
    info["inputs"] = {case.name: case.size for case in cases}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {ledger.failed / ledger.attempted!r} "
          f"({ledger.failed} of {ledger.attempted} op runs)")
    for problem in problems:
        print(f"FAILED {problem}")
    print("provenance " + json.dumps({k: v for k, v in info.items() if k != "inputs"}))

    record = {"provenance": info, "metrics": metrics, "problems": problems}
    if args.trace:
        record["spans"] = tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
