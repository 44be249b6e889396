"""Checks on the benchmark itself: seeded inputs, failure counting, tracing."""

import functools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cycledec import io as fio  # noqa: E402
from cycledec.ratio import parse_rat, rat_str  # noqa: E402


@functools.lru_cache(maxsize=None)
def cases_of(workload):
    return workloads.generate(workload, 1)


def first_case(workload, kind):
    return next(c for c in cases_of(workload) if c.kind == kind)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) == first
    other = workloads.generate(workload, 6)
    assert [c.text for c in other] != [c.text for c in first]
    assert [c.name for c in other] == [c.name for c in first]


def _bump_first_term(text):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("term "):
            tokens = line.split(" ")
            tokens[1] = rat_str(parse_rat(tokens[1]) + 1)
            lines[i] = " ".join(tokens)
            return "\n".join(lines)
    raise AssertionError("no term line to corrupt")


@pytest.mark.parametrize(
    "workload, kind, formatter",
    [
        ("graph-peel", "graph", "format_graph_decomposition"),
        ("lattice-caratheodory", "lattice", "format_lattice_decomposition"),
        ("surface-fields", "torus-elementary", "format_elementary_decomposition"),
    ],
)
def test_corrupted_decomposition_counts_as_failure(monkeypatch, workload, kind, formatter):
    case = first_case(workload, kind)
    assert ops.execute(case).problem is None
    original = getattr(fio, formatter)
    monkeypatch.setattr(fio, formatter, lambda *a, **k: _bump_first_term(original(*a, **k)))
    outcome = ops.execute(case)
    assert "reconstruction differs" in outcome.problem
    ledger = run.Ledger([case])
    ledger.record(0, outcome)
    assert ledger.failed == 1 and ledger.attempted == 1
    assert list(ledger.failures) == [case.name]


def test_wrong_verdict_counts_as_failure():
    case = first_case("graph-peel", "graph")
    wrong = workloads.Case(case.name, case.kind, case.text, expect=("no", ("v0", "v1")))
    assert "unbalanced input was decomposed" in ops.execute(wrong).problem


def test_tracer_restores_every_wrapped_attribute():
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in spans.TARGETS]
    case = first_case("graph-peel", "graph")
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(getattr(m, a) is not f for m, a, f in originals)
            ops.execute(case, tracer.span)
            raise RuntimeError("op interrupted")
    assert all(getattr(m, a) is f for m, a, f in originals)
    assert {s[0] for s in tracer.spans} >= {
        "op", "io.parse", "finite_graph.decompose_graph", "finite_graph.is_balanced_graph",
    }


def test_self_times_add_up_to_the_op_time():
    case = first_case("surface-fields", "klein-elementary")
    tracer = spans.Tracer()
    with tracer:
        assert ops.execute(case, tracer.span).problem is None
    root = next(s for s in tracer.spans if s[0] == "op")
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root[2] - root[1])
    names = [s[0] for s in tracer.spans]
    assert names.count("complexes.recover_psi") == 3
    assert "exact_lp.solve_exact_linear" in names
