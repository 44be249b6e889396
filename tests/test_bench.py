import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench.py"
RECORD = ROOT / "BENCH_15.json"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_smallest_rungs_reproduce_the_recorded_outputs():
    bench = load_bench()
    recorded = json.loads(RECORD.read_text())
    digests = {
        label: {(r["kernel"], r["size"]): r["digest"] for r in record["rungs"]}
        for label, record in recorded.items()
    }
    # the two runs of the record straddle a change of the simplex pricing,
    # which gives the lattice rounds other exact classes; nothing else moved
    unchanged = {
        label: {rung: digest for rung, digest in runs.items() if rung[0] != "lattice"}
        for label, runs in digests.items()
    }
    assert unchanged["parent"] == unchanged["change"]
    assert digests["parent"].keys() == digests["change"].keys()
    for kernel, sizes in bench.LADDERS.items():
        rung = bench.run_rung(kernel, sizes[0], repeats=1)
        assert rung["digest"] == digests["change"][(kernel, sizes[0])]
        assert rung["wall_s"] > 0
