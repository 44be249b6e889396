import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench.py"
RECORD = ROOT / "BENCH_36.json"


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
    # both sides ran every rung in each alternated run, with the same output
    change = digests["change"]
    assert change.keys() == {(k, n) for k, sizes in bench.LADDERS.items() for n in sizes}
    assert {"parent", "change"} <= digests.keys()
    assert all(run == change for run in digests.values())
    # and every rung of the previous record, the same output again
    earlier = json.loads((ROOT / "BENCH_29.json").read_text())["change"]["rungs"]
    assert {(r["kernel"], r["size"]): r["digest"] for r in earlier}.items() <= change.items()
    for kernel, sizes in bench.LADDERS.items():
        rung = bench.run_rung(kernel, sizes[0], repeats=1)
        assert rung["digest"] == digests["change"][(kernel, sizes[0])]
        assert rung["wall_s"] > 0
