import importlib.util
import json
import pathlib

import cycledec

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench.py"
RECORD = ROOT / "BENCH_10.json"


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
    assert digests["parent"].keys() == digests["change"].keys()
    # the Birkhoff matching kept across rounds emits other (valid)
    # permutations by design, so only the other ladders must match the
    # parent's text
    for key, digest in digests["change"].items():
        if key[0] != "birkhoff":
            assert digests["parent"][key] == digest
    for kernel, sizes in bench.LADDERS.items():
        rung = bench.run_rung(kernel, sizes[0], repeats=1)
        assert rung["digest"] == digests["change"][(kernel, sizes[0])]
        assert rung["wall_s"] > 0


def test_gmpy2_leg_is_recorded_as_skipped_without_gmpy2(monkeypatch):
    bench = load_bench()
    monkeypatch.setattr(cycledec, "BACKEND", "fractions")
    assert bench.provenance(ROOT / "src")["gmpy2"] == "skipped: gmpy2 is not importable"
    monkeypatch.setattr(cycledec, "BACKEND", "gmpy2")
    assert bench.provenance(ROOT / "src")["gmpy2"] == "measured"
