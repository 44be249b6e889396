import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_scalars.py"


def test_gmpy2_leg_is_skipped_when_gmpy2_cannot_be_imported(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_scalars", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setitem(sys.modules, "gmpy2", None)  # import now raises ImportError
    started = []
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: started.append(a))
    bench.run("gmpy2")
    assert started == []
    assert "skipped: gmpy2 is not importable" in capsys.readouterr().out
