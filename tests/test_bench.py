"""The benchmark under bench/ keeps working against the package: its own
smoke test passes, and every per-layer metric BENCHMARK.json declares
belongs to a function the tracer can wrap (a renamed function would make
`bench/run.py --trace 1` fail with a KeyError)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_declared_per_layer_names_are_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracing

    run._import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]
                if m["name"].endswith((".calls", ".total_s", ".self_s"))}
    tracer = tracing.Tracer()
    tracer.install(run.PACKAGE)
    tracer.uninstall()
    missing = declared - run._zero_names(tracer.wrapped)
    assert not missing, sorted(missing)
