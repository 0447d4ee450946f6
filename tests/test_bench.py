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


def test_declared_per_layer_names_are_traced_in_a_fresh_interpreter():
    # The test above shares its interpreter with the rest of the suite,
    # which may have imported a layer the CLI alone does not run.  Here
    # only what importing the CLI binds is there to wrap, as in a run of
    # `bench/run.py --trace 1` whose jobs never call `verify`.
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(BENCH)!r})",
        "import run, tracing",
        "run._import_cli()",
        "spec = json.loads((run.ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))",
        "declared = {m['name'] for m in spec['per_layer']",
        "            if m['name'].endswith(('.calls', '.total_s', '.self_s'))}",
        "tracer = tracing.Tracer()",
        "tracer.install(run.PACKAGE)",
        "tracer.uninstall()",
        "print(sorted(declared - run._zero_names(tracer.wrapped)))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip() == "[]"
