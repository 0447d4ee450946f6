"""Benchmark of the zkhomology command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real entry point, `zkhomology.cli.run(argv)`, in process and in
one closed loop: one client, one job at a time, no threads.  Inputs are
generated from the seed in a child process (untimed) and written as JSON;
the program only ever reads those files.  Every job's exit code and output
are checked.  A run is made of whole cycles, one pass over the job list
per labelling variant (workloads.VARIANTS), repeated while another cycle
is expected to end within S seconds; at least one cycle.

Workloads (see workloads.py):
  action_k_ladder         action inputs whose quotient stays small while k
                          grows; homology --mode direct and compressed
  triple_quotient_ladder  standalone triples with quotients of 9 to 15
                          vertices, next to the direct route on the same tori
  verify_suite            verify on small regular inputs, the regularized
                          antipodal 4-cycle and one standalone triple, next to
                          homology on the same action inputs

With --trace 0 the end-to-end metrics named in BENCHMARK.json are
reported, from untraced passes; set-up time is measured in fresh
interpreters (setup_probe.py).  With --trace 1 each of the first half of
the variants gets an untraced and a traced pass, and the per-layer
metrics are reported (tracing.py); the spans are written to bench/_work/.
Human-readable tables go to stdout first; the last line of stdout is one
JSON object.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "zkhomology"
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10
# Every end-to-end metric is printed; the JSON result carries the ones
# BENCHMARK.json declares (the others are too noisy here to bound).
E2E_UNITS = {"wall_s": "s", "compressed_s": "s", "direct_s": "s",
             "compressed_over_direct": "ratio", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _import_cli():
    sys.path.insert(0, str(SRC))
    from zkhomology import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {cli.__file__}, not {SRC}")
    return cli


def _generate(workload, seed, work):
    subprocess.run([sys.executable, str(BENCH / "generate.py"), str(SRC),
                    workload, str(seed), str(work)],
                   check=True, timeout=CHILD_TIMEOUT_S)


def _setup_seconds(files):
    """Median over fresh interpreters of import + parsing every input."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, files)],
            check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
        ).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return statistics.median(samples)


def _run_job(run, job):
    """(seconds, failure reason or None) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(job.argv))
    except SystemExit as exc:           # argparse rejects bad flags this way
        code = exc.code
    except Exception:                   # any escape is a failed job, not a crash
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return seconds, workloads.check_output(job, code, out.getvalue(), err.getvalue())


def _run_pass(run, jobs, tracer=None):
    """One pass over the job list: wall time, per-job seconds and failures."""
    times, failures = [], []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        seconds, failure = _run_job(run, job)
        times.append(seconds)
        if failure is not None:
            failures.append((job.label, failure))
    return {"wall": time.perf_counter() - t0, "times": times, "failures": failures}


def _cycles(seconds, variants, one_pass):
    """one_pass(jobs) for the job list of every variant, in cycles, while
    another cycle is expected to end within `seconds`; at least one cycle.
    Every run thus weighs each labelling equally, however fast the code is."""
    results, cycles, t0 = [], 0, time.perf_counter()
    while True:
        results.extend(one_pass(jobs) for jobs in variants)
        cycles += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / cycles > seconds:
            return results


def _route_sum(jobs, times, route):
    return sum(t for job, t in zip(jobs, times) if job.route == route)


def _tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond)."""
    xs = sorted(samples)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - i - 1


def _end_to_end(jobs, passes, setup_s):
    """End-to-end metrics; job latencies are over every job of every pass."""
    med = statistics.median
    compressed = med(_route_sum(jobs, p["times"], "compressed") for p in passes)
    direct = med(_route_sum(jobs, p["times"], "direct") for p in passes)
    samples = [t for p in passes for t in p["times"]]
    tail, pct, beyond = _tail(samples)
    notes = [f"job_p50_s and job_tail_s over {len(samples)} job samples "
             f"({len(jobs)} jobs x {len(passes)} passes); job_tail_s is p{pct:.1f} "
             f"({beyond} samples beyond it)",
             "pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in passes)]
    return {
        "wall_s": med(p["wall"] for p in passes),
        "compressed_s": compressed,
        "direct_s": direct,
        "compressed_over_direct": compressed / direct,
        "job_p50_s": med(samples),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }, notes


def _src_loc():
    pkg = SRC / PACKAGE
    loc = {f"src.{f.stem}.loc": len(f.read_text(encoding="utf-8").splitlines())
           for f in sorted(pkg.glob("*.py"))}
    loc["src.total.loc"] = sum(loc.values())
    return loc


def _per_layer(jobs, traced, untraced, cells):
    """Per-layer metrics from the traced passes, per pass."""
    n = len(traced)
    funcs = {}
    for t in traced:
        for name, f in tracing.summarize(t["spans"])[0].items():
            acc = funcs.setdefault(name, dict.fromkeys(f, 0))
            for key, value in f.items():
                acc[key] += value
    m = {}
    for name, f in funcs.items():
        m[f"{name}.calls"] = f["calls"] / n
        m[f"{name}.total_s"] = f["total_s"] / n
        m[f"{name}.self_s"] = f["self_s"] / n
        layer = name.split(".")[0]
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + f["self_s"] / n
    gated = sum(job.gated for job in jobs)
    calls = m.get("actions.check_regularity.calls", 0.0)
    m["actions.check_regularity.calls_per_job"] = calls / gated if gated else 0.0
    snf = m.get("ring_snf.snf_over_R.total_s", 0.0)
    m["ring_snf.cert_share"] = m.get("exact.field_rank.cert.total_s", 0.0) / snf if snf else 0.0
    m["pipeline.cells_down"] = cells[0] / n
    m["pipeline.cells_up"] = cells[1] / n
    m["pipeline.compression_ratio"] = cells[1] / cells[0] if cells[0] else 0.0
    traced_wall = statistics.median(t["wall"] for t in traced)
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    # Each traced pass follows an untraced pass over the same inputs.
    m["trace.overhead_s"] = statistics.median(
        t["wall"] - u["wall"] for t, u in zip(traced, untraced))
    m.update(_src_loc())
    return m, funcs, (traced_wall, untraced_wall)


def _zero_names(wrapped):
    """Metrics that are 0, not missing, when no span produced them: the
    counters of every function the tracer wrapped, and layer self times."""
    names = {f"{layer}.self_s" for layer in tracing.LAYERS}
    for func in wrapped:
        for rep in tracing.reported_names(func):
            names.update(f"{rep}.{key}" for key in ("calls", "total_s", "self_s"))
    return names


def _pick(declared, computed, zero_names=frozenset()):
    """Declared metrics in declaration order, with their declared units.

    A metric in `zero_names` that was not computed is 0; any other missing
    metric (a misspelled name, a function the tracer did not wrap) is an
    error in the benchmark.
    """
    out = {}
    for spec in declared:
        name = spec["name"]
        if name in computed:
            value = computed[name]
        elif name in zero_names:
            value = 0.0
        else:
            raise KeyError(f"metric {name} was not computed")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def _print_jobs(jobs, passes, work):
    """Per-job median times, matrix shapes per input and src/ LOC."""
    print(f"{'job':44s} {'median s':>9s}")
    for i, job in enumerate(jobs):
        print(f"{job.label:44s} {statistics.median(p['times'][i] for p in passes):9.4f}")
    print("matrix shapes per input: d  downstairs m x n over F[Z_k]  "
          "expanded mk x nk  upstairs |X_d-1| x |X_d|")
    with open(work / workloads.SHAPES_FILE, encoding="utf-8") as fh:
        shapes = json.load(fh)
    for name, rows in shapes.items():
        for d, m, n, mk, nk, up_m, up_n in rows:
            print(f"  {name:28s} d={d}  {m:4d} x {n:<4d}  {mk:5d} x {nk:<5d}  "
                  f"{up_m:5d} x {up_n:<5d}")
    print("src lines per module: " + ", ".join(
        f"{k.split('.')[1]} {v}" for k, v in _src_loc().items()))


def _print_trace(jobs, funcs, per_job, walls):
    print(f"median traced pass {walls[0]:.4f} s, median untraced pass {walls[1]:.4f} s")
    print(f"{'function (summed over traced passes)':48s} {'calls':>7s} {'total s':>9s} "
          f"{'self s':>9s}")
    for name, f in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48s} {f['calls']:7d} {f['total_s']:9.4f} {f['self_s']:9.4f}")
    print("self time per job (first traced pass): top layers, top function")
    for i, job in enumerate(jobs):
        j = per_job.get(i)
        if j is None:
            continue
        total = sum(j["layers"].values()) or 1.0
        layers = sorted(j["layers"].items(), key=lambda kv: -kv[1])[:3]
        top = max(j["funcs"].items(), key=lambda kv: kv[1])
        print(f"  {job.label:40s} {total:8.4f} s  "
              + "  ".join(f"{k} {100 * v / total:.0f}%" for k, v in layers)
              + f"  | {top[0]} {100 * top[1] / total:.0f}%")


def main(argv=None):
    args = _args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    _generate(args.workload, args.seed, work)
    plan = workloads.plan(args.workload, args.seed, str(work))
    variants = plan.variants
    jobs = variants[0]          # labels, routes and expectations
    files = [work / f"{name}.json" for name in sorted(plan.files)]
    setup_s = _setup_seconds(files) if not args.trace else None
    cli = _import_cli()

    if not args.trace:
        passes = _cycles(args.seconds, variants, lambda v: _run_pass(cli.run, v))
        failures = [f for p in passes for f in p["failures"]]
        attempted = len(jobs) * len(passes)
        computed, notes = _end_to_end(jobs, passes, setup_s)
        _print_jobs(jobs, passes, work)
        metrics = _pick(end_to_end, computed)
        shown = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in computed.items()}
    else:
        cells = [0, 0]

        def count_cells(M):
            cells[0] += M.rows * M.cols
            cells[1] += M.rows * M.cols * M.k * M.k

        untraced, traced, wrapped = [], [], set()

        def one_pair(variant):
            untraced.append(_run_pass(cli.run, variant))
            tracer = tracing.Tracer(observe={"pipeline.g_boundary_matrix": count_cells})
            tracer.install(PACKAGE)
            try:
                result = _run_pass(cli.run, variant, tracer)
            finally:
                tracer.uninstall()
            result["spans"] = tracer.spans
            traced.append(result)
            wrapped.update(tracer.wrapped)

        # Half the variants, each run untraced and traced: as many passes
        # as an untraced run makes.
        _cycles(args.seconds, variants[:len(variants) // 2], one_pair)
        passes = untraced + traced
        failures = [f for p in passes for f in p["failures"]]
        attempted = len(jobs) * len(passes)
        computed, funcs, walls = _per_layer(jobs, traced, untraced, cells)
        _print_jobs(jobs, untraced, work)
        _print_trace(jobs, funcs, tracing.summarize(traced[0]["spans"])[1], walls)
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"jobs": [job.label for job in jobs],
                       "passes": [t["spans"] for t in traced]}, fh)
        notes = [f"{len(traced)} traced and {len(untraced)} untraced pass(es) "
                 f"of {len(jobs)} jobs; spans in {work / 'spans.json'}"]
        metrics = _pick(per_layer, computed, _zero_names(wrapped))
        shown = metrics

    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    print(f"error_rate: {len(failures) / attempted:.4f} ({len(failures)} of {attempted} jobs)")
    for note in notes:
        print(note)
    for name, m in shown.items():
        tag = "" if name in metrics else "  (printed only)"
        print(f"{name}: {m['value']:.6g} {m['unit']}{tag}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
