"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

Usage (from the repository root): python3 bench/smoke.py

Checks that the seeded generators give regular actions with the expected
Betti numbers for two seeds, that the output checks count a deliberately
wrong expectation as a failed job, and that the tracer records spans and
puts every patched name back.  Exits 1 on the first failed check.
"""

import random
import sys
import tempfile
from dataclasses import replace

import run
import tracing
import workloads

TINY = (
    workloads.torus(2, 3),
    workloads.cycle(3),
    workloads.cone(2),
)


def check(cond, message):
    if not cond:
        print("FAIL " + message)
        sys.exit(1)
    print("ok   " + message)


def main():
    cli = run._import_cli()
    from zkhomology.actions import check_regularity, validate_action
    from zkhomology.exact import GF, QQ
    from zkhomology.pipeline import compressed_betti
    from zkhomology.simplicial import betti_direct, build_complex
    from zkhomology.transfer import build_triple

    for seed in (1, 2):
        rng = random.Random(seed)
        for base in TINY:
            src = workloads.relabel(base, rng)
            action = validate_action(build_complex(src.simplices), src.perm, src.k)
            check(check_regularity(action) is None, f"seed {seed}: {src.name} is regular")
            triple = build_triple(action)
            for field in (QQ, GF(2)):
                got = (betti_direct(action.complex, field), compressed_betti(triple, field))
                check(got == (src.betti, src.betti),
                      f"seed {seed}: {src.name} over {field.name} has Betti {src.betti}")
        anti = workloads.relabel(workloads.antipodal_cycle4(), rng)
        action = validate_action(build_complex(anti.simplices), anti.perm, anti.k)
        check(check_regularity(action) is not None,
              f"seed {seed}: raw antipodal 4-cycle is non-regular")

    work = run.BENCH / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        plan = workloads.plan("verify_suite", 1, tmp)
        small = {name: f for name, f in plan.files.items() if name.startswith("cycle")}
        workloads.write_inputs(workloads.Plan(small, ()), tmp)
        jobs = [j for j in plan.variants[0]
                if j.label.startswith("cycle") and j.route != "verify"]
        right = run._run_pass(cli.run, jobs)
        check(not right["failures"] and len(jobs) >= 6,
              f"{len(jobs)} tiny jobs pass their output checks")
        wrong = [replace(j, betti=(9, 9)) if j.betti else replace(j, expect_exit=0)
                 for j in jobs]
        bad = run._run_pass(cli.run, wrong)
        check(len(bad["failures"]) == len(wrong),
              f"wrong expectations fail all {len(wrong)} jobs (error_rate 1.0)")

        original = cli.check_regularity
        tracer = tracing.Tracer()
        tracer.install(run.PACKAGE)
        try:
            traced = run._run_pass(cli.run, jobs, tracer)
        finally:
            tracer.uninstall()
        funcs, _ = tracing.summarize(tracer.spans)
        check(not traced["failures"] and funcs["actions.check_regularity"]["calls"] > 0,
              "traced pass records actions.check_regularity")
        check(cli.check_regularity is original, "tracer restores patched names")


if __name__ == "__main__":
    main()
