"""Seeded inputs, job lists and output checks for the benchmark workloads.

Every input is a complex with a known regular Z_k action (and one known
non-regular one).  The seed relabels the vertex ids by a random
permutation and picks the `--generator` exponent (coprime to k) and the
lift policy; none of these change the Betti numbers, which are
field-independent for every family used here: torus (1, 2, 1), cycle
(1, 1), cone (1, 0, 0).  The program under test only ever sees the JSON
files written by `write_inputs`.

Over Q the cost of one job depends strongly on the vertex order (fraction
and polynomial coefficient growth), so one labelling is a noisy sample.
A workload instance therefore holds VARIANTS[workload] labellings of the
same job list, and a run is made of whole cycles over all of them; per-job medians
over passes are then medians over the same labellings, however fast the
code is.
"""

import json
import os
import random
import re
from dataclasses import dataclass
from math import gcd

TORUS_BETTI = (1, 2, 1)
CYCLE_BETTI = (1, 1)
CONE_BETTI = (1, 0, 0)

EXIT_OK = 0
EXIT_REGULARITY = 3



def grid_torus(rows, shift, cols=3):
    """Triangulated rows x cols grid torus, rotated by `shift` rows."""
    def v(i, j):
        return (i % rows) * cols + (j % cols)

    tris = []
    for i in range(rows):
        for j in range(cols):
            tris.append([v(i, j), v(i + 1, j), v(i, j + 1)])
            tris.append([v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)])
    perm = [((x // cols + shift) % rows) * cols + x % cols for x in range(rows * cols)]
    return tris, perm


def rotated_cycle(k, spacing):
    """Cycle on k * spacing vertices, rotated by `spacing` steps."""
    n = k * spacing
    return [[i, (i + 1) % n] for i in range(n)], [(i + spacing) % n for i in range(n)]


def fixed_apex_cone(k, spacing):
    """Cone over a rotated cycle; the apex (vertex n) is fixed by all of Z_k."""
    n = k * spacing
    tris = [[i, (i + 1) % n, n] for i in range(n)]
    return tris, [(i + spacing) % n for i in range(n)] + [n]


@dataclass(frozen=True)
class Source:
    """One acted-on complex: name, k, maximal simplices, generator images,
    and the Betti numbers of the underlying space."""

    name: str
    k: int
    simplices: list
    perm: list
    betti: tuple


def torus(k, r):
    """(k*r) x 3 grid torus shifted by r rows: a free Z_k action whose
    quotient has 3r vertices."""
    tris, perm = grid_torus(k * r, r)
    return Source(f"torus{k * r}x3_k{k}", k, tris, perm, TORUS_BETTI)


def cycle(k, spacing=3):
    edges, perm = rotated_cycle(k, spacing)
    return Source(f"cycle{k * spacing}_k{k}", k, edges, perm, CYCLE_BETTI)


def cone(k, spacing=3):
    tris, perm = fixed_apex_cone(k, spacing)
    return Source(f"cone{k * spacing}_k{k}", k, tris, perm, CONE_BETTI)


def antipodal_cycle4():
    """The 4-cycle with the antipodal Z_2 action: valid but not regular."""
    edges, perm = rotated_cycle(2, 2)
    return Source("cycle4_antipodal", 2, edges, perm, CYCLE_BETTI)


def relabel(src, rng):
    """Same complex and action under a random renaming of the vertex ids."""
    n = len(src.perm)
    new = list(range(n))
    rng.shuffle(new)
    simplices = [sorted(new[v] for v in s) for s in src.simplices]
    perm = [0] * n
    for v in range(n):
        perm[new[v]] = new[src.perm[v]]
    return Source(src.name, src.k, simplices, perm, src.betti)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must say.

    `route` is "direct", "compressed", "verify" or "check".  `gated` marks
    jobs whose command runs the regularity gate on an action input; it is
    the denominator of `actions.check_regularity.calls_per_job`.
    """

    label: str
    argv: tuple
    route: str
    expect_exit: int
    betti: tuple = None
    gated: bool = False


@dataclass(frozen=True)
class Plan:
    """A workload instance: the files to write, and one job list per
    labelling variant (same labels, same order, different files)."""

    files: dict      # file name -> ("action", source) | ("triple", source, lift)
    variants: tuple  # tuple of job tuples


# Field per action input: across each family both p | k and p ∤ k occur,
# and every field (Q, F2, F3, F5) is used.  The regularity gate costs
# sum over subgroups H of (2^|H| - 1)^(dim+1) per simplex, so each family's
# top rung dominates its time.  The tops stop at cycle k=6 and cone k=4:
# k=7 and k=5 take 2-3 s per check, twice per job, which leaves too few
# passes per run for steady medians.
ACTION_LADDER = (
    (torus(2, 3), "Fp:2"),
    (torus(3, 3), "Fp:3"),
    (torus(4, 3), "Q"),
    (cycle(5), "Fp:5"),
    (cycle(6), "Fp:5"),
    (cone(3), "Q"),
    (cone(4), "Fp:2"),
)

# (k, r, fields): torus of k*r rows shifted by r, so the quotient (3r
# vertices: 9, 12, 15) grows together with k.  It stops at 15: the ring SNF
# of a 21-vertex quotient over Q takes 3 to 10 s depending on the
# labelling.  The 15-vertex rung runs over the primes only: over Q it takes
# 2 to 5 s by labelling, which leaves too few labellings per run for a
# steady compressed_over_direct.
TRIPLE_LADDER = (
    (2, 3, ("Q", "Fp:2", "Fp:3")),
    (3, 4, ("Q", "Fp:2", "Fp:3")),
    (4, 5, ("Fp:2", "Fp:3")),
)

# Verify inputs and their fields: a prime dividing k (the non-semisimple
# case) everywhere, and Q next to it on the small inputs.  Verify over Q
# on the tori is left out: those single jobs take 4.5 s (k=2) and 7 s
# (k=3), which leaves two passes per run and medians too noisy to bound.
# The last field marks the raw non-regular input, run with --regularize.
VERIFY_SUITE = (
    (torus(2, 3), ("Fp:2",), False),
    (torus(3, 3), ("Fp:3",), False),
    (cone(3), ("Q", "Fp:3"), False),
    (cycle(4), ("Q", "Fp:2"), False),
    (antipodal_cycle4(), ("Q", "Fp:2"), True),
)
# Verify on a standalone triple (the 9-vertex quotient of the k=2 torus):
# the only route that runs the triple-structure check.
VERIFY_TRIPLE = (torus(2, 3), "Fp:2")

SHAPES_FILE = "shapes.json"

WORKLOADS = ("action_k_ladder", "triple_quotient_ladder", "verify_suite")

# Labelling variants per workload, one pass each: at this commit one cycle
# over them fills a 30 s run.
VARIANTS = {"action_k_ladder": 4, "triple_quotient_ladder": 6, "verify_suite": 4}


def _field_tag(field):
    return "Q" if field == "Q" else "F" + field.split(":")[1]


def _homology(path, field, mode, c=None, lift=None, fmt="table", extra=()):
    argv = ["homology", path, "--mode", mode, "--field", field]
    if c is not None:
        argv += ["--generator", str(c)]
    if lift is not None:
        argv += ["--lift", lift]
    if fmt == "json":
        argv += ["--format", "json"]
    return tuple(argv) + tuple(extra)


def _variant(workload, rng, path, files, v):
    """Job list of one labelling variant; adds its files to `files`."""
    def pick_generator(k):
        return rng.choice([c for c in range(1, max(k, 2)) if gcd(c, k) == 1])

    def pick_lift():
        return rng.choice(["lex-min", "lex-max"])

    jobs = []
    if workload == "action_k_ladder":
        for base, field in ACTION_LADDER:
            src = relabel(base, rng)
            name = f"{src.name}-v{v}"
            files[name] = ("action", src)
            tag = f"{src.name}/{_field_tag(field)}"
            jobs.append(Job(tag + "/direct", _homology(path(name), field, "direct"),
                            "direct", EXIT_OK, src.betti))
            jobs.append(Job(tag + "/compressed",
                            _homology(path(name), field, "compressed",
                                      pick_generator(src.k), pick_lift(), "json"),
                            "compressed", EXIT_OK, src.betti, gated=True))
    elif workload == "triple_quotient_ladder":
        for k, r, fields in TRIPLE_LADDER:
            src = relabel(torus(k, r), rng)
            tname, aname = f"{src.name}_triple-v{v}", f"{src.name}-v{v}"
            # The triple is built from the labelling the action file has:
            # both routes work on one complex per variant.
            files[tname] = ("triple", src, pick_lift())
            files[aname] = ("action", src)
            c = pick_generator(k)
            for field in fields:
                tag = f"{src.name}/{_field_tag(field)}"
                jobs.append(Job(tag + "/triple",
                                _homology(path(tname), field, "compressed", c, fmt="json"),
                                "compressed", EXIT_OK, src.betti))
                # The same torus and field on the direct route: the base of
                # compressed_over_direct.
                jobs.append(Job(tag + "/direct", _homology(path(aname), field, "direct"),
                                "direct", EXIT_OK, src.betti))
    elif workload == "verify_suite":
        for base, fields, raw_nonregular in VERIFY_SUITE:
            src = relabel(base, rng)
            name = f"{src.name}-v{v}"
            files[name] = ("action", src)
            p = path(name)
            reg = ("--regularize",) if raw_nonregular else ()
            if raw_nonregular:
                jobs.append(Job(f"{src.name}/check", ("check", p), "check",
                                EXIT_REGULARITY, gated=True))
            c, lift = pick_generator(src.k), pick_lift()
            for field in fields:
                tag = f"{src.name}/{_field_tag(field)}"
                jobs.append(Job(tag + "/verify",
                                ("verify", p, "--field", field, "--format", "json") + reg,
                                "verify", EXIT_OK, gated=True))
                jobs.append(Job(tag + "/direct", _homology(p, field, "direct"),
                                "direct", EXIT_OK, src.betti))
                jobs.append(Job(tag + "/compressed",
                                _homology(p, field, "compressed", c, lift, "json", reg),
                                "compressed", EXIT_OK, src.betti, gated=True))
        base, field = VERIFY_TRIPLE
        name = f"{base.name}_triple-v{v}"
        files[name] = ("triple", relabel(base, rng), pick_lift())
        jobs.append(Job(f"{base.name}_triple/{_field_tag(field)}/verify",
                        ("verify", path(name), "--field", field, "--format", "json"),
                        "verify", EXIT_OK))
    else:
        raise ValueError(f"unknown workload {workload!r}; know {', '.join(WORKLOADS)}")
    return tuple(jobs)


def plan(workload, seed, input_dir):
    """Workload instance for a seed; `input_dir` is where the files go."""
    rng = random.Random(f"{workload}:{seed}")
    files = {}

    def path(name):
        return os.path.join(input_dir, name + ".json")

    jobs = tuple(_variant(workload, rng, path, files, v) for v in range(VARIANTS[workload]))
    return Plan(files=files, variants=jobs)


def _shapes(action, qd):
    """Matrix shapes per boundary map d, as (d, m, n, m*k, n*k, |X_d-1|, |X_d|):
    the G-boundary matrix over F[Z_k] (quotient simplices), its expansion
    over F, and the upstairs boundary matrix."""
    k, Y, X = action.k, qd.quotient, action.complex
    return [(d, len(Y.simplices(d - 1)), len(Y.simplices(d)),
             k * len(Y.simplices(d - 1)), k * len(Y.simplices(d)),
             len(X.simplices(d - 1)), len(X.simplices(d)))
            for d in range(1, Y.dim + 1)]


def write_inputs(plan_, input_dir):
    """Write every input file of a plan, and SHAPES_FILE: the matrix shapes
    of each source (of its regularized action, for a non-regular one, as
    --regularize computes on it)."""
    from zkhomology.actions import lex_lift, lex_max_lift, quotient, regularize, validate_action
    from zkhomology.errors import RegularityError
    from zkhomology.jsonio import action_to_dict, triple_to_dict
    from zkhomology.simplicial import build_complex
    from zkhomology.transfer import build_triple

    def quotient_of(action):
        try:
            return action, quotient(action)
        except RegularityError:
            action = regularize(action)
            return action, quotient(action)

    os.makedirs(input_dir, exist_ok=True)
    actions, shapes = {}, {}    # per source name; every labelling has the same shapes
    for name, spec in sorted(plan_.files.items()):
        src = spec[1]
        action = validate_action(build_complex(src.simplices), src.perm, src.k)
        actions.setdefault(src.name, action)
        if spec[0] == "action":
            body = action_to_dict(action)
        else:
            action, qd = quotient_of(action)
            pick = lex_lift if spec[2] == "lex-min" else lex_max_lift
            body = triple_to_dict(build_triple(action, lift=pick(qd), qd=qd))
            shapes.setdefault(src.name, _shapes(action, qd))
        with open(os.path.join(input_dir, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(body, fh)
    for name, action in actions.items():
        if name not in shapes:
            shapes[name] = _shapes(*quotient_of(action))
    with open(os.path.join(input_dir, SHAPES_FILE), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(shapes.items())), fh)


_DIRECT_BETTI = re.compile(r"^direct betti: \[([0-9, ]*)\]$", re.M)


def check_output(job, code, out, err):
    """None if the job's exit code and output are right, else a reason."""
    if "Traceback" in err:
        return "traceback on stderr"
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}"
    if job.route == "check":
        return None if "NON-REGULAR" in out else "no NON-REGULAR verdict"
    if job.route == "direct":
        m = _DIRECT_BETTI.search(out)
        got = tuple(int(b) for b in m.group(1).split(",")) if m else None
    else:
        try:
            body = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON document"
        if job.route == "verify":
            return None if body.get("ok") is True else "verify did not report ok"
        got = tuple(body.get("betti", ()))
    if got != tuple(job.betti):
        return f"betti {got}, expected {tuple(job.betti)}"
    return None
