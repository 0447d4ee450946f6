"""Byte-identity sweep of the command-line interface.

    python tools/cli_sweep.py SRC_DIR

Imports `zkhomology` from SRC_DIR (a checkout's `src/`), writes every
corpus entry, the isotropy triple of each entry (of its double subdivision
when the action is not regular) and up to six tampered copies of that
triple (three add a T* key that is no face pair), four damaged action
files, the 9x3 torus at k = 3 under a fixed vertex shuffle, and the triples
of the lens covers (k, s) = (2, 2) and (3, 2), into a temporary directory.
A lens cover's unit pivots leave cores of several lines, so the pivot
order shapes what the polynomial Smith form gets.  On the shuffled torus
the orbit walks run out of complex order.  It runs, in this process and
on every file: `check`; `homology` in each mode, format and lift; and
`verify` as a table, as JSON and with `--regularize`; `homology` and
`verify` over Q, F2, F3 and F5; and `homology` as JSON with `--generator`
set to each exponent coprime to k, over each field.  It prints the number
of runs and one sha256 over the argv, exit code, stdout and stderr of
every run, in order.  Two checkouts that print the same line answer every
one of these runs byte for byte alike.  Standard library only.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
from math import gcd

FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5")
LENS_COVERS = ((2, 2), (3, 2))

# Action files that `validate_action` rejects, one per failure.  The walk
# from (0, 1) in the first meets the non-simplex (1, 4) before complex order
# reaches the first failure, (0, 3).
DAMAGED_ACTIONS = {
    "not_simplicial": {"k": 3, "simplices": [[0, 1], [0, 3], [1, 2], [4]],
                       "generator": [2, 1, 4, 3, 0]},
    "order_not_dividing_k": {"k": 2, "simplices": [[0, 1, 2]], "generator": [1, 2, 0]},
    "image_repeats": {"k": 2, "simplices": [[0, 1], [1, 2]], "generator": [2, 2, 0]},
    "image_not_a_vertex": {"k": 2, "simplices": [[0, 1], [1, 2]], "generator": [2, 1, 3]},
}


def _tampered(body):
    # Damaged copies of a serialized triple: the first T* set shifted by one
    # (a coset still, so validation may pass while the axioms fail), the
    # last T* entry dropped, and the last simplex given the whole group.
    # Three more add a T* key that is no face pair, for validation's scan of
    # the keys: one whose coface lies off the quotient, and, where the
    # quotient has one, a pair (psi, w) of the first key's coface and a
    # simplex w of the face's size that is no face of it, nonempty (a stray)
    # and empty (still valid).
    k, (first, *_, last) = body["k"], body["triple"]["Tstar"]
    shifted, dropped, whole = (copy.deepcopy(body) for _ in range(3))
    tstar = shifted["triple"]["Tstar"]
    tstar[first] = sorted((c + 1) % k for c in tstar[first])
    del dropped["triple"]["Tstar"][last]
    whole["triple"]["S"][list(body["triple"]["S"])[-1]] = k
    damaged = {"shifted": shifted, "dropped": dropped, "whole": whole}
    quotient = body["triple"]["quotient"]
    psi, omega = first.split("|")
    coface = list(map(int, psi.split(",")))
    beyond = 1 + max(v for s in quotient for v in s)
    extra = {"off_quotient": (f"{omega},{beyond}|{omega}", [0])}
    for w in quotient:
        if len(w) == len(coface) - 1 and not set(w) <= set(coface):
            w_key = ",".join(map(str, w))
            extra.update(stray=(f"{psi}|{w_key}", [0]), empty_key=(f"{psi}|{w_key}", []))
            break
    for how, (key, exps) in extra.items():
        damaged[how] = copy.deepcopy(body)
        damaged[how]["triple"]["Tstar"][key] = exps
    return damaged


def _lens_cover(k, s):
    """S^3 = C_n * C_n, n = k s, under a_i -> a_(i+s), b_j -> b_(j+s),
    subdivided once: a regular Z_k action whose quotient is L(k, 1)."""
    from zkhomology import actions, simplicial

    n = k * s
    tets = [{i, (i + 1) % n, n + j, n + (j + 1) % n} for i in range(n) for j in range(n)]
    perm = [(i + s) % n for i in range(n)] + [n + (j + s) % n for j in range(n)]
    action = actions.validate_action(simplicial.build_complex(tets), perm, k)
    return actions.induced_subdivision_action(action)


def _shuffled_torus(k=3, shift=3, cols=3):
    """The (k shift) x cols grid torus under the shift by `shift` rows, its
    vertex v relabelled 7 v + 5 mod n: a free Z_k action whose orbits are
    walked in an order other than their complex order."""
    rows = k * shift
    n = rows * cols

    def v(i, j):
        return (7 * ((i % rows) * cols + j % cols) + 5) % n

    tris = [tri for i in range(rows) for j in range(cols)
            for tri in ([v(i, j), v(i + 1, j), v(i, j + 1)],
                        [v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)])]
    perm = [0] * n
    for i in range(rows):
        for j in range(cols):
            perm[v(i, j)] = v(i + shift, j)
    return {"k": k, "simplices": tris, "generator": perm}


def write_inputs(directory):
    """Write the sweep's input files into `directory`; returns the action
    files and the triple files, as names relative to it, and the k of each."""
    from zkhomology import actions, corpus, jsonio, transfer

    documents, action_files, triple_files = {}, [], []
    for name in corpus.names():
        e = corpus.entry(name)
        action = corpus.build_action(e)
        documents[f"{name}.json"] = corpus.to_input_dict(e)
        action_files.append(f"{name}.json")
        if actions.check_regularity(action) is not None:
            action = actions.regularize(action)
        body = jsonio.triple_to_dict(transfer.build_triple(action))
        documents[f"{name}.triple.json"] = body
        triple_files.append(f"{name}.triple.json")
        for how, damaged in _tampered(body).items():
            documents[f"{name}.triple.{how}.json"] = damaged
            triple_files.append(f"{name}.triple.{how}.json")
    for how, document in DAMAGED_ACTIONS.items():
        documents[f"damaged.{how}.json"] = document
        action_files.append(f"damaged.{how}.json")
    documents["torus9x3_k3_shuffled.json"] = _shuffled_torus()
    action_files.append("torus9x3_k3_shuffled.json")
    for k, s in LENS_COVERS:
        name = f"lens_cover_{k}_{s}.triple.json"
        documents[name] = jsonio.triple_to_dict(transfer.build_triple(_lens_cover(k, s)))
        triple_files.append(name)
    for file_name, document in documents.items():
        with open(os.path.join(directory, file_name), "w", encoding="utf-8") as fh:
            json.dump(document, fh)
    ks = {name: document["k"] for name, document in documents.items()}
    return action_files, triple_files, ks


def argvs(action_files, triple_files, ks):
    """Every command line of the sweep, in order."""
    for f in action_files + triple_files:
        yield ["check", f]
        for field in FIELDS:
            for mode in ("direct", "compressed", "both"):
                for fmt in ("table", "json"):
                    for lift in ("lex-min", "lex-max"):
                        yield ["homology", f, "--field", field, "--mode", mode,
                               "--format", fmt, "--lift", lift]
            yield ["verify", f, "--field", field]
            yield ["verify", f, "--field", field, "--format", "json"]
            yield ["verify", f, "--field", field, "--regularize"]
        for c in range(1, ks[f] + 1):
            if gcd(c, ks[f]) == 1:
                for field in FIELDS:
                    yield ["homology", f, "--field", field, "--format", "json",
                           "--generator", str(c)]


def run_one(cli, argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:       # argparse rejects the line
            code = exc.code
        except Exception as exc:        # an escape from the exit contract
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def sweep(src_dir):
    """(number of runs, sha256 hex digest) of the sweep over `src_dir`."""
    sys.path.insert(0, os.path.abspath(src_dir))
    from zkhomology import cli

    digest, count, cwd = hashlib.sha256(), 0, os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)     # argv and messages carry bare file names
        try:
            files = write_inputs(directory)
            for argv in argvs(*files):
                code, out, err = run_one(cli, argv)
                digest.update(repr((argv, code, out, err)).encode())
                count += 1
        finally:
            os.chdir(cwd)
    return count, digest.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/cli_sweep.py SRC_DIR", file=sys.stderr)
        return 2
    count, hexdigest = sweep(argv[0])
    print(f"{count} runs sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
