"""Command-line front end.

Subcommands: `check` (action validity and regularity, or triple validity),
`homology` (direct, compressed, or both), `verify` (the invariant suite),
and `corpus` (bundled example inputs).  Exit codes are a stable contract:
0 ok, 2 input error, 3 valid-but-non-regular, 4 verification failure (a
failed check, a `both`-mode mismatch or a failed internal self-check).

Each result is the plain data a command prints to `sys.stdout`: the direct
report, `pipeline.compressed_result`'s document and the `checks` outcome
dicts go out as JSON as they are, or through one table printer.

`check` and `homology` run only the production path; the invariant suite
(`checks`, bound lazily) and the corpus load on first use.
"""

import argparse
import importlib.util
import sys
from functools import cache

from .actions import check_regularity, lex_lift, lex_max_lift, quotient, regularize
from .errors import (
    AxiomError,
    InputFormatError,
    InvalidActionError,
    InvalidGeneratorError,
    RegularityError,
    TripleValidationError,
    ZkHomologyError,
)
from .exact import field_rank, parse_field
from .jsonio import dump_json, load_input
from .pipeline import check_generator, compressed_result
from .simplicial import betti_direct, boundary_matrix
from .transfer import build_triple, check_axioms


def _bind_lazily(name):
    """Put submodule `name` in sys.modules and on the package, as an import
    would, but run its body only on first attribute access (LazyLoader)."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)


_bind_lazily("checks")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REGULARITY = 3
EXIT_VERIFY = 4


@cache
def _build_parser():
    """The argument parser, built on first use and kept: parsing fills a
    fresh namespace on every call, so one parser serves every `run`."""
    parser = argparse.ArgumentParser(
        prog="zkhomology",
        description=(
            "Homology of a simplicial complex with a cyclic symmetry, "
            "computed from its quotient."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate the action and test regularity")
    p_hom = sub.add_parser("homology", help="Betti numbers (direct, compressed, or both)")
    p_verify = sub.add_parser("verify", help="run the full invariant suite on the input")
    for p in (p_check, p_hom, p_verify):
        p.add_argument("input", help="JSON input file (action or triple form)")
    for p in (p_hom, p_verify):
        p.add_argument("--field", default="Q", metavar="DESC",
                       help='coefficient field: "Q" or "Fp:<prime>" (default Q)')
        p.add_argument("--format", default="table", choices=["table", "json"],
                       dest="output_format")
        p.add_argument("--regularize", action="store_true",
                       help="double-subdivide a non-regular action first")
    p_hom.add_argument("--generator", type=int, default=1, metavar="C",
                       help="generator exponent, coprime to k (default 1)")
    p_hom.add_argument("--lift", default="lex-min", choices=["lex-min", "lex-max"],
                       dest="lift_policy")
    p_hom.add_argument("--mode", default="compressed",
                       choices=["direct", "compressed", "both"])

    p_corpus = sub.add_parser("corpus", help="bundled example inputs")
    p_corpus.add_argument("name", nargs="?", help="entry to emit (omit with --list)")
    p_corpus.add_argument("--list", action="store_true", dest="list_names")
    p_corpus.add_argument("-o", "--output", help="write the input JSON here (default stdout)")
    return parser


def _lift_for(qd, policy):
    return lex_lift(qd) if policy == "lex-min" else lex_max_lift(qd)


def _regular_quotient(action, auto_regularize):
    """Quotient data of the action, or of its double subdivision when
    `auto_regularize` is set; None, after printing the witness to stderr,
    when the action is non-regular and may not be subdivided."""
    try:
        return quotient(action)
    except RegularityError as exc:
        if exc.witness is None:
            raise
        if not auto_regularize:
            print("non-regular action; witness: " + exc.witness.describe(),
                  file=sys.stderr)
            print("re-run with --regularize to double-subdivide first", file=sys.stderr)
            return None
    print("input action is non-regular; regularizing by double subdivision",
          file=sys.stderr)
    return quotient(regularize(action))


def cmd_check(args):
    kind, payload = load_input(args.input)
    if kind == "triple":
        payload.validate()
        check_axioms(payload)
        print(f"triple: valid (k={payload.k}, "
              f"quotient {payload.quotient.face_counts()})")
        return EXIT_OK
    action = payload
    print(f"action: valid (k={action.k}, complex {action.complex.face_counts()})")
    witness = check_regularity(action)
    if witness is None:
        print("regularity: regular")
        return EXIT_OK
    print("regularity: NON-REGULAR")
    print("witness: " + witness.describe())
    return EXIT_REGULARITY


def _direct_report(X, field):
    ranks = [0] + [field_rank(boundary_matrix(X, d, field)) for d in range(1, X.dim + 1)]
    return {"field": field.name, "mode": "direct", "betti": list(betti_direct(X, field)),
            "per_dim": [{"d": d, "dimC": X.n_simplices(d), "rank": ranks[d]}
                        for d in range(X.dim + 1)]}


def _print_table(doc):
    """The table of a direct report or of a compressed document, which
    adds its provenance and the Smith-form lifts."""
    lifted = "lift" in doc
    head = f"field: {doc['field']}"
    if lifted:
        head += f"   k: {doc['k']}   generator: {doc['generator']}   lift: {doc['lift']}"
    print(head)
    print("  d   dim C_d   rank d_d   beta_d" + ("   snf lifts" if lifted else ""))
    for r, b in zip(doc["per_dim"], doc["betti"]):
        line = f"  {r['d']}   {r['dimC']:7d}   {r['rank']:8d}   {b:6d}"
        if lifted:
            line += "   [" + ", ".join(r["snf_lifts"]) + "]" if r["snf_lifts"] else "   -"
        print(line)
    print(f"{'compressed' if lifted else 'direct'} betti: {doc['betti']}")


def cmd_homology(args):
    field = parse_field(args.field)
    kind, payload = load_input(args.input)
    if kind == "triple" and args.mode != "compressed":
        print("triple inputs carry no acted-on complex; only "
              "--mode compressed applies", file=sys.stderr)
        return EXIT_INPUT
    check_generator(args.generator, payload.k)

    direct = None
    if args.mode in ("direct", "both"):
        # The oracle runs on the complex as given; subdivision never changes it.
        direct = _direct_report(payload.complex, field)
    if args.mode == "direct":
        if args.output_format == "json":
            print(dump_json(direct))
        else:
            _print_table(direct)
        return EXIT_OK

    if kind == "triple":
        triple, policy = payload, "(given triple)"
        triple.validate()
        check_axioms(triple)
    else:
        qd = _regular_quotient(payload, args.regularize)
        if qd is None:
            return EXIT_REGULARITY
        policy = args.lift_policy
        triple = build_triple(qd.action, lift=_lift_for(qd, policy), qd=qd)
    doc = compressed_result(triple, field, generator_exponent=args.generator,
                            lift_policy=policy)
    match = direct is None or doc["betti"] == direct["betti"]
    if args.output_format == "json":
        if kind == "action":
            doc["mode"] = args.mode
        if direct is not None:
            doc["direct_betti"] = direct["betti"]
            doc["match"] = match
        print(dump_json(doc))
    elif direct is None:
        _print_table(doc)
    else:
        _print_table(direct)
        _print_table(doc)
        print("MATCH" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_VERIFY


def cmd_verify(args):
    from .checks import run_action_suite, run_triple_suite

    field = parse_field(args.field)
    try:
        kind, payload = load_input(args.input)
    except TripleValidationError as exc:
        # an S order that does not divide k fails at parse
        kind, payload = "triple", exc
    if kind == "triple":
        outcomes = run_triple_suite(payload, field)
    else:
        qd = _regular_quotient(payload, args.regularize)
        if qd is None:
            return EXIT_REGULARITY
        outcomes = run_action_suite(qd, field)

    ok = all(o["ok"] for o in outcomes)
    if args.output_format == "json":
        print(dump_json({"field": field.name, "ok": ok, "checks": outcomes}))
    else:
        for o in outcomes:
            tail = f": {o['detail']}" if o["detail"] else ""
            print(f"{'PASS' if o['ok'] else 'FAIL'} {o['name']}{tail}")
        print("all checks passed" if ok else "VERIFICATION FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_corpus(args):
    from .corpus import entry as corpus_entry, names as corpus_names, to_input_dict

    if args.list_names or not args.name:
        for name in corpus_names():
            e = corpus_entry(name)
            tag = "regular" if e.regular else "non-regular"
            print(f"{name:32s} k={e.k}  betti={list(e.expected_betti)}  [{tag}]")
        return EXIT_OK
    try:
        e = corpus_entry(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_INPUT
    text = dump_json(to_input_dict(e))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"input error: cannot write {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote {args.output}")
    else:
        print(text)
    return EXIT_OK


_DISPATCH = {
    "check": cmd_check,
    "homology": cmd_homology,
    "verify": cmd_verify,
    "corpus": cmd_corpus,
}


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (AxiomError, InputFormatError, InvalidActionError,
            InvalidGeneratorError, TripleValidationError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZkHomologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        # An internal self-check failed: a negative Betti number, the
        # composition check, an SNF self-check or its divisibility chain.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
