"""JSON input/output schemas for the command line.

One input schema covers both forms:

* complex + action:
    {"k": 2, "simplices": [[0, 1], [1, 2]], "generator": [2, 1, 0]}
  where "generator" lists the image of vertex i at position i (vertex ids
  must be 0..n-1), and

* standalone triple (homology from the quotient alone, the acted-on
  complex never materialized):
    {"k": 2, "triple": {"quotient": [[0, 1]],
                        "S": {"0": 1, "1": 2, "0,1": 1},
                        "Tstar": {"0,1|0": [0], "0,1|1": [0, 1]}}}
  with simplex keys written as comma-joined vertex ids, T* keys as
  "<psi>|<omega>" over codimension-1 face pairs, and S values the orders
  of the isotropy subgroups.

Serialization is canonical (every simplex listed, (dimension, lex) order)
so parse -> serialize -> parse is the identity.
"""

import json

from .actions import Subgroup, validate_action
from .errors import InputFormatError, InvalidSimplexError, TripleValidationError
from .simplicial import build_complex
from .transfer import IsotropyTriple


def simplex_key(s):
    return ",".join(str(v) for v in s)


def parse_simplex_key(text):
    try:
        return tuple(sorted(int(v) for v in text.split(",")))
    except ValueError:
        raise InputFormatError(f"bad simplex key {text!r}") from None


def _require(cond, message):
    if not cond:
        raise InputFormatError(message)


def _is_int(v):
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_input(data):
    """Parse a decoded JSON object into an action or a triple.

    Returns ("action", CyclicAction) or ("triple", IsotropyTriple).
    Raises InputFormatError on schema problems; action/triple validation
    errors propagate as their own types.
    """
    _require(isinstance(data, dict), "input must be a JSON object")
    _require("k" in data, 'input needs a top-level "k"')
    k = data["k"]
    _require(_is_int(k) and k >= 1, '"k" must be a positive integer')

    if "triple" in data:
        return "triple", _parse_triple(k, data["triple"])

    _require("simplices" in data, 'input needs "simplices" (or "triple")')
    _require("generator" in data, 'action input needs "generator"')
    simplices = data["simplices"]
    _require(
        isinstance(simplices, list)
        and all(isinstance(s, list) and all(isinstance(v, int) for v in s)
                for s in simplices),
        '"simplices" must be a list of integer lists',
    )
    try:
        X = build_complex(simplices)
    except InvalidSimplexError as exc:
        raise InputFormatError(f"bad simplex in input: {exc}") from None
    gen = data["generator"]
    _require(
        isinstance(gen, list) and all(_is_int(v) for v in gen),
        '"generator" must be a list of integers',
    )
    n = X.n_simplices(0)
    _require(
        X.vertex_ids == tuple(range(n)),
        "action inputs need contiguous vertex ids 0..n-1",
    )
    _require(
        len(gen) == n,
        f'"generator" must list an image for each of the {n} vertices',
    )
    return "action", validate_action(X, gen, k)


def _parse_triple(k, body):
    _require(isinstance(body, dict), '"triple" must be an object')
    for key in ("quotient", "S", "Tstar"):
        _require(key in body, f'"triple" needs "{key}"')
    _require(
        isinstance(body["quotient"], list)
        and all(isinstance(s, list) for s in body["quotient"]),
        '"quotient" must be a list of simplices',
    )
    try:
        Y = build_complex(body["quotient"])
    except InvalidSimplexError as exc:
        raise InputFormatError(f"bad quotient simplex: {exc}") from None
    S = {}
    _require(isinstance(body["S"], dict), '"S" must be an object')
    for key, order in body["S"].items():
        _require(_is_int(order) and order >= 1, f"S[{key!r}] must be a positive integer")
        q = parse_simplex_key(key)
        _require(q in Y, f"S defined on {q}, which is not a quotient simplex")
        try:
            S[q] = Subgroup(k, order)
        except ValueError as exc:
            raise TripleValidationError(str(exc), witness=q) from None
    Tstar = {}
    _require(isinstance(body["Tstar"], dict), '"Tstar" must be an object')
    for key, exps in body["Tstar"].items():
        _require("|" in key, f'Tstar key {key!r} must look like "<psi>|<omega>"')
        pk, ok_ = key.split("|", 1)
        pair = (parse_simplex_key(pk), parse_simplex_key(ok_))
        _require(
            isinstance(exps, list) and all(_is_int(c) for c in exps),
            f"Tstar[{key!r}] must be a list of exponents",
        )
        Tstar[pair] = frozenset(c % k for c in exps)
    # Semantic validation is the caller's business: the verify command must
    # be able to report a tampered triple instead of dying on parse.
    return IsotropyTriple(k, Y, S, Tstar, validate=False)


def action_to_dict(action):
    """Canonical action serialization (every simplex, (dim, lex) order)."""
    X = action.complex
    n = X.n_simplices(0)
    return {
        "k": action.k,
        "simplices": [list(s) for s in X.all_simplices()],
        "generator": [action.perm[v] for v in range(n)],
    }


def triple_to_dict(triple):
    """Canonical triple serialization."""
    Y = triple.quotient
    return {
        "k": triple.k,
        "triple": {
            "quotient": [list(s) for s in Y.all_simplices()],
            "S": {simplex_key(q): triple.S[q].order for q in Y.all_simplices()},
            "Tstar": {
                f"{simplex_key(psi)}|{simplex_key(omega)}": sorted(v)
                for (psi, omega), v in sorted(triple.Tstar.items())
            },
        },
    }


def load_input(path):
    """Read and parse an input file; IO and JSON errors become
    InputFormatError so the CLI can map them to exit code 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from None
    return parse_input(data)


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=False)
