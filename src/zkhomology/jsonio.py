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
  with simplex keys written as increasing vertex ids joined by commas (the
  one form `simplex_key` writes, so no two keys name one simplex), T* keys
  as "<psi>|<omega>" over codimension-1 face pairs, and S values the orders
  of the isotropy subgroups.

Serialization is canonical (every simplex listed, (dimension, lex) order)
so parse -> serialize -> parse is the identity.

Parsing raises the first error in this order: the top level ("k" a
positive integer, JSON's true is none); an action's "simplices" (lists; a
non-integer vertex anywhere, then the first simplex in file order with a
negative or boolean vertex, none or a repeat), its "generator" (integers,
one per vertex of ids 0..n-1), `validate_action`; a triple's "quotient"
(likewise), S entries in file order (positive order, quotient simplex key,
order dividing k), T* entries ("<psi>|<omega>" keys, integer exponents).
A triple's keys, orders and exponents are checked in bulk; its entries are
read one at a time only when that fails, to name the first error.  Callers
validate a triple, so `verify` reports tampering.
"""

import json
from itertools import chain, repeat

from .actions import validate_action
from .errors import InputFormatError, InvalidSimplexError, TripleValidationError
from .simplicial import build_complex
from .transfer import IsotropyTriple


def simplex_key(s):
    return ",".join(map(str, s))


def parse_simplex_key(text):
    try:
        s = tuple(sorted(map(int, text.split(","))))
    except ValueError:
        s = None
    if s is None or simplex_key(s) != text:
        raise InputFormatError(f"bad simplex key {text!r}")
    return s


def _require(cond, message):
    if not cond:
        raise InputFormatError(message)


def parse_input(data):
    """("action", CyclicAction) or ("triple", IsotropyTriple) from a decoded
    JSON object; InputFormatError on schema problems, action and triple
    validation errors as their own types."""
    _require(isinstance(data, dict), "input must be a JSON object")
    _require("k" in data, 'input needs a top-level "k"')
    k = data["k"]
    _require(type(k) is int and k >= 1, '"k" must be a positive integer')

    if "triple" in data:
        return "triple", _parse_triple(k, data["triple"])

    _require("simplices" in data, 'input needs "simplices" (or "triple")')
    _require("generator" in data, 'action input needs "generator"')
    simplices = data["simplices"]
    int_lists = '"simplices" must be a list of integer lists'
    _require(type(simplices) is list and set(map(type, simplices)) <= {list}, int_lists)
    try:
        X = build_complex(simplices)
    except InvalidSimplexError as exc:
        # a vertex that is no integer anywhere outranks the first bad simplex
        _require(all(isinstance(v, int) for s in simplices for v in s), int_lists)
        raise InputFormatError(f"bad simplex in input: {exc}") from None
    gen = data["generator"]
    _require(
        type(gen) is list and set(map(type, gen)) <= {int},
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
    quotient, S_body, T_body = body["quotient"], body["S"], body["Tstar"]
    _require(
        type(quotient) is list and set(map(type, quotient)) <= {list},
        '"quotient" must be a list of simplices',
    )
    try:
        Y = build_complex(quotient)
    except InvalidSimplexError as exc:
        raise InputFormatError(f"bad quotient simplex: {exc}") from None
    # Keys are read against the quotient's own, each vertex formatted once,
    # and values checked in bulk.  Only a failure runs the loop over entries:
    # it raises the first error, or parses a T* key off the quotient for `validate`.
    names = {v: str(v) for v in Y.vertex_ids}
    keyed = {",".join(map(names.__getitem__, s)): s for s in Y.all_simplices()}

    def parse_key(text):
        return keyed.get(text) or parse_simplex_key(text)

    _require(isinstance(S_body, dict), '"S" must be an object')
    qs, orders = list(map(keyed.get, S_body)), list(S_body.values())
    S = dict(zip(qs, orders))
    if (None in qs or not set(map(type, orders)) <= {int} or min(orders, default=1) < 1
            or any(map(k.__mod__, orders))):
        for key, order in S_body.items():       # raises: some entry is bad
            if type(order) is not int or order < 1:
                raise InputFormatError(f"S[{key!r}] must be a positive integer")
            q = parse_key(key)
            if q not in Y:
                raise InputFormatError(f"S defined on {q}, which is not a quotient simplex")
            if k % order != 0:
                raise TripleValidationError(f"order {order} does not divide k={k}", witness=q)
    _require(isinstance(T_body, dict), '"Tstar" must be an object')
    pairs = [(keyed.get(psi), keyed.get(omega))
             for psi, _, omega in map(str.partition, T_body, repeat("|"))]
    values = list(T_body.values())
    lists = set(map(type, values)) <= {list}
    flat = list(chain.from_iterable(values)) if lists else ()
    if (lists and all(map(all, pairs))      # no None: every key names quotient simplices
            and set(map(type, flat)) <= {int} and min(flat, default=0) >= 0
            and max(flat, default=0) < k):
        Tstar = dict(zip(pairs, values))    # exponents in [0, k); the triple takes frozensets
    else:
        Tstar = {}
        for key, exps in T_body.items():
            psi, bar, omega = key.partition("|")
            if not bar:
                raise InputFormatError(f'Tstar key {key!r} must look like "<psi>|<omega>"')
            pair = (parse_key(psi), parse_key(omega))
            if type(exps) is not list or not set(map(type, exps)) <= {int}:
                raise InputFormatError(f"Tstar[{key!r}] must be a list of exponents")
            Tstar[pair] = frozenset(map(k.__rmod__, exps))      # each c % k
    return IsotropyTriple(k, Y, S, Tstar)


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
            "S": {simplex_key(q): triple.S[q] for q in Y.all_simplices()},
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
