import hashlib

import pytest

from zkhomology import transfer
from zkhomology.actions import check_regularity, lex_lift, lex_max_lift, quotient, regularize
from zkhomology.corpus import build_action, entry, names, regular_entries
from zkhomology.errors import (
    AxiomError,
    InputFormatError,
    InvalidActionError,
    TripleValidationError,
    ZkHomologyError,
)
from zkhomology.jsonio import dump_json, parse_input, parse_simplex_key, simplex_key, triple_to_dict
from zkhomology.transfer import build_triple, check_axioms

from grids import lens_cover


GOOD_TRIPLE = {
    "k": 2,
    "triple": {
        "quotient": [[0, 1]],
        "S": {"0": 1, "1": 2, "0,1": 1},
        "Tstar": {"0,1|0": [0], "0,1|1": [0, 1]},
    },
}


def _with(body, **edits):
    import copy
    out = copy.deepcopy(body)
    out.update(edits)
    return out


class TestSimplexKeys:
    def test_roundtrip(self):
        for s in [(0,), (0, 1), (2, 5, 9)]:
            assert parse_simplex_key(simplex_key(s)) == s

    def test_bad_key(self):
        with pytest.raises(InputFormatError):
            parse_simplex_key("0,x")


class TestActionSchema:
    def test_minimal(self):
        kind, action = parse_input(
            {"k": 2, "simplices": [[0, 1], [1, 2]], "generator": [2, 1, 0]})
        assert kind == "action" and action.k == 2

    def test_missing_k(self):
        with pytest.raises(InputFormatError):
            parse_input({"simplices": [[0]], "generator": [0]})

    def test_bad_k(self):
        with pytest.raises(InputFormatError):
            parse_input({"k": 0, "simplices": [[0]], "generator": [0]})

    def test_generator_length(self):
        with pytest.raises(InputFormatError, match="each of the 3"):
            parse_input({"k": 2, "simplices": [[0, 1], [1, 2]], "generator": [2, 1]})

    def test_non_contiguous_vertices(self):
        with pytest.raises(InputFormatError, match="contiguous"):
            parse_input({"k": 1, "simplices": [[0, 5]], "generator": [0, 5]})

    def test_bad_simplex(self):
        with pytest.raises(InputFormatError):
            parse_input({"k": 1, "simplices": [[]], "generator": []})

    def test_non_integer_entries(self):
        with pytest.raises(InputFormatError):
            parse_input({"k": 1, "simplices": [["a"]], "generator": [0]})


class TestTripleSchema:
    def test_minimal(self):
        kind, triple = parse_input(GOOD_TRIPLE)
        assert kind == "triple"
        triple.validate()

    def test_missing_section(self):
        body = _with(GOOD_TRIPLE)
        del body["triple"]["Tstar"]
        with pytest.raises(InputFormatError, match="Tstar"):
            parse_input(body)

    def test_s_on_unknown_simplex(self):
        body = _with(GOOD_TRIPLE)
        body["triple"]["S"]["5"] = 1
        with pytest.raises(InputFormatError, match="not a quotient simplex"):
            parse_input(body)

    def test_s_order_must_divide_k(self):
        body = _with(GOOD_TRIPLE)
        body["triple"]["S"]["1"] = 3
        with pytest.raises(TripleValidationError):
            parse_input(body)

    def test_bad_tstar_key(self):
        body = _with(GOOD_TRIPLE)
        body["triple"]["Tstar"]["0,1"] = [0]
        with pytest.raises(InputFormatError, match="psi"):
            parse_input(body)

    def test_tampered_tstar_parses_then_fails_validation(self):
        body = _with(GOOD_TRIPLE)
        body["triple"]["Tstar"]["0,1|1"] = [1]
        kind, triple = parse_input(body)
        assert kind == "triple"
        with pytest.raises(TripleValidationError, match="coset"):
            triple.validate()

    def test_exponents_wrap(self):
        body = _with(GOOD_TRIPLE)
        body["triple"]["Tstar"]["0,1|1"] = [0, 3]  # 3 == 1 mod 2
        kind, triple = parse_input(body)
        triple.validate()
        assert triple.Tstar[(0, 1), (1,)] == {0, 1}
        body["triple"]["Tstar"] = {"0,1|0": [-2], "0,1|1": [-1, 0]}
        assert parse_input(body)[1] == parse_input(GOOD_TRIPLE)[1]


def _action(simplices, generator=(1, 0), k=2):
    return {"k": k, "simplices": simplices, "generator": list(generator)}


def _triple(quotient=None, S=None, Tstar=None, k=2):
    return {"k": k, "triple": {
        "quotient": [[0, 1]] if quotient is None else quotient,
        "S": {"0": 1, "1": 2, "0,1": 1} if S is None else S,
        "Tstar": {"0,1|0": [0], "0,1|1": [0, 1]} if Tstar is None else Tstar}}


# S and T* of the triangle (0, 1, 2) with trivial groups over k = 2
_TRIANGLE_S = {"0": 1, "1": 1, "2": 1, "0,1": 1, "0,2": 1, "1,2": 1, "0,1,2": 1}
_TRIANGLE_T = {"0,1|0": [0], "0,1|1": [0], "0,2|0": [0], "0,2|2": [0], "1,2|1": [0],
               "1,2|2": [0], "0,1,2|0,1": [0], "0,1,2|0,2": [0], "0,1,2|1,2": [0]}

# The input-error contract of the front end (parse, then for a triple
# validate and the axiom check): each malformed body with the exact error
# type, message and witness it gets, so that the first of several errors
# is pinned too.
INPUT_ERRORS = [
    ('not an object', [1],
     InputFormatError, 'input must be a JSON object', None),
    ('k missing', {"simplices": [[0]], "generator": [0]},
     InputFormatError, 'input needs a top-level "k"', None),
    ('k bool', {"k": True, "simplices": [[0]], "generator": [0]},
     InputFormatError, '"k" must be a positive integer', None),
    ('k zero', {"k": 0, "simplices": [[0]], "generator": [0]},
     InputFormatError, '"k" must be a positive integer', None),
    ('neither form', {"k": 1},
     InputFormatError, 'input needs "simplices" (or "triple")', None),
    ('generator missing', {"k": 1, "simplices": [[0]]},
     InputFormatError, 'action input needs "generator"', None),
    ('simplices not a list', _action({"0": [0, 1]}),
     InputFormatError, '"simplices" must be a list of integer lists', None),
    ('simplex not a list', _action([[0, 1], 1]),
     InputFormatError, '"simplices" must be a list of integer lists', None),
    ('str vertex', _action([[0, "1"]]),
     InputFormatError, '"simplices" must be a list of integer lists', None),
    ('float vertex', _action([[0, 1.0]]),
     InputFormatError, '"simplices" must be a list of integer lists', None),
    ('bool vertex', _action([[True, 0]]),
     InputFormatError, 'bad simplex in input: bad vertex identifier True', None),
    ('negative vertex', _action([[0, 1], [-1, 0]]),
     InputFormatError, 'bad simplex in input: bad vertex identifier -1', None),
    ('repeated vertex', _action([[0, 1], [1, 1]]),
     InputFormatError, 'bad simplex in input: repeated vertices in (1, 1)', None),
    ('empty simplex', _action([[0, 1], []]),
     InputFormatError, 'bad simplex in input: a simplex needs at least one vertex', None),
    ('str vertex after a bool one', _action([[True, 0], [0, "1"]]),
     InputFormatError, '"simplices" must be a list of integer lists', None),
    ('repeat before a negative', _action([[0, 0], [-1]]),
     InputFormatError, 'bad simplex in input: repeated vertices in (0, 0)', None),
    ('generator not a list', _action([[0, 1]], {"0": 1}),
     InputFormatError, '"generator" must be a list of integers', None),
    ('bool generator image', _action([[0, 1]], [True, 0]),
     InputFormatError, '"generator" must be a list of integers', None),
    ('generator image not a vertex', _action([[0, 1]], [0, 5]),
     InvalidActionError,
     'permutation is not a bijection of the vertices (image 5 is not a vertex)',
     5),
    ('generator image repeats', _action([[0, 1]], [1, 1]),
     InvalidActionError, 'permutation is not a bijection of the vertices (image 1 repeats)', 1),
    ('generator too short', _action([[0, 1]], [1]),
     InputFormatError, '"generator" must list an image for each of the 2 vertices', None),
    ('vertex ids not contiguous', _action([[0, 2]], [1, 0]),
     InputFormatError, 'action inputs need contiguous vertex ids 0..n-1', None),
    ('not simplicial', _action([[0, 1], [1, 2]], [1, 0, 2]),
     InvalidActionError, 'not simplicial: (1, 2) maps to (0, 2) which is not a simplex', (1, 2)),
    # the orbit walk from (0, 1) meets (1, 2) -> (1, 4) before complex order
    # reaches (0, 3): the first failure in complex order is reported
    ('not simplicial, first in complex order',
     _action([[0, 1], [0, 3], [1, 2], [4]], [2, 1, 4, 3, 0], k=3),
     InvalidActionError, 'not simplicial: (0, 3) maps to (2, 3) which is not a simplex', (0, 3)),
    ('order not dividing k', _action([[0, 1, 2]], [1, 2, 0]),
     InvalidActionError, 'permutation order 3 does not divide k=2', None),
    ('triple not an object', {"k": 2, "triple": [1]},
     InputFormatError, '"triple" must be an object', None),
    ('quotient missing', {"k": 2, "triple": {"S": {}, "Tstar": {}}},
     InputFormatError, '"triple" needs "quotient"', None),
    ('Tstar missing', {"k": 2, "triple": {"quotient": [], "S": {}}},
     InputFormatError, '"triple" needs "Tstar"', None),
    ('quotient not a list', _triple(quotient={"0": 1}),
     InputFormatError, '"quotient" must be a list of simplices', None),
    ('quotient simplex not a list', _triple(quotient=[[0, 1], 0]),
     InputFormatError, '"quotient" must be a list of simplices', None),
    ('str vertex in the quotient', _triple(quotient=[[0, "a"]]),
     InputFormatError, "bad quotient simplex: bad vertex identifier 'a'", None),
    ('bool vertex in the quotient', _triple(quotient=[[0, False]]),
     InputFormatError, 'bad quotient simplex: bad vertex identifier False', None),
    ('negative vertex in the quotient', _triple(quotient=[[0, 1], [-2]]),
     InputFormatError, 'bad quotient simplex: bad vertex identifier -2', None),
    ('repeated vertex in the quotient', _triple(quotient=[[1, 1]]),
     InputFormatError, 'bad quotient simplex: repeated vertices in (1, 1)', None),
    ('empty quotient simplex', _triple(quotient=[[0, 1], []]),
     InputFormatError, 'bad quotient simplex: a simplex needs at least one vertex', None),
    ('S not an object', _triple(S=[1]),
     InputFormatError, '"S" must be an object', None),
    ('S order zero', _triple(S={"0": 1, "1": 0, "0,1": 1}),
     InputFormatError, "S['1'] must be a positive integer", None),
    ('S order bool', _triple(S={"0": True, "1": 2, "0,1": 1}),
     InputFormatError, "S['0'] must be a positive integer", None),
    ('S order str', _triple(S={"0": "1", "1": 2, "0,1": 1}),
     InputFormatError, "S['0'] must be a positive integer", None),
    ('S order not dividing k', _triple(S={"0": 1, "1": 3, "0,1": 1}),
     TripleValidationError, 'order 3 does not divide k=2', (1,)),
    ('S bad key', _triple(S={"0": 1, "0,x": 2, "0,1": 1}),
     InputFormatError, "bad simplex key '0,x'", None),
    ('S key with a blank', _triple(S={"0": 1, " 1": 2, "0,1": 1}),
     InputFormatError, "bad simplex key ' 1'", None),
    ('S key with a sign', _triple(S={"0": 1, "+1": 2, "0,1": 1}),
     InputFormatError, "bad simplex key '+1'", None),
    ('S key with an underscore', _triple(S={"0": 1, "1": 2, "0,1": 1, "1_0": 1}),
     InputFormatError, "bad simplex key '1_0'", None),
    ('S key with a leading zero', _triple(S={"0": 1, "01": 2, "0,1": 1}),
     InputFormatError, "bad simplex key '01'", None),
    ('S key out of order', _triple(S={"0": 1, "1": 2, "0,1": 1, "1,0": 2}),
     InputFormatError, "bad simplex key '1,0'", None),
    ('S key off the quotient', _triple(S={"0": 1, "1": 2, "0,5": 1}),
     InputFormatError, 'S defined on (0, 5), which is not a quotient simplex', None),
    ('S bad key before a bad order', _triple(S={"x": 1, "1": 0}),
     InputFormatError, "bad simplex key 'x'", None),
    ('S bad order before a bad key', _triple(S={"0": 0, "x": 1}),
     InputFormatError, "S['0'] must be a positive integer", None),
    ('S bad order on a bad key', _triple(S={"x": 0}),
     InputFormatError, "S['x'] must be a positive integer", None),
    ('S order not dividing k before a key off the quotient', _triple(S={"1": 3, "5": 1}),
     TripleValidationError, 'order 3 does not divide k=2', (1,)),
    ('S undefined on a simplex', _triple(S={"0": 1, "0,1": 1}),
     TripleValidationError, 'S undefined on (1,)', (1,)),
    ('Tstar not an object', _triple(Tstar=[]),
     InputFormatError, '"Tstar" must be an object', None),
    ('Tstar key without bar', _triple(Tstar={"0,1|0": [0], "0,1": [0]}),
     InputFormatError, 'Tstar key \'0,1\' must look like "<psi>|<omega>"', None),
    ('Tstar bad coface key', _triple(Tstar={"0,x|0": [0]}),
     InputFormatError, "bad simplex key '0,x'", None),
    ('Tstar bad face key', _triple(Tstar={"0,1|0|1": [0]}),
     InputFormatError, "bad simplex key '0|1'", None),
    ('exponents not a list', _triple(Tstar={"0,1|0": [0], "0,1|1": 0}),
     InputFormatError, "Tstar['0,1|1'] must be a list of exponents", None),
    ('bool exponents', _triple(Tstar={"0,1|0": [True], "0,1|1": [0, 1]}),
     InputFormatError, "Tstar['0,1|0'] must be a list of exponents", None),
    ('bad exponents before a bad key', _triple(Tstar={"0,1|0": "x", "0,1": [0]}),
     InputFormatError, "Tstar['0,1|0'] must be a list of exponents", None),
    ('bad key with bad exponents', _triple(Tstar={"0,x|0": "x"}),
     InputFormatError, "bad simplex key '0,x'", None),
    ('face pair missing', _triple(Tstar={"0,1|1": [0, 1]}),
     TripleValidationError, 'T*((0, 1),(0,)) missing or empty for a face pair', ((0, 1), (0,))),
    ('not a coset', _triple(Tstar={"0,1|0": [0], "0,1|1": [1]}),
     TripleValidationError,
     'T*((0, 1),(1,)) = [1] is not a left coset of S((1,)) (order 2)', ((0, 1),
     (1,))),
    ('group does not embed', _triple(S={"0": 1, "1": 2, "0,1": 2}),
     TripleValidationError, 'S((0, 1)) does not embed into S((0,))', ((0, 1), (0,))),
    ('non-face pair', _triple(quotient=[[0, 1], [2]], S={"0": 1, "1": 2, "2": 1, "0,1": 1},
                              Tstar={"0,1|0": [0], "0,1|1": [0, 1], "0,1|2": [0]}),
     TripleValidationError, 'T*((0, 1),(2,)) nonempty for a non-face pair', ((0, 1), (2,))),
    ('non codimension-1 key', _triple(Tstar={"0,1|0": [0], "0,1|1": [0, 1], "0,1|0,1": [0]}),
     TripleValidationError,
     'T* keyed by a non codimension-1 pair ((0, 1),(0, 1))', ((0, 1), (0,
     1))),
    ('key off the quotient', _triple(Tstar={"0,1|0": [0], "0,1|1": [0, 1], "0,5|0": [0]}),
     TripleValidationError, 'T* keyed by a non codimension-1 pair ((0, 5),(0,))', ((0, 5), (0,))),
    ('missing face before a non codimension-1 key',
     _triple(Tstar={"0,1|1": [0, 1], "0,1|0,1": [0]}),
     TripleValidationError, 'T*((0, 1),(0,)) missing or empty for a face pair', ((0, 1), (0,))),
    ('2-morphism outside the group', _triple(quotient=[[0, 1, 2]], S=_TRIANGLE_S, k=2,
                                             Tstar={**_TRIANGLE_T, "0,2|0": [1]}),
     AxiomError,
     '2-morphism of ((0, 1, 2),(0, 2),(0,)) has exponent 1 outside the group of (0,)',
     ((0, 1, 2), (0, 2), (0,))),
]

# Triples whose T* keys are not exactly the face pairs, so that `validate`
# scans the keys: the first of the walk's fault and the strays in
# (d, psi, omega) order is raised, a non codimension-1 key last.  An empty
# T* on a non-face pair is no error (error None: the front end accepts it).
KEY_SCAN_ROWS = [
    ('stray before a failing face pair of its coface',
     _triple(quotient=[[0], [1, 2]], S={"0": 1, "1": 1, "2": 1, "1,2": 1},
             Tstar={"1,2|0": [0], "1,2|2": [0]}),
     TripleValidationError, 'T*((1, 2),(0,)) nonempty for a non-face pair', ((1, 2), (0,))),
    ('failing face pair before a later stray',
     _triple(quotient=[[0, 1], [2]], S={"0": 1, "1": 2, "2": 1, "0,1": 1},
             Tstar={"0,1|2": [0], "0,1|0": [0, 1], "0,1|1": [0, 1]}),
     TripleValidationError,
     'T*((0, 1),(0,)) = [0, 1] is not a left coset of S((0,)) (order 1)', ((0, 1), (0,))),
    ('coset fault before a non codimension-1 key',
     _triple(Tstar={"0,1|0,1": [0], "0,1|0": [0], "0,1|1": [1]}),
     TripleValidationError,
     'T*((0, 1),(1,)) = [1] is not a left coset of S((1,)) (order 2)', ((0, 1), (1,))),
    ('empty T* on a non-face pair',
     _triple(quotient=[[0, 1], [2]], S={"0": 1, "1": 2, "2": 1, "0,1": 1},
             Tstar={"0,1|0": [0], "0,1|1": [0, 1], "0,1|2": []}),
     None, None, None),
]
INPUT_ERRORS += KEY_SCAN_ROWS


def _front_end(body):
    kind, payload = parse_input(body)
    if kind == "triple":
        payload.validate()
        check_axioms(payload)


@pytest.mark.parametrize("body, error, message, witness",
                         [pytest.param(*row[1:], id=row[0]) for row in INPUT_ERRORS])
def test_input_error_contract(body, error, message, witness):
    if error is None:
        _front_end(body)
        return
    with pytest.raises(ZkHomologyError) as info:
        _front_end(body)
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "witness", None) == witness


# sha256 over the serialized triple of every regular corpus entry, under
# lex_lift then lex_max_lift, each document followed by a newline
TRIPLE_FILES_SHA256 = "18dbd6c336b2febd5b2d1bb0b165d6fe5f891be481a6c6745ba41122d29fc93b"


def test_serialized_triples_are_pinned():
    # the bytes that `corpus`, the benchmark inputs and the CLI sweep write
    # for a triple: S as plain orders, T* as sorted exponent lists
    digest = hashlib.sha256()
    for e in regular_entries():
        action = build_action(e)
        qd = quotient(action)
        for policy in (lex_lift, lex_max_lift):
            doc = triple_to_dict(build_triple(action, lift=policy(qd), qd=qd))
            digest.update(dump_json(doc).encode() + b"\n")
    assert digest.hexdigest() == TRIPLE_FILES_SHA256


@pytest.fixture
def key_scans(monkeypatch):
    """The arguments of every call `validate` makes to its key scan."""
    calls, scan = [], transfer._scan_keys

    def spy(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(transfer, "_scan_keys", spy)
    return calls


def test_valid_triples_are_checked_without_a_key_scan(key_scans):
    # the triple of every corpus entry (of its double subdivision when the
    # action is not regular) under both lifts, as built and as parsed back,
    # and the lens cover triples of the CLI sweep
    actions = [build_action(entry(name)) for name in names()]
    actions = [regularize(a) if check_regularity(a) is not None else a for a in actions]
    actions += [lens_cover(2, 2), lens_cover(3, 2)]
    for action in actions:
        qd = quotient(action)
        for policy in (lex_lift, lex_max_lift):
            triple = build_triple(action, lift=policy(qd), qd=qd)
            triple.validate()
            parse_input(triple_to_dict(triple))[1].validate()
    assert key_scans == []


@pytest.mark.parametrize("body, error",
                         [pytest.param(*row[1:3], id=row[0]) for row in KEY_SCAN_ROWS])
def test_key_scan_runs_once_on_a_fault_or_a_stray_key(key_scans, body, error):
    triple = parse_input(body)[1]
    if error is None:
        triple.validate()
    else:
        with pytest.raises(error):
            triple.validate()
    assert len(key_scans) == 1
