import pytest

from zkhomology.errors import InputFormatError, TripleValidationError
from zkhomology.jsonio import parse_input, parse_simplex_key, simplex_key


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
