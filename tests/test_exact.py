import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zkhomology import exact
from zkhomology.exact import (
    GF,
    QQ,
    FieldMatrix,
    _divmod,
    _primitive,
    _validate_snf,
    field_rank,
    parse_field,
    poly_gcd,
    poly_str,
    snf_over_polys,
)

from grids import P, divides, list_divmod

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def parse_poly(field, text):
    """Inverse of poly_str for the formats this package emits."""
    text = text.replace(" ", "")
    if text == "0":
        return ()
    text = text.replace("-", "+-")
    coeffs = {}
    for term in text.split("+"):
        if not term:
            continue
        if "x" in term:
            head, _, tail = term.partition("x")
            e = int(tail[1:]) if tail.startswith("^") else 1
            if head in ("", "-"):
                c = head + "1"
            else:
                c = head
        else:
            e, c = 0, term
        coeffs[e] = Fraction(c) if field.char == 0 else int(c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return P(field, *out)


def _add(field, a, b):
    """a + b with the Field methods alone."""
    n = max(len(a), len(b))
    a, b = [*a] + [0] * (n - len(a)), [*b] + [0] * (n - len(b))
    return P(field, *(field.add(field.coerce(x), field.coerce(y)) for x, y in zip(a, b)))


def _scale(field, c, a):
    """c a with the Field methods alone."""
    return P(field, *(field.mul(field.coerce(c), field.coerce(x)) for x in a))


def _mul(field, a, b):
    """a b with the Field methods alone."""
    out = [field.zero()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] = field.add(out[j], field.mul(field.coerce(x), field.coerce(y)))
    return P(field, *out)


class TestFields:
    def test_parse(self):
        assert parse_field("Q") is QQ
        assert parse_field("Fp:5").p == 5
        with pytest.raises(ValueError):
            parse_field("Fp:6")
        with pytest.raises(ValueError):
            parse_field("R")

    @pytest.mark.parametrize("descriptor", [
        "Fp: 3", "Fp:+3", "Fp:03", "Fp:\u0663", "Fp:3 ", "Fp:1_1"])
    def test_prime_written_canonically(self, descriptor):
        with pytest.raises(ValueError, match="bad field descriptor"):
            parse_field(descriptor)

    def test_large_prime_accepted(self):
        # Trial division up to sqrt(2^61 - 1) would take minutes.
        assert parse_field("Fp:2305843009213693951").p == 2**61 - 1

    @pytest.mark.parametrize("p", [
        561,                        # Carmichael number
        3215031751,                 # strong pseudoprime to bases 2, 3, 5, 7
        318665857834031151167461,   # strong pseudoprime to every base <= 37
    ])
    def test_pseudoprimes_rejected(self, p):
        with pytest.raises(ValueError):
            parse_field(f"Fp:{p}")

    def test_prime_field_canonical_range(self):
        assert F3.coerce(-1) == 2
        assert F3.coerce(7) == 1
        assert F3.inv(2) == 2

    def test_rationals_reduced(self):
        v = QQ.coerce(Fraction(4, 6))
        assert (v.numerator, v.denominator) == (2, 3)


class TestPolyGcd:
    def test_factor_out_common_root(self):
        # x^2 - 1 = (x+1)(x-1)
        assert poly_gcd(0, P(QQ, -1, 0, 1), P(QQ, 1, 1)) == P(QQ, 1, 1)

    def test_char_two_square(self):
        # x^2 + 1 = (x+1)^2 over F2
        assert poly_gcd(2, P(F2, 1, 0, 1), P(F2, 1, 1)) == P(F2, 1, 1)

    @pytest.mark.parametrize("a, b, message", [
        ((1, 0), (1,), "a must be a coefficient tuple with no trailing zero, got (1, 0)"),
        ((1,), (1, 2), "b must be a coefficient tuple with no trailing zero, got (1, 2)"),
        ((1,), 1, "b must be a coefficient tuple with no trailing zero, got 1"),
    ])
    def test_no_polynomial_rejected(self, a, b, message):
        with pytest.raises(ValueError) as info:
            poly_gcd(2, a, b)
        assert str(info.value) == message

    def test_gcd_with_zero_is_monic(self):
        assert poly_gcd(0, (), P(QQ, 0, 3)) == P(QQ, 0, 1)
        assert poly_gcd(0, (), ()) == ()

    @given(st.lists(st.integers(-4, 4), max_size=5),
           st.lists(st.integers(-4, 4), max_size=5))
    def test_symmetric_and_divides(self, a, b):
        pa, pb = P(QQ, *a), P(QQ, *b)
        g = poly_gcd(0, pa, pb)
        assert g == poly_gcd(0, pb, pa)
        if g:
            assert divides(QQ, g, pa) and divides(QQ, g, pb)

    @given(st.lists(st.integers(0, 2), max_size=5),
           st.lists(st.integers(0, 2), max_size=4),
           st.lists(st.integers(0, 2), max_size=3))
    def test_common_divisor_divides_gcd(self, a, b, c):
        base = P(F3, *c)
        pa, pb = _mul(F3, P(F3, *a), base), _mul(F3, P(F3, *b), base)
        g = poly_gcd(3, pa, pb)
        if not g:
            assert not pa and not pb
        else:
            assert divides(F3, base, g)


def _make_monic(field, a):
    """a divided by its leading coefficient, with the Field methods."""
    if not a:
        return ()
    inv = field.inv(field.coerce(a[-1]))
    return P(field, *(field.mul(field.coerce(c), inv) for c in a))


def _list_gcd(field, a, b):
    """Euclid on coefficient lists with the Field methods, then made monic:
    the reference for poly_gcd."""
    a, b = list(a), list(b)
    while b:
        a, b = b, list_divmod(field, a, b)[1]
    return _make_monic(field, a)


@st.composite
def _gcd_pairs(draw):
    """(field, a, b) over Q, F2, F3 or F5 with a drawn common factor, either
    of a and b possibly zero or constant, each scaled by a drawn nonzero
    constant (a non-integral one over Q), so that neither need be monic."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    if field.char == 0:
        coeff = st.integers(-3, 3)
        scale = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    else:
        coeff = st.integers(0, field.char - 1)
        scale = st.integers(1, field.char - 1)

    def poly(size):
        return P(field, *draw(st.lists(coeff, max_size=size)))

    common = poly(3)
    a, b = (_mul(field, poly(4), common) if draw(st.booleans()) else poly(2)
            for _ in range(2))
    return field, _scale(field, draw(scale), a), _scale(field, draw(scale), b)


@settings(max_examples=300, deadline=None)
@given(_gcd_pairs())
@example((QQ, (), ()))
@example((F2, (), ()))
@example((F5, P(F5, 3), ()))
@example((QQ, (), P(QQ, Fraction(-2, 3))))
@example((F3, P(F3, 2, 2), P(F3, 1, 0, 2)))
@example((QQ, P(QQ, Fraction(1, 2), 0, Fraction(-1, 2)), P(QQ, 3, 3)))
def test_list_euclid_matches_the_divmod_euclid(triple):
    field, a, b = triple
    g = poly_gcd(field.char, a, b)
    want = _list_gcd(field, a, b)
    assert type(g) is tuple and g == want
    assert list(map(type, g)) == list(map(type, want))
    assert (not g) == (not a and not b)


def _is_plain(field, f):
    # ints in [0, p) over F_p; over Q, ints where integral
    p = field.char
    return all(type(c) is int and (not p or 0 <= c < p) if c.denominator == 1
               else not p for c in f)


@settings(max_examples=300, deadline=None)
@given(_gcd_pairs().filter(lambda triple: triple[2]))
@example((QQ, P(QQ, 1, 2, 3), P(QQ, 0, Fraction(2, 3))))
@example((F2, P(F2, 1, 1, 0, 1), P(F2, 1, 1)))
@example((F5, P(F5, 2), P(F5, 1, 3)))
def test_divmod_matches_the_list_division(triple):
    field, a, b = triple
    q, r = _divmod(field.char, a, b)
    want = list_divmod(field, a, b)
    assert (q, r) == tuple(P(field, *c) for c in want)
    assert _add(field, _mul(field, q, b), r) == a and len(r) < len(b)
    assert _is_plain(field, q) and _is_plain(field, r)


class TestFieldMatrix:
    def test_shape_checked_and_values_coerced(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            FieldMatrix(F3, 2, 2, [[1, 2], [0]])
        with pytest.raises(ValueError, match="shape mismatch"):
            FieldMatrix(F3, 1, 2, [[1, 2], [0, 1]])
        M = FieldMatrix(F3, 3, 2, [[1, 5], [-1, 0], [2, 3]])
        assert M.data == ((1, 2), (2, 0), (2, 0))
        assert M == FieldMatrix(F3, 3, 2, M.data)


class TestFieldRank:
    def test_proportional_rows(self):
        assert field_rank(FieldMatrix(QQ, 2, 2, [[1, 1], [1, 1]])) == 1

    def test_dependent_rows(self):
        # row 3 = -(row 1) - (row 2), row 4 = row 3
        M = FieldMatrix(QQ, 4, 2, [[-1, 0], [0, -1], [1, 1], [1, 1]])
        assert field_rank(M) == 2

    def test_empty(self):
        assert field_rank(FieldMatrix(QQ, 0, 7, [])) == 0
        assert field_rank(FieldMatrix(F2, 4, 0, [[]] * 4)) == 0

    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_invariant_under_permutation_and_transpose(self, field):
        rng = random.Random(7)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            data = [[field.coerce(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(m)]
            M = FieldMatrix(field, m, n, data)
            r = field_rank(M)
            rows = list(data)
            rng.shuffle(rows)
            cols = list(range(n))
            rng.shuffle(cols)
            shuffled = [[row[j] for j in cols] for row in rows]
            assert field_rank(FieldMatrix(field, m, n, shuffled)) == r
            assert field_rank(FieldMatrix(field, n, m, zip(*data))) == r


def _det(field, rows):
    # cofactor expansion; independent of the elimination code under test
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ()
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = _mul(field, rows[0][j], _det(field, minor))
        total = _add(field, total, term if j % 2 == 0 else _scale(field, -1, term))
    return total


def _determinantal_divisor(field, rows, i):
    """Monic gcd of all i x i minors (the classical SNF certificate)."""
    m, n = len(rows), len(rows[0])
    g = ()
    for rsel in combinations(range(m), i):
        for csel in combinations(range(n), i):
            sub = [[rows[r][c] for c in csel] for r in rsel]
            g = _list_gcd(field, g, _det(field, sub))
    return g


@st.composite
def _coefficient_grids(draw):
    """m x n grids (1 <= m, n <= 5) of coefficient lists of degree <= 3,
    with random zero rows and columns."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    coeffs = st.lists(st.integers(-2, 2), max_size=4)
    return [
        [[] if i in zero_rows or j in zero_cols else draw(coeffs) for j in range(n)]
        for i in range(m)
    ]


class TestSnfOverPolys:
    def test_already_diagonal(self):
        x, xx = P(QQ, 0, 1), P(QQ, 0, 0, 1)
        assert snf_over_polys(0, [[x, ()], [(), xx]]) == [x, xx]

    def test_permutation_matrix(self):
        assert snf_over_polys(0, [[(), (1,)], [(1,), ()]]) == [(1,), (1,)]

    def test_rank_one_gcd_pattern(self):
        # det = 4x, entry gcd = 1, so invariant factors (1, x)
        xp1, xm1 = P(QQ, 1, 1), P(QQ, -1, 1)
        assert snf_over_polys(0, [[xp1, xm1], [xm1, xp1]]) == [(1,), P(QQ, 0, 1)]

    def test_empty_shapes(self):
        assert snf_over_polys(0, []) == []
        assert snf_over_polys(0, [[], []]) == []

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError, match="ragged polynomial matrix"):
            snf_over_polys(2, [[(1,), (1,)], [(1,)]])

    @pytest.mark.parametrize("p, rows, message", [
        # (1, 0) once reached pow(0, -1, 2) in _monic and raised from there
        (2, [[(1, 0)]], "rows[0][0] must be a coefficient tuple with no trailing zero, "
                        "got (1, 0)"),
        (3, [[(1,), (2, 3)]], "rows[0][1] must be a coefficient tuple with no trailing zero, "
                              "got (2, 3)"),
        (0, [[(1,)], [[1]]], "rows[1][0] must be a coefficient tuple with no trailing zero, "
                             "got [1]"),
        (0, [[(1, Fraction(0))]], "rows[0][0] must be a coefficient tuple with no trailing "
                                  "zero, got (1, Fraction(0, 1))"),
    ])
    def test_entry_that_is_no_polynomial_rejected(self, p, rows, message):
        with pytest.raises(ValueError) as info:
            snf_over_polys(p, rows)
        assert str(info.value) == message

    def test_self_check_failure_raises(self):
        with mock.patch.object(exact, "_validate_snf", lambda *args: False):
            with pytest.raises(ArithmeticError, match="^polynomial SNF self-check failed$"):
                snf_over_polys(0, [[(1,)]])

    @pytest.mark.parametrize("grid, ok", [
        ([[(1,), ()], [(), (0, 1)]], True),
        ([[(1,), (1,)], [(), (0, 1)]], False),        # off-diagonal entry
        ([[(1,), ()], [(), (0, 2)]], False),          # not monic
        ([[(), ()], [(), (0, 1)]], False),            # a zero before a nonzero
        ([[(1, 1), ()], [(), (0, 1)]], False),        # x+1 does not divide x
        ([[(1, 1), ()], [(), ()]], True),             # anything divides zero
    ])
    def test_validation_checks_the_diagonal(self, grid, ok):
        assert _validate_snf(0, grid, 2, 2) is ok

    def test_lines_over_q_rescaled_to_primitive_integers(self):
        half = Fraction(1, 2)
        assert _primitive(0, [(half, 1), (Fraction(3, 4),)]) == [(2, 4), (3,)]
        assert _primitive(0, [(2, 4), (), (6,)]) == [(1, 2), (), (3,)]
        assert all(type(c) is int for f in _primitive(0, [(half, 1)]) for c in f)
        assert _primitive(0, [(), ()]) == [(), ()]
        assert _primitive(3, [(2, 4)]) == [(2, 4)]

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5])
    @settings(max_examples=150, deadline=None)
    @given(grid=_coefficient_grids())
    @example(grid=[[[0, 1], []], [[], [1, 1]]])  # diag(x, x+1) ~ diag(1, x^2+x)
    def test_determinantal_divisors(self, field, grid):
        # D_ii == Delta_i / Delta_{i-1}, Delta_i the gcd of the i x i minors,
        # computed with an independent cofactor-expansion oracle
        rows = [[P(field, *c) for c in row] for row in grid]
        m, n = len(rows), len(rows[0])
        D = snf_over_polys(field.char, rows)
        assert len(D) == min(m, n)
        prev = (1,)
        for i in range(1, min(m, n) + 1):
            delta = _determinantal_divisor(field, rows, i)
            if not delta:
                assert D[i - 1] == (), (i, rows)
                continue
            q, r = list_divmod(field, delta, prev)
            assert not r
            assert D[i - 1] == _make_monic(field, q), (i, rows)
            prev = delta

    @pytest.mark.parametrize("field", [QQ, F2])
    def test_divisibility_chain(self, field):
        rng = random.Random(5)
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [
                [P(field, *[rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])
                 for _ in range(n)]
                for _ in range(m)
            ]
            D = snf_over_polys(field.char, rows)
            assert len(D) == min(m, n)
            for a, b in zip(D, D[1:]):
                if a:
                    assert divides(field, a, b)
                else:
                    assert not b


class TestPolyFormat:
    def test_descending_terms(self):
        assert poly_str(P(QQ, -1, 0, 1)) == "x^2-1"
        assert poly_str(P(F2, 1, 1, 1)) == "x^2+x+1"
        assert poly_str(()) == "0"
        assert poly_str((1,)) == "1"
        assert poly_str(P(QQ, Fraction(1, 2), 1)) == "x+1/2"

    def test_no_polynomial_rejected(self):
        with pytest.raises(ValueError) as info:
            poly_str([1, 1])
        assert str(info.value) == "f must be a coefficient tuple with no trailing zero, got [1, 1]"

    def test_roundtrip(self):
        for field, f in [(QQ, P(QQ, -1, 0, 1)), (QQ, P(QQ, 0, 3, 0, 2)), (F3, ()),
                         (F3, P(F3, 2, 0, 1))]:
            assert parse_poly(field, poly_str(f)) == f
