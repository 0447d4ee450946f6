import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zkhomology.errors import DomainMismatchError
from zkhomology.exact import (
    GF,
    QQ,
    FieldMatrix,
    Poly,
    field_rank,
    parse_field,
    poly_gcd,
    poly_str,
    snf_over_polys,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def parse_poly(field, text):
    """Inverse of poly_str for the formats this package emits."""
    text = text.replace(" ", "")
    if text == "0":
        return Poly.zero(field)
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
    return Poly(field, out)


def P(field, *coeffs):
    return Poly(field, coeffs)


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
        assert poly_gcd(P(QQ, -1, 0, 1), P(QQ, 1, 1)) == P(QQ, 1, 1)

    def test_char_two_square(self):
        # x^2 + 1 = (x+1)^2 over F2
        assert poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1)) == P(F2, 1, 1)

    def test_gcd_with_zero_is_monic(self):
        assert poly_gcd(Poly.zero(QQ), P(QQ, 0, 3)) == P(QQ, 0, 1)
        assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero()

    def test_mixed_fields_rejected(self):
        with pytest.raises(DomainMismatchError):
            poly_gcd(P(QQ, 1), P(F2, 1))

    @given(st.lists(st.integers(-4, 4), max_size=5),
           st.lists(st.integers(-4, 4), max_size=5))
    def test_symmetric_and_divides(self, a, b):
        pa, pb = Poly(QQ, a), Poly(QQ, b)
        g = poly_gcd(pa, pb)
        assert g == poly_gcd(pb, pa)
        if not g.is_zero():
            assert (pa % g).is_zero() and (pb % g).is_zero()

    @given(st.lists(st.integers(0, 2), max_size=5),
           st.lists(st.integers(0, 2), max_size=4),
           st.lists(st.integers(0, 2), max_size=3))
    def test_common_divisor_divides_gcd(self, a, b, c):
        base = Poly(F3, c)
        pa, pb = Poly(F3, a) * base, Poly(F3, b) * base
        g = poly_gcd(pa, pb)
        if g.is_zero():
            assert pa.is_zero() and pb.is_zero()
        else:
            assert (g % base).is_zero()


def _strip(field, cs):
    while cs and cs[-1] == field.zero():
        cs.pop()
    return cs


def _list_divmod(field, a, b):
    """Long division of the coefficient list a by the nonzero b with the
    Field methods alone, independent of Poly's arithmetic: (quotient,
    remainder) as lists of field values."""
    rem, b = [field.coerce(c) for c in a], [field.coerce(c) for c in b]
    inv, n = field.inv(b[-1]), len(b) - 1
    quo = [field.zero()] * max(len(rem) - n, 0)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = field.mul(rem[i + n], inv)
        for j, bj in enumerate(b):
            rem[i + j] = field.sub(rem[i + j], field.mul(quo[i], bj))
    return _strip(field, quo), _strip(field, rem[:n])


def _list_gcd(a, b):
    """Euclid on coefficient lists with the Field methods, then made monic:
    the reference for poly_gcd."""
    field, a, b = a.field, list(a.coeffs), list(b.coeffs)
    while b:
        a, b = b, _list_divmod(field, a, b)[1]
    if a:
        inv = field.inv(field.coerce(a[-1]))
        a = [field.mul(field.coerce(c), inv) for c in a]
    return Poly(field, a)


@st.composite
def _gcd_pairs(draw):
    """(a, b) over Q, F2, F3 or F5 with a drawn common factor, either of
    them possibly zero or constant, each scaled by a drawn nonzero constant
    (a non-integral one over Q), so that neither need be monic."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    if field.char == 0:
        coeff = st.integers(-3, 3)
        scale = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    else:
        coeff = st.integers(0, field.char - 1)
        scale = st.integers(1, field.char - 1)

    def poly(size):
        return Poly(field, draw(st.lists(coeff, max_size=size)))

    common = poly(3)
    a, b = (poly(4) * common if draw(st.booleans()) else poly(2) for _ in range(2))
    return a.scale(draw(scale)), b.scale(draw(scale))


@settings(max_examples=300, deadline=None)
@given(_gcd_pairs())
@example((Poly.zero(QQ), Poly.zero(QQ)))
@example((Poly.zero(F2), Poly.zero(F2)))
@example((P(F5, 3), Poly.zero(F5)))
@example((Poly.zero(QQ), P(QQ, Fraction(-2, 3))))
@example((P(F3, 2, 2), P(F3, 1, 0, 2)))
@example((P(QQ, Fraction(1, 2), 0, Fraction(-1, 2)), P(QQ, 3, 3)))
def test_list_euclid_matches_the_divmod_euclid(pair):
    a, b = pair
    g = poly_gcd(a, b)
    want = _list_gcd(a, b)
    assert g == want and g.field is a.field
    assert list(map(type, g.coeffs)) == list(map(type, want.coeffs))
    assert g.is_zero() == (a.is_zero() and b.is_zero())


def _plain(f):
    # ints in [0, p) over F_p; over Q, ints where integral
    p = f.field.char
    return all(type(c) is int and (not p or 0 <= c < p) if c.denominator == 1
               else not p for c in f.coeffs)


@settings(max_examples=300, deadline=None)
@given(_gcd_pairs().filter(lambda pair: not pair[1].is_zero()))
@example((P(QQ, 1, 2, 3), P(QQ, 0, Fraction(2, 3))))
@example((P(F2, 1, 1, 0, 1), P(F2, 1, 1)))
@example((P(F5, 2), P(F5, 1, 3)))
def test_divmod_matches_the_list_division(pair):
    a, b = pair
    q, r = divmod(a, b)
    want = _list_divmod(a.field, a.coeffs, b.coeffs)
    assert (q, r) == tuple(Poly(a.field, c) for c in want)
    assert q * b + r == a and r.degree < b.degree
    assert _plain(q) and _plain(r)
    assert a % b == r and b.divides(a) == r.is_zero()


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


def _det(rows):
    # cofactor expansion; independent of the elimination code under test
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(rows[0][0].field)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _determinantal_divisor(rows, i):
    """Monic gcd of all i x i minors (the classical SNF certificate)."""
    m, n = len(rows), len(rows[0])
    g = Poly.zero(rows[0][0].field)
    for rsel in combinations(range(m), i):
        for csel in combinations(range(n), i):
            sub = [[rows[r][c] for c in csel] for r in rsel]
            g = poly_gcd(g, _det(sub))
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
        x = P(QQ, 0, 1)
        z = Poly.zero(QQ)
        D, ok = snf_over_polys([[x, z], [z, x * x]])
        assert ok and D[0][0] == x and D[1][1] == x * x

    def test_permutation_matrix(self):
        z, one = Poly.zero(QQ), Poly.one(QQ)
        D, ok = snf_over_polys([[z, one], [one, z]])
        assert ok and D[0][0] == one and D[1][1] == one

    def test_rank_one_gcd_pattern(self):
        # det = 4x, entry gcd = 1, so invariant factors (1, x)
        xp1, xm1 = P(QQ, 1, 1), P(QQ, -1, 1)
        D, ok = snf_over_polys([[xp1, xm1], [xm1, xp1]])
        assert ok and D[0][0] == Poly.one(QQ) and D[1][1] == P(QQ, 0, 1)

    def test_empty_shapes(self):
        D, ok = snf_over_polys([])
        assert ok and D == []
        D, ok = snf_over_polys([[], []])
        assert ok and D == [[], []]

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5])
    @settings(max_examples=150, deadline=None)
    @given(grid=_coefficient_grids())
    @example(grid=[[[0, 1], []], [[], [1, 1]]])  # diag(x, x+1) ~ diag(1, x^2+x)
    def test_determinantal_divisors(self, field, grid):
        # D_ii == Delta_i / Delta_{i-1}, Delta_i the gcd of the i x i minors,
        # computed with an independent cofactor-expansion oracle
        rows = [[Poly(field, c) for c in row] for row in grid]
        m, n = len(rows), len(rows[0])
        D, ok = snf_over_polys([row[:] for row in rows])
        assert ok
        assert all(D[i][j].is_zero() for i in range(m) for j in range(n) if i != j)
        prev = Poly.one(field)
        for i in range(1, min(m, n) + 1):
            delta = _determinantal_divisor(rows, i)
            if delta.is_zero():
                assert D[i - 1][i - 1].is_zero(), (i, rows)
                continue
            q, r = divmod(delta, prev)
            assert r.is_zero()
            assert D[i - 1][i - 1] == q.monic(), (i, rows)
            prev = delta

    @pytest.mark.parametrize("field", [QQ, F2])
    def test_divisibility_chain(self, field):
        rng = random.Random(5)
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [
                [Poly(field, [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])
                 for _ in range(n)]
                for _ in range(m)
            ]
            D, ok = snf_over_polys(rows)
            assert ok
            diag = [D[i][i] for i in range(min(m, n))]
            for a, b in zip(diag, diag[1:]):
                if not a.is_zero():
                    assert a.divides(b)


class TestPolyFormat:
    def test_descending_terms(self):
        assert poly_str(P(QQ, -1, 0, 1)) == "x^2-1"
        assert poly_str(P(F2, 1, 1, 1)) == "x^2+x+1"
        assert poly_str(Poly.zero(QQ)) == "0"
        assert poly_str(P(QQ, Fraction(1, 2), 1)) == "x+1/2"

    def test_roundtrip(self):
        for p in [P(QQ, -1, 0, 1), P(QQ, 0, 3, 0, 2), Poly.zero(F3), P(F3, 2, 0, 1)]:
            assert parse_poly(p.field, poly_str(p)) == p
