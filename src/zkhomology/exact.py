"""Exact arithmetic: the fields Q and F_p, univariate polynomials over them,
dense matrices with exact rank, and Smith normal form over F[x].  The dense
matrices serve the direct oracle only: the group-ring side ranks sparse rows.

Scalars are plain Python values.  The dense matrices take their arithmetic
from a `Field` object, on `fractions.Fraction` for Q and integers in [0, p)
for F_p.  Everything else (group-ring entries, polynomial coefficients, the
Smith-form lifts) follows one plain convention under Python's operators:
ints in [0, p) over F_p; over Q, ints where integral and Fractions
otherwise.  `Poly(field, coeffs)` coerces outside values into it, and F[x]
divides in `_divmod` alone.  Polynomials store coefficients lowest degree
first with no trailing zeros; the zero polynomial has degree -inf (a float,
never an integer).  No floating point enters any computation.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DomainMismatchError

NEG_INF = float("-inf")


# Miller-Rabin with the twelve prime bases up to 37 is exact below the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """What Q and F_p share: `char`, `name`, and printing by name.  Each
    supplies zero, one, coerce, add, sub, mul, neg and inv."""

    char = None
    name = None

    def __repr__(self):
        return self.name


class RationalField(Field):
    """The rationals; values are reduced Fractions with positive denominator
    (guaranteed by the Fraction type itself)."""

    char = 0
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, v):
        if isinstance(v, bool):
            raise TypeError("bool is not a rational scalar")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """F_p for a prime p; values are ints kept in [0, p)."""

    def __init__(self, p):
        if p >= _MR_LIMIT:
            raise ValueError(
                f"{p} is too large: primality is decided only below {_MR_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"Fp:{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"cannot coerce {v!r} into {self.name}")
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p):
    """The prime field F_p (cached, so GF(p) is GF(p))."""
    return PrimeField(p)


def parse_field(descriptor):
    """Build a field from a descriptor string: "Q" or "Fp:<prime>"."""
    if descriptor == "Q":
        return QQ
    if descriptor.startswith("Fp:"):
        try:
            p = int(descriptor[3:])
        except ValueError:
            raise ValueError(f"bad field descriptor {descriptor!r}") from None
        # int() also reads signs, spaces, "_" and non-ASCII digits
        if str(p) != descriptor[3:]:
            raise ValueError(f"bad field descriptor {descriptor!r}")
        return GF(p)
    raise ValueError(f"bad field descriptor {descriptor!r} (want 'Q' or 'Fp:<prime>')")


def _same_field(a, b):
    if a.field != b.field:
        raise DomainMismatchError(f"mixed fields: {a.field} vs {b.field}")


def _plain(p, cs):
    # a coefficient list over F_p (p > 0) or Q (p = 0) put in the plain
    # convention, trailing zeros dropped
    cs = [c % p for c in cs] if p else [c.numerator if c.denominator == 1 else c for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _inverse(p, c):
    """1 / c for a nonzero plain scalar c over F_p (p > 0) or Q (p = 0), in
    the plain convention; over Q, +-1 is its own inverse."""
    if p:
        return pow(c, -1, p)
    if c == 1 or c == -1:
        return c
    inv = 1 / Fraction(c)
    return inv.numerator if inv.denominator == 1 else inv


def _divmod(p, a, b):
    """Quotient and remainder of the plain coefficient sequence a by the
    nonzero b, as plain lists: the one remainder loop of F[x].  Over F_p
    values are reduced once per quotient term and once at the end."""
    n = len(b) - 1
    inv, low = _inverse(p, b[-1]), b[:n]
    rem = list(a)
    quo = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = rem[i] * inv % p if p else rem[i] * inv
        if c:
            quo[i - n] = c
            for j, bj in enumerate(low, i - n):
                rem[j] -= c * bj
    return _plain(p, quo), _plain(p, rem[:n])


class Poly:
    """Dense univariate polynomial over a Field.

    `coeffs` is a tuple of plain coefficients (see the module docstring),
    constant term first, with no trailing zeros; the zero polynomial is the
    empty tuple.  The constructor coerces and type-checks outside values;
    every operation returns its result in the plain convention.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = tuple(_plain(field.char, [field.coerce(c) for c in coeffs]))

    @classmethod
    def _adopt(cls, field, coeffs):
        # a Poly on plain coefficients with no trailing zero, unchecked
        f = object.__new__(cls)
        f.field, f.coeffs = field, tuple(coeffs)
        return f

    def _with(self, cs):
        # a Poly over this field on a list of ints and Fractions
        return Poly._adopt(self.field, _plain(self.field.char, cs))

    @classmethod
    def zero(cls, field):
        return cls._adopt(field, ())

    @classmethod
    def one(cls, field):
        return cls._adopt(field, (1,))

    @classmethod
    def x_pow_minus_one(cls, field, k):
        """x^k - 1, the modulus of the group-ring quotient."""
        return cls._adopt(field, (field.char - 1,) + (0,) * (k - 1) + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        _same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._with(out)

    def __neg__(self):
        return self._with([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
        return self._with(out)

    def scale(self, c):
        """c times self, for an int c (or, over Q, a Fraction)."""
        return self._with([c * a for a in self.coeffs])

    def __divmod__(self, other):
        _same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(self.field.char, self.coeffs, other.coeffs)
        return Poly._adopt(self.field, quo), Poly._adopt(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """True if self divides other (zero divides only zero)."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return self.scale(_inverse(self.field.char, self.coeffs[-1]))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({self.field}, {poly_str(self)!r})"


def poly_str(p):
    """Render a polynomial with terms in descending degree, e.g. "x^2-1"."""
    if p.is_zero():
        return "0"
    parts = []
    for e in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
        negative = p.field.char == 0 and c < 0
        mag = -c if negative else c
        if e == 0:
            body = str(mag)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if mag == 1 else f"{mag}{xs}"
        parts.append(("-" if negative else "+" if parts else "") + body)
    return "".join(parts)


def poly_gcd(a, b):
    """Monic gcd in F[x]; gcd(0, 0) = 0."""
    _same_field(a, b)
    field, a, b = a.field, a.coeffs, b.coeffs
    while b:
        a, b = b, _divmod(field.char, a, b)[1]
    return Poly._adopt(field, a).monic()


class FieldMatrix:
    """Dense matrix over a Field, for the direct oracle; immutable after construction."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        data = tuple(tuple(field.coerce(v) for v in row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"shape mismatch: want {rows}x{cols}")
        self.field, self.rows, self.cols, self.data = field, rows, cols, data

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.data == other.data
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"FieldMatrix({self.field}, {self.rows}x{self.cols}: {body})"


def field_rank(M):
    """Rank by exact Gaussian elimination; 0 for empty matrices."""
    if M.rows == 0 or M.cols == 0:
        return 0
    F = M.field
    z = F.zero()
    a = [list(row) for row in M.data]
    rank = 0
    for col in range(M.cols):
        piv = None
        for i in range(rank, M.rows):
            if a[i][col] != z:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = F.inv(a[rank][col])
        for i in range(rank + 1, M.rows):
            c = a[i][col]
            if c == z:
                continue
            factor = F.mul(c, inv)
            for j in range(col, M.cols):
                a[i][j] = F.sub(a[i][j], F.mul(factor, a[rank][j]))
        rank += 1
        if rank == M.rows:
            break
    return rank


def _poly_grid(mat):
    rows = [list(r) for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    field = None
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged polynomial matrix")
        for p in row:
            if not isinstance(p, Poly):
                raise TypeError("entries must be Poly")
            if field is None:
                field = p.field
            elif p.field != field:
                raise DomainMismatchError("polynomial matrix over mixed fields")
    return rows, m, n, field


def _primitive(polys):
    """Scale a row or column of rational polynomials to primitive integer
    form.

    Scaling by a nonzero field constant is a unimodular operation over
    F[x]; keeping lines primitive blocks the coefficient explosion of
    naive remainder sequences.  No-op over prime fields and on zero lines.
    """
    if not polys or polys[0].field.char:
        return polys
    coeffs = [c for p in polys for c in p.coeffs]
    if not coeffs:
        return polys
    denom = lcm(*(c.denominator for c in coeffs))
    scale = Fraction(denom, gcd(*(c.numerator * (denom // c.denominator) for c in coeffs)))
    return [p.scale(scale) for p in polys]


def snf_over_polys(mat):
    """Smith normal form over the Euclidean domain F[x].

    `mat` is a sequence of rows of Poly.  Returns (D, ok): D is the full
    diagonal matrix (monic nonzero entries first, each dividing the next,
    then zeros), ok reports the internal shape/divisibility validation.
    Transformation matrices are not produced.

    One Euclidean rule: a nonzero entry of least degree moves to the pivot
    slot, and every other entry of its row and column is replaced by its
    remainder modulo the pivot.  A nonzero remainder has lower degree and
    becomes the next pivot, so each step ends with a clear row and column.
    The diagonal is then sorted into a divisibility chain, since diag(a, b)
    is equivalent to diag(gcd(a, b), lcm(a, b)) over a PID.  Every changed
    line is rescaled to primitive integer form over Q -- scaling a line by
    a nonzero constant is unimodular over F[x] and keeps coefficients near
    the size of the matrix minors instead of compounding.
    """
    A, m, n, _ = _poly_grid(mat)
    for i in range(m):
        A[i] = _primitive(A[i])
    t = 0
    size = min(m, n)
    while t < size:
        nonzero = [
            (A[i][j].degree, i, j)
            for i in range(t, m) for j in range(t, n) if not A[i][j].is_zero()
        ]
        if not nonzero:
            break
        _, i0, j0 = min(nonzero)
        A[t], A[i0] = A[i0], A[t]
        for row in A:
            row[t], row[j0] = row[j0], row[t]
        pivot, clear = A[t][t], True
        for i in range(t + 1, m):
            if not A[i][t].is_zero():
                q, r = divmod(A[i][t], pivot)
                clear = clear and r.is_zero()
                A[i][t:] = _primitive([a - q * b for a, b in zip(A[i][t:], A[t][t:])])
        for j in range(t + 1, n):
            if not A[t][j].is_zero():
                q, r = divmod(A[t][j], pivot)
                clear = clear and r.is_zero()
                col = _primitive([row[j] - q * row[t] for row in A[t:]])
                for row, v in zip(A[t:], col):
                    row[j] = v
        if clear:
            t += 1

    # The first t diagonal entries are the nonzero pivots.
    diag = [A[i][i].monic() for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            if not diag[i].divides(diag[j]):
                g = poly_gcd(diag[i], diag[j])
                diag[i], diag[j] = g, (diag[i] * diag[j] // g).monic()
    for i, d in enumerate(diag):
        A[i][i] = d

    ok = _validate_snf(A, m, n)
    return A, ok


def _validate_snf(A, m, n):
    for i in range(m):
        for j in range(n):
            if i != j and not A[i][j].is_zero():
                return False
    diag = [A[i][i] for i in range(min(m, n))]
    seen_zero = False
    for p in diag:
        if p.is_zero():
            seen_zero = True
        elif seen_zero:
            return False
        elif p.leading() != p.field.one():
            return False
    for a, b in zip(diag, diag[1:]):
        if not a.is_zero() and not a.divides(b):
            return False
    return True

