"""Exact arithmetic: the fields Q and F_p, polynomials over them, dense
matrices with exact rank, and Smith normal form over F[x].  The dense
matrices serve the direct oracle only: the group-ring side ranks sparse rows.

Scalars are plain Python values.  The dense matrices take their arithmetic
from a `Field` object, on `fractions.Fraction` for Q and integers in [0, p)
for F_p.  Everything else (group-ring entries, polynomial coefficients, the
Smith-form lifts) follows one plain convention under Python's operators:
ints in [0, p) over F_p; over Q, ints where integral and Fractions
otherwise.  A polynomial is a tuple of such coefficients, constant term
first, with no trailing zeros: () is zero, and a nonzero f has degree
len(f) - 1.  The functions on polynomials take the characteristic p (0 for
Q) in place of a field, and F[x] divides in `_divmod` alone.  No floating
point enters any computation.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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


def _plain(p, cs):
    # a coefficient list over F_p (p > 0) or Q (p = 0) as a polynomial in
    # the plain convention: a tuple, trailing zeros dropped
    cs = [c % p for c in cs] if p else [c.numerator if c.denominator == 1 else c for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


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
    """Quotient and remainder of the polynomial a by the nonzero b: the one
    remainder loop of F[x].  Over F_p values are reduced once per quotient
    term and once at the end."""
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


def _mul(p, a, b):
    """The product of the polynomials a and b."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b, i):
            out[j] += ca * cb
    return _plain(p, out)


def _monic(p, f):
    """f scaled to leading coefficient 1; the zero polynomial stays ()."""
    if not f or f[-1] == 1:
        return tuple(f)
    inv = _inverse(p, f[-1])
    return _plain(p, [inv * c for c in f])


def _require_polys(p, **polys):
    for name, f in polys.items():
        if type(f) is not tuple or f and not (f[-1] % p if p else f[-1]):
            raise ValueError(f"{name} must be a coefficient tuple with no trailing zero, "
                             f"got {f!r}")


def poly_str(f):
    """Render a polynomial with terms in descending degree, e.g. "x^2-1".
    Only a coefficient over Q can be negative: over F_p they lie in [0, p)."""
    _require_polys(0, f=f)
    if not f:
        return "0"
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if not c:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if mag == 1 else f"{mag}{xs}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


def poly_gcd(p, a, b):
    """Monic gcd in F[x]; gcd(0, 0) = 0."""
    _require_polys(p, a=a, b=b)
    while b:
        a, b = b, _divmod(p, a, b)[1]
    return _monic(p, a)


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


def _primitive(p, line):
    """Scale a row or column of rational polynomials to primitive integer
    form.

    Scaling by a nonzero field constant is a unimodular operation over
    F[x]; keeping lines primitive blocks the coefficient explosion of
    naive remainder sequences.  No-op over prime fields and on zero lines.
    """
    coeffs = [] if p else [c for f in line for c in f]
    if not coeffs:
        return line
    denom = lcm(*(c.denominator for c in coeffs))
    scale = Fraction(denom, gcd(*(c.numerator * (denom // c.denominator) for c in coeffs)))
    return [_plain(0, [scale * c for c in f]) for f in line]


def snf_over_polys(p, rows):
    """Smith normal form over the Euclidean domain F[x], F = F_p (p > 0) or
    Q (p = 0).

    `rows` is an m x n grid of polynomials in the plain convention.  Returns
    the min(m, n) invariant factors: the monic nonzero ones first, each
    dividing the next, then zeros ().  Transformation matrices are not
    produced.  A ragged grid or an entry that is not a polynomial raises
    ValueError, and a diagonal that fails its self-check (off-diagonal
    zeros, monic entries, zeros last, divisibility) raises ArithmeticError.

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
    A = [list(row) for row in rows]
    m, n = len(A), len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged polynomial matrix")

    def minus(a, q, b):
        # a - q b
        out = list(a) + [0] * (len(q) + len(b) - 1 - len(a))
        for i, c in enumerate(q):
            for j, bj in enumerate(b, i):
                out[j] -= c * bj
        return _plain(p, out)

    for i in range(m):
        _require_polys(p, **{f"rows[{i}][{j}]": f for j, f in enumerate(A[i])})
        A[i] = _primitive(p, A[i])
    t = 0
    size = min(m, n)
    while t < size:
        nonzero = [(len(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nonzero:
            break
        _, i0, j0 = min(nonzero)
        A[t], A[i0] = A[i0], A[t]
        for row in A:
            row[t], row[j0] = row[j0], row[t]
        pivot, clear = A[t][t], True
        for i in range(t + 1, m):
            if A[i][t]:
                q, r = _divmod(p, A[i][t], pivot)
                clear = clear and not r
                A[i][t:] = _primitive(p, [minus(a, q, b) for a, b in zip(A[i][t:], A[t][t:])])
        for j in range(t + 1, n):
            if A[t][j]:
                q, r = _divmod(p, A[t][j], pivot)
                clear = clear and not r
                col = _primitive(p, [minus(row[j], q, row[t]) for row in A[t:]])
                for row, v in zip(A[t:], col):
                    row[j] = v
        if clear:
            t += 1

    # The first t diagonal entries are the nonzero pivots.
    diag = [_monic(p, A[i][i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            if _divmod(p, diag[j], diag[i])[1]:
                g = poly_gcd(p, diag[i], diag[j])
                diag[i], diag[j] = g, _monic(p, _divmod(p, _mul(p, diag[i], diag[j]), g)[0])
    for i, d in enumerate(diag):
        A[i][i] = d

    if not _validate_snf(p, A, m, n):
        raise ArithmeticError("polynomial SNF self-check failed")
    return [tuple(A[i][i]) for i in range(size)]


def _validate_snf(p, A, m, n):
    for i in range(m):
        for j in range(n):
            if i != j and A[i][j]:
                return False
    diag = [A[i][i] for i in range(min(m, n))]
    seen_zero = False
    for f in diag:
        if not f:
            seen_zero = True
        elif seen_zero or f[-1] != 1:
            return False
    return all(not a or not _divmod(p, b, a)[1] for a, b in zip(diag, diag[1:]))
