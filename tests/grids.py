"""Matrices over F[Z_k] written as grids of coefficient tuples (exponent 0
first), the products the tests compute for themselves, polynomials over F
built and divided with the Field methods alone, and the lens covers whose
G-boundaries fill in heavily."""

from functools import reduce

from zkhomology.actions import induced_subdivision_action, validate_action
from zkhomology.exact import FieldMatrix
from zkhomology.groupring import GroupRingMatrix
from zkhomology.simplicial import build_complex


def ring_matrix(field, k, grid, cols=0):
    """The GroupRingMatrix of a grid of coefficient tuples; missing
    exponents are zero, and `cols` gives the width of a grid with no rows.
    Coefficients are written in the plain convention of `exact`: ints where
    integral, as the G-boundaries are."""
    entries = {i: {} for i in range(len(grid))}
    for i, row in enumerate(grid):
        for j, w in enumerate(row):
            w = {e: c.numerator if c.denominator == 1 else c
                 for e, c in enumerate(map(field.coerce, w)) if c}
            if w:
                entries[i][j] = w
    return GroupRingMatrix(field, k, len(grid), len(grid[0]) if grid else cols, entries)


def tuples(M):
    """The grid of coefficient tuples of a GroupRingMatrix."""
    z = M.field.zero()
    return [[tuple(M.entries[i].get(j, {}).get(e, z) for e in range(M.k))
             for j in range(M.cols)] for i in range(M.rows)]


def dense(M):
    """The FieldMatrix of a matrix over F[Z_1] (a rho image or an isotropy
    expansion), built through the coercing constructor so that the dense
    field_rank can rank it.  Every row is present and every entry is
    {0: c} at a column in range, with c nonzero."""
    assert M.k == 1 and set(M.entries) == set(range(M.rows))
    assert all(0 <= j < M.cols and set(w) == {0} and w[0]
               for r in M.entries.values() for j, w in r.items())
    return FieldMatrix(M.field, M.rows, M.cols, [[w[0] for w in row] for row in tuples(M)])


def add(field, a, b):
    """a + b in F[Z_k] for coefficient tuples of length k."""
    return tuple(map(field.add, a, b))


def convolve(field, a, b):
    """a b in F[Z_k] for coefficient tuples of length k: cyclic convolution."""
    out = [field.zero()] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            m = (i + j) % len(a)
            out[m] = field.add(out[m], field.mul(x, y))
    return tuple(out)


def ring_product(A, B):
    """A B over F[Z_k], as a grid of coefficient tuples."""
    F, a, b = A.field, tuples(A), tuples(B)
    zero = (F.zero(),) * A.k
    return [[reduce(lambda x, y: add(F, x, y),
                    (convolve(F, a[i][t], b[t][j]) for t in range(A.cols)), zero)
             for j in range(B.cols)] for i in range(A.rows)]


def circulant(field, w):
    """rho(w) written out: the k x k matrix with entry w[(i - j) mod k] at
    (i, j), for a coefficient tuple w of length k."""
    k = len(w)
    return FieldMatrix(field, k, k, [[w[(i - j) % k] for j in range(k)] for i in range(k)])


def field_product(A, B):
    """A B of two FieldMatrix."""
    F = A.field
    return FieldMatrix(F, A.rows, B.cols, [
        [reduce(F.add, (F.mul(a, B.data[t][j]) for t, a in enumerate(row)), F.zero())
         for j in range(B.cols)] for row in A.data])


def lens_cover(k, s):
    """S^3 = C_n * C_n, n = k s, under a_i -> a_(i+s), b_j -> b_(j+s),
    subdivided once: for s >= 2 a regular Z_k action whose quotient is the
    lens space L(k, 1).  Vertex a_i is i and b_j is n + j."""
    n = k * s
    tets = [{i, (i + 1) % n, n + j, n + (j + 1) % n} for i in range(n) for j in range(n)]
    perm = [(i + s) % n for i in range(n)] + [n + (j + s) % n for j in range(n)]
    return induced_subdivision_action(validate_action(build_complex(tets), perm, k))


def P(field, *coeffs):
    """The polynomial with these coefficients (constant term first) as
    `exact` stores one: each coerced through the Field methods, integral
    rationals as ints, trailing zeros trimmed."""
    cs = [field.coerce(c) for c in coeffs]
    if not field.char:
        cs = [c.numerator if c.denominator == 1 else c for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def x_pow_minus_one(field, k):
    """x^k - 1, the modulus of F[Z_k]."""
    return P(field, -1, *(0,) * (k - 1), 1)


def list_divmod(field, a, b):
    """Long division of the coefficient list a by the nonzero b with the
    Field methods alone, independent of `exact`'s arithmetic: (quotient,
    remainder) as lists of field values, trailing zeros trimmed."""
    rem, b = [field.coerce(c) for c in a], [field.coerce(c) for c in b]
    inv, n = field.inv(b[-1]), len(b) - 1
    quo = [field.zero()] * max(len(rem) - n, 0)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = field.mul(rem[i + n], inv)
        for j, bj in enumerate(b):
            rem[i + j] = field.sub(rem[i + j], field.mul(quo[i], bj))
    rem = rem[:n]
    for cs in (quo, rem):
        while cs and cs[-1] == field.zero():
            cs.pop()
    return quo, rem


def divides(field, a, b):
    """Whether the polynomial a divides b; zero divides only zero."""
    return not b if not a else not list_divmod(field, b, a)[1]
