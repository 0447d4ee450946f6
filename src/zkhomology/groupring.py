"""The group ring F[Z_k]: elements, matrices, the subset-summing map and
the circulant representation.

An element sum_i a_i alpha^i is a length-k coefficient tuple (a_0, ...,
a_{k-1}); multiplication is cyclic convolution.  The representation rho
sends alpha^c to the k x k matrix of the regular representation (the
transpose of the circulant matrix of the coefficient vector), so
rho(w)[i][j] = a_{(i-j) mod k}.  Elements print with ascending exponents,
e.g. "1 + a^1".
"""

from .errors import DomainMismatchError
from .exact import FieldMatrix


class GroupRingElem:
    """An element of F[Z_k] as a coefficient tuple over alpha powers."""

    __slots__ = ("field", "k", "coeffs")

    def __init__(self, field, k, coeffs):
        coeffs = tuple(field.coerce(c) for c in coeffs)
        if len(coeffs) != k:
            raise ValueError(f"need exactly {k} coefficients, got {len(coeffs)}")
        self.field = field
        self.k = k
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field, k):
        return cls(field, k, (0,) * k)

    @classmethod
    def one(cls, field, k):
        return cls(field, k, (1,) + (0,) * (k - 1))

    def _check(self, other):
        if self.field != other.field or self.k != other.k:
            raise DomainMismatchError("group-ring operands do not match")

    def is_zero(self):
        z = self.field.zero()
        return all(c == z for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        F = self.field
        return GroupRingElem(
            F, self.k, [F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        F = self.field
        return GroupRingElem(F, self.k, [F.neg(a) for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Cyclic convolution (alpha^k = e)."""
        self._check(other)
        F = self.field
        out = [F.zero()] * self.k
        for i, a in enumerate(self.coeffs):
            if a == F.zero():
                continue
            for j, b in enumerate(other.coeffs):
                m = (i + j) % self.k
                out[m] = F.add(out[m], F.mul(a, b))
        return GroupRingElem(F, self.k, out)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return GroupRingElem(F, self.k, [F.mul(c, a) for a in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElem)
            and self.field == other.field
            and self.k == other.k
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.k, self.coeffs))

    def __str__(self):
        F = self.field
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == F.zero():
                continue
            negative = F.char == 0 and c < 0
            mag = -c if negative else c
            if e == 0:
                body = str(mag)
            elif mag == F.one():
                body = f"a^{e}"
            else:
                body = f"{mag}a^{e}"
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"GroupRingElem(k={self.k}, {self})"


def sigma(exponents, field, k):
    """Indicator sum of a subset of Z_k: A maps to sum of its elements."""
    coeffs = [0] * k
    for e in exponents:
        coeffs[e % k] = 1
    return GroupRingElem(field, k, coeffs)


class GroupRingMatrix:
    """Sparse matrix over F[Z_k]: `entries` maps every row index to
    {column: {exponent: coefficient}} over its nonzero entries, with
    coefficients canonical in the field.  `data`, the dense rows of
    GroupRingElem, is built when read (for products and printing)."""

    __slots__ = ("field", "k", "rows", "cols", "entries")

    def __init__(self, field, k, rows, cols, data):
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"shape mismatch: want {rows}x{cols}")
        for row in data:
            for v in row:
                if not isinstance(v, GroupRingElem) or v.field != field or v.k != k:
                    raise DomainMismatchError("entry outside the declared group ring")
        self._fill(field, k, rows, cols, {
            i: {j: {e: c for e, c in enumerate(w.coeffs) if c}
                for j, w in enumerate(row) if any(w.coeffs)}
            for i, row in enumerate(data)})

    @classmethod
    def from_sparse(cls, field, k, rows, cols, entries):
        """Adopt `entries` (every row keyed, coefficients canonical and
        nonzero) as they are: nothing is checked or copied."""
        self = object.__new__(cls)
        self._fill(field, k, rows, cols, entries)
        return self

    def _fill(self, field, k, rows, cols, entries):
        self.field, self.k, self.rows, self.cols, self.entries = field, k, rows, cols, entries

    @classmethod
    def from_rows(cls, field, k, data):
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(field, k, rows, cols, data)

    @property
    def data(self):
        """The dense rows, one GroupRingElem per entry."""
        F, k = self.field, self.k
        return tuple(tuple(GroupRingElem(F, k, [w.get(e, 0) for e in range(k)])
                           for w in (self.entries[i].get(j, {}) for j in range(self.cols)))
                     for i in range(self.rows))

    def sparse_rows(self):
        """A copy of `entries` that the caller may mutate."""
        return {i: {j: dict(w) for j, w in r.items()} for i, r in self.entries.items()}

    def __mul__(self, other):
        if self.field != other.field or self.k != other.k:
            raise DomainMismatchError("matrix product over mixed group rings")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        z = GroupRingElem.zero(self.field, self.k)
        A, B = self.data, other.data
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for t in range(self.cols):
                    acc = acc + A[i][t] * B[t][j]
                row.append(acc)
            out.append(row)
        return GroupRingMatrix(self.field, self.k, self.rows, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and self.field == other.field
            and self.k == other.k
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in row) for row in self.data)
        return f"GroupRingMatrix(k={self.k}, {self.rows}x{self.cols}: [{body}])"


def rho(w):
    """The k x k matrix of multiplication by w in the regular representation
    (transpose of the circulant matrix of w's coefficients)."""
    k = w.k
    data = [[w.coeffs[(i - j) % k] for j in range(k)] for i in range(k)]
    return FieldMatrix(w.field, k, k, data)


def circulant_expansion(field, k, blocks, cols):
    """The (rows k) x (cols k) field matrix whose block (a, b) is rho of the
    coefficients blocks[a][b]: canonical in `field`, at most k of them
    (missing ones are zero).  Only nonzero blocks are written."""
    z = field.zero()
    out = [[z] * (cols * k) for _ in range(len(blocks) * k)]
    for a, row in enumerate(blocks):
        for b, c in enumerate(row):
            if any(c):
                c = tuple(c) + (z,) * (k - len(c))
                for i in range(k):
                    out[a * k + i][b * k:(b + 1) * k] = [c[(i - j) % k] for j in range(k)]
    return FieldMatrix._from_canonical(field, len(out), cols * k, out)


def rho_extend(M):
    """Entry-wise matrix extension of rho: blocks (a, b) hold rho(M[a][b])."""
    z, k = M.field.zero(), M.k
    blocks = [[[r[b].get(e, z) for e in range(k)] if b in r else () for b in range(M.cols)]
              for r in (M.entries[a] for a in range(M.rows))]
    return circulant_expansion(M.field, k, blocks, M.cols)
