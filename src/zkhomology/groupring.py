"""Matrices over the group ring F[Z_k] and the circulant representation.

An element sum_i a_i alpha^i is stored sparsely as {exponent: coefficient}
over its nonzero coefficients; multiplication is cyclic convolution.  The
representation rho sends alpha^c to the k x k matrix of the regular
representation (the transpose of the circulant matrix of the coefficient
vector), so rho(w)[i][j] = a_{(i-j) mod k}.
"""

from .exact import FieldMatrix


class GroupRingMatrix:
    """Sparse matrix over F[Z_k]: `entries` maps every row index to
    {column: {exponent: coefficient}} over its nonzero entries, with
    coefficients canonical and nonzero in the field.  The rows are adopted
    as they are: nothing is checked or copied."""

    __slots__ = ("field", "k", "rows", "cols", "entries")

    def __init__(self, field, k, rows, cols, entries):
        self.field, self.k, self.rows, self.cols, self.entries = field, k, rows, cols, entries

    def sparse_rows(self):
        """A copy of `entries` that the caller may mutate."""
        return {i: {j: dict(w) for j, w in r.items()} for i, r in self.entries.items()}

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and self.field == other.field
            and self.k == other.k
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"GroupRingMatrix({self.field}, k={self.k}, {self.rows}x{self.cols}: {self.entries})"


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
