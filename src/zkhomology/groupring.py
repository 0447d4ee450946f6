"""Matrices over the group ring F[Z_k] and the circulant representation.

An element sum_i a_i alpha^i is stored sparsely as {exponent: coefficient}
over its nonzero coefficients; multiplication is cyclic convolution.  The
representation rho sends alpha^c to the k x k matrix of the regular
representation (the transpose of the circulant matrix of the coefficient
vector), so rho(w)[i][j] = a_{(i-j) mod k}.  Its images are matrices over
F[Z_1], sparse rows like any other, which `ring_snf.sparse_rank` ranks; the
dense matrices of `exact` serve the direct oracle only.
"""


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


def circulant_expansion(field, k, entries, rows, cols):
    """rho applied entry-wise to the sparse rows `entries`, {a: {b: {e: c}}},
    of a rows x cols matrix over F[Z_k]: the (rows k) x (cols k) matrix over
    F[Z_1] whose row a k + i holds c at column b k + (i - e) mod k."""
    out = {i: {} for i in range(rows * k)}
    for a, r in entries.items():
        for b, w in r.items():
            for e, c in w.items():
                for i in range(k):
                    out[a * k + i][b * k + (i - e) % k] = {0: c}
    return GroupRingMatrix(field, 1, rows * k, cols * k, out)


def rho_extend(M):
    """Entry-wise matrix extension of rho: blocks (a, b) hold rho(M[a][b])."""
    return circulant_expansion(M.field, M.k, M.entries, M.rows, M.cols)
