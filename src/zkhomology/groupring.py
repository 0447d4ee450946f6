"""Matrices over the group ring F[Z_k] and the circulant representation.

An element sum_i a_i alpha^i is stored sparsely as {exponent: coefficient}
over its nonzero coefficients; multiplication is cyclic convolution.  The
representation rho sends alpha^c to the k x k matrix of the regular
representation (the transpose of the circulant matrix of the coefficient
vector), so rho(w)[i][j] = a_{(i-j) mod k}.  `rho_extend` applies it entry
by entry, for `verify`'s rank certificate on a whole G-boundary and its
expansion lemma; its images are sparse rows over F[Z_1], which
`ring_snf.sparse_rank` ranks.  The production path never calls it.
"""


class GroupRingMatrix:
    """Sparse matrix over F[Z_k]: `entries` maps every row index to
    {column: {exponent: coefficient}} over its nonzero entries, with
    nonzero coefficients in the plain convention of `exact`.  The rows are
    adopted as they are: nothing is checked or copied."""

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


def rho_extend(M):
    """rho applied entry-wise to M over F[Z_k]: the (M.rows k) x (M.cols k)
    matrix over F[Z_1] whose row a k + i holds c at column b k + (i - e) mod k
    for each term c alpha^e of entry (a, b)."""
    k = M.k
    out = {i: {} for i in range(M.rows * k)}
    for a, r in M.entries.items():
        for b, w in r.items():
            for e, c in w.items():
                for i in range(k):
                    out[a * k + i][b * k + (i - e) % k] = {0: c}
    return GroupRingMatrix(M.field, 1, M.rows * k, M.cols * k, out)
