"""Smith normal form over R = F[Z_k] = F[x]/(q), q = x^k - 1.

Unit pivots first.  An entry u = c x^e (one nonzero coefficient) is a unit
of R.  Subtracting a_ij u^-1 times the pivot row p from every other row i
clears u's column j; column operations then clear row p, and scaling by
u^-1 makes the pivot 1.  These steps are unimodular over R, so
M ~ diag(1, S), S the updated matrix less row p and column j (the Schur
complement).  Repeating while a monomial entry is left, least Markowitz
cost (r-1)(c-1) first to limit fill-in, gives M ~ diag(1^p, S) for a
residual S of shape (m-p) x (n-p); a matrix without one is its own residual.

The residual is read off the Euclidean Smith form D = U S~ V of its plain
lift S~ over F[x].  coker S over R is presented over F[x] by [S~ | q I],
and [S~ | q I] = U^-1 [D V^-1 | q U]: row operations by U and column
operations within each block (by V, by U^-1) give [D | q I], whose row i
is the summand F[x]/(gcd(d_i, q)), with gcd(0, q) = q.  These gcds divide
q and each the next, so they are the invariant factors of [S~ | q I].

Together: coker M = coker S over R, and an m-generator presentation of it
has the invariant factors 1^p followed by the m-p of S.  So the first
min(m, n) = p + min(m-p, n-p) lifts are 1 per pivot, then gcd(d_i, q) for
i < min(m-p, n-p), and rank_F rho(M) = k p + rank_F rho(S).  No transform
is kept.  Every call checks that the lifts of S predict rank_F rho(S), the
(m-p)k x (n-p)k expansion of S~; the mk x nk one of M is left to `verify`.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .exact import Poly, field_rank, poly_gcd, snf_over_polys, poly_str
from .groupring import circulant_expansion

@dataclass(frozen=True)
class SnfDiagonal:
    """Diagonal of a Smith normal form over F[Z_k].

    `lifts` are the monic invariant factors in F[x], each dividing
    x^k - 1 and each dividing the next; an entry of the diagonal over
    F[Z_k] is zero exactly when its lift is x^k - 1.
    """

    lifts: tuple
    k: int

    def rank_sum(self):
        """rank_F rho(D): each entry contributes k minus its lift's degree."""
        return sum(self.k - f.degree for f in self.lifts)

    def lift_strings(self):
        return [poly_str(f) for f in self.lifts]


def _eliminate_units(field, k, rows):
    """Eliminate monomial pivots from `rows`, {row: {column: {exponent:
    coefficient}}}, in place: least Markowitz cost first, then least row,
    then least column.  Returns the pivots (row, column) in order.

    The rows of each column are kept up to date, and the monomial entries
    sit in a heap keyed by (cost, row, column): a key is pushed again
    whenever it may have changed, and a popped key that no longer holds is
    dropped."""
    p = field.char
    norm = (lambda v: v % p) if p else (lambda v: v)
    col_rows = {}
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    heap = [((len(r) - 1) * (len(col_rows[j]) - 1), i, j)
            for i, r in rows.items() for j, w in r.items() if len(w) == 1]
    heapify(heap)
    pivots = []
    while heap:
        key, pi, pj = heappop(heap)
        r = rows.get(pi)
        if (r is None or len(r.get(pj, ())) != 1
                or key != (len(r) - 1) * (len(col_rows[pj]) - 1)):
            continue
        prow = rows.pop(pi)
        ((e, c),) = prow.pop(pj).items()
        inv = field.inv(c)
        pivots.append((pi, pj))
        touched = col_rows.pop(pj) - {pi}
        for j in prow:
            col_rows[j].discard(pi)
        for i in touched:
            r = rows[i]
            # row -= a u^-1 row_p, with a u^-1 = c^-1 x^-e a
            f = [((t - e) % k, a * inv) for t, a in r.pop(pj).items()]
            for j, b in prow.items():
                out = dict(r.get(j, {}))
                for s, fs in f:
                    for t, bt in b.items():
                        u = (s + t) % k
                        out[u] = norm(out.get(u, 0) - fs * bt)
                r[j] = {t: v for t, v in out.items() if v}
                if r[j]:
                    col_rows[j].add(i)
                else:
                    del r[j]
                    col_rows[j].discard(i)
        # the key of every monomial entry in a touched row or in a column
        # of the pivot row may have changed: push it again
        for i in touched:
            r = rows[i]
            for j, w in r.items():
                if len(w) == 1:
                    heappush(heap, ((len(r) - 1) * (len(col_rows[j]) - 1), i, j))
        for j in prow:
            n = len(col_rows[j]) - 1
            for i in col_rows[j] - touched:
                if len(rows[i][j]) == 1:
                    heappush(heap, ((len(rows[i]) - 1) * n, i, j))
    return pivots


def _unit_pivot_reduce(M):
    """Eliminate monomial pivots from a copy of M's sparse rows.  Returns
    the pivot count and the plain lift of the residual."""
    field, k, rows = M.field, M.k, M.sparse_rows()
    pivots = _eliminate_units(field, k, rows)
    pivot_cols = {j for _, j in pivots}
    zero = Poly.zero(field)
    keep = [j for j in range(M.cols) if j not in pivot_cols]
    lift = [[Poly(field, [r[j].get(e, 0) for e in range(k)]) if j in r else zero
             for j in keep]
            for _, r in sorted(rows.items())]
    return len(pivots), lift


def snf_over_R(M):
    """Smith normal form diagonal of a GroupRingMatrix, certified by
    sum_i (k - deg f_i) == k p + rank_F rho(S) after p unit pivots."""
    field, k, m, n = M.field, M.k, M.rows, M.cols
    q = Poly.x_pow_minus_one(field, k)
    pivots, residual = _unit_pivot_reduce(M)
    D, ok = snf_over_polys(residual)
    if not ok:
        raise ArithmeticError("polynomial SNF self-check failed")
    lifts = (Poly.one(field),) * pivots + tuple(
        poly_gcd(D[i][i], q) for i in range(min(m, n) - pivots))
    for a, b in zip(lifts, lifts[1:]):
        if not a.divides(b):
            raise ArithmeticError("divisibility chain broken in lifted SNF")
    result = SnfDiagonal(lifts=lifts, k=k)
    expected = k * pivots + field_rank(circulant_expansion(
        field, k, [[f.coeffs for f in row] for row in residual], n - pivots))
    if result.rank_sum() != expected:
        raise ArithmeticError(f"rank certificate failed: SNF predicts "
                              f"{result.rank_sum()}, expanded matrix has rank {expected}")
    return result
