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

from collections import Counter
from dataclasses import dataclass

from .exact import Poly, field_rank, poly_gcd, snf_over_polys, poly_str
from .groupring import GroupRingElem, circulant_expansion

@dataclass(frozen=True)
class SnfDiagonal:
    """Diagonal of a Smith normal form over F[Z_k].

    `lifts` are the monic invariant factors in F[x], each dividing
    x^k - 1 and each dividing the next; `diag` is their image in the group
    ring (an entry is zero exactly when its lift is x^k - 1).
    """

    shape: tuple
    lifts: tuple
    diag: tuple

    def entry_ranks(self, k):
        """rank(rho(D_ii)) per entry: k minus the lift degree."""
        return tuple(k - f.degree for f in self.lifts)

    def rank_sum(self, k):
        return sum(self.entry_ranks(k))

    def lift_strings(self):
        return [poly_str(f) for f in self.lifts]


def _unit_pivot_reduce(M):
    """Eliminate monomial pivots, least Markowitz cost first.  Returns the
    pivot count and the plain lift of the residual.  Entries are held as
    {exponent: coefficient} dicts while rows change."""
    field, k, p = M.field, M.k, M.field.char
    norm = (lambda v: v % p) if p else (lambda v: v)
    rows = M.sparse_rows()
    pivot_cols = set()
    while True:
        units = [(i, j) for i, r in rows.items() for j, w in r.items() if len(w) == 1]
        if not units:
            break
        count = Counter(j for r in rows.values() for j in r)
        _, pi, pj = min(((len(rows[i]) - 1) * (count[j] - 1), i, j) for i, j in units)
        prow = rows.pop(pi)
        ((e, c),) = prow.pop(pj).items()
        inv = field.inv(c)
        pivot_cols.add(pj)
        for r in rows.values():
            if pj in r:
                # row -= a u^-1 row_p, with a u^-1 = c^-1 x^-e a
                f = [((t - e) % k, a * inv) for t, a in r.pop(pj).items()]
                for j, b in prow.items():
                    out = dict(r.get(j, {}))
                    for s, fs in f:
                        for t, bt in b.items():
                            u = (s + t) % k
                            out[u] = norm(out.get(u, 0) - fs * bt)
                    r[j] = {t: v for t, v in out.items() if v}
                    if not r[j]:
                        del r[j]
    zero = Poly.zero(field)
    lift = [[Poly(field, [r[j].get(e, 0) for e in range(k)]) if j in r else zero
             for j in range(M.cols) if j not in pivot_cols]
            for _, r in sorted(rows.items())]
    return len(pivot_cols), lift


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
    # x^k = 1 in R: fold each lift's exponents mod k
    diag = tuple(GroupRingElem(field, k, [sum(f.coeffs[e::k], field.zero())
                                          for e in range(k)]) for f in lifts)
    result = SnfDiagonal(shape=(m, n), lifts=lifts, diag=diag)
    expected = k * pivots + field_rank(circulant_expansion(
        field, k, [[f.coeffs for f in row] for row in residual], n - pivots))
    if result.rank_sum(k) != expected:
        raise ArithmeticError(f"rank certificate failed: SNF predicts "
                              f"{result.rank_sum(k)}, expanded matrix has rank {expected}")
    return result
