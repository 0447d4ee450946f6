"""Smith normal form over R = F[Z_k], via the quotient presentation
R = F[x]/(q) with q = x^k - 1.

The invariant-ideal chain of an m x n matrix M over R is read off the
Euclidean Smith normal form D = U M~ V of its plain lift M~ over F[x]:
the lifts are gcd(d_i, q) for i < min(m, n), with gcd(0, q) = q.

Why this is exact: the cokernel of M over R is presented over F[x] by the
augmented lift [M~ | q I_m].  Since [M~ | q I_m] = U^-1 [D V^-1 | q U],
unimodular row operations (by U) and column operations within each block
(by V and by U^-1) turn it into [D | q I_m].  Row i of that matrix gives
the summand F[x]/(gcd(d_i, q)); a row beyond n gives F[x]/(q).  The gcds
divide q and, as d_i | d_{i+1}, each divides the next, so by uniqueness
of invariant factors they are the augmented lift's own, its padding
copies of q included.  No transformation matrices are produced; instead
every call certifies itself by comparing the predicted rank sum with the
exact rank of the expanded field matrix.
"""

from dataclasses import dataclass

from .exact import Poly, field_rank, poly_gcd, snf_over_polys, poly_str
from .groupring import GroupRingElem, rho_extend


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


def _group_ring_of_poly(field, k, f):
    # Reduce mod x^k - 1 by folding exponents (x^k == 1 in the quotient).
    folded = [field.zero()] * k
    for e, c in enumerate(f.coeffs):
        folded[e % k] = field.add(folded[e % k], c)
    return GroupRingElem(field, k, folded)


def snf_over_R(M):
    """Smith normal form diagonal of a GroupRingMatrix.

    The rank-consistency certificate
    field_rank(rho_extend(M)) == sum_i (k - deg f_i) is enforced.
    """
    field, k, m, n = M.field, M.k, M.rows, M.cols
    size = min(m, n)
    if size == 0:
        return SnfDiagonal(shape=(m, n), lifts=(), diag=())
    q = Poly.x_pow_minus_one(field, k)
    D, ok = snf_over_polys([[entry.lift() for entry in row] for row in M.data])
    if not ok:
        raise ArithmeticError("polynomial SNF self-check failed")
    lifts = tuple(poly_gcd(D[i][i], q) for i in range(size))
    for a, b in zip(lifts, lifts[1:]):
        if not a.divides(b):
            raise ArithmeticError("divisibility chain broken in lifted SNF")
    diag = tuple(_group_ring_of_poly(field, k, f) for f in lifts)
    result = SnfDiagonal(shape=(m, n), lifts=lifts, diag=diag)
    expected = field_rank(rho_extend(M))
    if result.rank_sum(k) != expected:
        raise ArithmeticError(
            f"rank certificate failed: SNF predicts {result.rank_sum(k)}, "
            f"expanded matrix has rank {expected}"
        )
    return result
