"""End-to-end compressed homology from an isotropy triple.

The G-boundary matrix over F[Z_k] is built straight from the triple: the
quotient boundary sign of each face pair times the group-ring sum of its
transfer coset.  Its Smith normal form gives the rank reconstruction
rank(boundary_d) = sum_i rank(rho(D_ii)), and with it the Betti numbers
from the quotient data alone, once consecutive G-boundaries are checked to
compose to zero over F[Z_k] (a product of downstairs size).  The answer
is plain data: `compressed_result` returns the document that `homology
--format json` prints, its schema stated there once.  The upstairs model
that ties this matrix to the acted-on complex (compatible boundaries, the
isotropy expansion) lives in `checks`.
"""

from math import gcd

from .errors import DimensionError, InvalidGeneratorError
from .exact import poly_str
from .groupring import GroupRingMatrix
from .ring_snf import _smith_diagonal, rank_sum


def g_boundary_matrix(triple, d, field, orders=None, generator_exponent=1):
    """The d-th G-boundary matrix, in the basis of beta = alpha^g for
    g = generator_exponent.

    Rows run over the (d-1)-simplices and columns over the d-simplices of
    the quotient, in `orders` (lexicographic by default).  For the t-th
    face omega of psi, entry (omega, psi) is (-1)^t sigma(T*(psi, omega)):
    coefficient (-1)^t at each exponent c rewritten as c g^-1 mod k, since
    alpha^c = beta^(c g^-1); every other entry is zero.  The entries are
    written straight into sparse rows in the plain convention of `exact`:
    the ints +-1 over Q, 1 and p - 1 over F_p.
    """
    Y, k = triple.quotient, triple.k
    if not (1 <= d <= Y.dim):
        raise DimensionError(f"d={d} out of range 1..{Y.dim}")
    given = {e: tuple(map(tuple, orders[e])) for e in (d - 1, d) if orders and orders.get(e)}
    if any(sorted(g) != list(Y.simplices(e)) for e, g in given.items()):
        raise ValueError("orders do not permute the quotient simplices")
    rows, cols = (given.get(e) or Y.simplices(e) for e in (d - 1, d))
    g_inv = pow(generator_exponent, -1, k)
    sign = (1, field.neg(1))
    # in lexicographic order a row's position is its index in the quotient
    row_pos = {s: i for i, s in enumerate(rows)} if d - 1 in given else Y._index
    Tstar = triple.Tstar
    entries = {i: {} for i in range(len(rows))}
    for j, psi in enumerate(cols):
        for t in range(d + 1):
            omega = psi[:t] + psi[t + 1:]
            hits = Tstar.get((psi, omega))
            if hits:
                entries[row_pos[omega]][j] = dict.fromkeys(
                    hits if g_inv == 1 else [c * g_inv % k for c in hits], sign[t % 2])
    return GroupRingMatrix(field, k, len(rows), len(cols), entries)


def check_generator(exponent, k):
    """Raise InvalidGeneratorError unless alpha^exponent generates Z_k."""
    if gcd(exponent, k) != 1:
        raise InvalidGeneratorError(
            f"exponent {exponent} is not coprime to k={k}, so it does not "
            "generate Z_k"
        )


def _composes_to_zero(A, B):
    """A B == 0 over F[Z_k], multiplied over sparse rows of
    {exponent: coefficient} entries: each row of A B is accumulated into one
    length-k coefficient list per column, reduced mod p only at the end."""
    k, p, rows_b = A.k, A.field.char, B.entries
    for row in A.entries.values():
        acc = {}            # column -> coefficients of A B at exponents 0..k-1
        for t, a in row.items():
            for j, b in rows_b[t].items():
                out = acc.get(j)
                if out is None:
                    out = acc[j] = [0] * k
                for s, x in a.items():
                    for u, y in b.items():
                        out[(s + u) % k] += x * y
        for out in acc.values():
            if any(v % p for v in out) if p else any(out):
                return False
    return True


def compressed_result(triple, field, generator_exponent=1, orders=None,
                      lift_policy="lex-min"):
    """Betti numbers plus per-dimension diagnostics from a triple alone, as
    the document `homology --format json` prints: {"field", "k",
    "generator", "lift", "orderings" ("lex" or "custom"), "betti", "per_dim":
    [{"d", "dimC", "rank", "snf_lifts"}, ...]}, with the printed Smith-form
    lifts; on an action input the CLI adds "mode", and in `both` mode
    "direct_betti" and "match"."""
    check_generator(generator_exponent, triple.k)
    Y = triple.quotient
    dims = [triple.chain_dim(d) for d in range(Y.dim + 1)]
    ranks = [0] * (Y.dim + 2)
    lifts = [[] for _ in range(Y.dim + 1)]
    # M_d is reduced in its own rows once it has been checked to compose to
    # zero with M_(d-1) and M_(d+1)
    prev = None
    for d in range(1, Y.dim + 2):
        M = g_boundary_matrix(triple, d, field, orders, generator_exponent) if d <= Y.dim else None
        if prev is not None and M is not None and not _composes_to_zero(prev, M):
            raise ArithmeticError(f"composition check failed at d={d}: the G-boundaries "
                                  f"d={d - 1} and d={d} do not compose to zero")
        if prev is not None:
            diagonal = _smith_diagonal(prev, prev.entries)
            ranks[d - 1] = rank_sum(diagonal, triple.k)
            lifts[d - 1] = [poly_str(f) for f in diagonal]
        prev = M
    betti = []
    for d in range(Y.dim + 1):
        betti.append(dims[d] - ranks[d] - ranks[d + 1])
        if betti[d] < 0:
            raise ArithmeticError(f"negative Betti number at dimension {d}")
    return {
        "field": field.name, "k": triple.k, "generator": generator_exponent,
        "lift": lift_policy, "orderings": "lex" if orders is None else "custom",
        "betti": betti,
        "per_dim": [{"d": d, "dimC": dims[d], "rank": ranks[d], "snf_lifts": lifts[d]}
                    for d in range(Y.dim + 1)],
    }


def compressed_betti(triple, field, generator_exponent=1, orders=None):
    """Betti numbers of the acted-on complex from the quotient data alone."""
    return tuple(compressed_result(triple, field, generator_exponent, orders)["betti"])
