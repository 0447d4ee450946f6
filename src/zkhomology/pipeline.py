"""End-to-end compressed homology from an isotropy triple.

The G-boundary matrix over F[Z_k] is written straight from the triple in
lexicographic order: the quotient boundary sign of each face pair times
the group-ring sum of its transfer coset.  The private driver `_reduce`
takes any sparse boundaries, over F[Z_k] or at k = 1 over F, checks each
consecutive pair to compose to zero (a product of their own size), and
only then reduces each to its Smith normal form, whose rank reconstruction
rank(boundary_d) = sum_i rank(rho(D_ii)) gives the Betti numbers.
`compressed_result` returns them as the document that `homology --format
json` prints, its schema stated there once; `compressed_betti` prints no
lift.  `verify` reads its ranks through the driver too; the upstairs model
that ties the G-boundary to the acted-on complex lives in `checks`.
"""

from math import gcd

from .errors import DimensionError, InvalidGeneratorError
from .exact import poly_str
from .groupring import GroupRingMatrix
from .ring_snf import _smith_diagonal, rank_sum


def g_boundary_matrix(triple, d, field, generator_exponent=1):
    """The d-th G-boundary matrix, in the basis of beta = alpha^g for
    g = generator_exponent.

    Rows run over the (d-1)-simplices and columns over the d-simplices of
    the quotient, in lexicographic order.  For the t-th face omega of psi,
    entry (omega, psi) is (-1)^t sigma(T*(psi, omega)): coefficient (-1)^t
    at each exponent c rewritten as c g^-1 mod k, since
    alpha^c = beta^(c g^-1); every other entry is zero.  The entries are
    written straight into sparse rows in the plain convention of `exact`:
    the ints +-1 over Q, 1 and p - 1 over F_p.
    """
    Y, k, Tstar = triple.quotient, triple.k, triple.Tstar
    if not (1 <= d <= Y.dim):
        raise DimensionError(f"d={d} out of range 1..{Y.dim}")
    rows, cols = Y.simplices(d - 1), Y.simplices(d)
    g_inv = pow(generator_exponent, -1, k)
    sign = (1, field.neg(1))
    row_pos = Y._index    # in lexicographic order a row's position is its index
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


def _g_boundaries(triple, field, generator_exponent):
    """The chain dimensions and every G-boundary of `triple`, d = 1 .. dim."""
    check_generator(generator_exponent, triple.k)
    dims = [triple.chain_dim(d) for d in range(triple.quotient.dim + 1)]
    return dims, [g_boundary_matrix(triple, d, field, generator_exponent)
                  for d in range(1, len(dims))]


def _reduce(dims, Ms):
    """Ranks, Smith diagonals as lifts (none at d = 0) and Betti numbers of
    the chain complex of dimensions `dims` and sparse boundaries `Ms` over
    F[Z_k] (over F at k = 1): every composition check runs before any
    reduction, and each M is reduced, and spent, in its own rows."""
    for d, (A, B) in enumerate(zip(Ms, Ms[1:]), 2):
        if not _composes_to_zero(A, B):
            raise ArithmeticError(f"composition check failed at d={d}: the G-boundaries "
                                  f"d={d - 1} and d={d} do not compose to zero")
    diagonals = [()] + [_smith_diagonal(M, M.entries) for M in Ms]
    ranks = [0] + [rank_sum(D, M.k) for D, M in zip(diagonals[1:], Ms)] + [0]
    betti = [n - r - r_up for n, r, r_up in zip(dims, ranks, ranks[1:])]
    for d, b in enumerate(betti):
        if b < 0:
            raise ArithmeticError(f"negative Betti number at dimension {d}")
    return ranks, diagonals, betti


def compressed_result(triple, field, generator_exponent=1, lift_policy="lex-min"):
    """Betti numbers plus per-dimension diagnostics from a triple alone, as
    the document `homology --format json` prints: {"field", "k",
    "generator", "lift", "orderings" (always "lex"), "betti", "per_dim":
    [{"d", "dimC", "rank", "snf_lifts"}, ...]}, with the printed Smith-form
    lifts; on an action input the CLI adds "mode", and in `both` mode
    "direct_betti" and "match"."""
    dims, Ms = _g_boundaries(triple, field, generator_exponent)
    ranks, diagonals, betti = _reduce(dims, Ms)
    shown = {f: poly_str(f) for f in set().union(*diagonals)}
    return {
        "field": field.name, "k": triple.k, "generator": generator_exponent,
        "lift": lift_policy, "orderings": "lex", "betti": betti,
        "per_dim": [{"d": d, "dimC": dims[d], "rank": ranks[d],
                     "snf_lifts": [shown[f] for f in diagonals[d]]} for d in range(len(dims))],
    }


def compressed_betti(triple, field, generator_exponent=1):
    """Betti numbers of the acted-on complex from the quotient data alone."""
    return tuple(_reduce(*_g_boundaries(triple, field, generator_exponent))[2])
