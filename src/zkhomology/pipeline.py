"""End-to-end compressed homology.

Upstairs: compatible orientations and boundary matrices of the acted-on
complex, and their isotropy expansion.  Downstairs: the G-boundary matrix
over F[Z_k], its Smith normal form, and the rank reconstruction
rank(boundary_d) = sum_i rank(rho(D_ii)) that yields Betti numbers from
the quotient data alone.  A verifier checks the expansion identity
entry by entry, which ties the two sides together on any input.
"""

from dataclasses import dataclass
from math import gcd

from .errors import DimensionError, InvalidGeneratorError
from .exact import FieldMatrix
from .simplicial import boundary_matrix, default_orientation
from .actions import compatible_ordering, index_reducing, quotient
from .groupring import GroupRingMatrix, rho_extend
from .transfer import build_triple, transfer_matrix
from .ring_snf import snf_over_R


def _orbit_sorted_tuple(qd, simplex):
    # Vertices ordered by their orbit label; pulls the quotient orientation
    # back along the projection.
    return tuple(sorted(simplex, key=lambda v: qd.label[v]))


def _parity(tuple_order):
    seq = list(tuple_order)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def compatible_orientations(action, lift, qd=None):
    """Orientations making the projection and the action chain-friendly.

    Quotient simplices are oriented by increasing orbit labels (sign +1).
    Each lift is oriented so its elementary chain projects onto the
    quotient chain; the rest of the orbit carries the image orientation
    (well-defined because regular stabilizers fix simplices vertex-wise).
    The result satisfies g[psi] = [g psi] for every g and
    pi[psi] = [pi psi] for every psi.

    Returns (orientation of the acted-on complex, orientation of the
    quotient).
    """
    if qd is None:
        qd = quotient(action)
    orient_q = default_orientation(qd.quotient)
    orient_x = {}
    for q in qd.quotient.all_simplices():
        base = _orbit_sorted_tuple(qd, lift[q])
        for c in range(action.k):
            moved = tuple(action.apply_vertex(c, v) for v in base)
            s = tuple(sorted(moved))
            sign = _parity(moved)
            if s in orient_x and orient_x[s] != sign:
                raise ArithmeticError(
                    f"orientation transport inconsistent at {s}"
                )
            orient_x[s] = sign
    return orient_x, orient_q


def oriented_tuple(orient, simplex):
    """The vertex tuple of the chosen elementary chain for a simplex (the
    increasing tuple with its last two entries swapped when the sign is -1)."""
    s = tuple(simplex)
    if orient[s] == 1 or len(s) == 1:
        return s
    return s[:-2] + (s[-1], s[-2])


def compatible_boundary(action, lift, d, field, qd=None, orders=None):
    """Boundary matrix of the acted-on complex in the compatible ordered
    basis: rows and columns follow the lifted-partition orderings, signs
    follow the compatible orientations."""
    if qd is None:
        qd = quotient(action)
    X = action.complex
    if not (1 <= d <= X.dim):
        raise DimensionError(f"d={d} out of range 1..{X.dim}")
    orient_x, _ = compatible_orientations(action, lift, qd=qd)
    row_lp = compatible_ordering(qd, lift, d - 1, _order_for(orders, d - 1))
    col_lp = compatible_ordering(qd, lift, d, _order_for(orders, d))
    return boundary_matrix(
        X, d, field, orient=orient_x,
        row_order=row_lp.ordering, col_order=col_lp.ordering,
    )


def _order_for(orders, d):
    if orders is None:
        return None
    return orders.get(d)


def isotropy_expansion(action, lift, d, field, qd=None, orders=None):
    """The (m k x n k) coset-duplicated enlargement of the compatible
    boundary matrix; same rank as the boundary itself."""
    if qd is None:
        qd = quotient(action)
    k = action.k
    B = compatible_boundary(action, lift, d, field, qd=qd, orders=orders)
    row_lp = compatible_ordering(qd, lift, d - 1, _order_for(orders, d - 1))
    col_lp = compatible_ordering(qd, lift, d, _order_for(orders, d))
    J_rows = index_reducing(row_lp, k)
    J_cols = index_reducing(col_lp, k)
    data = [
        [B.data[J_rows[i] - 1][J_cols[j] - 1] for j in range(len(J_cols))]
        for i in range(len(J_rows))
    ]
    return FieldMatrix(field, len(J_rows), len(J_cols), data)


def g_boundary_matrix(triple, d, field, orders=None):
    """The d-th G-boundary matrix: the quotient boundary matrix with each
    entry multiplied (as the coefficient of the identity) by the group-ring
    sum of its transfer coset."""
    Y = triple.quotient
    if not (1 <= d <= Y.dim):
        raise DimensionError(f"d={d} out of range 1..{Y.dim}")
    rows = _order_for(orders, d - 1) or Y.simplices(d - 1)
    cols = _order_for(orders, d) or Y.simplices(d)
    rows, cols = tuple(tuple(s) for s in rows), tuple(tuple(s) for s in cols)
    Bq = boundary_matrix(Y, d, field, row_order=rows, col_order=cols)
    T = transfer_matrix(triple, d, field, row_order=rows, col_order=cols)
    data = [
        [T.data[a][b].scale(Bq.data[a][b]) for b in range(len(cols))]
        for a in range(len(rows))
    ]
    return GroupRingMatrix(field, triple.k, len(rows), len(cols), data)


def check_generator(exponent, k):
    """Raise InvalidGeneratorError unless alpha^exponent generates Z_k."""
    if gcd(exponent, k) != 1:
        raise InvalidGeneratorError(
            f"exponent {exponent} is not coprime to k={k}, so it does not "
            "generate Z_k"
        )


def compressed_snf(triple, d, field, generator_exponent=1, orders=None):
    """SNF diagonal of the d-th G-boundary matrix, expressed in the basis
    of the chosen generator."""
    check_generator(generator_exponent, triple.k)
    M = g_boundary_matrix(triple, d, field, orders=orders)
    if generator_exponent % triple.k != 1 % triple.k:
        M = M.map_entries(lambda w: w.reindex(generator_exponent))
    return snf_over_R(M)


def compressed_rank(triple, d, field, generator_exponent=1, orders=None):
    """rank(boundary_d) of the acted-on complex, reconstructed from the
    quotient only: the sum of circulant ranks of the SNF diagonal."""
    Y = triple.quotient
    if d < 1 or d > Y.dim:
        return 0
    snf = compressed_snf(triple, d, field, generator_exponent, orders)
    return snf.rank_sum(triple.k)


@dataclass(frozen=True)
class DimensionReport:
    d: int
    chain_dim: int
    rank: int
    snf_lifts: tuple
    betti: int


@dataclass(frozen=True)
class CompressedResult:
    """Per-dimension output of the compressed pipeline plus provenance."""

    field_name: str
    k: int
    generator_exponent: int
    lift_policy: str
    orderings: str
    betti: tuple
    per_dim: tuple

    def as_dict(self):
        return {
            "field": self.field_name,
            "k": self.k,
            "generator": self.generator_exponent,
            "lift": self.lift_policy,
            "orderings": self.orderings,
            "betti": list(self.betti),
            "per_dim": [
                {
                    "d": r.d,
                    "dimC": r.chain_dim,
                    "rank": r.rank,
                    "snf_lifts": list(r.snf_lifts),
                }
                for r in self.per_dim
            ],
        }


def compressed_result(triple, field, generator_exponent=1, orders=None,
                      lift_policy="lex-min"):
    """Betti numbers plus per-dimension diagnostics from a triple alone."""
    check_generator(generator_exponent, triple.k)
    Y = triple.quotient
    dims = [triple.chain_dim(d) for d in range(Y.dim + 1)]
    ranks = [0] * (Y.dim + 2)
    lifts = [()] * (Y.dim + 1)
    for d in range(1, Y.dim + 1):
        snf = compressed_snf(triple, d, field, generator_exponent, orders)
        ranks[d] = snf.rank_sum(triple.k)
        lifts[d] = tuple(snf.lift_strings())
    reports = []
    betti = []
    for d in range(Y.dim + 1):
        b = dims[d] - ranks[d] - ranks[d + 1]
        if b < 0:
            raise ArithmeticError(f"negative Betti number at dimension {d}")
        betti.append(b)
        reports.append(
            DimensionReport(
                d=d, chain_dim=dims[d], rank=ranks[d],
                snf_lifts=lifts[d], betti=b,
            )
        )
    return CompressedResult(
        field_name=field.name,
        k=triple.k,
        generator_exponent=generator_exponent,
        lift_policy=lift_policy,
        orderings="lex" if orders is None else "custom",
        betti=tuple(betti),
        per_dim=tuple(reports),
    )


def compressed_betti(triple, field, generator_exponent=1, orders=None):
    """Betti numbers of the acted-on complex from the quotient data alone."""
    return compressed_result(triple, field, generator_exponent, orders).betti


def verify_expansion_lemma(action, lift, d, field, qd=None):
    """Check that the isotropy expansion equals the entry-wise circulant
    image of the G-boundary matrix, and that each expansion entry matches
    the direct containment test.  Returns (True, None) or (False, report).
    """
    if qd is None:
        qd = quotient(action)
    k = action.k
    triple = build_triple(action, lift=lift, qd=qd)
    E = isotropy_expansion(action, lift, d, field, qd=qd)
    G = rho_extend(g_boundary_matrix(triple, d, field))
    if E.rows != G.rows or E.cols != G.cols:
        return False, f"shape mismatch {E.rows}x{E.cols} vs {G.rows}x{G.cols}"
    for i in range(E.rows):
        for j in range(E.cols):
            if E.data[i][j] != G.data[i][j]:
                return False, (
                    f"d={d}: entry ({i + 1},{j + 1}) differs: expansion has "
                    f"{E.data[i][j]}, circulant image has {G.data[i][j]}"
                )
    # Entry cases by direct containment: block (a, b), offsets (c, c').
    Bq = boundary_matrix(qd.quotient, d, field)
    m = qd.quotient.n_simplices(d - 1)
    n = qd.quotient.n_simplices(d)
    omegas = qd.quotient.simplices(d - 1)
    psis = qd.quotient.simplices(d)
    for a in range(m):
        lo = lift[omegas[a]]
        for b in range(n):
            lp = lift[psis[b]]
            for c in range(1, k + 1):
                moved_o = set(action.apply_simplex(c - 1, lo))
                for cp in range(1, k + 1):
                    moved_p = set(action.apply_simplex(cp - 1, lp))
                    want = (
                        Bq.data[a][b] if moved_o <= moved_p else field.zero()
                    )
                    got = E.data[k * a + c - 1][k * b + cp - 1]
                    if got != want:
                        return False, (
                            f"d={d}: containment case fails at block ({a + 1},"
                            f"{b + 1}) offsets ({c},{cp}): expansion {got}, "
                            f"containment predicts {want}"
                        )
    return True, None
