"""Smith normal form over R = F[Z_k] = F[x]/(q), q = x^k - 1.

Unit pivots first.  An entry u = c x^e (one nonzero coefficient) is a unit
of R.  Subtracting a_ij u^-1 times the pivot row p from every other row i
clears u's column j; column operations then clear row p, and scaling by
u^-1 makes the pivot 1.  These steps are unimodular over R, so
M ~ diag(1, S), S the updated matrix less row p and column j (the Schur
complement).  Repeating while a monomial entry is left, taking entries of
low Markowitz cost (r-1)(c-1) first to limit fill-in, gives
M ~ diag(1^p, S) for a residual S of shape (m-p) x (n-p); a matrix without
one is its own residual.
Coefficients follow the plain convention of `exact`: a pivot +-1 over Q is
its own inverse, so only a pivot of another value brings in Fractions.

The residual is compacted to its core C, its nonzero rows and columns:
permuting lines puts S in the form [[C, 0], [0, 0]], so the Smith form of
S is that of C followed by zeros.  C is read off the Euclidean Smith form
D = U C~ V of its plain lift C~ over F[x], whose entry at (a, b) is the
coefficient list of C's entry {e: c} at (a, b).  coker C over R is presented
over F[x] by [C~ | q I], and [C~ | q I] = U^-1 [D V^-1 | q U]: row
operations by U and column operations within each block (by V, by U^-1)
give [D | q I], whose row i is the summand F[x]/(gcd(d_i, q)), with
gcd(0, q) = q.  These gcds divide q and each the next, so they are the
invariant factors of [C~ | q I].  A core of at most one line skips the
Euclidean form: a 1 x b or a x 1 core has no zero entry and d_0 is the gcd
of its entries, so its one lift is gcd(f_1, ..., f_b, q); an empty core has
none.

Together: coker M = coker S over R, and an m-generator presentation of it
has the invariant factors 1^p followed by the m-p of S.  So the first
min(m, n) = p + min(m-p, n-p) lifts are 1 per pivot, then gcd(d_i, q) for
i < min(a, b) on the a x b core, then q once per zero line until there are
min(m, n): a zero entry of R lifts to q.  Each lift is a polynomial as
`exact` keeps one, a tuple of plain coefficients with the constant term
first: 1 is (1,), and q is (p-1, 0, ..., 0, 1) over F_p and
(-1, 0, ..., 0, 1) over Q.  The diagonal is that tuple of lifts and
nothing more: an entry is a unit of R exactly when its lift is (1,), and
zero exactly when its lift is q, and `rank_sum` reads rank_F rho(D) off
the lifts.  No transform is kept, and no copy on the production path:
`pipeline` reduces each G-boundary in its own rows, while `snf_over_R`
works on a copy and leaves its argument unchanged.
Every call checks the divisibility chain on the lifts after the 1s (1
divides anything) and expands nothing to rho: that the lifts predict
rank_F rho(M) is `verify`'s certificate, ranked by the same unit
elimination with k = 1 (`sparse_rank`: over a field every nonzero entry is
a unit).
"""

from functools import partial, reduce
from heapq import heapify, heappop, heappush

from .exact import _divmod, _inverse, poly_gcd, snf_over_polys
from .groupring import GroupRingMatrix


def rank_sum(lifts, k):
    """rank_F rho(D) of a Smith diagonal D over F[Z_k] given by its lifts:
    each entry contributes k minus its lift's degree."""
    return sum(k + 1 - len(f) for f in lifts)


def _eliminate_units(field, k, rows):
    """Eliminate monomial pivots from `rows`, {row: {column: {exponent:
    coefficient}}}, in place, and return the pivots (row, column) in order.

    One lazy heap of keys (cost, row, column), cost the Markowitz count
    (r-1)(c-1), picks the pivots.  A key is pushed for every monomial entry
    at the start, and once each pivot's update is done, for every entry it
    left as a monomial.  A popped key is skipped if its entry is gone or no
    longer a monomial, pushed again at the new cost if the cost rose, and
    otherwise names the next pivot.  So every monomial entry keeps a key
    until it is a pivot or is rewritten, and a rewrite that leaves a
    monomial pushes one: the loop ends with no monomial entry left.  The
    order is near the least cost, not exactly it; the Smith form does not
    depend on it."""
    p = field.char
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
        if r is None or len(r.get(pj, ())) != 1:
            continue
        cost = (len(r) - 1) * (len(col_rows[pj]) - 1)
        if cost > key:
            heappush(heap, (cost, pi, pj))
            continue
        prow = rows.pop(pi)
        ((e, c),) = prow.pop(pj).items()
        inv = _inverse(p, c)
        pivots.append((pi, pj))
        touched = col_rows.pop(pj)
        touched.discard(pi)
        for j in prow:
            col_rows[j].discard(pi)
        fresh = []
        for i in touched:
            r = rows[i]
            # row -= a u^-1 row_p, with a u^-1 = c^-1 x^-e a
            f = [((t - e) % k, a * inv) for t, a in r.pop(pj).items()]
            for j, b in prow.items():
                out = r.get(j)
                if out is None:
                    out = r[j] = {}
                    col_rows[j].add(i)
                for s, fs in f:
                    for t, bt in b.items():
                        u = (s + t) % k
                        v = out.get(u, 0) - fs * bt
                        if p:
                            v %= p
                        if v:
                            out[u] = v
                        else:
                            del out[u]
                if not out:
                    del r[j]
                    col_rows[j].discard(i)
                elif len(out) == 1:
                    fresh.append((i, j))
        for i, j in fresh:
            heappush(heap, ((len(rows[i]) - 1) * (len(col_rows[j]) - 1), i, j))
    return pivots


def sparse_rank(M):
    """Rank of a matrix over F[Z_1], a field: every nonzero entry is a unit,
    so the unit pivots are the rank."""
    return len(_eliminate_units(M.field, 1, M.sparse_rows()))


def _unit_pivot_reduce(M, rows=None):
    """Eliminate monomial pivots from `rows`, M's sparse rows, in place: a
    copy of them unless given.  Returns the pivot count p, the residual's
    core (its nonzero rows and columns in order, renumbered from 0, sharing
    their entries with `rows`) and shape (m-p, n-p)."""
    field, k = M.field, M.k
    rows = M.sparse_rows() if rows is None else rows
    p = len(_eliminate_units(field, k, rows))
    core_rows = [r for _, r in sorted(rows.items()) if r]
    col_at = {j: b for b, j in enumerate(sorted({j for r in core_rows for j in r}))}
    core = {a: {col_at[j]: w for j, w in r.items()} for a, r in enumerate(core_rows)}
    return p, GroupRingMatrix(field, k, len(core), len(col_at), core), (M.rows - p, M.cols - p)


def snf_over_R(M):
    """Smith normal form diagonal of a GroupRingMatrix, as the tuple of its
    lifts to F[x]: 1 for each of the p unit pivots, then the lifts of the
    residual's core C and x^k - 1 for each zero line, checked to divide
    each the next.  M is left unchanged: the pivots are eliminated from a
    copy of its rows."""
    return _smith_diagonal(M, M.sparse_rows())


def _smith_diagonal(M, rows):
    """snf_over_R(M) on `rows`, M's sparse rows or a copy of them, reduced
    in place: given M's own entries, M is spent."""
    p, k = M.field.char, M.k
    q = (p - 1,) + (0,) * (k - 1) + (1,)
    pivots, C, (m, n) = _unit_pivot_reduce(M, rows)
    core = [[tuple([w.get(e, 0) for e in range(max(w) + 1)]) if w else ()
             for w in map(C.entries[a].get, range(C.cols))] for a in range(C.rows)]
    if min(C.rows, C.cols) <= 1:
        # at most one line, none of its entries zero: d_0 is the gcd of the distinct ones
        entries = dict.fromkeys(f for row in core for f in row)
        chain = [reduce(partial(poly_gcd, p), entries, q)] if core else []
    else:
        chain = [poly_gcd(p, d, q) for d in snf_over_polys(p, core)]
    chain += [q] * (min(m, n) - len(chain))
    for a, b in zip(chain, chain[1:]):
        if _divmod(p, b, a)[1]:
            raise ArithmeticError("divisibility chain broken in lifted SNF")
    return ((1,),) * pivots + tuple(chain)
