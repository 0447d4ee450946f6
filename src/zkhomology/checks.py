"""Invariant suites for actions and triples, and the upstairs model that
ties the G-boundary matrix to the acted-on complex: coset orderings, lifted
partitions, compatible orientations and boundaries, the index-reducing map
and the isotropy expansion, which equals the circulant image of the
G-boundary entry by entry (the expansion lemma), and the extended transfer
by containment with its second route through the unique face.  No other
module knows this model, and production code never reads it.

Every matrix here is sparse rows: `_boundary_rows` writes the boundaries
of X and X/G over F[Z_1], in lexicographic or compatible order.  A rank is
`ring_snf.sparse_rank`, or comes from `pipeline._reduce`, the driver of
`homology`, run on G-boundaries, on reordered copies of them and, at k = 1,
on X's lexicographic boundaries for the direct oracle: no dense matrix.

Index conventions: lifted partitions and the index-reducing function keep
the 1-based positions used by their definitions (block I_a starts at n_a,
values of the reducing map land in {1, ..., |Sigma_d|}); callers subtract
one when addressing Python sequences.

Each `check_*` function returns its first counterexample as a string, or
None when it passes; a ZkHomologyError or ArithmeticError it raises is its
counterexample.  The private guard `_run` alone turns either into an
outcome, the dict {"name", "ok", "detail"}.  A suite is a table of (name,
check) pairs, one per outcome and each name written once, run in order
through `_run`.  The CLI's verify command prints the list of outcomes as
it is, or one line per outcome; the test suite reuses the same functions.
"""

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import (DimensionError, RegularityError, TripleValidationError,
                     UnknownSimplexError, ZkHomologyError)
from .simplicial import faces
from .actions import lex_lift, lex_max_lift
from .groupring import GroupRingMatrix, rho_extend
from .transfer import build_triple, check_axioms
from .pipeline import _composes_to_zero, _g_boundaries, _reduce, compressed_betti, g_boundary_matrix
from .ring_snf import rank_sum, snf_over_R, sparse_rank

# check_ordering_independence shuffles each dimension's quotient simplices
# this many times, from this seed.
ORDERING_TRIALS = 3
ORDERING_SEED = 20240601


def coset_ordering(k, order):
    """Left cosets of the subgroup of Z_k of the given order in
    first-appearance order under (e, alpha, ..., alpha^(k-1)); the first
    coset is the subgroup itself, the multiples of k / order.

    Each coset is the sorted tuple of its exponents.
    """
    return tuple(tuple(range(g, k, k // order)) for g in range(k // order))


def coset_position(k, order, exponent):
    """1-based position of alpha^exponent's coset in coset_ordering(k, order)."""
    return exponent % (k // order) + 1


@dataclass(frozen=True)
class LiftedPartition:
    """Compatible ordering of the d-simplices upstairs, block by block.

    `ordering` lists the d-simplices of the acted-on complex: fibers are
    concatenated in the quotient's sorted order, and within the fiber over
    psi'_a the j-th simplex is (coset j of the isotropy of the lift) applied
    to the lift.  `starts[a]` is n_a and `blocks[a]` the 1-based index
    range I_a; the lift of psi'_a sits at position starts[a].
    """

    d: int
    ordering: tuple
    starts: tuple
    blocks: tuple
    subgroup_orders: tuple


def compatible_ordering(qd, lift, d):
    """Order Sigma_d of the acted-on complex compatibly with the quotient
    ordering, the lift, and the group ordering (e, alpha, ...)."""
    action = qd.action
    ordering = []
    starts = []
    blocks = []
    horders = []
    n_next = 1
    for q in qd.quotient.simplices(d):
        ell = lift[q]
        order = action.isotropy_order(ell)
        block = [action.apply_simplex(cs[0], ell) for cs in coset_ordering(action.k, order)]
        if len(set(block)) != len(block) or set(block) != set(qd.fiber(q)):
            raise RegularityError(f"coset orbit of {ell} does not tile the fiber of {q}")
        starts.append(n_next)
        blocks.append(range(n_next, n_next + len(block)))
        horders.append(order)
        ordering.extend(block)
        n_next += len(block)
    return LiftedPartition(
        d=d,
        ordering=tuple(ordering),
        starts=tuple(starts),
        blocks=tuple(blocks),
        subgroup_orders=tuple(horders),
    )


def index_reducing(lp, k):
    """The isotropy index-reducing map as a tuple of 1-based values.

    Writing i = (b-1)k + c with c in {1..k}, position i maps to
    n_b - 1 + gamma where gamma is the position of alpha^(c-1)'s coset in
    the coset ordering of the b-th block's isotropy subgroup.  The image of
    each length-k slab L_b is exactly the block I_b.
    """
    values = []
    for b, h in enumerate(lp.subgroup_orders):
        q_b = lp.starts[b]
        for c in range(1, k + 1):
            gamma = coset_position(k, h, c - 1)
            values.append(q_b - 1 + gamma)
    return tuple(values)


def extended_transfer(action, lift, psi, omega):
    """All exponents c with alpha^c . lift(omega) a face of lift(psi), by
    direct containment (the reference route for T*, which `build_triple`
    reads off the orbit walk).

    Empty exactly when omega is not a face of psi; otherwise a left coset
    of the isotropy subgroup of lift(omega).
    """
    psi, omega = tuple(psi), tuple(omega)
    if psi not in lift or omega not in lift:
        raise UnknownSimplexError(f"{psi} or {omega} is not a quotient simplex")
    if len(psi) != len(omega) + 1:
        raise DimensionError("extended transfer needs a codimension-1 pair")
    lp, lo = set(lift[psi]), lift[omega]
    return frozenset(c for c in range(action.k) if lp.issuperset(action.apply_simplex(c, lo)))


def extended_transfer_via_face(qd, lift, psi, omega):
    """Second, independent route: locate the unique face of lift(psi) over
    omega and collect the exponents carrying lift(omega) onto it."""
    psi, omega = tuple(psi), tuple(omega)
    if psi not in lift or omega not in lift:
        raise UnknownSimplexError(f"{psi} or {omega} is not a quotient simplex")
    if len(psi) != len(omega) + 1:
        raise DimensionError("extended transfer needs a codimension-1 pair")
    if not set(omega) <= set(psi):
        return frozenset()
    lp = lift[psi]
    matches = [
        f for f in combinations(lp, len(omega)) if qd.project_simplex(f) == omega
    ]
    if len(matches) != 1:
        raise TripleValidationError(
            f"face of {lp} over {omega} is not unique: {matches}",
            witness=(psi, omega),
        )
    target = matches[0]
    lo = lift[omega]
    return frozenset(
        c for c in range(qd.action.k) if qd.action.apply_simplex(c, lo) == target
    )


def _boundary_rows(field, rows, cols, orient=None):
    # The boundary from the span of the d-simplices `cols` to that of their
    # faces `rows`, in those orders, as sparse rows over F[Z_1]: the t-th
    # face of a column gets the int (-1)^t in canonical form, negated where
    # the sign table `orient` gives the column and the face different signs.
    sign = (1, field.neg(1))
    row_pos = {s: i for i, s in enumerate(rows)}
    entries = {i: {} for i in range(len(rows))}
    for j, s in enumerate(cols):
        for t, f in faces(s):
            flip = orient is not None and orient[s] != orient[f]
            entries[row_pos[f]][j] = {0: sign[(t + flip) % 2]}
    return GroupRingMatrix(field, 1, len(rows), len(cols), entries)


def _lex_boundary(X, d, field):
    # the d-th boundary of X in lexicographic order and orientation
    return _boundary_rows(field, X.simplices(d - 1), X.simplices(d))


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


def compatible_orientations(qd, lift):
    """Orientations making the projection and the action chain-friendly.

    Quotient simplices keep their increasing-label orientation (sign +1).
    Each lift is oriented so its elementary chain projects onto the
    quotient chain; the rest of the orbit carries the image orientation
    (well-defined because regular stabilizers fix simplices vertex-wise).
    The result satisfies g[psi] = [g psi] for every g and
    pi[psi] = [pi psi] for every psi.

    Returns the sign table of the acted-on complex.
    """
    action = qd.action
    orient = {}
    for q in qd.quotient.all_simplices():
        base = _orbit_sorted_tuple(qd, lift[q])
        for c in range(action.k):
            moved = tuple(action.apply_vertex(c, v) for v in base)
            s = tuple(sorted(moved))
            sign = _parity(moved)
            if s in orient and orient[s] != sign:
                raise ArithmeticError(
                    f"orientation transport inconsistent at {s}"
                )
            orient[s] = sign
    return orient


def _compatible_parts(qd, lift, d, field, orient=None, partition=None):
    # The compatible boundary with its row and column lifted partitions;
    # the orientations and partition(d) are built here unless given.
    X = qd.action.complex
    if not (1 <= d <= X.dim):
        raise DimensionError(f"d={d} out of range 1..{X.dim}")
    orient = orient or compatible_orientations(qd, lift)
    partition = partition or (lambda e: compatible_ordering(qd, lift, e))
    row_lp, col_lp = partition(d - 1), partition(d)
    return _boundary_rows(field, row_lp.ordering, col_lp.ordering, orient), row_lp, col_lp


def compatible_boundary(qd, lift, d, field):
    """Boundary matrix of the acted-on complex in the compatible ordered
    basis, as sparse rows over F[Z_1]: rows and columns follow the
    lifted-partition orderings, signs follow the compatible orientations."""
    return _compatible_parts(qd, lift, d, field)[0]


def isotropy_expansion(qd, lift, d, field):
    """The (m k x n k) coset-duplicated enlargement of the compatible
    boundary matrix, as sparse rows over F[Z_1]; same rank as the boundary
    itself."""
    return _expand(*_compatible_parts(qd, lift, d, field), qd.action.k)


def _expand(B, row_lp, col_lp, k):
    # row i and column j of the expansion are those J(i) and J(j) of B
    J_cols = [c - 1 for c in index_reducing(col_lp, k)]
    rows = [B.entries[r - 1] for r in index_reducing(row_lp, k)]
    entries = {i: {j: r[c] for j, c in enumerate(J_cols) if c in r} for i, r in enumerate(rows)}
    return GroupRingMatrix(B.field, 1, len(rows), len(J_cols), entries)


def verify_expansion_lemma(qd, lift, d, field, triple=None):
    """Check that the isotropy expansion equals the entry-wise circulant
    image of the G-boundary matrix of `triple` (built from `lift` when not
    given), and that each expansion entry matches the direct containment
    test.  Returns (True, None) or (False, report).
    """
    if triple is None:
        triple = build_triple(qd.action, lift=lift, qd=qd)
    report = _expansion_report(isotropy_expansion(qd, lift, d, field), qd, lift, d, field, triple)
    return report is None, report


def _expansion_report(E, qd, lift, d, field, triple):
    # verify_expansion_lemma's first failure on the isotropy expansion E, or None
    action, k, z = qd.action, qd.action.k, field.zero()
    G = rho_extend(g_boundary_matrix(triple, d, field))
    if E.rows != G.rows or E.cols != G.cols:
        return f"shape mismatch {E.rows}x{E.cols} vs {G.rows}x{G.cols}"
    for i in range(E.rows):
        e, g = E.entries[i], G.entries[i]
        if e != g:
            j = min(j for j in e.keys() | g.keys() if e.get(j) != g.get(j))
            return (
                f"d={d}: entry ({i + 1},{j + 1}) differs: expansion has "
                f"{e.get(j, {0: z})[0]}, circulant image has {g.get(j, {0: z})[0]}"
            )
    # Entry cases by direct containment: block (a, b), offsets (c, c').  Each
    # alpha^g is a simplicial bijection, so alpha^c lift(omega) lies in
    # alpha^c' lift(psi) iff alpha^(c - c') lift(omega) lies in lift(psi):
    # one extended transfer per block decides all k^2 offsets.  Only face
    # pairs are visited: on any other block the prediction is zero, as is
    # the circulant image that E has just matched.
    Y = qd.quotient
    Bq, psis = _lex_boundary(Y, d, field).entries, Y.simplices(d)
    for a, omega in enumerate(Y.simplices(d - 1)):
        for b in sorted(Bq[a]):
            hits = extended_transfer(action, lift, psis[b], omega)
            sign = Bq[a][b][0]
            for c in range(1, k + 1):
                row = E.entries[k * a + c - 1]
                for cp in range(1, k + 1):
                    want = sign if (c - cp) % k in hits else z
                    got = row.get(k * b + cp - 1, {0: z})[0]
                    if got != want:
                        return (
                            f"d={d}: containment case fails at block ({a + 1},"
                            f"{b + 1}) offsets ({c},{cp}): expansion {got}, "
                            f"containment predicts {want}"
                        )


def _run(name, check):
    # The outcome of `check()`, {"name", "ok", "detail"}: its first
    # counterexample, the error it raises, or a pass.
    try:
        detail = check()
    except (ZkHomologyError, ArithmeticError) as exc:
        detail = str(exc)
    return {"name": name, "ok": detail is None, "detail": detail or ""}


def _once(f):
    # f memoized by its arguments, with the error it raised: a later call
    # raises that error again rather than running f once more
    memo = {}

    def call(*args):
        if args not in memo:
            try:
                memo[args] = f(*args), None
            except (ZkHomologyError, ArithmeticError) as exc:
                memo[args] = None, exc
        if memo[args][1]:
            raise memo[args][1]
        return memo[args][0]
    return call


def check_boundary_squared(X, field):
    """d_(d-1) d_d = 0 for every d, by the sparse composition check that
    the compressed pipeline runs on consecutive G-boundaries."""
    for d in range(2, X.dim + 1):
        if not _composes_to_zero(_lex_boundary(X, d - 1, field), _lex_boundary(X, d, field)):
            return f"d{d-1} o d{d} != 0 over {field.name}"


def check_orbit_stabilizer(action):
    """|orbit| * |stabilizer| = k, both counted by applying alpha^0, ...,
    alpha^(k-1) through the permutation, and the stabilizer has the order
    of the action's isotropy (which the action reads off the orbit length)."""
    perm, k = action.perm, action.k
    for s in action.complex.all_simplices():
        images, t = [], s
        for _ in range(k):
            images.append(t)
            t = tuple(sorted(perm[v] for v in t))
        orbit, fixing = len(set(images)), images.count(s)
        if orbit * fixing != k or fixing != action.isotropy_order(s):
            return (f"simplex {s}: |orbit|={orbit}, |stabilizer|={fixing}, "
                    f"isotropy order {action.isotropy_order(s)}, k={k}")


def check_pointwise_fixing(action):
    """Regular actions fix psi ∩ g.psi vertex-wise, for every g."""
    for s in action.complex.all_simplices():
        for c in range(action.k):
            moved = set(action.apply_simplex(c, s))
            for v in set(s) & moved:
                if action.apply_vertex(c, v) != v:
                    return f"alpha^{c} moves {v} inside {s} ∩ image"


def check_orbit_not_another_face(action):
    X = action.complex
    for s in X.all_simplices():
        for r in range(1, len(s)):
            for w in combinations(s, r):
                for c in range(1, action.k):
                    moved = action.apply_simplex(c, w)
                    if set(moved) <= set(s) and moved != w:
                        return f"alpha^{c} sends face {w} of {s} to another face {moved}"


def check_unique_face_over_quotient(qd):
    for s in qd.action.complex.all_simplices():
        sq = qd.project_simplex(s)
        for r in range(1, len(sq) + 1):
            for wq in combinations(sq, r):
                matches = [
                    w for w in combinations(s, r) if qd.project_simplex(w) == wq
                ]
                if len(matches) != 1:
                    return f"{len(matches)} faces of {s} project onto {wq}"


def check_transfer_cosets(action, qd, lift, triple):
    k = action.k
    for (psi, omega), hits in sorted(triple.Tstar.items()):
        order = triple.S[omega]
        if len(hits) != order:
            return f"|T*({psi},{omega})| = {len(hits)} != |S| = {order}"
        base = min(hits)
        coset = {(base + e) % k for e in range(0, k, k // order)}
        if hits != coset:
            return f"T*({psi},{omega}) is not a coset of S({omega})"
        via_face = extended_transfer_via_face(qd, lift, psi, omega)
        direct = extended_transfer(action, lift, psi, omega)
        if via_face != direct or direct != hits:
            return (f"the two transfer routes disagree on ({psi},{omega}): "
                    f"{sorted(direct)} vs {sorted(via_face)}")


def check_complex_of_groups(triple):
    return check_axioms(triple)


def check_index_reducing(qd, partition):
    k = qd.action.k
    for d in range(qd.quotient.dim + 1):
        lp = partition(d)
        J = index_reducing(lp, k)
        for b, block in enumerate(lp.blocks):
            slab = J[b * k:(b + 1) * k]
            if set(slab) != set(block):
                return (f"d={d}: image of slab {b + 1} is {sorted(set(slab))}, "
                        f"expected block {list(block)}")
        if set(J) != set(range(1, len(lp.ordering) + 1)):
            return f"d={d}: index-reducing map is not surjective"


def check_expansion_lemma(action, qd, lift, field, triple, expansion):
    for d in range(1, action.complex.dim + 1):
        report = _expansion_report(expansion(d), qd, lift, d, field, triple)
        if report is not None:
            return f"{field.name}: {report}"


def check_rank_preservation(action, field, rank, expansion):
    for d in range(1, action.complex.dim + 1):
        rb, re = rank(d), sparse_rank(expansion(d))
        if rb != re:
            return f"{field.name} d={d}: boundary rank {rb} vs expansion rank {re}"


def check_rank_reconstruction(action, triple, field, rank, reduced):
    """The main rank identity, for every generator of Z_k; `reduced(t)`
    gives the driver's ranks, lifts and Betti numbers at generator alpha^t."""
    generators = [t for t in range(1, triple.k + 1) if gcd(t, triple.k) == 1]
    for d in range(1, action.complex.dim + 1):
        upstairs = rank(d)
        for t in generators:
            got = reduced(t)[0][d]
            if got != upstairs:
                return (f"{field.name} d={d} generator alpha^{t}: "
                        f"compressed {got} vs boundary {upstairs}")


def check_snf_invariants(triple, field):
    """The SNF of each G-boundary M (its lifts divide each the next, or
    snf_over_R raises), certified on the whole mk x nk expansion rho(M);
    each M is written afresh and reduced alone, with no composition check."""
    for d in range(1, triple.quotient.dim + 1):
        M = g_boundary_matrix(triple, d, field)
        try:
            lifts = snf_over_R(M)
        except (ZkHomologyError, ArithmeticError) as exc:
            return f"{field.name} d={d}: {exc}"
        predicted, expected = rank_sum(lifts, M.k), sparse_rank(rho_extend(M))
        if predicted != expected:
            return (f"{field.name} d={d}: rank certificate failed: SNF predicts "
                    f"{predicted}, expanded matrix has rank {expected}")


def check_lift_independence(action, qd, field, betti):
    """`betti()` gives the Betti numbers of the lex-min triple."""
    tri_max = build_triple(action, lift=lex_max_lift(qd), qd=qd)
    tri_max.validate()
    a, b = betti(), compressed_betti(tri_max, field)
    if a != b:
        return f"{field.name}: lex-min {a} vs lex-max {b}"


def _shuffled_betti(triple, field, rng):
    # the Betti numbers from the lexicographic G-boundaries of `triple`, the
    # quotient's d-simplices permuted by `rng` in the rows and columns alike
    dims, Ms = _g_boundaries(triple, field, 1)
    at = [rng.sample(range(n), n) for n in triple.quotient.face_counts()]
    Ms = [GroupRingMatrix(field, M.k, M.rows, M.cols, {
        at[d - 1][i]: {at[d][j]: w for j, w in r.items()} for i, r in M.entries.items()})
        for d, M in enumerate(Ms, 1)]
    return tuple(_reduce(dims, Ms)[2])


def check_ordering_independence(triple, field, betti):
    """`betti()` gives the Betti numbers of `triple` in lexicographic order."""
    rng = random.Random(ORDERING_SEED)
    base = betti()
    for _ in range(ORDERING_TRIALS):
        got = _shuffled_betti(triple, field, rng)
        if got != base:
            return f"{field.name}: reordered quotient gives {got}, expected {base}"


def check_oracle_equality(action, field, betti):
    """`betti()` gives the compressed Betti numbers of the action; the direct
    ones are X's lexicographic boundaries at k = 1, run through the driver."""
    X, compressed = action.complex, betti()
    Ms = [_lex_boundary(X, d, field) for d in range(1, X.dim + 1)]
    direct = tuple(_reduce(X.face_counts(), Ms)[2])
    if direct != compressed:
        return f"{field.name}: direct {direct} vs compressed {compressed}"


def run_action_suite(qd, field):
    """Full invariant suite for the action of `qd`, a QuotientData: regular
    by construction, so the leading regularity outcome always passes."""
    action = qd.action
    lift = lex_lift(qd)
    triple = build_triple(action, lift=lift, qd=qd)
    # Each piece built once, inside the first check that needs it (or
    # failing once, its error reported again by each later check): the
    # orientations, the lifted partition of each dimension, per d the
    # compatible boundary, its rank and its isotropy expansion, and one
    # driver pass over the lex-min triple per generator alpha^t.
    orient = _once(lambda: compatible_orientations(qd, lift))
    partition = _once(lambda d: compatible_ordering(qd, lift, d))
    parts = _once(lambda d: _compatible_parts(qd, lift, d, field, orient(), partition))
    rank = _once(lambda d: sparse_rank(parts(d)[0]))
    expansion = _once(lambda d: _expand(*parts(d), action.k))
    reduced = _once(lambda t: _reduce(*_g_boundaries(triple, field, t)))
    betti = _once(lambda: tuple(reduced(1)[2]))
    items = [
        ("regularity", lambda: None),
        ("boundary-squared-zero", lambda: check_boundary_squared(action.complex, field)),
        ("quotient-boundary-squared-zero", lambda: check_boundary_squared(qd.quotient, field)),
        ("orbit-stabilizer", lambda: check_orbit_stabilizer(action)),
        ("regular-pointwise-fixing", lambda: check_pointwise_fixing(action)),
        ("orbit-not-another-face", lambda: check_orbit_not_another_face(action)),
        ("unique-face-over-quotient", lambda: check_unique_face_over_quotient(qd)),
        ("transfer-coset-and-two-routes", lambda: check_transfer_cosets(action, qd, lift, triple)),
        # homology trusts build_triple to write cosets; verify checks it here
        ("complex-of-groups-axioms", lambda: triple.validate() or check_complex_of_groups(triple)),
        ("index-reducing-range", lambda: check_index_reducing(qd, partition)),
        ("expansion-equals-circulant-image", lambda: check_expansion_lemma(action, qd, lift, field, triple, expansion)),
        ("expansion-preserves-rank", lambda: check_rank_preservation(action, field, rank, expansion)),
        ("rank-reconstruction", lambda: check_rank_reconstruction(action, triple, field, rank, reduced)),
        ("snf-divisibility-and-certificate", lambda: check_snf_invariants(triple, field)),
        ("lift-independence", lambda: check_lift_independence(action, qd, field, betti)),
        ("ordering-independence", lambda: check_ordering_independence(triple, field, betti)),
        ("compressed-matches-direct-oracle", lambda: check_oracle_equality(action, field, betti)),
    ]
    return [_run(name, check) for name, check in items]


def check_triple_structure(triple):
    # `triple` may be the TripleValidationError its parse raised
    if isinstance(triple, TripleValidationError):
        raise triple
    return triple.validate()


def _betti_computable(field, betti):
    # `betti()` runs; an error it raises is reported with the field
    try:
        betti()
    except (ZkHomologyError, ArithmeticError) as exc:
        return f"{field.name}: {exc}"


def run_triple_suite(triple, field):
    """Invariant suite for a standalone triple (no acted-on complex); past a
    failed triple-structure check only the quotient's boundaries are
    checked, and none when the TripleValidationError of its parse stands in
    for the triple."""
    betti = _once(lambda: compressed_betti(triple, field))
    items = [
        ("triple-structure", lambda: check_triple_structure(triple)),
        ("quotient-boundary-squared-zero", lambda: check_boundary_squared(triple.quotient, field)),
        ("complex-of-groups-axioms", lambda: check_complex_of_groups(triple)),
        ("snf-divisibility-and-certificate", lambda: check_snf_invariants(triple, field)),
        ("ordering-independence", lambda: check_ordering_independence(triple, field, betti)),
        ("compressed-betti-computable", lambda: _betti_computable(field, betti)),
    ]
    parsed = not isinstance(triple, TripleValidationError)
    outcomes = [_run(name, check) for name, check in items[:1 + parsed]]
    if outcomes[0]["ok"]:
        outcomes += [_run(name, check) for name, check in items[2:]]
    return outcomes
