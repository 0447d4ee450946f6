import random
from fractions import Fraction
from functools import cache, partial
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zkhomology.exact import GF, QQ, FieldMatrix, field_rank, poly_gcd, poly_str, snf_over_polys
from zkhomology.groupring import GroupRingMatrix, rho_extend
from zkhomology import cli, ring_snf
from zkhomology.actions import validate_action
from zkhomology.corpus import entry, to_input_dict
from zkhomology.jsonio import dump_json, triple_to_dict
from zkhomology.pipeline import g_boundary_matrix
from zkhomology.ring_snf import (_eliminate_units, _unit_pivot_reduce, rank_sum, snf_over_R,
                                 sparse_rank)
from zkhomology.simplicial import build_complex
from zkhomology.transfer import build_triple

from grids import (P, add, convolve, dense, divides, lens_cover, ring_matrix, tuples,
                   x_pow_minus_one)
from test_random_families import _grid_torus

F2, F3, F5 = GF(2), GF(3), GF(5)


def _random_elem(rng, field, k):
    if field.char == 0:
        return tuple(rng.randint(-2, 2) for _ in range(k))
    return tuple(rng.randint(0, field.char - 1) for _ in range(k))


def _random_grid(rng, field, k, m, n):
    return [[_random_elem(rng, field, k) for _ in range(n)] for _ in range(m)]


def _unimodular_moves(rng, field, k, grid):
    """`grid` after elementary row and column operations with unit pivots
    over F[Z_k], applied directly: adding a multiple of one line to
    another, or multiplying a line by a monomial x^e."""
    for _ in range(10):
        by_rows = rng.random() < 0.5
        lines = [list(r) for r in (grid if by_rows else zip(*grid))]
        if len(lines) > 1 and rng.random() < 0.6:
            i, j = rng.sample(range(len(lines)), 2)
            c = _random_elem(rng, field, k)
            lines[i] = [add(field, a, convolve(field, c, b)) for a, b in zip(lines[i], lines[j])]
        else:
            i = rng.randrange(len(lines))
            u = _monomial(k, 1, rng.randrange(k))
            lines[i] = [convolve(field, u, v) for v in lines[i]]
        grid = lines if by_rows else [list(r) for r in zip(*lines)]
    return grid


class TestSnfOverR:
    def test_path_column(self):
        M = ring_matrix(QQ, 2, [[(-1, 0)], [(1, 1)]])
        lifts = snf_over_R(M)
        assert [poly_str(f) for f in lifts] == ["1"]
        assert lifts == ((1,),)     # the unit e of the group ring

    def test_triangle_boundary_entries(self):
        # quotient boundary of the swapped triangles: the lift has rank 2
        # over Q[x], so its third invariant factor is 0 and lifts to
        # gcd(0, x^2 - 1) = x^2 - 1, which dies in the quotient ring
        e, z = (1, 0), (0, 0)
        M = ring_matrix(QQ, 2, [[(-1, 0), (-1, 0), z], [e, z, (-1, 0)], [z, e, e]])
        lifts = snf_over_R(M)
        assert [poly_str(f) for f in lifts] == ["1", "1", "x^2-1"]
        q = x_pow_minus_one(QQ, 2)
        assert [f == q for f in lifts] == [False, False, True]
        assert rank_sum(lifts, 2) == 4

    def test_zero_matrix(self):
        lifts = snf_over_R(GroupRingMatrix(QQ, 2, 2, 2, {0: {}, 1: {}}))
        assert [poly_str(f) for f in lifts] == ["x^2-1", "x^2-1"]
        assert lifts == (x_pow_minus_one(QQ, 2),) * 2
        assert rank_sum(lifts, 2) == 0

    def test_empty_shapes(self):
        for m, n in [(0, 3), (3, 0), (0, 0)]:
            assert snf_over_R(GroupRingMatrix(QQ, 2, m, n, {i: {} for i in range(m)})) == ()

    def test_lifts_divide_modulus(self):
        rng = random.Random(31)
        for field in (QQ, F2, F3):
            for k in (1, 2, 3, 4):
                q = x_pow_minus_one(field, k)
                for _ in range(5):
                    m, n = rng.randint(1, 4), rng.randint(1, 4)
                    lifts = snf_over_R(ring_matrix(field, k, _random_grid(rng, field, k, m, n)))
                    for f in lifts:
                        assert divides(field, f, q)
                    for a, b in zip(lifts, lifts[1:]):
                        assert divides(field, a, b)

    def test_rank_certificate(self):
        rng = random.Random(37)
        for field in (QQ, F2):
            for k in (2, 3):
                for _ in range(10):
                    m, n = rng.randint(1, 4), rng.randint(1, 4)
                    M = ring_matrix(field, k, _random_grid(rng, field, k, m, n))
                    assert rank_sum(snf_over_R(M), k) == field_rank(dense(rho_extend(M)))

    def test_idempotence_on_normal_forms(self):
        # diag(1, x-1, x^2-1) over Q[Z_2]: images of monic divisors in
        # chain; x^2 - 1 folds to 0 in the group ring
        z = (0, 0)
        M = ring_matrix(QQ, 2, [[(1, 0), z, z], [z, (-1, 1), z], [z, z, z]])
        assert [poly_str(f) for f in snf_over_R(M)] == ["1", "x-1", "x^2-1"]

    def test_stable_under_unimodular_factors(self):
        rng = random.Random(41)
        for field in (QQ, F2):
            for k in (2, 3):
                for _ in range(6):
                    m, n = rng.randint(1, 3), rng.randint(1, 3)
                    grid = _random_grid(rng, field, k, m, n)
                    moved = _unimodular_moves(rng, field, k, grid)
                    assert (snf_over_R(ring_matrix(field, k, moved))
                            == snf_over_R(ring_matrix(field, k, grid)))

    def test_wide_and_tall_padding(self):
        # one invariant factor per min(m, n), whichever side is longer
        e, z = (1, 0), (0, 0)
        assert len(snf_over_R(ring_matrix(F2, 2, [[e], [e], [z]]))) == 1
        assert len(snf_over_R(ring_matrix(F2, 2, [[e, e, z]]))) == 1


def _augmented_lifts(M):
    """The first min(m, n) invariant factors of [M~ | (x^k-1) I_m] over
    F[x]: the augmented presentation of the cokernel, kept as an oracle."""
    q = x_pow_minus_one(M.field, M.k)
    augmented = [
        [P(M.field, *w) for w in row] + [q if i == j else () for j in range(M.rows)]
        for i, row in enumerate(tuples(M))
    ]
    return tuple(snf_over_polys(M.field.char, augmented)[:min(M.rows, M.cols)])


def _plain_lifts(M):
    """gcd(d_i, x^k-1) over the Smith form of the whole plain lift: the
    route taken before unit pivots were eliminated, kept as an oracle."""
    p, q = M.field.char, x_pow_minus_one(M.field, M.k)
    D = snf_over_polys(p, [[P(M.field, *w) for w in row] for row in tuples(M)])
    return tuple(poly_gcd(p, d, q) for d in D)


def _monomial(k, c, e):
    """c x^e as a coefficient tuple."""
    coeffs = [0] * k
    coeffs[e % k] = c
    return tuple(coeffs)


def _sigma_coset(k, order, shift, sign=1):
    """sign x^shift sigma(H) for the subgroup H of Z_k of the given order."""
    coeffs = [0] * k
    for i in range(order):
        coeffs[(shift + i * (k // order)) % k] = sign
    return tuple(coeffs)


@st.composite
def _ring_matrices(draw):
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    k = draw(st.integers(1, 9))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    if field.char == 0:
        coeff, unit = st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2])
    else:
        coeff, unit = st.integers(0, field.char - 1), st.integers(1, field.char - 1)
    orders = [h for h in range(1, k + 1) if k % h == 0]

    def entry():
        kind = draw(st.sampled_from(["dense", "monomial", "sigma"]))
        if kind == "monomial":
            return _monomial(k, draw(unit), draw(st.integers(0, k - 1)))
        if kind == "sigma":
            return _sigma_coset(k, draw(st.sampled_from(orders)),
                                draw(st.integers(0, k - 1)), draw(st.sampled_from([1, -1])))
        return tuple(draw(st.lists(coeff, min_size=k, max_size=k)))

    rows = [
        [(0,) * k if i in zero_rows or j in zero_cols else entry() for j in range(n)]
        for i in range(m)
    ]
    return ring_matrix(field, k, rows)


def _tall_with_zero_row():
    e, a, z = (1, 0, 0), (0, 1, 0), (0, 0, 0)
    return ring_matrix(F3, 3, [[(1, 1, 0), e], [(1, -1, 0), a], [z, z]])


def _wide_with_zero_column():
    # [1 - x, 0, 1 + x^2] over Q[Z_4]
    return ring_matrix(QQ, 4, [[(1, -1, 0, 0), (0, 0, 0, 0), (1, 0, 1, 0)]])


def _no_unit_pivot():
    # every entry is 0 or sigma(Z_3), over F3 where 3 | k: no monomial at all
    s, z = _sigma_coset(3, 3, 0), (0, 0, 0)
    return ring_matrix(F3, 3, [[s, _sigma_coset(3, 3, 0, -1), z], [z, s, s]])


def _all_units():
    # every entry a monomial +-c x^e over Q[Z_4]; fill-in leaves a residual
    u = [[(1, 0), (-1, 1), (2, 3)], [(1, 2), (1, 0), (-1, 1)], [(-2, 1), (1, 3), (1, 2)]]
    return ring_matrix(QQ, 4, [[_monomial(4, c, e) for c, e in row] for row in u])


def _all_units_reducing():
    # [[1, x], [x, 2x^2]]: every Schur complement is a monomial again,
    # whatever the pivot order
    a = _monomial(4, 1, 1)
    return ring_matrix(QQ, 4, [[_monomial(4, 1, 0), a], [a, _monomial(4, 2, 2)]])


def _residual_without_rows():
    # both rows take a unit pivot, so the residual is 0 x 2
    a, s, z = _monomial(4, 1, 1), _sigma_coset(4, 2, 1), (0, 0, 0, 0)
    return ring_matrix(F2, 4, [[a, s, z, s], [s, _monomial(4, 1, 2), s, z]])

@settings(max_examples=150, deadline=None)
@given(_ring_matrices())
@example(_tall_with_zero_row())
@example(_wide_with_zero_column())
@example(_no_unit_pivot())
@example(_all_units())
@example(_all_units_reducing())
@example(_residual_without_rows())
def test_plain_lift_matches_augmented_lift(M):
    lifts = snf_over_R(M)
    assert lifts == _augmented_lifts(M)
    assert lifts == _plain_lifts(M)


@settings(max_examples=100, deadline=None)
@given(_ring_matrices())
@example(_all_units())
@example(_no_unit_pivot())
def test_lift_strings_are_the_printed_lifts(M):
    # the diagonal is plain data, a tuple of coefficient tuples, and the
    # "1" printed for a lift is the unit (1,) alone
    lifts = snf_over_R(M)
    assert type(lifts) is tuple and all(type(f) is tuple for f in lifts)
    assert {type(c) for f in lifts for c in f} <= {int, Fraction}
    assert [poly_str(f) == "1" for f in lifts] == [f == (1,) for f in lifts]


def _core_expansion(core):
    """The circulant expansion of a core, dense, for field_rank."""
    return dense(rho_extend(core))


def _core_lift(core):
    """The plain lift of a core to F[x], as a grid of coefficient tuples."""
    return [[P(core.field, *w) for w in row] for row in tuples(core)]


def _fixed_apex_cone_boundary(k=3, spacing=3):
    """The d=1 G-boundary of the cone over a rotated cycle with its apex
    fixed: three unit pivots leave a 1 x 3 residual that is all zero."""
    n = k * spacing
    tris = [{i, (i + 1) % n, n} for i in range(n)]
    perm = {**{i: (i + spacing) % n for i in range(n)}, n: n}
    action = validate_action(build_complex(tris), perm, k)
    return g_boundary_matrix(build_triple(action), 1, QQ)


@settings(max_examples=100, deadline=None)
@given(_ring_matrices())
@example(_no_unit_pivot())
@example(_all_units())
@example(_residual_without_rows())
@example(_fixed_apex_cone_boundary())
def test_residual_expansion_keeps_the_upstairs_rank(M):
    # rank_F rho(M) = k p + rank_F rho(C) for the core C of the residual,
    # and the lifts predict it: verify's mk x nk certificate holds
    pivots, core, shape = _unit_pivot_reduce(M)
    assert shape == (M.rows - pivots, M.cols - pivots)
    full = field_rank(dense(rho_extend(M)))
    assert M.k * pivots + field_rank(_core_expansion(core)) == full
    assert rank_sum(snf_over_R(M), M.k) == full


@pytest.mark.parametrize("build, pivots, residual", [
    (_no_unit_pivot, 0, (2, 3)),
    (_all_units_reducing, 2, (0, 0)),
    (_residual_without_rows, 2, (0, 2)),
    (_fixed_apex_cone_boundary, 3, (1, 3)),
])
def test_unit_pivot_count_and_residual(build, pivots, residual):
    M = build()
    got, core, shape = _unit_pivot_reduce(M)
    assert got == pivots
    assert shape == residual
    assert snf_over_R(M) == _augmented_lifts(M)


@pytest.mark.parametrize("build, core_shape", [
    (_no_unit_pivot, (2, 3)),
    (_all_units_reducing, (0, 0)),
    (_residual_without_rows, (0, 0)),
    (_fixed_apex_cone_boundary, (0, 0)),
])
def test_core_shape(build, core_shape):
    _, core, _ = _unit_pivot_reduce(build())
    assert (core.rows, core.cols) == core_shape
    assert set(core.entries) == set(range(core.rows))
    assert all(0 <= j < core.cols for r in core.entries.values() for j in r)


def _insert_zero_lines(draw, M):
    """M with up to three zero rows and three zero columns inserted at
    drawn places."""
    m = M.rows + draw(st.integers(0, 3))
    n = M.cols + draw(st.integers(0, 3))
    row_at = sorted(draw(st.permutations(range(m)))[:M.rows])
    col_at = sorted(draw(st.permutations(range(n)))[:M.cols])
    entries = {i: {} for i in range(m)}
    for a, r in M.entries.items():
        entries[row_at[a]] = {col_at[b]: dict(w) for b, w in r.items()}
    return GroupRingMatrix(M.field, M.k, m, n, entries)


@st.composite
def _padded_ring_matrices(draw):
    """A drawn matrix with zero rows and columns inserted at drawn places."""
    M = draw(_ring_matrices())
    return M, _insert_zero_lines(draw, M)


@settings(max_examples=100, deadline=None)
@given(_padded_ring_matrices())
def test_zero_lines_only_pad_the_chain(pair):
    M, padded = pair
    lifts = snf_over_R(padded)
    assert lifts == _augmented_lifts(padded)
    assert lifts == _plain_lifts(padded)
    pivots, core, shape = _unit_pivot_reduce(padded)
    assert shape == (padded.rows - pivots, padded.cols - pivots)
    assert (M.k * pivots + field_rank(_core_expansion(core))
            == field_rank(dense(rho_extend(padded))) == field_rank(dense(rho_extend(M))))
    # the core carries no zero line, and zero lines only add x^k - 1
    lift = _core_lift(core)
    assert all(any(row) for row in lift)
    assert all(any(col) for col in zip(*lift))
    q = x_pow_minus_one(M.field, M.k)
    short = snf_over_R(M)
    assert lifts == short + (q,) * (min(padded.rows, padded.cols) - len(short))


def _replay_pivots(field, k, rows, pivots):
    """Apply `pivots`, in order, to `rows` with the naive update that visits
    every row per pivot, O(pivots * nnz), asserting that each pivot is a
    monomial entry of a row still there when its turn comes."""
    p = field.char
    norm = (lambda v: v % p) if p else (lambda v: v)
    for pi, pj in pivots:
        assert pi in rows and len(rows[pi].get(pj, ())) == 1
        prow = rows.pop(pi)
        ((e, c),) = prow.pop(pj).items()
        inv = field.inv(c)
        for r in rows.values():
            if pj in r:
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


@cache
def _torus_triple(k, r):
    tris, perm = _grid_torus(k * r, r)
    return build_triple(validate_action(build_complex(tris), perm, k))


@st.composite
def _torus_g_boundaries(draw):
    """A G-boundary of the grid-torus family: every entry a unit +-x^c."""
    k, r = draw(st.integers(1, 4)), draw(st.integers(3, 4))
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    g = draw(st.sampled_from([t for t in range(1, k + 1) if gcd(t, k) == 1]))
    return g_boundary_matrix(_torus_triple(k, r), draw(st.integers(1, 2)), field,
                             generator_exponent=g)


def _assert_same_elimination(M):
    rows, oracle = M.sparse_rows(), M.sparse_rows()
    pivots = _eliminate_units(M.field, M.k, rows)
    _replay_pivots(M.field, M.k, oracle, pivots)
    assert rows == oracle
    assert not any(len(w) == 1 for r in rows.values() for w in r.values())
    count, core, shape = _unit_pivot_reduce(M)
    assert count == len(pivots)
    assert shape == (M.rows - count, M.cols - count)
    residual = [[P(M.field, *[r[j].get(e, 0) for e in range(M.k)]) if j in r else ()
                 for j in range(M.cols) if j not in {c for _, c in pivots}]
                for _, r in sorted(oracle.items())]
    assert len(residual) == shape[0] and all(len(row) == shape[1] for row in residual)
    # the core is the residual less its zero rows and zero columns
    nonzero = [row for row in residual if any(row)]
    cols = [j for j in range(shape[1]) if any(row[j] for row in nonzero)]
    assert (core.field, core.k) == (M.field, M.k)
    assert _core_lift(core) == [[row[j] for j in cols] for row in nonzero]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_ring_matrices(), _torus_g_boundaries()))
@example(_no_unit_pivot())
@example(_all_units())
@example(_all_units_reducing())
@example(_residual_without_rows())
@example(_fixed_apex_cone_boundary())
def test_incremental_selection_matches_rescanning(M):
    _assert_same_elimination(M)


@cache
def _lens_triple(k, s):
    return build_triple(lens_cover(k, s))


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
@pytest.mark.parametrize("build", [partial(_torus_triple, 3, 4), partial(_torus_triple, 3, 8),
                                   partial(_lens_triple, 2, 2)], ids=["4", "8", "lens"])
def test_incremental_selection_matches_rescanning_on_long_tori(field, build):
    # (3r)x3 tori at k=3: r-1 pivots per column block and a residual that
    # fills in, so keys go stale and are pushed again many times; and the
    # lens cover at (k, s) = (2, 2), G-boundaries 40x232, 232x384 and
    # 384x192 with 39, 192 and 191 pivots, where fill-in is heavy
    triple = build()
    for d in range(1, triple.quotient.dim + 1):
        _assert_same_elimination(g_boundary_matrix(triple, d, field))


_TORUS_COUNTS = [(8, (1, 6), 12), (17, (3, 1), 6)]


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
@pytest.mark.parametrize("build, counts", [
    (partial(_torus_triple, 8, 3), _TORUS_COUNTS),
    (partial(_torus_triple, 16, 3), _TORUS_COUNTS),
    (partial(_torus_triple, 32, 3), _TORUS_COUNTS),
    (partial(_lens_triple, 2, 2), [(39, (1, 58), 116), (192, (4, 18), 144), (191, (48, 1), 96)]),
], ids=["torus-8", "torus-16", "torus-32", "lens"])
def test_unit_pivot_counts_and_cores_hold_as_k_grows(field, build, counts):
    # per dimension: unit pivots, core shape and core coefficient terms; on
    # the fixed 3x3 torus quotient none of them grows with k
    triple = build()
    got = []
    for d in range(1, triple.quotient.dim + 1):
        pivots, core, _ = _unit_pivot_reduce(g_boundary_matrix(triple, d, field))
        terms = sum(len(w) for r in core.entries.values() for w in r.values())
        got.append((pivots, (core.rows, core.cols), terms))
    assert got == counts


def _non_monomial(draw, field, k):
    """An entry of F[Z_k], k >= 2, that is no unit pivot: +-x^c sigma(H)
    with |H| > 1 (the fill-in +-N = +-sigma(Z_k) among them) or
    +-x^s (1 - x^c)."""
    kind = draw(st.sampled_from(["coset", "N", "difference"]))
    sign, shift = draw(st.sampled_from([1, -1])), draw(st.integers(0, k - 1))
    if kind == "coset":
        order = draw(st.sampled_from([h for h in range(2, k + 1) if k % h == 0]))
        return _sigma_coset(k, order, shift, sign)
    if kind == "N":
        return _sigma_coset(k, k, 0, sign)
    c = draw(st.integers(1, k - 1))
    return add(field, _monomial(k, sign, shift), _monomial(k, -sign, shift + c))


@st.composite
def _small_core_matrices(draw):
    """A line of 0 to 4 non-monomial entries, a row or a column, beside p
    monomial pivots; multiples of the pivot lines are added to the line's
    rows and columns, and zero rows and columns are inserted.  The unit
    pivots leave a core of at most one line."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    k = draw(st.integers(2, 9))
    b, tall, p = draw(st.integers(0, 4)), draw(st.booleans()), draw(st.integers(0, 3))
    m, n = (p + b, p + min(b, 1)) if tall else (p + min(b, 1), p + b)
    rows = [[(0,) * k] * n for _ in range(m)]
    unit = st.sampled_from([1, 2]) if field.char == 0 else st.integers(1, field.char - 1)
    for i in range(p):
        rows[i][i] = _monomial(k, draw(unit), draw(st.integers(0, k - 1)))
    for t in range(b):
        i, j = (p + t, p) if tall else (p, p + t)
        rows[i][j] = _non_monomial(draw, field, k)
    coeff = st.integers(-2, 2) if field.char == 0 else st.integers(0, field.char - 1)
    for _ in range(draw(st.integers(0, 4)) if p else 0):
        j = draw(st.integers(0, p - 1))
        c = tuple(draw(st.lists(coeff, min_size=k, max_size=k)))
        if draw(st.booleans()) and m > p:
            t = draw(st.integers(p, m - 1))
            rows[t] = [add(field, a, convolve(field, c, u)) for a, u in zip(rows[t], rows[j])]
        elif n > p:
            t = draw(st.integers(p, n - 1))
            for r in rows:
                r[t] = add(field, r[t], convolve(field, r[j], c))
    return _insert_zero_lines(draw, ring_matrix(field, k, rows))


def _refuse_polynomial_snf(p, core):
    raise AssertionError(f"snf_over_polys on a {len(core)}-row core")


@settings(max_examples=200, deadline=None)
@given(_small_core_matrices())
@example(ring_matrix(F2, 4, [[_sigma_coset(4, 4, 0), _sigma_coset(4, 2, 1)]]))
@example(ring_matrix(F3, 3, [[_sigma_coset(3, 3, 0)], [(1, -1, 0)]]))
@example(_fixed_apex_cone_boundary())
def test_core_of_at_most_one_line_lifts_from_a_gcd(M):
    _, core, _ = _unit_pivot_reduce(M)
    assert min(core.rows, core.cols) <= 1
    with mock.patch.object(ring_snf, "snf_over_polys", _refuse_polynomial_snf):
        lifts = snf_over_R(M)
    assert lifts == _augmented_lifts(M)


def test_one_line_cores_never_reach_the_polynomial_snf(tmp_path, monkeypatch, capsys):
    # every core of the 12x3 torus at k=3 (a triple of the triple ladder)
    # and of the rotated 9x3 torus has at most one line
    triple = tmp_path / "torus12x3_triple.json"
    triple.write_text(dump_json(triple_to_dict(_torus_triple(3, 4))))
    action = tmp_path / "torus9x3.json"
    action.write_text(dump_json(to_input_dict(entry("torus9x3_rot3"))))
    runs = [["homology", str(f), "--field", field, "--format", "json"]
            for f in (triple, action) for field in ("Q", "Fp:2", "Fp:3", "Fp:5")]
    before = []
    for argv in runs:
        assert cli.run(argv) == 0
        before.append(capsys.readouterr().out)
    monkeypatch.setattr(ring_snf, "snf_over_polys", _refuse_polynomial_snf)
    for argv, want in zip(runs, before):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("name, shapes", [
    ("trivial_k2_triangle", [(3, 3)]),
    ("trivial_k3_two_circles", [(6, 6)]),
])
def test_cores_of_several_lines_reach_the_polynomial_snf(name, shapes, tmp_path,
                                                         monkeypatch, capsys):
    # a trivial action has no unit pivot: every d=1 entry is +-sigma(Z_k),
    # and its core is the whole matrix
    seen, original = [], ring_snf.snf_over_polys

    def spy(p, core):
        seen.append((len(core), len(core[0])))
        return original(p, core)

    monkeypatch.setattr(ring_snf, "snf_over_polys", spy)
    f = tmp_path / f"{name}.json"
    f.write_text(dump_json(to_input_dict(entry(name))))
    assert cli.run(["homology", str(f), "--field", "Q"]) == 0
    assert seen == shapes


@st.composite
def _integer_rows(draw):
    """A field and an m x n matrix of small integers, 0 <= m, n <= 6, with
    zero rows and columns, repeated rows, sums of multiples of rows, and
    rows that differ from another by a multiple of 2, 3 or 5: equal mod
    that prime only."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    small = st.integers(-3, 3)
    rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["zero", "repeat", "sum", "mod"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat":
            rows.append(list(a))
        elif kind == "sum":
            c = draw(small)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            q = draw(st.sampled_from([2, 3, 5]))
            rows.append([x + q * draw(small) for x in a])
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, n))
        rows, n = [r[:at] + [0] + r[at:] for r in rows], n + 1
    return field, draw(st.permutations(rows)), n


@settings(max_examples=300, deadline=None)
@given(_integer_rows())
@example((QQ, [], 0))
@example((F2, [], 3))
@example((F3, [[], [], []], 0))
@example((F5, [[0, 0], [0, 0]], 2))
@example((F2, [[1, 1], [1, -1]], 2))
@example((QQ, [[1, 1], [1, -1]], 2))
@example((F5, [[1, 2], [3, 1]], 2))
@example((F3, [[1, 2, 0], [1, 2, 0], [4, -1, 3]], 3))
def test_sparse_rank_equals_the_dense_rank(case):
    # the unit elimination at k = 1 against the dense Gaussian elimination
    field, rows, n = case
    M = ring_matrix(field, 1, [[(v,) for v in r] for r in rows], n)
    before = M.sparse_rows()
    assert sparse_rank(M) == field_rank(FieldMatrix(field, len(rows), n, rows))
    assert M.entries == before
