import random

import pytest

from zkhomology.corpus import build_action, entry
from zkhomology.exact import GF, QQ, FieldMatrix, field_rank
from zkhomology.groupring import GroupRingMatrix, rho_extend
from zkhomology.pipeline import g_boundary_matrix
from zkhomology.ring_snf import rank_sum, snf_over_R
from zkhomology.simplicial import faces
from zkhomology.transfer import build_triple

from grids import add, circulant, convolve, dense, field_product, ring_matrix, ring_product

F2, F3, F5 = GF(2), GF(3), GF(5)


def _random_elem(rng, field, k):
    if field.char == 0:
        return tuple(rng.randint(-3, 3) for _ in range(k))
    return tuple(rng.randint(0, field.char - 1) for _ in range(k))


def _one(k):
    return (1,) + (0,) * (k - 1)


def _rho(field, w):
    """rho(w) for a coefficient tuple w, through the 1x1 matrix [w], as a
    dense FieldMatrix."""
    return dense(rho_extend(ring_matrix(field, len(w), [[w]])))


def _is_zero(M):
    return all(v == 0 for row in M.data for v in row)


def _triple(name):
    return build_triple(build_action(entry(name)))


class TestSigma:
    """The subset-summing map sigma(T*), as g_boundary_matrix writes it:
    each face pair's entry is the indicator sum of its transfer coset."""

    def test_pair(self):
        G = g_boundary_matrix(_triple("path_flip"), 1, QQ)
        assert G.entries == {0: {0: {0: -1}}, 1: {0: {0: 1, 1: 1}}}

    def test_empty(self):
        # a pair that is no face pair has the empty coset, sigma(empty) = 0
        tri = _triple("torus9x3_rot3")
        for d in (1, 2):
            G = g_boundary_matrix(tri, d, F3)
            rows = tri.quotient.simplices(d - 1)
            written = {(rows[i], tri.quotient.simplices(d)[j])
                       for i, r in G.entries.items() for j in r}
            assert written == {(omega, psi) for psi in tri.quotient.simplices(d)
                               for _, omega in faces(psi)}

    def test_singleton(self):
        # a free action: every coset is one element, every entry a monomial
        G = g_boundary_matrix(_triple("cycle8_rot4"), 1, QQ)
        assert [len(w) for r in G.entries.values() for w in r.values()] == [1] * 8

    def test_wraps_exponents(self):
        # in the basis of beta = alpha^g the exponent c becomes c g^-1 mod k
        tri = _triple("torus9x3_rot3")
        for d in (1, 2):
            G1 = g_boundary_matrix(tri, d, F5)
            G2 = g_boundary_matrix(tri, d, F5, generator_exponent=2)
            assert G2.entries == {i: {j: {c * 2 % 3: v for c, v in w.items()}
                                      for j, w in r.items()}
                                  for i, r in G1.entries.items()}


class TestRho:
    def test_identity(self):
        for k in (1, 2, 5):
            assert _rho(QQ, _one(k)).data == tuple(
                tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
            )

    def test_generator_k3_columns(self):
        # alpha acts as the cyclic shift: columns e2, e3, e1
        M = _rho(QQ, (0, 1, 0))
        cols = [tuple(M.data[i][j] for i in range(3)) for j in range(3)]
        assert cols == [(0, 1, 0), (0, 0, 1), (1, 0, 0)]

    def test_one_plus_alpha_k2(self):
        assert [[int(v) for v in row] for row in _rho(QQ, (1, 1)).data] == [[1, 1], [1, 1]]

    def test_image_is_circulant_transpose(self):
        rng = random.Random(3)
        for k in (2, 3, 5, 8):
            w = _random_elem(rng, QQ, k)
            assert _rho(QQ, w) == circulant(QQ, w)

    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_ring_homomorphism(self, field):
        rng = random.Random(11)
        for k in range(1, 13):
            v = _random_elem(rng, field, k)
            w = _random_elem(rng, field, k)
            assert _rho(field, convolve(field, v, w)) == field_product(
                _rho(field, v), _rho(field, w))
            left = _rho(field, add(field, v, w))
            for i in range(k):
                for j in range(k):
                    assert left.data[i][j] == field.add(
                        _rho(field, v).data[i][j], _rho(field, w).data[i][j])

    def test_injective(self):
        rng = random.Random(13)
        for k in (1, 2, 3, 6):
            for _ in range(30):
                w = _random_elem(rng, F3, k)
                if _is_zero(_rho(F3, w)):
                    assert not any(w)

    def test_injective_exhaustive_small(self):
        from itertools import product as iproduct
        for field, k in ((F2, 1), (F2, 2), (F3, 1), (F3, 2)):
            for w in iproduct(range(field.char), repeat=k):
                assert _is_zero(_rho(field, w)) == (not any(w))

    def test_mul_commutes(self):
        # F[Z_k] is commutative, so its circulant images commute
        rng = random.Random(17)
        for k in (2, 3, 5):
            v, w = _rho(QQ, _random_elem(rng, QQ, k)), _rho(QQ, _random_elem(rng, QQ, k))
            assert field_product(v, w) == field_product(w, v)


class TestRhoExtend:
    def test_single_identity(self):
        M = GroupRingMatrix(QQ, 3, 1, 1, {0: {0: {0: QQ.one()}}})
        assert dense(rho_extend(M)) == FieldMatrix(QQ, 3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_path_g_boundary_blocks(self):
        R = dense(rho_extend(ring_matrix(QQ, 2, [[(-1, 0)], [(1, 1)]])))
        assert [[int(v) for v in row] for row in R.data] == [
            [-1, 0], [0, -1], [1, 1], [1, 1]]

    def test_sparse_rows_over_the_trivial_group(self):
        # row a k + i holds c at column b k + (i - e) mod k for each term
        # c x^e of entry (a, b), and nothing else; a zero row of M gives k
        # empty rows
        R = rho_extend(ring_matrix(F3, 3, [[(0, 2), ()], [(), (1, 0, 1)], [(), ()]]))
        assert (R.field, R.k, R.rows, R.cols) == (F3, 1, 9, 6)
        assert R.entries == {0: {2: {0: 2}}, 1: {0: {0: 2}}, 2: {1: {0: 2}},
                             3: {3: {0: 1}, 4: {0: 1}}, 4: {4: {0: 1}, 5: {0: 1}},
                             5: {5: {0: 1}, 3: {0: 1}}, 6: {}, 7: {}, 8: {}}

    def test_zero(self):
        M = GroupRingMatrix(QQ, 2, 3, 2, {0: {}, 1: {}, 2: {}})
        assert _is_zero(dense(rho_extend(M)))

    def test_equals_block_assembly_of_rho(self):
        # the sparse build against the blocks rho(M[a][b]), zero blocks
        # included, assembled through the coercing FieldMatrix constructor
        rng = random.Random(29)
        for field in (QQ, F2, F3, F5):
            for k in (1, 2, 3, 4):
                rows, cols = rng.randint(0, 3), rng.randint(1, 3)
                grid = [[_random_elem(rng, field, k) if rng.random() < 0.6 else (0,) * k
                         for _ in range(cols)] for _ in range(rows)]
                data = [[grid[a][b][(i - j) % k] for b in range(cols) for j in range(k)]
                        for a in range(rows) for i in range(k)]
                want = FieldMatrix(field, rows * k, cols * k, data)
                got = dense(rho_extend(ring_matrix(field, k, grid, cols)))
                assert got == want
                assert (got.rows, got.cols) == (want.rows, want.cols)

    def test_preserves_products_and_inverses(self):
        rng = random.Random(23)
        for field in (QQ, F2, F3):
            for k in (2, 3):
                A = _random_unimodular(rng, field, k, 3)
                B = _random_unimodular(rng, field, k, 3)
                AB = ring_matrix(field, k, ring_product(A, B))
                assert dense(rho_extend(AB)) == field_product(dense(rho_extend(A)),
                                                              dense(rho_extend(B)))
                # invertible over the group ring maps to full field rank
                assert field_rank(dense(rho_extend(A))) == 3 * k


def _random_unimodular(rng, field, k, n):
    """The identity after elementary row operations with unit pivots over
    F[Z_k], applied directly to its rows."""
    rows = [[_one(k) if i == j else (0,) * k for j in range(n)] for i in range(n)]
    for _ in range(6):
        kind = rng.choice(["add", "swap", "scale"])
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == "add" and i != j:
            c = _random_elem(rng, field, k)
            rows[i] = [add(field, a, convolve(field, c, b)) for a, b in zip(rows[i], rows[j])]
        elif kind == "swap" and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            u = [0] * k
            u[rng.randrange(k)] = -1 if field.char == 0 and rng.random() < 0.5 else 1
            rows[i] = [convolve(field, tuple(map(field.coerce, u)), v) for v in rows[i]]
    return ring_matrix(field, k, rows)


def explicit_circulant_rank(field, w):
    """Independent route: write out rho(w) and row-reduce it."""
    return field_rank(circulant(field, w))


def _one_by_one(field, w):
    return ring_matrix(field, len(w), [[w]])


class TestCirculantRank:
    """rank(rho(w)) read off the Smith form of the 1x1 matrix [w], as k
    minus the degree of its lift gcd(w, x^k - 1)."""

    def test_zero(self):
        assert rank_sum(snf_over_R(_one_by_one(QQ, (0, 0))), 2) == 0

    def test_one_plus_alpha(self):
        for field in (QQ, F2):
            assert (rank_sum(snf_over_R(_one_by_one(field, (1, 1))), 2) == 1
                    == explicit_circulant_rank(field, (1, 1)))

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5])
    def test_agrees_with_explicit_rank(self, field):
        rng = random.Random(42)
        for _ in range(120):
            k = rng.randint(1, 12)
            w = _random_elem(rng, field, k)
            assert (rank_sum(snf_over_R(_one_by_one(field, w)), k)
                    == explicit_circulant_rank(field, w))


class TestElemFormat:
    """An entry is {exponent: coefficient} over its nonzero coefficients,
    canonical in the field, and the matrix repr prints the entries so."""

    def test_identity_plus_generator(self):
        assert repr(ring_matrix(F2, 2, [[(1, 1)]])) == (
            "GroupRingMatrix(Fp:2, k=2, 1x1: {0: {0: {0: 1, 1: 1}}})")

    def test_signs_and_coefficients(self):
        M = ring_matrix(QQ, 3, [[(-1, 2, 0)], [(0, 0, 0)]])
        assert M.entries == {0: {0: {0: -1, 1: 2}}, 1: {}}
        assert repr(M) == ("GroupRingMatrix(Q, k=3, 2x1: "
                           "{0: {0: {0: -1, 1: 2}}, 1: {}})")
        assert repr(GroupRingMatrix(QQ, 4, 0, 2, {})) == "GroupRingMatrix(Q, k=4, 0x2: {})"

    def test_prime_field_canonical(self):
        # over F3, -1 is written as 2, as g_boundary_matrix writes odd faces
        G = g_boundary_matrix(_triple("cycle9_rot3"), 1, F3)
        assert {c for r in G.entries.values() for w in r.values() for c in w.values()} == {1, 2}
        assert repr(ring_matrix(F3, 3, [[(0, 2, 1), (-1,)]])) == (
            "GroupRingMatrix(Fp:3, k=3, 1x2: {0: {0: {1: 2, 2: 1}, 1: {0: 2}}})")
