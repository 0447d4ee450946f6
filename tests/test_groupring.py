import random

import pytest

from zkhomology.errors import DomainMismatchError
from zkhomology.exact import GF, QQ, FieldMatrix, field_rank
from zkhomology.groupring import (
    GroupRingElem,
    GroupRingMatrix,
    rho,
    rho_extend,
    sigma,
)
from zkhomology.ring_snf import snf_over_R

F2, F3, F5 = GF(2), GF(3), GF(5)


def elem(field, k, coeffs):
    return GroupRingElem(field, k, coeffs)


def _random_elem(rng, field, k):
    if field.char == 0:
        return elem(field, k, [rng.randint(-3, 3) for _ in range(k)])
    return elem(field, k, [rng.randint(0, field.char - 1) for _ in range(k)])


class TestSigma:
    def test_pair(self):
        assert sigma([0, 1], QQ, 2).coeffs == (1, 1)

    def test_empty(self):
        assert sigma([], QQ, 3).is_zero()

    def test_singleton(self):
        assert sigma([1], QQ, 3).coeffs == (0, 1, 0)

    def test_wraps_exponents(self):
        assert sigma([5], QQ, 3) == sigma([2], QQ, 3)


class TestRho:
    def test_identity(self):
        for k in (1, 2, 5):
            assert rho(GroupRingElem.one(QQ, k)).data == tuple(
                tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
            )

    def test_generator_k3_columns(self):
        # alpha acts as the cyclic shift: columns e2, e3, e1
        M = rho(sigma([1], QQ, 3))
        cols = [tuple(M.data[i][j] for i in range(3)) for j in range(3)]
        assert cols == [(0, 1, 0), (0, 0, 1), (1, 0, 0)]

    def test_one_plus_alpha_k2(self):
        w = GroupRingElem.one(QQ, 2) + sigma([1], QQ, 2)
        assert [[int(v) for v in row] for row in rho(w).data] == [[1, 1], [1, 1]]

    def test_image_is_circulant_transpose(self):
        rng = random.Random(3)
        for k in (2, 3, 5, 8):
            w = _random_elem(rng, QQ, k)
            M = rho(w)
            for i in range(k):
                for j in range(k):
                    assert M.data[i][j] == w.coeffs[(i - j) % k]

    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_ring_homomorphism(self, field):
        rng = random.Random(11)
        for k in range(1, 13):
            v = _random_elem(rng, field, k)
            w = _random_elem(rng, field, k)
            assert rho(v * w) == rho(v) * rho(w)
            left = rho(v + w)
            for i in range(k):
                for j in range(k):
                    assert left.data[i][j] == field.add(
                        rho(v).data[i][j], rho(w).data[i][j])

    def test_injective(self):
        rng = random.Random(13)
        for k in (1, 2, 3, 6):
            for _ in range(30):
                w = _random_elem(rng, F3, k)
                if rho(w).is_zero():
                    assert w.is_zero()

    def test_injective_exhaustive_small(self):
        from itertools import product as iproduct
        for field, k in ((F2, 1), (F2, 2), (F3, 1), (F3, 2)):
            for coeffs in iproduct(range(field.char), repeat=k):
                w = elem(field, k, coeffs)
                assert rho(w).is_zero() == w.is_zero()

    def test_mul_commutes(self):
        rng = random.Random(17)
        for k in (2, 3, 5):
            v, w = _random_elem(rng, QQ, k), _random_elem(rng, QQ, k)
            assert v * w == w * v

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            GroupRingElem.one(QQ, 2) + GroupRingElem.one(QQ, 3)
        with pytest.raises(DomainMismatchError):
            GroupRingElem.one(QQ, 2) * GroupRingElem.one(F2, 2)


class TestRhoExtend:
    def test_single_identity(self):
        M = GroupRingMatrix.from_sparse(QQ, 3, 1, 1, {0: {0: {0: QQ.one()}}})
        assert rho_extend(M).data == rho(GroupRingElem.one(QQ, 3)).data

    def test_path_g_boundary_blocks(self):
        e = GroupRingElem.one(QQ, 2)
        a = sigma([1], QQ, 2)
        M = GroupRingMatrix.from_rows(QQ, 2, [[-e], [e + a]])
        R = rho_extend(M)
        assert [[int(v) for v in row] for row in R.data] == [
            [-1, 0], [0, -1], [1, 1], [1, 1]]

    def test_zero(self):
        M = GroupRingMatrix.from_sparse(QQ, 2, 3, 2, {0: {}, 1: {}, 2: {}})
        assert rho_extend(M).is_zero()

    def test_equals_block_assembly_of_rho(self):
        # the sparse build against the blocks rho(M[a][b]), zero blocks
        # included, assembled through the coercing FieldMatrix constructor
        rng = random.Random(29)
        for field in (QQ, F2, F3, F5):
            for k in (1, 2, 3, 4):
                rows, cols = rng.randint(0, 3), rng.randint(1, 3)
                M = GroupRingMatrix(field, k, rows, cols, [
                    [_random_elem(rng, field, k) if rng.random() < 0.6
                     else GroupRingElem.zero(field, k) for _ in range(cols)]
                    for _ in range(rows)])
                data = [[rho(M.data[a][b]).data[i][j]
                         for b in range(cols) for j in range(k)]
                        for a in range(rows) for i in range(k)]
                want = FieldMatrix(field, rows * k, cols * k, data)
                got = rho_extend(M)
                assert got == want
                assert (got.rows, got.cols) == (want.rows, want.cols)

    def test_preserves_products_and_inverses(self):
        rng = random.Random(23)
        for field in (QQ, F2, F3):
            for k in (2, 3):
                A = _random_unimodular(rng, field, k, 3)
                B = _random_unimodular(rng, field, k, 3)
                assert rho_extend(A * B) == rho_extend(A) * rho_extend(B)
                # invertible over the group ring maps to full field rank
                assert field_rank(rho_extend(A)) == 3 * k


class TestProduct:
    def test_reads_each_grid_once(self, monkeypatch):
        # an 8x8 product over F3[Z_4] builds each operand's dense grid once,
        # not once per entry it multiplies
        rng = random.Random(8)
        A, B = (GroupRingMatrix.from_rows(F3, 4, [[_random_elem(rng, F3, 4)
                                                   for _ in range(8)] for _ in range(8)])
                for _ in range(2))
        a, b = A.data, B.data
        want = [[sum((a[i][t] * b[t][j] for t in range(8)), GroupRingElem.zero(F3, 4))
                 for j in range(8)] for i in range(8)]
        reads, grid = [], GroupRingMatrix.data.fget
        monkeypatch.setattr(GroupRingMatrix, "data",
                            property(lambda M: reads.append(id(M)) or grid(M)))
        product = A * B
        monkeypatch.undo()
        assert reads == [id(A), id(B)]
        assert product == GroupRingMatrix.from_rows(F3, 4, want)


def _random_unimodular(rng, field, k, n):
    """Product of elementary matrices with unit pivots over F[Z_k]."""
    M = GroupRingMatrix.from_sparse(field, k, n, n,
                                    {i: {i: {0: field.one()}} for i in range(n)})
    for _ in range(6):
        kind = rng.choice(["add", "swap", "scale"])
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        rows = [list(r) for r in M.data]
        if kind == "add" and i != j:
            c = _random_elem(rng, field, k)
            rows[i] = [rows[i][t] + c * rows[j][t] for t in range(n)]
        elif kind == "swap" and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            u = sigma([rng.randrange(k)], field, k)
            if field.char == 0 and rng.random() < 0.5:
                u = -u
            rows[i] = [u * v for v in rows[i]]
        M = GroupRingMatrix.from_rows(field, k, rows)
    return M


def explicit_circulant_rank(w):
    """Independent route: build rho(w) and row-reduce it."""
    return field_rank(rho(w))


def _one_by_one(w):
    return GroupRingMatrix.from_rows(w.field, w.k, [[w]])


class TestCirculantRank:
    """rank(rho(w)) read off the Smith form of the 1x1 matrix [w], as k
    minus the degree of its lift gcd(w, x^k - 1)."""

    def test_zero(self):
        assert snf_over_R(_one_by_one(GroupRingElem.zero(QQ, 2))).rank_sum() == 0

    def test_one_plus_alpha(self):
        w = GroupRingElem.one(QQ, 2) + sigma([1], QQ, 2)
        assert snf_over_R(_one_by_one(w)).rank_sum() == 1 == explicit_circulant_rank(w)
        wf = GroupRingElem.one(F2, 2) + sigma([1], F2, 2)
        assert snf_over_R(_one_by_one(wf)).rank_sum() == 1 == explicit_circulant_rank(wf)

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5])
    def test_agrees_with_explicit_rank(self, field):
        rng = random.Random(42)
        for _ in range(120):
            k = rng.randint(1, 12)
            w = _random_elem(rng, field, k)
            assert snf_over_R(_one_by_one(w)).rank_sum() == explicit_circulant_rank(w)


class TestElemFormat:
    def test_identity_plus_generator(self):
        w = GroupRingElem.one(QQ, 2) + sigma([1], QQ, 2)
        assert str(w) == "1 + a^1"

    def test_signs_and_coefficients(self):
        w = elem(QQ, 3, [-1, 2, 0])
        assert str(w) == "-1 + 2a^1"
        assert str(elem(QQ, 2, [1, -1])) == "1 - a^1"
        assert str(GroupRingElem.zero(QQ, 4)) == "0"

    def test_prime_field_canonical(self):
        assert str(elem(F3, 3, [0, 2, 1])) == "2a^1 + a^2"

