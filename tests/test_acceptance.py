"""Acceptance gate: every criterion as one test, each printing a pass line
(run with -s to see them; the test names carry the criterion numbers).

Run: pytest tests/test_acceptance.py -v -s
"""

import random
import time
from math import gcd

import pytest

from zkhomology.actions import (
    check_regularity,
    compatible_ordering,
    index_reducing,
    lex_lift,
    lex_max_lift,
    quotient,
    regularize,
)
from zkhomology.corpus import build_action, entry, regular_entries
from zkhomology.exact import GF, QQ, Poly, field_rank
from zkhomology.groupring import (
    GroupRingElem,
    circulant_rank,
    explicit_circulant_rank,
    rho_extend,
)
from zkhomology.pipeline import (
    compatible_boundary,
    compressed_betti,
    compressed_snf,
    g_boundary_matrix,
    isotropy_expansion,
)
from zkhomology.ring_snf import snf_over_R
from zkhomology.simplicial import betti_direct, boundary_matrix
from zkhomology.transfer import build_complex_of_groups, build_triple

FIELDS = (QQ, GF(2), GF(3), GF(5))

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def prepared():
    """Corpus materialized once: action, quotient, lift, triple per entry."""
    out = {}
    for e in regular_entries():
        action = build_action(e)
        qd = quotient(action)
        lift = lex_lift(qd)
        triple = build_triple(action, lift=lift, qd=qd)
        out[e.name] = (e, action, qd, lift, triple)
    return out


def test_criterion_1_oracle_equivalence(prepared):
    started = time.time()
    for name, (e, action, _, _, triple) in prepared.items():
        for field in FIELDS:
            direct = betti_direct(action.complex, field)
            compressed = compressed_betti(triple, field)
            assert compressed == direct, (name, field.name, compressed, direct)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: compressed == direct on {len(prepared)} corpus "
          f"entries x {len(FIELDS)} fields in {elapsed:.1f}s")


def test_criterion_2_modular_non_semisimple(prepared):
    hits = 0
    for name, (e, action, _, _, triple) in prepared.items():
        if e.k == 2:
            field = GF(2)
        elif e.k == 3:
            field = GF(3)
        else:
            continue
        assert compressed_betti(triple, field) == betti_direct(action.complex, field)
        hits += 1
    assert hits >= 2
    print(f"\nACCEPTANCE 2 PASS: char | k cases agree on {hits} entries "
          "((k=2, F2) and (k=3, F3))")


def test_criterion_3_expansion_lemma(prepared):
    mismatches = 0
    cases = 0
    for name, (e, action, qd, lift, triple) in prepared.items():
        for field in FIELDS:
            for d in range(1, action.complex.dim + 1):
                E = isotropy_expansion(action, lift, d, field, qd=qd)
                G = rho_extend(g_boundary_matrix(triple, d, field))
                cases += 1
                if E != G:
                    mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 3 PASS: expansion equals circulant image entrywise "
          f"in {cases} (complex, d, field) cases, zero mismatches")


def test_criterion_4_rank_preservation(prepared):
    for name, (e, action, qd, lift, _) in prepared.items():
        for field in FIELDS:
            for d in range(1, action.complex.dim + 1):
                B = compatible_boundary(action, lift, d, field, qd=qd)
                E = isotropy_expansion(action, lift, d, field, qd=qd)
                assert field_rank(E) == field_rank(B), (name, field.name, d)
    print("\nACCEPTANCE 4 PASS: isotropy expansion preserves boundary rank "
          "corpus-wide")


def test_criterion_5_hand_derived_fixed_points(prepared):
    _, path_action, _, _, path_triple = prepared["path_flip"]
    G = g_boundary_matrix(path_triple, 1, QQ)
    assert [[str(v) for v in row] for row in G.data] == [["-1"], ["1 + a^1"]]
    snf = snf_over_R(G)
    assert snf.lift_strings() == ["1"]
    assert snf.rank_sum(2) == 2
    assert compressed_betti(path_triple, QQ) == (1, 0) == betti_direct(
        path_action.complex, QQ)

    _, two_action, _, _, two_triple = prepared["two_triangles_swap"]
    snf2 = compressed_snf(two_triple, 1, QQ)
    assert snf2.lift_strings() == ["1", "1", "x^2-1"]
    assert snf2.rank_sum(2) == 4
    assert compressed_betti(two_triple, QQ) == (2, 2) == betti_direct(
        two_action.complex, QQ)

    _, oct_action, _, _, oct_triple = prepared["cycle8_rot4"]
    assert compressed_snf(oct_triple, 1, QQ).rank_sum(2) == 7
    assert compressed_betti(oct_triple, QQ) == (1, 1) == betti_direct(
        oct_action.complex, QQ)
    print("\nACCEPTANCE 5 PASS: path (-1, 1+a), SNF [1], rank 2, betti (1,0); "
          "two triangles SNF [1,1,x^2-1], rank 4, betti (2,2); octagon rank 7, "
          "betti (1,1)")


def test_criterion_6_independence_properties(prepared):
    rng = random.Random(20240815)
    names = sorted(prepared)

    deviations = 0
    for _ in range(20):  # (a) generator exponents
        name = rng.choice(names)
        _, action, _, _, triple = prepared[name]
        field = rng.choice(FIELDS)
        base = compressed_betti(triple, field)
        t = rng.choice([t for t in range(1, triple.k + 1) if gcd(t, triple.k) == 1])
        if compressed_betti(triple, field, generator_exponent=t) != base:
            deviations += 1
    assert deviations == 0

    for _ in range(20):  # (b) lex-min vs lex-max lift
        name = rng.choice(names)
        _, action, qd, _, triple = prepared[name]
        field = rng.choice(FIELDS)
        tri_max = build_triple(action, lift=lex_max_lift(qd), qd=qd)
        if compressed_betti(tri_max, field) != compressed_betti(triple, field):
            deviations += 1
    assert deviations == 0

    for _ in range(20):  # (c) random quotient reorderings
        name = rng.choice(names)
        _, action, _, _, triple = prepared[name]
        field = rng.choice(FIELDS)
        orders = {}
        for d in range(triple.quotient.dim + 1):
            perm = list(triple.quotient.simplices(d))
            rng.shuffle(perm)
            orders[d] = tuple(perm)
        if compressed_betti(triple, field, orders=orders) != compressed_betti(
                triple, field):
            deviations += 1
    assert deviations == 0
    print("\nACCEPTANCE 6 PASS: generator / lift / ordering independence, "
          "20 random trials each, zero deviations")


def test_criterion_7_structural_invariants(prepared):
    for name, (e, action, qd, lift, triple) in prepared.items():
        X = action.complex
        for field in FIELDS[:2]:
            for d in range(2, X.dim + 1):
                assert (boundary_matrix(X, d - 1, field)
                        * boundary_matrix(X, d, field)).is_zero()
        for s in X.all_simplices():
            assert len(action.simplex_orbit(s)) * action.isotropy(s).order == action.k
        for (psi, omega), hits in triple.Tstar.items():
            H = triple.S[omega]
            assert len(hits) == H.order
            base = min(hits)
            assert hits == {(base + g) % triple.k for g in H.exponents()}
        build_complex_of_groups(triple)  # validates the complex-of-groups axioms
        for d in range(qd.quotient.dim + 1):
            lp = compatible_ordering(qd, lift, d)
            J = index_reducing(lp, action.k)
            for b, block in enumerate(lp.blocks):
                assert set(J[b * action.k:(b + 1) * action.k]) == set(block)
        q_poly = {f: Poly.x_pow_minus_one(f, triple.k) for f in FIELDS}
        for field in FIELDS:
            for d in range(1, triple.quotient.dim + 1):
                snf = compressed_snf(triple, d, field)
                for a, b in zip(snf.lifts, snf.lifts[1:]):
                    assert a.divides(b)
                for f in snf.lifts:
                    assert f.divides(q_poly[field])

    rng = random.Random(509)
    for field in FIELDS:
        for _ in range(500):
            k = rng.randint(1, 12)
            if field.char == 0:
                coeffs = [rng.randint(-4, 4) for _ in range(k)]
            else:
                coeffs = [rng.randint(0, field.char - 1) for _ in range(k)]
            w = GroupRingElem(field, k, coeffs)
            assert circulant_rank(w) == explicit_circulant_rank(w)
    print("\nACCEPTANCE 7 PASS: boundary^2 = 0, orbit-stabilizer, transfer "
          "cosets, cocycle, index-reducing blocks, SNF chains, and 500 "
          "circulant ranks per field")


def test_criterion_8_regularity_gate():
    raw = build_action(entry("cycle4_antipodal"))
    witness = check_regularity(raw)
    assert witness is not None
    assert witness.simplex == (0, 1)
    assert witness.exponents == (0, 1)
    assert witness.image == (0, 3)

    fixed = regularize(raw)
    assert check_regularity(fixed) is None
    triple = build_triple(fixed)
    for field in FIELDS:
        assert compressed_betti(triple, field) == betti_direct(
            fixed.complex, field) == (1, 1)
    print("\nACCEPTANCE 8 PASS: antipodal square rejected with witness "
          "({0,1} moved by (e, a) onto {0,3}); regularized action passes "
          "oracle equivalence")
