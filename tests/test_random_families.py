"""Randomized oracle cross-checks on generated regular actions.

Four families with known-regular rotations (rim spacing of at least 3
keeps mixed-shift images from being simplices): plain cycles, disjoint
unions of two cycles, cones over a cycle whose apex is fixed by the
whole group (full isotropy in every dimension of the cone), and grid tori
rotated along their rows, whose free action makes every G-boundary entry
a unit +-x^c (the all-unit case of the ring Smith form's pivot reduction).
"""

import random
from math import gcd

import pytest

from zkhomology.actions import check_regularity, validate_action
from zkhomology.exact import GF, QQ
from zkhomology.pipeline import compressed_betti
from zkhomology.simplicial import betti_direct, build_complex
from zkhomology.transfer import build_triple

FIELDS = (QQ, GF(2), GF(3), GF(5))


def _cycle_action(k, spacing, offset=0):
    n = k * spacing
    gens = [{offset + i, offset + (i + 1) % n} for i in range(n)]
    perm = {offset + i: offset + (i + spacing) % n for i in range(n)}
    return gens, perm


def _rotated_cycle(rng):
    k = rng.randint(1, 6)
    spacing = rng.randint(3, 5)
    gens, perm = _cycle_action(k, spacing)
    X = build_complex(gens)
    return validate_action(X, perm, k), (1, 1)


def _two_cycles(rng):
    k = rng.randint(1, 4)
    s1, s2 = rng.randint(3, 4), rng.randint(3, 4)
    g1, p1 = _cycle_action(k, s1)
    g2, p2 = _cycle_action(k, s2, offset=k * s1)
    X = build_complex(g1 + g2)
    return validate_action(X, {**p1, **p2}, k), (2, 2)


def _cone(rng):
    k = rng.randint(1, 4)
    spacing = rng.randint(3, 4)
    n = k * spacing
    apex = n
    tris = [{i, (i + 1) % n, apex} for i in range(n)]
    perm = {i: (i + spacing) % n for i in range(n)}
    perm[apex] = apex
    X = build_complex(tris)
    return validate_action(X, perm, k), (1, 0, 0)


def _grid_torus(rows, shift, cols=3):
    """Triangulated rows x cols grid torus and its rotation by `shift` rows."""
    def v(i, j):
        return (i % rows) * cols + j % cols

    tris = []
    for i in range(rows):
        for j in range(cols):
            tris.append({v(i, j), v(i + 1, j), v(i, j + 1)})
            tris.append({v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)})
    perm = {v(i, j): v(i + shift, j) for i in range(rows) for j in range(cols)}
    return tris, perm


def _torus(rng):
    k = rng.randint(1, 4)
    r = rng.randint(3, 4)
    tris, perm = _grid_torus(k * r, r)
    return validate_action(build_complex(tris), perm, k), (1, 2, 1)


FAMILIES = [_rotated_cycle, _two_cycles, _cone, _torus]


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_random_regular_actions_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(8):
        family = rng.choice(FAMILIES)
        action, expected = family(rng)
        assert check_regularity(action) is None
        triple = build_triple(action)
        field = rng.choice(FIELDS)
        direct = betti_direct(action.complex, field)
        assert direct == expected
        generators = [t for t in range(1, action.k + 1) if gcd(t, action.k) == 1]
        t = rng.choice(generators)
        assert compressed_betti(triple, field, generator_exponent=t) == direct


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_torus_family_matches_oracle_over_every_field(k):
    action, expected = _torus(_FixedRng([k, 3]))
    assert check_regularity(action) is None
    triple = build_triple(action)
    assert all(n == 1 for n in triple.S.values())
    generators = [t for t in range(1, k + 1) if gcd(t, k) == 1]
    for field in FIELDS:
        assert betti_direct(action.complex, field) == expected
        for t in generators:
            assert compressed_betti(triple, field, generator_exponent=t) == expected


class _FixedRng:
    """Stand-in rng yielding fixed draws: k, then spacing or row shift."""

    def __init__(self, values):
        self._values = list(values)

    def randint(self, lo, hi):
        return self._values.pop(0)


def test_cone_has_full_isotropy_apex():
    action, _ = _cone(_FixedRng([3, 3]))
    assert action.k == 3
    triple = build_triple(action)
    apex_label = triple.quotient.n_simplices(0) - 1
    assert triple.S[(apex_label,)] == 3
    assert all(n == 1 for q, n in triple.S.items() if q != (apex_label,)
               and len(q) == 1)
