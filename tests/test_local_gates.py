"""Differential tests of the two input gates against exhaustive oracles.

`check_regularity` decides regularity on vertices and edges, and
`check_axioms` checks the 2-morphism axiom on codimension-2 squares
only.  The oracles below are the definitions they shortcut: every
assignment of a nonempty subset of each subgroup to each vertex of each
simplex, and every 3-chain and 4-chain of faces of each quotient simplex.
They are exponential and serve only as references on small inputs.

`check_regularity` scans orbit representatives only, and of those only
the ones that can fail; the scan over every vertex and edge stays here as
its reference for the whole witness, and the orbit walk's isotropy and
transfer cosets are checked against brute-force counts.
"""

import importlib.util
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zkhomology.actions import (
    CyclicAction,
    RegularityWitness,
    check_regularity,
    lex_lift,
    lex_max_lift,
    quotient,
    trivial_action,
    validate_action,
)
from zkhomology.corpus import build_action, entry, names, regular_entries
from zkhomology.errors import AxiomError
from zkhomology.simplicial import build_complex
from zkhomology.checks import extended_transfer
from zkhomology.transfer import IsotropyTriple, build_triple, check_axioms

from grids import lens_cover

BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


# ---------------------------------------------------------------- oracles

def _nonempty_subsets(elements):
    subs = []
    n = len(elements)
    for mask in range(1, 1 << n):
        subs.append(tuple(elements[i] for i in range(n) if mask >> i & 1))
    subs.sort(key=lambda t: (len(t), t))
    return subs


def exhaustive_regularity(action):
    """None if regular, else the first witness in (subgroup order,
    simplex, subset assignment) order.

    For every subgroup H, simplex, and assignment of a nonempty subset of H
    to each vertex (equivalent to every finite tuple with repeated
    vertices): if the moved vertex set is a simplex, some single h in H
    must realize the whole assignment.
    """
    X, k = action.complex, action.k
    for d_order in range(2, k + 1):
        if k % d_order:
            continue
        hs = range(0, k, k // d_order)
        subsets = _nonempty_subsets(hs)
        for s in X.all_simplices():
            for choice in product(subsets, repeat=len(s)):
                image = set()
                for v, sub in zip(s, choice):
                    image.update(action.apply_vertex(c, v) for c in sub)
                image = tuple(sorted(image))
                if image not in X:
                    continue
                realized = any(
                    all(
                        action.apply_vertex(h, v) == action.apply_vertex(c, v)
                        for v, sub in zip(s, choice)
                        for c in sub
                    )
                    for h in hs
                )
                if not realized:
                    vs = tuple(v for v, sub in zip(s, choice) for _ in sub)
                    es = tuple(c for _, sub in zip(s, choice) for c in sub)
                    return RegularityWitness(d_order, s, vs, es, image)
    return None


def exhaustive_axioms(triple):
    """Every complex-of-groups axiom over every face chain; raises
    AxiomError on the first violation, in chain enumeration order.

    Face maps are conjugations by the extended transfer (the identity on
    exponents), and the 2-morphisms are g = e23 + e12 - e13.
    """
    Y, k = triple.quotient, triple.k
    choice = {pair: min(hits) for pair, hits in triple.Tstar.items() if hits}
    ext = {}
    for psi1 in Y.all_simplices():
        for r in range(1, len(psi1) + 1):
            for psi2 in combinations(psi1, r):
                t, current = 0, psi1
                while current != psi2:
                    drop = max(v for v in current if v not in psi2)
                    nxt = tuple(v for v in current if v != drop)
                    t = (t + choice[(current, nxt)]) % k
                    current = nxt
                ext[(psi1, psi2)] = t

    def face_map(psi1, psi2, h):
        t = ext[(psi1, psi2)]
        return (t + h - t) % k

    for (psi1, psi2) in ext:
        if triple.S[psi2] % triple.S[psi1] != 0:
            raise AxiomError(
                f"group of {psi1} does not embed into group of {psi2}",
                witness=(psi1, psi2),
            )

    def chains(length):
        def extend(chain):
            if len(chain) == length:
                yield chain
                return
            for r in range(1, len(chain[-1]) + 1):
                for face in combinations(chain[-1], r):
                    yield from extend(chain + (face,))
        for psi1 in Y.all_simplices():
            yield from extend((psi1,))

    two = {}
    for p1, p2, p3 in chains(3):
        g = (ext[(p2, p3)] + ext[(p1, p2)] - ext[(p1, p3)]) % k
        two[(p1, p2, p3)] = g
        if g % (k // triple.S[p3]) != 0:
            raise AxiomError(
                f"2-morphism of ({p1},{p2},{p3}) has exponent "
                f"{g} outside the group of {p3}",
                witness=(p1, p2, p3),
            )
        if (p1 == p2 or p2 == p3) and g != 0:
            raise AxiomError(
                f"degenerate 2-morphism of ({p1},{p2},{p3}) is not the identity",
                witness=(p1, p2, p3),
            )
    for p1, p2, p3, p4 in chains(4):
        lhs = (face_map(p3, p4, two[(p1, p2, p3)]) + two[(p1, p3, p4)]) % k
        rhs = (two[(p2, p3, p4)] + two[(p1, p2, p4)]) % k
        if lhs != rhs:
            raise AxiomError(
                f"cocycle condition fails on ({p1},{p2},{p3},{p4})",
                witness=(p1, p2, p3, p4),
            )
    for (p1, p2, p3), g in two.items():
        if (g + ext[(p1, p3)]) % k != (ext[(p2, p3)] + ext[(p1, p2)]) % k:
            raise AxiomError(
                f"constant-morphism compatibility fails on ({p1},{p2},{p3})",
                witness=(p1, p2, p3),
            )


# ------------------------------------------------------------- regularity

def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def _oracle_cost(action):
    """Subset assignments the exhaustive search meets on a regular action."""
    return sum((2 ** d - 1) ** len(s) for d in _divisors(action.k) if d > 1
               for s in action.complex.all_simplices())


@st.composite
def small_actions(draw):
    """A random Z_k action, k in {2, 3, 4, 6}, of dimension at most 3: the
    closure of a few random simplices under a permutation whose cycle
    lengths divide k.  Random simplices seldom make an edge the first
    failure, so half the draws add two cycles of one length L > 1 and the
    orbits of the edges {u, v} and {u, alpha v} between them (u, v their
    first vertices), which fail the edge test at the full group.  Regular
    actions and vertex and edge witnesses all occur."""
    k = draw(st.sampled_from([2, 3, 4, 6]))
    lengths = draw(st.lists(st.sampled_from(_divisors(k)), min_size=1, max_size=5))
    planted = draw(st.booleans())
    if planted:
        lengths += [draw(st.sampled_from(_divisors(k)[1:]))] * 2
    perm, n = {}, 0
    for length in lengths:
        perm.update({n + i: n + (i + 1) % length for i in range(length)})
        n += length
    seeds = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
        max_size=6))
    if planted:
        v = n - lengths[-1]
        u = v - lengths[-1]
        seeds += [[u, v], [u, perm[v]]]
    simplices = [{v} for v in range(n)]
    for seed in seeds:
        for _ in range(k):
            simplices.append(set(seed))
            seed = [perm[v] for v in seed]
    action = validate_action(build_complex(simplices), perm, k)
    # Keeps the exhaustive oracle within a fraction of a second.
    assume(_oracle_cost(action) <= 50_000)
    return action


def _kind(witness):
    return "regular" if witness is None else ("vertex", "edge")[len(witness.simplex) - 1]


def test_regularity_matches_exhaustive_search():
    kinds = set()

    @settings(max_examples=300, deadline=None)
    @given(small_actions())
    def matches(action):
        witness = check_regularity(action)
        assert witness == exhaustive_regularity(action)
        kinds.add(_kind(witness))

    matches()
    # the draws reach every outcome of the scan
    assert kinds == {"regular", "vertex", "edge"}


@pytest.mark.parametrize("name", names())
def test_regularity_matches_exhaustive_search_on_corpus(name):
    action = build_action(entry(name))
    assert check_regularity(action) == exhaustive_regularity(action)


# ------------------------------------------- the orbit walk and its readers

def scan_regularity(action):
    """The witness of a scan over every vertex and every edge, subgroups in
    increasing order, simplices in complex order, pairs (h1, h2) in
    combinations order on a vertex and product order on an edge."""
    X, move = action.complex, action.apply_vertex
    for order in _divisors(action.k)[1:]:
        hs = range(0, action.k, action.k // order)
        for (u,) in X.simplices(0):
            for h1, h2 in combinations(hs, 2):
                image = tuple(sorted({move(h1, u), move(h2, u)}))
                if len(image) == 2 and image in X:
                    return RegularityWitness(order, (u,), (u, u), (h1, h2), image)
        for u, v in X.simplices(1):
            realized = {(move(h, u), move(h, v)) for h in hs}
            for h1, h2 in product(hs, repeat=2):
                moved = (move(h1, u), move(h2, v))
                image = tuple(sorted(set(moved)))
                if moved not in realized and image in X:
                    return RegularityWitness(order, (u, v), (u, v), (h1, h2), image)
    return None


def _orbit_decision_matches_scan(action):
    witness = check_regularity(action)
    assert witness == scan_regularity(action)
    return witness is None


def _fixing_count(action, s):
    """The number of c in {0, ..., k-1} with alpha^c s = s, applying the
    permutation c times."""
    count, t = 0, s
    for _ in range(action.k):
        count += t == s
        t = tuple(sorted(action.perm[v] for v in t))
    return count


def _isotropy_matches_fixing_count(action):
    for s in action.complex.all_simplices():
        assert action.isotropy_order(s) == _fixing_count(action, s)


def _tstar_matches_extended_transfer(action):
    qd = quotient(action)
    for lift in (lex_lift(qd), lex_max_lift(qd)):
        triple = build_triple(action, lift=lift, qd=qd)
        triple.validate()   # build_triple writes a valid triple by construction
        Y = qd.quotient
        pairs = [(psi, omega) for d in range(1, Y.dim + 1) for psi in Y.simplices(d)
                 for omega in combinations(psi, d)]
        assert sorted(triple.Tstar) == sorted(pairs)
        for psi, omega in pairs:
            assert triple.Tstar[(psi, omega)] == extended_transfer(action, lift, psi, omega)


@settings(max_examples=300, deadline=None)
@given(small_actions())
def test_orbit_walk_matches_references(action):
    _isotropy_matches_fixing_count(action)
    if _orbit_decision_matches_scan(action):
        _tstar_matches_extended_transfer(action)


@pytest.mark.parametrize("name", names())
def test_orbit_walk_matches_references_on_corpus(name):
    action = build_action(entry(name))
    _isotropy_matches_fixing_count(action)
    assert _orbit_decision_matches_scan(action) == entry(name).regular
    if entry(name).regular:
        _tstar_matches_extended_transfer(action)


def _torus_with_edge_orbit(k, j):
    """The (3k) x 3 torus with Z_k shifting by 3 rows, plus the orbit of
    the edge {0, alpha j} when j is given."""
    src = _load_bench_workloads().torus(k, 3)
    simplices = list(src.simplices)
    if j is not None:
        u, w = 0, src.perm[j]
        for _ in range(k):
            simplices.append([u, w])
            u, w = src.perm[u], src.perm[w]
    return validate_action(build_complex(simplices), src.perm, k)


@pytest.mark.parametrize("k", [8, 16, 32])
@pytest.mark.parametrize("j, regular", [
    pytest.param(None, True, id="regular"),
    # {0, alpha 0}: a vertex meets its own image (the vertex test)
    pytest.param(0, False, id="vertex-meets-image"),
    # {0, alpha 1}, 1 a neighbour of 0 (the edge test)
    pytest.param(1, False, id="edge-meets-image"),
])
def test_orbit_decision_matches_scan_on_tori(k, j, regular):
    action = _torus_with_edge_orbit(k, j)
    assert _orbit_decision_matches_scan(action) == regular
    if regular:
        _isotropy_matches_fixing_count(action)
        _tstar_matches_extended_transfer(action)


def _apex_zero_cone(k, spacing=3):
    """The cone over the cycle 1, ..., k spacing rotated by `spacing` steps,
    its apex 0 fixed: the apex is the lower vertex of every edge at it."""
    n = k * spacing
    tris = [[0, 1 + i, 1 + (i + 1) % n] for i in range(n)]
    return validate_action(build_complex(tris), [0] + [1 + (i + spacing) % n for i in range(n)], k)


def _bench_action(src):
    return validate_action(build_complex(src.simplices), src.perm, src.k)


@pytest.mark.parametrize("build, moves", [
    pytest.param(lambda k=k: _bench_action(_load_bench_workloads().torus(k, 3)), 0,
                 id=f"torus{3 * k}x3_k{k}") for k in (2, 3, 4)] + [
    pytest.param(lambda k=k: _bench_action(_load_bench_workloads().cycle(k)), 0,
                 id=f"cycle{3 * k}_k{k}") for k in (5, 6)] + [
    pytest.param(lambda: lens_cover(2, 2), 0, id="lens_cover_2_2"),
    pytest.param(lambda: lens_cover(4, 3), 0, id="lens_cover_4_3"),
    # the three apex edges, one per cycle orbit, at subgroups of order 2 and
    # 4: 2 |H| moves for the reachable set and |H| for the images, each
    pytest.param(lambda: _apex_zero_cone(4), 3 * 3 * (2 + 4), id="cone12_k4_apex0"),
])
def test_regularity_scan_moves_only_representatives_that_can_fail(build, moves, monkeypatch):
    action = build()
    original, calls = CyclicAction.apply_vertex, []
    monkeypatch.setattr(CyclicAction, "apply_vertex",
                        lambda self, h, v: calls.append(h) or original(self, h, v))
    assert check_regularity(action) is None
    assert len(calls) == moves


# ----------------------------------------------------------------- axioms

def _load_bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cone_over(action):
    """Cone over an action's complex, the apex fixed by the whole group."""
    X = action.complex
    apex = max(X.vertex_ids) + 1
    perm = {**action.perm, apex: apex}
    simplices = list(X.all_simplices()) + [s + (apex,) for s in X.all_simplices()]
    return validate_action(build_complex(simplices), perm, action.k)


def _base_triples():
    """name -> untampered triple: the regular corpus, the benchmark's tori
    and cones, a 3-dimensional quotient (the cone with a fixed apex over
    torus9x3_rot3) and trivial actions on a 3-simplex and a 4-simplex."""
    triples = {e.name: build_triple(build_action(e)) for e in regular_entries()}
    workloads = _load_bench_workloads()
    sources = [src for src, _ in workloads.ACTION_LADDER]
    sources += [workloads.torus(k, r) for k, r, _ in workloads.TRIPLE_LADDER]
    for src in sources:
        if src.name.startswith(("torus", "cone")):
            X = build_complex(src.simplices)
            triples[src.name] = build_triple(validate_action(X, src.perm, src.k))
    triples["cone_over_torus9x3_rot3"] = build_triple(
        _cone_over(build_action(entry("torus9x3_rot3"))))
    for n in (4, 5):
        simplex = build_complex([set(range(n))])
        triples[f"trivial_k6_{n - 1}simplex"] = build_triple(trivial_action(simplex, 6))
    return triples


BASE_TRIPLES = _base_triples()


def _lower_groups(triple, rng):
    """The same quotient with random groups (each a subgroup of the group
    of every face) and random T* cosets: passes validate(), while the
    2-morphisms are arbitrary."""
    Y, k = triple.quotient, triple.k
    S = {}
    for q in Y.all_simplices():
        orders = [S[f] for f in combinations(q, len(q) - 1) if f]
        S[q] = rng.choice(_divisors(gcd(k, *orders)))
    Tstar = {}
    for (psi, omega) in triple.Tstar:
        c = rng.randrange(k)
        Tstar[(psi, omega)] = frozenset((c + e) % k for e in range(0, k, k // S[omega]))
    return IsotropyTriple(k, Y, S, Tstar)


def _shift_cosets(triple, rng, count):
    """Shift `count` random T* cosets by random exponents: still cosets of
    their groups, so validate() passes."""
    Tstar = dict(triple.Tstar)
    for pair in rng.sample(sorted(Tstar), count):
        c = rng.randrange(triple.k)
        Tstar[pair] = frozenset((e + c) % triple.k for e in Tstar[pair])
    return IsotropyTriple(triple.k, triple.quotient, triple.S, Tstar)


def _verdict(check, triple):
    try:
        check(triple)
    except AxiomError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BASE_TRIPLES)), st.booleans(), st.integers(0, 2),
       st.randoms())
def test_axioms_match_exhaustive_chains(name, lower, shifts, rng):
    triple = BASE_TRIPLES[name]
    if lower:
        triple = _lower_groups(triple, rng)
    triple = _shift_cosets(triple, rng, shifts)
    triple.validate()
    fast = _verdict(check_axioms, triple)
    oracle = _verdict(exhaustive_axioms, triple)
    assert (fast is None) == (oracle is None)
    if triple.quotient.dim <= 2:
        assert fast == oracle
