import ast
import random
from copy import deepcopy
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zkhomology.actions import (
    lex_lift,
    lex_max_lift,
    quotient,
    trivial_action,
    validate_action,
)
from zkhomology import checks
from zkhomology.checks import (
    compatible_boundary,
    compatible_ordering,
    compatible_orientations,
    isotropy_expansion,
    verify_expansion_lemma,
)
from zkhomology.errors import DimensionError, InvalidGeneratorError
from zkhomology import pipeline
from zkhomology.exact import GF, QQ, RationalField, field_rank
from zkhomology.groupring import GroupRingMatrix, rho_extend
from zkhomology.jsonio import parse_input, triple_to_dict
from zkhomology.ring_snf import rank_sum, snf_over_R
from zkhomology.pipeline import (
    _composes_to_zero,
    compressed_betti,
    compressed_result,
    g_boundary_matrix,
)
from zkhomology.simplicial import betti_direct, boundary_matrix, build_complex, faces
from zkhomology.transfer import build_triple

from grids import (add, convolve, dense, lens_cover, permuted, ring_matrix, ring_product,
                   tuples)
from test_random_families import FAMILIES, _grid_torus

F2, F3, F5 = GF(2), GF(3), GF(5)
LEMMA_FIELDS = (QQ, F2, F3)


@pytest.fixture
def path_setup():
    act = validate_action(build_complex([{0, 1}, {1, 2}]), [2, 1, 0], 2)
    qd = quotient(act)
    return act, qd, lex_lift(qd)


@pytest.fixture
def octagon_setup():
    X = build_complex([{i, (i + 1) % 8} for i in range(8)])
    act = validate_action(X, [(i + 4) % 8 for i in range(8)], 2)
    qd = quotient(act)
    return act, qd, lex_lift(qd)


@pytest.fixture(scope="module")
def corpus_triples(request):
    actions = request.getfixturevalue("corpus_actions")
    out = {}
    for name, act in actions.items():
        qd = quotient(act)
        out[name] = (act, qd, lex_lift(qd), build_triple(act, qd=qd))
    return out


def oriented_tuple(orient, simplex):
    """The vertex tuple of the chosen elementary chain for a simplex (the
    increasing tuple with its last two entries swapped when the sign is -1)."""
    s = tuple(simplex)
    if orient[s] == 1 or len(s) == 1:
        return s
    return s[:-2] + (s[-1], s[-2])


class TestCompatibleOrientations:
    def test_path_lift_and_transport(self, path_setup):
        act, qd, lift = path_setup
        ox = compatible_orientations(qd, lift)
        assert oriented_tuple(ox, (0, 1)) == (0, 1)
        assert oriented_tuple(ox, (1, 2)) == (2, 1)

    def test_trivial_action_keeps_increasing_order(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 2)
        qd = quotient(act)
        ox = compatible_orientations(qd, lex_lift(qd))
        assert all(s == 1 for s in ox.values())

    def test_octagon_transport(self, octagon_setup):
        act, qd, lift = octagon_setup
        ox = compatible_orientations(qd, lift)
        assert oriented_tuple(ox, (4, 5)) == (4, 5)   # alpha . [0,1]
        assert oriented_tuple(ox, (3, 4)) == (4, 3)   # alpha . [0,7]

    def test_action_commutes_with_chains(self, corpus_triples):
        # g[psi] = [g psi] for the generator, on every corpus complex
        for act, qd, lift, _ in corpus_triples.values():
            ox = compatible_orientations(qd, lift)
            for s, sign in ox.items():
                moved = tuple(act.apply_vertex(1, v) for v in oriented_tuple(ox, s))
                target = tuple(sorted(moved))
                got_sign = _tuple_parity(moved)
                assert got_sign == ox[target]

    def test_projection_compatible(self, corpus_triples):
        # pi[psi] = [pi psi]: the projected oriented tuple must be an even
        # permutation of the quotient simplex's increasing-label chain
        for act, qd, lift, _ in corpus_triples.values():
            ox = compatible_orientations(qd, lift)
            for s in act.complex.all_simplices():
                labels = [qd.label[v] for v in oriented_tuple(ox, s)]
                assert _tuple_parity(labels) == 1


def _tuple_parity(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class TestCompatibleBoundary:
    def test_path_matrix(self, path_setup):
        act, qd, lift = path_setup
        B = dense(compatible_boundary(qd, lift, 1, QQ))
        assert [[int(v) for v in row] for row in B.data] == [
            [-1, 0], [0, -1], [1, 1]]

    def test_trivial_action_is_lex_boundary(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 1)
        qd = quotient(act)
        B = dense(compatible_boundary(qd, lex_lift(qd), 1, QQ))
        assert B == boundary_matrix(act.complex, 1, QQ)

    def test_octagon_rank(self, octagon_setup):
        act, qd, lift = octagon_setup
        B = dense(compatible_boundary(qd, lift, 1, QQ))
        assert (B.rows, B.cols) == (8, 8)
        assert field_rank(B) == 7

    def test_dimension_gate(self, path_setup):
        act, qd, lift = path_setup
        with pytest.raises(DimensionError):
            compatible_boundary(qd, lift, 2, QQ)

    def test_entries_match_quotient_boundary(self, corpus_triples):
        # compatible-matrix entry lemma: same face pair downstairs, same entry
        for act, qd, lift, _ in corpus_triples.values():
            for d in range(1, act.complex.dim + 1):
                B = dense(compatible_boundary(qd, lift, d, QQ))
                Bq = boundary_matrix(qd.quotient, d, QQ)
                rows = compatible_ordering(qd, lift, d - 1).ordering
                cols = compatible_ordering(qd, lift, d).ordering
                qrows = {s: i for i, s in enumerate(qd.quotient.simplices(d - 1))}
                qcols = {s: i for i, s in enumerate(qd.quotient.simplices(d))}
                for j, psi in enumerate(cols):
                    for i, omega in enumerate(rows):
                        if not set(omega) <= set(psi):
                            continue
                        a = qrows[qd.project_simplex(omega)]
                        b = qcols[qd.project_simplex(psi)]
                        assert B.data[i][j] == Bq.data[a][b]


class TestBoundaryWriters:
    def test_sparse_writer_equals_the_dense_boundary(self, corpus_actions, fields):
        # the sparse writer of the checks in lex order against the direct
        # oracle's dense boundary, entry by entry, on X and on X/G
        for act in corpus_actions.values():
            for X in (act.complex, quotient(act).quotient):
                for field in fields:
                    for d in range(1, X.dim + 1):
                        sparse = checks._boundary_rows(field, X.simplices(d - 1),
                                                       X.simplices(d))
                        assert sparse == checks._lex_boundary(X, d, field)
                        assert dense(sparse) == boundary_matrix(X, d, field)


class TestIsotropyExpansion:
    def test_path_matrix_and_rank(self, path_setup):
        act, qd, lift = path_setup
        E = dense(isotropy_expansion(qd, lift, 1, QQ))
        assert [[int(v) for v in row] for row in E.data] == [
            [-1, 0], [0, -1], [1, 1], [1, 1]]
        assert field_rank(E) == 2

    def test_trivial_k1_is_boundary(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 1)
        qd = quotient(act)
        lift = lex_lift(qd)
        E = dense(isotropy_expansion(qd, lift, 1, QQ))
        assert E == dense(compatible_boundary(qd, lift, 1, QQ))

    def test_octagon_free_action_is_permutation_of_boundary(self, octagon_setup):
        act, qd, lift = octagon_setup
        E = dense(isotropy_expansion(qd, lift, 1, QQ))
        assert (E.rows, E.cols) == (8, 8)
        assert field_rank(E) == 7

    def test_rank_preserved_corpus_wide(self, corpus_triples):
        for act, qd, lift, _ in corpus_triples.values():
            for field in LEMMA_FIELDS:
                for d in range(1, act.complex.dim + 1):
                    rb = field_rank(dense(compatible_boundary(qd, lift, d, field)))
                    re = field_rank(dense(isotropy_expansion(qd, lift, d, field)))
                    assert rb == re


class TestGBoundary:
    def test_path_column(self, corpus_triples):
        _, _, _, tri = corpus_triples["path_flip"]
        G = g_boundary_matrix(tri, 1, QQ)
        assert tuples(G) == [[(-1, 0)], [(1, 1)]]

    def test_trivial_k1_embeds_boundary(self):
        act = trivial_action(build_complex([{0, 1}, {1, 2}]), 1)
        tri = build_triple(act)
        G = g_boundary_matrix(tri, 1, QQ)
        Bq = boundary_matrix(tri.quotient, 1, QQ)
        for i in range(G.rows):
            for j in range(G.cols):
                assert tuples(G)[i][j] == (Bq.data[i][j],)

    def test_octagon_entry_profile(self, corpus_triples):
        _, _, _, tri = corpus_triples["cycle8_rot4"]
        G = g_boundary_matrix(tri, 1, QQ)
        entries = [w for row in tuples(G) for w in row if any(w)]
        alphas = [w for w in entries if w[0] == 0]
        assert len(entries) == 8 and len(alphas) == 1
        assert abs(alphas[0][1]) == 1

    def test_coefficients_are_plain_ints(self, corpus_triples):
        # +-1 as int over Q (no Fraction, no bool), 1 and p - 1 over F_p
        for field, signs in ((QQ, {1, -1}), (F2, {1}), (F3, {1, 2}), (F5, {1, 4})):
            seen = set()
            for name, (_, _, _, tri) in corpus_triples.items():
                for d in range(1, tri.quotient.dim + 1):
                    for g in (1, tri.k - 1 or 1):
                        G = g_boundary_matrix(tri, d, field, generator_exponent=g)
                        for row in G.entries.values():
                            for w in row.values():
                                assert {type(c) for c in w.values()} == {int}, name
                                seen.update(w.values())
            assert seen == signs, field.name


def _two_stage_g_boundary(tri, d, field, orders, g):
    # The quotient boundary sign times sigma(T*), then re-expressed in the
    # basis of beta = alpha^g entry by entry: the coefficient of beta^m is
    # that of alpha^(g m).
    Y, k = tri.quotient, tri.k
    rows = orders.get(d - 1) or Y.simplices(d - 1)
    cols = orders.get(d) or Y.simplices(d)
    Bq = boundary_matrix(Y, d, field).data    # lex order: read through Y.index_of
    entries = [
        [[Bq[Y.index_of(omega)][Y.index_of(psi)] if c in tri.Tstar.get((psi, omega), ())
          else 0 for c in range(k)] for psi in cols]
        for omega in rows
    ]
    return ring_matrix(field, k, [[[w[g * m % k] for m in range(k)] for w in row]
                                  for row in entries], len(cols))


def _in_orders(M, Y, d, orders):
    # the lexicographic d-th G-boundary M of a triple over Y, with the
    # simplices of each dimension moved to their places in `orders`
    at = [{s: i for i, s in enumerate(orders.get(e) or Y.simplices(e))} for e in (d - 1, d)]
    return permuted(M, *([a[s] for s in Y.simplices(e)] for a, e in zip(at, (d - 1, d))))


def _dense_g_boundary(tri, d, field, orders, g):
    # The dense one-pass build: a grid of zeros, then sigma of each face
    # pair's coset, exponents rewritten in the basis of alpha^g and
    # negated on odd faces.
    Y, k = tri.quotient, tri.k
    rows = tuple(orders.get(d - 1) or Y.simplices(d - 1))
    cols = tuple(orders.get(d) or Y.simplices(d))
    g_inv = pow(g, -1, k)
    row_pos = {s: i for i, s in enumerate(rows)}
    data = [[(0,) * k] * len(cols) for _ in rows]
    for j, psi in enumerate(cols):
        for t, omega in faces(psi):
            w = [0] * k
            for c in tri.Tstar.get((psi, omega), ()):
                w[c * g_inv % k] = -1 if t % 2 else 1
            data[row_pos[omega]][j] = tuple(w)
    return data


class TestGBoundaryReference:
    def test_one_pass_equals_two_stage_build(self, corpus_triples, fields):
        # the sparse build against the two-stage build and, entry by entry,
        # the dense one; some generators of the tori at k = 5 and 8 are not
        # their own inverses.  The references write in lexicographic and in
        # one shuffled order, the sparse build in lexicographic order only,
        # moved to the shuffled one here
        triples = [tri for *_, tri in corpus_triples.values()]
        for seed in (101, 202, 303):
            rng = random.Random(seed)
            for _ in range(8):
                action, _ = rng.choice(FAMILIES)(rng)
                triples.append(build_triple(action))
        for k in (5, 8):
            tris, perm = _grid_torus(3 * k, 3)
            triples.append(build_triple(validate_action(build_complex(tris), perm, k)))
        rng = random.Random(41)
        for tri in triples:
            Y = tri.quotient
            shuffled = {}
            for d in range(Y.dim + 1):
                perm = list(Y.simplices(d))
                rng.shuffle(perm)
                shuffled[d] = tuple(perm)
            exps = [g for g in range(1, tri.k + 1) if gcd(g, tri.k) == 1]
            for field in fields:
                for orders in ({}, shuffled):
                    for d in range(1, Y.dim + 1):
                        for g in exps:
                            want = _two_stage_g_boundary(tri, d, field, orders, g)
                            got = _in_orders(g_boundary_matrix(tri, d, field, g), Y, d, orders)
                            assert got == want, (tri, field.name, d, g)
                            dense = _dense_g_boundary(tri, d, field, orders, g)
                            assert tuples(got) == [[tuple(map(field.coerce, w)) for w in row]
                                                   for row in dense], (tri, field.name, d, g)


def _imports(module):
    """The modules and the names that a source module of the package
    imports."""
    import zkhomology
    imported, names = set(), set()
    tree = ast.parse((Path(zkhomology.__file__).parent / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            names.update(a.name for a in node.names)
            if not node.module:
                imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported.update(a.name.split("."))
    return imported, names


def test_production_path_does_not_import_the_upstairs_model():
    # pipeline and ring_snf compute from a triple alone: they never reach
    # the action, the transfer construction or the lemma checks, and never
    # expand a matrix, whole or in part, to its circulant image (that is
    # verify's certificate).  Neither they nor groupring build a dense
    # matrix, and the checks write and rank sparse rows too, for the direct
    # oracle as well: the dense matrices and their rank serve the CLI's
    # direct route only.
    import zkhomology
    for module in ("pipeline.py", "ring_snf.py"):
        imported, names = _imports(module)
        assert not imported & {"actions", "transfer", "checks"}, module
        assert "rho_extend" not in names, module
        tree = ast.parse((Path(zkhomology.__file__).parent / module).read_text())
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and "rho_extend" in ast.unparse(node.func)], module
    for module in ("pipeline.py", "ring_snf.py", "groupring.py"):
        assert not _imports(module)[1] & {"FieldMatrix", "field_rank"}, module
    assert not _imports("checks.py")[1] & {"FieldMatrix", "field_rank", "boundary_matrix",
                                            "betti_direct"}
    # of the package's functions, only simplicial.boundary_matrix builds a FieldMatrix
    builders = set()
    for path in Path(zkhomology.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and ast.unparse(n.func) == "FieldMatrix"
                    for n in ast.walk(node)):
                builders.add((path.stem, node.name))
    assert builders == {("simplicial", "boundary_matrix")}


def test_only_the_direct_oracle_calls_field_rank():
    # every function of the package that names exact.field_rank
    import zkhomology
    callers = set()
    for path in Path(zkhomology.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(n, ast.Name) and n.id == "field_rank" for n in ast.walk(node)):
                callers.add((path.stem, node.name))
    assert callers == {("simplicial", "betti_direct"), ("cli", "_direct_report")}


class TestCompositionCheck:
    def test_passes_corpus_wide(self, corpus_triples, fields):
        # every generator, every field, lexicographic and one shuffled order
        # of the lexicographic G-boundaries
        rng = random.Random(11)
        checked = 0
        for name, (_, _, _, tri) in corpus_triples.items():
            Y = tri.quotient
            shuffled = {}
            for d in range(Y.dim + 1):
                perm = list(Y.simplices(d))
                rng.shuffle(perm)
                shuffled[d] = tuple(perm)
            exps = [g for g in range(1, tri.k + 1) if gcd(g, tri.k) == 1]
            for field in fields:
                for g in exps:
                    for orders in ({}, shuffled):
                        mats = [_in_orders(g_boundary_matrix(tri, d, field, g), Y, d, orders)
                                for d in range(1, Y.dim + 1)]
                        for A, B in zip(mats, mats[1:]):
                            assert _composes_to_zero(A, B), (name, field.name, g)
                            checked += 1
                    compressed_result(tri, field, g)
        assert checked > 0

    def test_one_perturbed_coefficient_is_rejected(self, corpus_triples):
        # Adding delta x^u to entry (i, t) of A adds delta x^u B[t, :] to row
        # i of A B, nonzero when row t of B is: so the check must fail.
        rng = random.Random(23)
        pairs = [(tri, d) for _, _, _, tri in corpus_triples.values()
                 for d in range(2, tri.quotient.dim + 1)]
        assert pairs

        def recast(M, scalar):
            rows = {i: {j: {e: scalar(c) for e, c in w.items()} for j, w in r.items()}
                    for i, r in M.entries.items()}
            return GroupRingMatrix(M.field, M.k, M.rows, M.cols, rows)

        for field, scalar, delta in ((QQ, int, 1), (QQ, Fraction, Fraction(1, 2)),
                                     (F2, int, 1), (F3, int, 2), (F5, int, 3)):
            p = field.char
            for tri, d in pairs:
                A, B = (recast(g_boundary_matrix(tri, e, field), scalar) for e in (d - 1, d))
                assert _composes_to_zero(A, B)
                for _ in range(4):
                    t = rng.choice([t for t, r in B.entries.items() if r])
                    i, u = rng.randrange(A.rows), rng.randrange(A.k)
                    bad = recast(A, scalar)
                    w = bad.entries[i].setdefault(t, {})
                    c = w.get(u, 0) + delta
                    w[u] = c % p if p else c
                    if not w[u]:
                        del w[u]
                    if not w:
                        del bad.entries[i][t]
                    assert {type(c) for r in bad.entries.values() for w in r.values()
                            for c in w.values()} == {scalar}
                    assert not _composes_to_zero(bad, B), (field.name, d, i, t, u)

    def test_product_is_exact_over_the_field(self):
        # (1 + a)^2 = 2 + 2a in F[Z_2]: zero over F2 only
        for field, zero in ((F2, True), (F3, False), (QQ, False)):
            A = ring_matrix(field, 2, [[(1, 1)]])
            assert _composes_to_zero(A, A) is zero


@st.composite
def _composable_pairs(draw):
    """(A, B) over F[Z_k] of shapes m x t and t x n, with drawn zero lines:
    drawn entries; X (1 - x^s) over N Y, which compose to zero since
    (1 - x^s) N = 0; or q copies of X side by side over q copies of Y
    stacked, whose product q X Y vanishes over F_p when p divides q."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    k = draw(st.integers(1, 6))
    coeff = st.integers(-2, 2) if field.char == 0 else st.integers(0, field.char - 1)

    def grid(m, n):
        zero_rows = draw(st.sets(st.integers(0, m - 1))) if m else set()
        zero_cols = draw(st.sets(st.integers(0, n - 1))) if n else set()
        return [[(0,) * k if i in zero_rows or j in zero_cols
                 else tuple(draw(st.lists(coeff, min_size=k, max_size=k)))
                 for j in range(n)] for i in range(m)]

    m, t, n = (draw(st.integers(0, 3)) for _ in range(3))
    X, Y = grid(m, t), grid(t, n)
    kind = draw(st.sampled_from(["drawn", "annihilated", "copies"]))
    if kind == "annihilated":
        s = draw(st.integers(1, k - 1)) if k > 1 else 0
        one_minus = add(field, _monomial(k, 1, 0), _monomial(k, -1, s))
        X = [[convolve(field, one_minus, w) for w in row] for row in X]
        Y = [[convolve(field, (1,) * k, w) for w in row] for row in Y]
    elif kind == "copies":
        q = draw(st.sampled_from([2, 3, 5]))
        X, Y, t = [row * q for row in X], Y * q, t * q
    return ring_matrix(field, k, X, t), ring_matrix(field, k, Y, n)


def _monomial(k, c, e):
    return tuple(c if i == e % k else 0 for i in range(k))


@settings(max_examples=300, deadline=None)
@given(_composable_pairs())
@example((ring_matrix(QQ, 1, [[(1,)]]), ring_matrix(QQ, 1, [[(1,)]])))
@example((ring_matrix(F2, 1, [[(1,), (1,)]]), ring_matrix(F2, 1, [[(1,)], [(1,)]])))
@example((ring_matrix(QQ, 1, [[(1,), (1,)]]), ring_matrix(QQ, 1, [[(1,)], [(-1,)]])))
@example((ring_matrix(F3, 3, [[(1, 1, 1)]]), ring_matrix(F3, 3, [[(1, 1, 1)]])))
@example((ring_matrix(F5, 2, [[(1, 4)]]), ring_matrix(F5, 2, [[(1, 1)]])))
@example((ring_matrix(F2, 2, [], 2), ring_matrix(F2, 2, [[(1, 0)], [(0, 1)]])))
def test_composition_check_matches_the_convolution(pair):
    # the one sparse product, against the product written out entry by
    # entry with cyclic convolution and reduced in the field at each step
    A, B = pair
    want = not any(any(w) for row in ring_product(A, B) for w in row)
    assert _composes_to_zero(A, B) is want


class TestCompressedRank:
    def test_worked_examples(self, corpus_triples):
        for name, rank in (("path_flip", 2), ("two_triangles_swap", 4),
                           ("cycle8_rot4", 7)):
            tri = corpus_triples[name][3]
            assert rank_sum(snf_over_R(g_boundary_matrix(tri, 1, QQ)), tri.k) == rank

    def test_equals_boundary_rank_corpus_wide(self, corpus_triples, fields):
        for act, qd, lift, tri in corpus_triples.values():
            for field in fields:
                for d in range(1, act.complex.dim + 1):
                    upstairs = field_rank(dense(compatible_boundary(qd, lift, d, field)))
                    M = g_boundary_matrix(tri, d, field)
                    assert rank_sum(snf_over_R(M), M.k) == upstairs

    def test_rejects_non_generator(self, corpus_triples):
        tri = corpus_triples["cycle9_rot3"][3]
        with pytest.raises(InvalidGeneratorError):
            compressed_result(tri, QQ, generator_exponent=0)
        tri2 = corpus_triples["torus9x3_rot3"][3]
        with pytest.raises(InvalidGeneratorError):
            compressed_result(tri2, QQ, generator_exponent=3)

    def test_plain_coefficients_over_q(self, corpus_triples, monkeypatch):
        # the compressed route never coerces a scalar over Q, and every lift
        # it reads holds int coefficients: the corpus and the 6x3, 9x3 and
        # 12x3 tori
        triples = [tri for *_, tri in corpus_triples.values()]
        for k in (2, 3, 4):
            tris, perm = _grid_torus(3 * k, 3)
            triples.append(build_triple(validate_action(build_complex(tris), perm, k)))
        coerced, lifts = [], []
        coerce = RationalField.coerce
        monkeypatch.setattr(RationalField, "coerce",
                            lambda self, v: coerced.append(v) or coerce(self, v))
        smith = pipeline._smith_diagonal
        monkeypatch.setattr(pipeline, "_smith_diagonal",
                            lambda M, rows: lifts.append(smith(M, rows)) or lifts[-1])
        for tri in triples:
            compressed_result(tri, QQ)
        assert coerced == []
        assert lifts and {type(c) for diagonal in lifts for f in diagonal for c in f} == {int}

    def test_g_boundaries_are_reduced_in_their_own_rows(self, monkeypatch):
        # compressed_result copies no G-boundary, while snf_over_R leaves
        # the matrix it is given unchanged: the 12x3 torus at k=3, a triple
        # of the triple ladder
        tris, perm = _grid_torus(12, 4)
        tri = build_triple(validate_action(build_complex(tris), perm, 3))
        copies = []
        sparse_rows = GroupRingMatrix.sparse_rows
        monkeypatch.setattr(GroupRingMatrix, "sparse_rows",
                            lambda M: copies.append(M) or sparse_rows(M))
        for field in (QQ, F2, F3):
            compressed_result(tri, field)
        assert copies == []
        monkeypatch.undo()
        for field in (QQ, F2, F3):
            for d in (1, 2):
                M = g_boundary_matrix(tri, d, field)
                before = deepcopy(M.entries)
                snf_over_R(M)
                assert M.entries == before

    def test_each_distinct_lift_is_printed_once(self, corpus_triples, monkeypatch):
        # the corpus, the 6x3 and 9x3 tori and the (2, 2) lens cover, whose
        # core reaches the polynomial Smith form
        triples = [tri for *_, tri in corpus_triples.values()]
        for k in (2, 3):
            tris, perm = _grid_torus(3 * k, 3)
            triples.append(build_triple(validate_action(build_complex(tris), perm, k)))
        triples.append(build_triple(lens_cover(2, 2)))
        printed = []
        poly_str = pipeline.poly_str
        monkeypatch.setattr(pipeline, "poly_str", lambda f: printed.append(f) or poly_str(f))
        for tri in triples:
            for field in (QQ, F2):
                compressed_betti(tri, field)
                assert printed == []
                doc = compressed_result(tri, field)
                shown = [s for r in doc["per_dim"] for s in r["snf_lifts"]]
                assert len(printed) == len(set(printed)) == len(set(shown))
                assert sorted(map(poly_str, printed)) == sorted(set(shown))
                printed.clear()

    def test_every_composition_check_runs_before_any_reduction(self, monkeypatch):
        # a failure on the last pair of the 3-dimensional lens triple is
        # raised before any G-boundary is reduced
        tri = build_triple(lens_cover(2, 2))
        assert tri.quotient.dim == 3
        checked, reduced = [], []
        monkeypatch.setattr(pipeline, "_composes_to_zero",
                            lambda A, B: checked.append(B.cols) or len(checked) < 2)
        monkeypatch.setattr(pipeline, "_smith_diagonal",
                            lambda M, rows: reduced.append(M) or ())
        for run in (compressed_result, compressed_betti):
            checked.clear()
            with pytest.raises(ArithmeticError, match="composition check failed at d=3"):
                run(tri, F2)
            assert checked == [tri.quotient.n_simplices(2), tri.quotient.n_simplices(3)]
            assert reduced == []


class TestCompressedBetti:
    def test_worked_examples(self, corpus_triples):
        assert compressed_betti(corpus_triples["path_flip"][3], QQ) == (1, 0)
        assert compressed_betti(corpus_triples["cycle8_rot4"][3], QQ) == (1, 1)
        assert compressed_betti(corpus_triples["cycle8_rot4"][3], F2) == (1, 1)
        assert compressed_betti(corpus_triples["two_triangles_swap"][3], QQ) == (2, 2)

    def test_provenance_fields(self, corpus_triples):
        tri = corpus_triples["path_flip"][3]
        # the result is the plain document that `homology --format json` prints
        assert compressed_result(tri, QQ) == {
            "field": "Q", "k": 2, "generator": 1, "lift": "lex-min", "orderings": "lex",
            "betti": [1, 0],
            "per_dim": [{"d": 0, "dimC": 3, "rank": 0, "snf_lifts": []},
                        {"d": 1, "dimC": 2, "rank": 2, "snf_lifts": ["1"]}]}
        assert compressed_betti(tri, QQ) == (1, 0)

    def test_chain_dims_need_no_upstairs_complex(self, corpus_triples):
        for act, _, _, tri in corpus_triples.values():
            res = compressed_result(tri, QQ)
            for r in res["per_dim"]:
                assert r["dimC"] == act.complex.n_simplices(r["d"])

    def test_generator_independence(self, corpus_triples):
        for act, _, _, tri in corpus_triples.values():
            exps = [t for t in range(1, tri.k + 1) if gcd(t, tri.k) == 1]
            base = compressed_betti(tri, F3)
            for t in exps:
                assert compressed_betti(tri, F3, generator_exponent=t) == base

    def test_lift_independence(self, corpus_triples):
        for act, qd, _, tri in corpus_triples.values():
            tri_max = build_triple(act, lift=lex_max_lift(qd), qd=qd)
            for field in (QQ, F2):
                assert compressed_betti(tri, field) == compressed_betti(tri_max, field)

    def test_ordering_independence(self, corpus_triples):
        rng = random.Random(777)
        for act, _, _, tri in corpus_triples.values():
            base = compressed_betti(tri, QQ)
            for _ in range(3):
                assert checks._shuffled_betti(tri, QQ, rng) == base


class TestExpansionLemma:
    def test_path(self, path_setup):
        act, qd, lift = path_setup
        ok, report = verify_expansion_lemma(qd, lift, 1, QQ)
        assert ok, report

    def test_trivial_k1(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 1)
        qd = quotient(act)
        for d in (1, 2):
            ok, report = verify_expansion_lemma(qd, lex_lift(qd), d, QQ)
            assert ok, report

    def test_corpus_wide_three_fields(self, corpus_triples):
        for act, qd, lift, _ in corpus_triples.values():
            for field in LEMMA_FIELDS:
                for d in range(1, act.complex.dim + 1):
                    ok, report = verify_expansion_lemma(qd, lift, d, field)
                    assert ok, report

    def test_given_triple_equals_rebuilt(self, corpus_triples):
        for act, qd, lift, tri in corpus_triples.values():
            for d in range(1, act.complex.dim + 1):
                given = verify_expansion_lemma(qd, lift, d, F3, triple=tri)
                assert given == verify_expansion_lemma(qd, lift, d, F3)

    def test_report_names_the_first_differing_cell(self, corpus_triples):
        # one transfer coset shifted: the report names the first cell, in
        # row-major order, where the expansion and the circulant image differ
        act, qd, lift, _ = corpus_triples["torus9x3_rot3"]
        tampered = build_triple(act, lift=lift, qd=qd)
        key = sorted(tampered.Tstar)[0]
        tampered.Tstar[key] = frozenset((c + 1) % act.k for c in tampered.Tstar[key])
        d = len(key[1])
        E = dense(isotropy_expansion(qd, lift, d, F3)).data
        G = dense(rho_extend(g_boundary_matrix(tampered, d, F3))).data
        i, j = next((i, j) for i, row in enumerate(E) for j, v in enumerate(row)
                    if v != G[i][j])
        assert verify_expansion_lemma(qd, lift, d, F3, triple=tampered) == (
            False, f"d={d}: entry ({i + 1},{j + 1}) differs: expansion has {E[i][j]}, "
                   f"circulant image has {G[i][j]}")

    def test_containment_visits_face_pairs_in_order(self, corpus_triples, monkeypatch):
        # one extended transfer per face pair (omega, psi), in (row, column)
        # order; a wrong transfer on one of them is reported at its block
        act, qd, lift, tri = corpus_triples["torus9x3_rot3"]
        Y, k, original = qd.quotient, act.k, checks.extended_transfer
        for d in (1, 2):
            E = isotropy_expansion(qd, lift, d, F3)
            blocks = sorted((Y.index_of(w), Y.index_of(s))
                            for s in Y.simplices(d) for _, w in faces(s))
            seen, wrong, tamper = [], blocks[len(blocks) // 2], []

            def spy(action, lift_, psi, omega):
                seen.append((Y.index_of(omega), Y.index_of(psi)))
                hits = original(action, lift_, psi, omega)
                return frozenset() if tamper and seen[-1] == wrong else hits

            monkeypatch.setattr(checks, "extended_transfer", spy)
            assert verify_expansion_lemma(qd, lift, d, F3, triple=tri) == (True, None)
            assert seen == blocks
            tamper.append(True)
            a, b = wrong
            hits = original(act, lift, Y.simplices(d)[b], Y.simplices(d - 1)[a])
            c, cp = next((c, cp) for c in range(1, k + 1) for cp in range(1, k + 1)
                         if (c - cp) % k in hits)
            got = E.entries[k * a + c - 1][k * b + cp - 1][0]
            assert verify_expansion_lemma(qd, lift, d, F3, triple=tri) == (
                False, f"d={d}: containment case fails at block ({a + 1},{b + 1}) "
                       f"offsets ({c},{cp}): expansion {got}, containment predicts 0")

    def test_both_sides_equal_explicitly(self, corpus_triples):
        act, qd, lift, tri = corpus_triples["cycle9_rot3"]
        E = isotropy_expansion(qd, lift, 1, F3)
        G = rho_extend(g_boundary_matrix(tri, 1, F3))
        assert E == G


class TestOracleAgreement:
    def test_compressed_equals_direct_all_fields(self, corpus_triples, fields,
                                                 corpus_expected):
        for name, (act, _, _, tri) in corpus_triples.items():
            expected = corpus_expected[name]
            for field in fields:
                direct = betti_direct(act.complex, field)
                assert direct == expected
                assert compressed_betti(tri, field) == direct

    def test_vertices_only_complex(self):
        # dimension-0 action: no boundary maps at all
        X = build_complex([{0}, {1}])
        act = validate_action(X, [1, 0], 2)
        tri = build_triple(act)
        assert compressed_betti(tri, QQ) == (2,) == betti_direct(X, QQ)
        res = compressed_result(tri, QQ)
        assert res["per_dim"] == [{"d": 0, "dimC": 2, "rank": 0, "snf_lifts": []}]

    def test_mixed_isotropy_cone(self):
        # hexagon cone with half-turn: apex fixed, everything else free
        spokes = [{i, 6} for i in range(6)]
        tris = [{i, (i + 1) % 6, 6} for i in range(6)]
        X = build_complex(tris + spokes)
        act = validate_action(X, [3, 4, 5, 0, 1, 2, 6], 2)
        qd = quotient(act)
        tri = build_triple(act, qd=qd)
        assert tri.S[(3,)] == 2  # apex orbit label
        for field in (QQ, F2, F3):
            assert compressed_betti(tri, field) == betti_direct(X, field) == (1, 0, 0)

    def test_k4_rotation(self):
        X = build_complex([{i, (i + 1) % 12} for i in range(12)])
        act = validate_action(X, [(i + 3) % 12 for i in range(12)], 4)
        tri = build_triple(act)
        for field in (QQ, GF(2)):
            assert compressed_betti(tri, field) == betti_direct(X, field) == (1, 1)
        for t in (1, 3):
            assert compressed_betti(tri, GF(2), generator_exponent=t) == (1, 1)


# the 6-vertex real projective plane: Betti numbers (1, 1, 1) over F2 only
RP2 = [{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 5, 1},
       {1, 2, 4}, {2, 3, 5}, {3, 4, 1}, {4, 5, 2}, {5, 1, 3}]


@st.composite
def _complexes(draw):
    """A field and the closure of up to 8 drawn sets of at most 4 of 7
    vertices: the empty complex when none is drawn, 0-dimensional ones when
    every set is a vertex."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    size = draw(st.integers(1, 4))
    facets = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=size), max_size=8))
    return field, build_complex(facets)


@settings(max_examples=300, deadline=None)
@given(_complexes())
@example((QQ, build_complex([])))
@example((F3, build_complex([{0}, {3}, {4}])))
@example((F5, build_complex([{0, 1, 2, 3}])))
@example((QQ, build_complex(RP2)))
@example((F2, build_complex(RP2)))
def test_driver_at_k1_equals_the_dense_betti_numbers(case):
    # the reduction driver on the lexicographic boundaries of X at k = 1, as
    # verify's direct oracle runs it, against the dense Gaussian elimination
    # of betti_direct, which verify no longer runs
    field, X = case
    Ms = [checks._lex_boundary(X, d, field) for d in range(1, X.dim + 1)]
    assert tuple(pipeline._reduce(X.face_counts(), Ms)[2]) == betti_direct(X, field)


class TestActionSuite:
    # verify checks one field per run, so each test runs the suite once per
    # field and counts per run.
    def test_builds_each_triple_once(self, corpus_actions, monkeypatch):
        # the suite's lex-min triple serves every check; only lift
        # independence builds one more, from the lex-max lift
        built = []
        original = checks.build_triple

        def counting(*args, **kwargs):
            built.append(kwargs.get("lift"))
            return original(*args, **kwargs)

        monkeypatch.setattr(checks, "build_triple", counting)
        qd = quotient(corpus_actions["torus9x3_rot3"])
        for field in (QQ, F3):
            built.clear()
            outcomes = checks.run_action_suite(qd, field)
            assert all(o["ok"] for o in outcomes), outcomes
            assert built == [lex_lift(qd), lex_max_lift(qd)]

    def test_computes_orientations_once(self, corpus_actions, monkeypatch):
        # one pass over the complex serves every upstairs boundary the
        # suite builds, in every dimension
        calls = []
        original = checks.compatible_orientations

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(checks, "compatible_orientations", counting)
        qd = quotient(corpus_actions["torus9x3_rot3"])
        for field in (QQ, F3):
            calls.clear()
            outcomes = checks.run_action_suite(qd, field)
            assert all(o["ok"] for o in outcomes), outcomes
            assert len(calls) == 1

    def test_builds_each_upstairs_boundary_once(self, corpus_actions, monkeypatch):
        # one lifted partition and one compatible boundary per dimension,
        # each boundary ranked once, serve every check
        partitions, boundaries, ranked = [], [], []
        ordering, write, rank = (checks.compatible_ordering, checks._boundary_rows,
                                 checks.sparse_rank)

        def counting_ordering(qd, lift, d):
            partitions.append(d)
            return ordering(qd, lift, d)

        def counting_writer(field, rows, cols, orient=None):
            B = write(field, rows, cols, orient)
            if orient is not None:      # a compatible boundary
                boundaries.append((field.name, len(cols[0]) - 1, B))
            return B

        def counting_rank(M):
            if any(M is b for *_, b in boundaries):
                ranked.append(M)
            return rank(M)

        monkeypatch.setattr(checks, "compatible_ordering", counting_ordering)
        monkeypatch.setattr(checks, "_boundary_rows", counting_writer)
        monkeypatch.setattr(checks, "sparse_rank", counting_rank)
        qd = quotient(corpus_actions["torus9x3_rot3"])
        for field in (QQ, F3):
            for seen in (partitions, boundaries, ranked):
                seen.clear()
            outcomes = checks.run_action_suite(qd, field)
            assert all(o["ok"] for o in outcomes), outcomes
            assert sorted(partitions) == [0, 1, 2]
            assert [(f, d) for f, d, _ in boundaries] == [(field.name, 1), (field.name, 2)]
            assert len(ranked) == 2

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 2)])
    def test_passes_on_the_lens_covers(self, k, s):
        # verify at scale: every check passes on the (2, 2) and (3, 2) lens
        # covers, whose quotients are 3-dimensional, over Q and F2
        qd = quotient(lens_cover(k, s))
        assert qd.quotient.dim == 3
        for field in (QQ, F2):
            outcomes = checks.run_action_suite(qd, field)
            assert [o for o in outcomes if not o["ok"]] == [] and len(outcomes) == 17

    def test_reduces_each_lex_min_g_boundary_once(self, corpus_actions, monkeypatch):
        # the driver reduces each lex-min G-boundary at generator alpha in
        # one pass, which rank reconstruction and every check that reads the
        # Betti numbers share; the SNF certificate reduces a fresh copy of
        # each once more.  The other passes are the generator alpha^2, the
        # lex-max triple and the reorderings, each one G-boundary per
        # dimension, and the oracle's one pass over X's boundaries at k = 1.
        # On this torus the lex-max triple writes the lex-min G-boundaries,
        # so its pass reduces them a second time
        driven, certified = [], []
        smith, snf = pipeline._smith_diagonal, checks.snf_over_R

        def written(M):
            return M.k, M.rows, M.cols, deepcopy(M.entries)

        monkeypatch.setattr(pipeline, "_smith_diagonal",
                            lambda M, rows: driven.append(written(M)) or smith(M, rows))
        monkeypatch.setattr(checks, "snf_over_R",
                            lambda M: certified.append(written(M)) or snf(M))
        qd = quotient(corpus_actions["torus9x3_rot3"])
        triple = build_triple(qd.action, lift=lex_lift(qd), qd=qd)
        generators, trials = 2, checks.ORDERING_TRIALS
        for field in (QQ, F3):
            lex_min = [written(g_boundary_matrix(triple, d, field)) for d in (1, 2)]
            assert lex_min == [written(g_boundary_matrix(build_triple(
                qd.action, lift=lex_max_lift(qd), qd=qd), d, field)) for d in (1, 2)]
            for suite, arg, passes, upstairs, lex in (
                    (checks.run_action_suite, qd, generators + 1 + trials, 2, 2),
                    (checks.run_triple_suite, triple, 1 + trials, 0, 1)):
                driven.clear()
                certified.clear()
                outcomes = suite(arg, field)
                assert all(o["ok"] for o in outcomes), outcomes
                assert certified == lex_min
                assert [driven.count(G) for G in lex_min] == [lex, lex]
                assert [M[0] for M in driven].count(triple.k) == 2 * passes
                assert [M[0] for M in driven].count(1) == upstairs


def test_each_suite_computes_the_lex_min_betti_numbers_once(corpus_actions,
                                                             monkeypatch):
    # rank reconstruction, lift independence, ordering independence and the
    # oracle comparison share the action suite's one driver pass over its
    # lex-min triple at generator alpha, and compressed_betti runs only on
    # the lex-max triple; the triple suite shares one compressed run between
    # ordering independence and compressed-betti-computable, also when that
    # run fails, and its other driver passes are the reorderings
    passes, runs = [], []   # the G-boundaries of each driver pass; compressed runs
    reduce_, betti_ = checks._reduce, checks.compressed_betti
    monkeypatch.setattr(checks, "_reduce", lambda dims, Ms: passes.append(
        [(M.k, deepcopy(M.entries)) for M in Ms]) or reduce_(dims, Ms))
    monkeypatch.setattr(checks, "compressed_betti",
                        lambda triple, field: runs.append(triple) or betti_(triple, field))
    act = corpus_actions["torus9x3_rot3"]
    qd = quotient(act)
    tri_min = build_triple(act, qd=qd)
    for field in (QQ, F3):
        lex_min = [(3, g_boundary_matrix(tri_min, d, field).entries) for d in (1, 2)]
        passes.clear()
        runs.clear()
        outcomes = checks.run_action_suite(qd, field)
        assert all(o["ok"] for o in outcomes), outcomes
        # generators alpha and alpha^2, the reorderings and the oracle
        assert len(passes) == 2 + checks.ORDERING_TRIALS + 1
        assert passes.count(lex_min) == 1
        assert len(runs) == 1 and runs[0].S == build_triple(act, lift=lex_max_lift(qd), qd=qd).S
        passes.clear()
        runs.clear()
        outcomes = checks.run_triple_suite(tri_min, field)
        assert all(o["ok"] for o in outcomes), outcomes
        assert runs == [tri_min]
        assert len(passes) == checks.ORDERING_TRIALS and lex_min not in passes
    # with its first T* set shifted the triple is still one, but its
    # G-boundaries no longer compose to zero
    body = triple_to_dict(tri_min)
    tstar = body["triple"]["Tstar"]
    first = next(iter(tstar))
    tstar[first] = sorted((c + 1) % body["k"] for c in tstar[first])
    shifted = parse_input(body)[1]
    passes.clear()
    runs.clear()
    failed = {o["name"]: o["detail"] for o in checks.run_triple_suite(shifted, QQ)
              if not o["ok"]}
    error = ("composition check failed at d=2: the G-boundaries d=1 and d=2 "
             "do not compose to zero")
    assert failed["ordering-independence"] == error
    assert failed["compressed-betti-computable"] == f"Q: {error}"
    # the certificate reduces each G-boundary alone, past the composition check
    assert "snf-divisibility-and-certificate" not in failed
    assert runs == [shifted] and passes == []


def test_a_failing_smith_form_runs_once(corpus_actions, monkeypatch):
    # a Smith form that fails in the driver pass over the lex-min triple at
    # generator alpha runs once, and rank reconstruction and each check that
    # reads the Betti numbers report it; the SNF certificate reduces its own
    # copy, so it passes, and a failure there is its own and runs once too
    qd = quotient(corpus_actions["torus9x3_rot3"])
    readers = ("rank-reconstruction", "lift-independence", "ordering-independence",
               "compressed-matches-direct-oracle")
    for module, name, failed in ((pipeline, "_smith_diagonal", {n: "boom" for n in readers}),
                                 (checks, "snf_over_R", {
                                     "snf-divisibility-and-certificate": "Fp:3 d=1: boom"})):
        reduced = []

        def failing(M, *rows):
            reduced.append(M)
            raise ArithmeticError("boom")

        with monkeypatch.context() as m:
            m.setattr(module, name, failing)
            outcomes = checks.run_action_suite(qd, F3)
        assert {o["name"]: o["detail"] for o in outcomes if not o["ok"]} == failed
        assert len(reduced) == 1


def test_each_suite_names_its_checks_apart(corpus_actions, monkeypatch):
    # X and X/G each get a boundary-squared check, under its own name, so a
    # failure on the quotient is told apart from one upstairs
    act = corpus_actions["torus9x3_rot3"]
    qd = quotient(act)
    original = checks._lex_boundary

    def ones_on_the_quotient(X, d, field):
        B = original(X, d, field)
        if X is qd.quotient and d == 1:
            return ring_matrix(field, 1, [[(1,)] * B.cols] * B.rows)
        return B

    for suite, arg in ((checks.run_action_suite, qd),
                       (checks.run_triple_suite, build_triple(act, qd=qd))):
        outcomes = suite(arg, F3)
        assert all(o["ok"] for o in outcomes), outcomes
        names = [o["name"] for o in outcomes]
        assert len(set(names)) == len(names)
        with monkeypatch.context() as m:
            m.setattr(checks, "_lex_boundary", ones_on_the_quotient)
            outcomes = {o["name"]: o for o in suite(arg, F3)}
        assert outcomes["quotient-boundary-squared-zero"] == {
            "name": "quotient-boundary-squared-zero", "ok": False,
            "detail": "d1 o d2 != 0 over Fp:3"}
        if suite is checks.run_action_suite:
            assert outcomes["boundary-squared-zero"]["ok"]
