import pytest

from zkhomology.actions import (
    lex_lift,
    lex_max_lift,
    quotient,
    trivial_action,
    validate_action,
)
from zkhomology.errors import (
    DimensionError,
    TripleValidationError,
    UnknownSimplexError,
)
from zkhomology.checks import extended_transfer_via_face
from zkhomology.exact import QQ
from zkhomology.pipeline import g_boundary_matrix
from zkhomology.simplicial import build_complex
from zkhomology.transfer import (
    IsotropyTriple,
    build_complex_of_groups,
    build_triple,
    coset_map,
    extended_transfer,
)


@pytest.fixture
def path_setup():
    act = validate_action(build_complex([{0, 1}, {1, 2}]), [2, 1, 0], 2)
    qd = quotient(act)
    return act, qd, lex_lift(qd)


class TestExtendedTransfer:
    def test_path_fixed_vertex(self, path_setup):
        act, qd, lift = path_setup
        assert extended_transfer(act, lift, (0, 1), (1,)) == {0, 1}

    def test_path_free_vertex(self, path_setup):
        act, qd, lift = path_setup
        assert extended_transfer(act, lift, (0, 1), (0,)) == {0}

    def test_octagon_nontrivial_coset(self):
        X = build_complex([{i, (i + 1) % 8} for i in range(8)])
        act = validate_action(X, [(i + 4) % 8 for i in range(8)], 2)
        qd = quotient(act)
        lift = lex_lift(qd)
        psi = qd.project_simplex((3, 4))   # lift is (0, 7)
        assert extended_transfer(act, lift, psi, (3,)) == {1}

    def test_unknown_simplex(self, path_setup):
        act, qd, lift = path_setup
        with pytest.raises(UnknownSimplexError):
            extended_transfer(act, lift, (0, 2), (0,))

    def test_codimension_gate(self, path_setup):
        act, qd, lift = path_setup
        with pytest.raises(DimensionError):
            extended_transfer(act, lift, (0, 1), (0, 1))

    def test_two_routes_agree_corpus_wide(self, corpus_actions):
        from itertools import combinations
        for act in corpus_actions.values():
            qd = quotient(act)
            for lift in (lex_lift(qd), lex_max_lift(qd)):
                Y = qd.quotient
                for d in range(1, Y.dim + 1):
                    for psi in Y.simplices(d):
                        for omega in combinations(psi, d):
                            a = extended_transfer(act, lift, psi, omega)
                            b = extended_transfer_via_face(qd, lift, psi, omega)
                            assert a == b


class TestBuildTriple:
    def test_path_values(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        assert {q: H.order for q, H in tri.S.items()} == {
            (0,): 1, (1,): 2, (0, 1): 1}
        assert tri.Tstar[(0, 1), (1,)] == {0, 1}
        assert tri.Tstar[(0, 1), (0,)] == {0}

    def test_trivial_k1(self):
        act = trivial_action(build_complex([{0, 1}, {1, 2}]), 1)
        tri = build_triple(act)
        assert all(H.order == 1 for H in tri.S.values())
        assert all(v == {0} for v in tri.Tstar.values())

    def test_swapped_triangles_free(self, corpus_actions):
        tri = build_triple(corpus_actions["two_triangles_swap"])
        assert all(H.order == 1 for H in tri.S.values())
        assert all(len(v) == 1 for v in tri.Tstar.values())

    def test_coset_property_corpus_wide(self, corpus_actions):
        for act in corpus_actions.values():
            tri = build_triple(act)
            for (psi, omega), hits in tri.Tstar.items():
                H = tri.S[omega]
                assert len(hits) == H.order
                base = min(hits)
                assert hits == {(base + e) % tri.k for e in H.exponents()}

    def test_chain_dim_matches_upstairs(self, corpus_actions):
        for act in corpus_actions.values():
            tri = build_triple(act)
            for d in range(tri.quotient.dim + 1):
                assert tri.chain_dim(d) == act.complex.n_simplices(d)


class TestTransferMatrix:
    def test_path_column(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        T = g_boundary_matrix(tri, 1, QQ)
        assert [[str(v) for v in row] for row in T.data] == [["-1"], ["1 + a^1"]]

    def test_trivial_k1_identity_entries(self):
        act = trivial_action(build_complex([{0, 1}, {1, 2}]), 1)
        T = g_boundary_matrix(build_triple(act), 1, QQ)
        flat = [str(v) for row in T.data for v in row]
        assert flat == ["-1", "0", "1", "-1", "0", "1"]

    def test_octagon_entry_counts(self, corpus_actions):
        tri = build_triple(corpus_actions["cycle8_rot4"])
        T = g_boundary_matrix(tri, 1, QQ)
        nonzero = [str(v).lstrip("-") for row in T.data for v in row if not v.is_zero()]
        assert sorted(nonzero) == ["1"] * 7 + ["a^1"]

    def test_dimension_gate(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        with pytest.raises(DimensionError):
            g_boundary_matrix(tri, 2, QQ)


class TestCosetMap:
    def test_full_isotropy_single_coset(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        assert coset_map(tri, (1,), 1) == 1

    def test_free_vertex(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        assert coset_map(tri, (0,), 1) == 2

    def test_identity_always_first(self, corpus_actions):
        for act in corpus_actions.values():
            tri = build_triple(act)
            for q in tri.quotient.all_simplices():
                assert coset_map(tri, q, 0) == 1


class TestComplexOfGroups:
    def test_corpus_axioms(self, corpus_actions):
        for act in corpus_actions.values():
            cog = build_complex_of_groups(build_triple(act))
            # cocycle checked during construction; degenerate 2-morphisms e
            for (p1, p2, p3), g in cog.two_morphisms.items():
                if p1 == p2 or p2 == p3:
                    assert g == 0
                assert g in cog.groups[p3]

    def test_trivial_action_constant(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 3)
        cog = build_complex_of_groups(build_triple(act))
        assert all(H.order == 3 for H in cog.groups.values())
        assert all(g == 0 for g in cog.two_morphisms.values())

    def test_transfer_choice_hook(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        cog = build_complex_of_groups(tri, transfer_choice=lambda p, o, hits: max(hits))
        assert cog.transfer_choice[((0, 1), (1,))] == 1

    def test_bad_transfer_choice_rejected(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        with pytest.raises(TripleValidationError):
            build_complex_of_groups(tri, transfer_choice=lambda p, o, hits: min(hits) + 1
                                    if len(hits) == 1 else min(hits))


class TestStandaloneTripleValidation:
    def _path_triple_dict(self):
        from zkhomology.actions import Subgroup
        S = {(0,): Subgroup(2, 1), (1,): Subgroup(2, 2), (0, 1): Subgroup(2, 1)}
        Tstar = {((0, 1), (0,)): frozenset({0}), ((0, 1), (1,)): frozenset({0, 1})}
        return build_complex([{0, 1}]), S, Tstar

    def test_valid(self):
        Y, S, Tstar = self._path_triple_dict()
        IsotropyTriple(2, Y, S, Tstar)  # validates in the constructor

    def test_tampered_transfer_not_a_coset(self):
        Y, S, Tstar = self._path_triple_dict()
        Tstar[((0, 1), (1,))] = frozenset({1})
        with pytest.raises(TripleValidationError, match="coset"):
            IsotropyTriple(2, Y, S, Tstar)

    def test_missing_transfer(self):
        Y, S, Tstar = self._path_triple_dict()
        del Tstar[((0, 1), (0,))]
        with pytest.raises(TripleValidationError, match="missing"):
            IsotropyTriple(2, Y, S, Tstar)

    def test_isotropy_monotonicity_enforced(self):
        from zkhomology.actions import Subgroup
        Y = build_complex([{0, 1}])
        S = {(0,): Subgroup(2, 1), (1,): Subgroup(2, 1), (0, 1): Subgroup(2, 2)}
        Tstar = {((0, 1), (0,)): frozenset({0}), ((0, 1), (1,)): frozenset({0})}
        with pytest.raises(TripleValidationError, match="embed"):
            IsotropyTriple(2, Y, S, Tstar)
