import pytest

from zkhomology.actions import (
    CyclicAction,
    check_regularity,
    lex_lift,
    lex_max_lift,
    quotient,
    regularize,
    trivial_action,
    validate_action,
)
from zkhomology.checks import (check_orbit_stabilizer, compatible_ordering, coset_ordering,
                               coset_position, index_reducing)
from zkhomology.errors import (
    InvalidActionError,
    RegularityError,
    UnknownSimplexError,
)
from zkhomology.exact import QQ
from zkhomology.simplicial import betti_direct, build_complex


def _cycle(n):
    return build_complex([{i, (i + 1) % n} for i in range(n)])


@pytest.fixture
def path_action():
    return validate_action(build_complex([{0, 1}, {1, 2}]), [2, 1, 0], 2)


class TestValidateAction:
    def test_octagon_rotation(self):
        act = validate_action(_cycle(8), [(i + 4) % 8 for i in range(8)], 2)
        # every edge maps to an edge
        for s in act.complex.simplices(1):
            assert act.apply_simplex(1, s) in act.complex

    def test_path_flip(self, path_action):
        assert path_action.apply_simplex(1, (0, 1)) == (1, 2)

    def test_order_must_divide_k(self):
        with pytest.raises(InvalidActionError, match="does not divide"):
            validate_action(build_complex([{0, 1, 2}]), [1, 0, 2], 3)
        # the order is the lcm of the cycle lengths 2 and 3
        X = build_complex([{v} for v in range(5)])
        with pytest.raises(InvalidActionError) as err:
            validate_action(X, [1, 0, 3, 4, 2], 4)
        assert str(err.value) == "permutation order 6 does not divide k=4"
        assert validate_action(X, [1, 0, 3, 4, 2], 6).k == 6

    def test_non_bijection(self):
        with pytest.raises(InvalidActionError) as err:
            validate_action(build_complex([{0, 1}]), [0, 0], 2)
        assert err.value.witness == 0
        assert str(err.value) == (
            "permutation is not a bijection of the vertices (image 0 repeats)")
        with pytest.raises(InvalidActionError) as err:
            validate_action(build_complex([{0, 1}]), [1, 5], 2)
        assert err.value.witness == 5
        assert str(err.value) == (
            "permutation is not a bijection of the vertices (image 5 is not a vertex)")

    def test_non_simplicial(self):
        X = build_complex([{0, 1}, {2}])
        # at k = 3 the swap's order 2 does not divide k either: the failed
        # simplicial check is reported first
        for k in (2, 3):
            with pytest.raises(InvalidActionError, match="not simplicial"):
                validate_action(X, [0, 2, 1], k)

    def test_bad_k(self):
        with pytest.raises(InvalidActionError):
            validate_action(build_complex([{0}]), [0], 0)


class TestIsotropyAndOrbits:
    def test_path_isotropy(self, path_action):
        assert path_action.isotropy_order((1,)) == 2
        assert path_action.isotropy_order((0, 1)) == 1

    def test_unknown_simplex(self, path_action):
        with pytest.raises(UnknownSimplexError):
            path_action.isotropy_order((0, 2))

    def test_trivial_action_full_isotropy(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 3)
        assert all(act.isotropy_order(s) == 3
                   for s in act.complex.all_simplices())

    def test_orbit_stabilizer(self, corpus_actions):
        for act in corpus_actions.values():
            for s in act.complex.all_simplices():
                assert len(act.simplex_orbit(s)) * act.isotropy_order(s) == act.k
            assert check_orbit_stabilizer(act) is None

    def test_orbit_stabilizer_check_counts_from_the_permutation(self, path_action):
        # A walk that splits the orbit {0, 2} into two fixed points: its
        # orbits and isotropy still agree with each other, but not with
        # the permutation.
        for v in (0, 2):
            path_action._walk[(v,)] = (((v,),), 0)
        for s in path_action.complex.all_simplices():
            assert len(path_action.simplex_orbit(s)) * path_action.isotropy_order(s) == 2
        assert check_orbit_stabilizer(path_action) == ("simplex (0,): |orbit|=2, "
                                                       "|stabilizer|=1, isotropy order 2, k=2")

    def test_walk_exponents(self, path_action):
        assert path_action.locate((1, 2))[1] == 1
        assert path_action.locate((1,))[1] == 0
        assert path_action.orbit_representatives(0) == ((0,), (1,))


class TestRegularity:
    def test_antipodal_square_witness(self, antipodal_action):
        w = check_regularity(antipodal_action)
        assert w is not None
        assert w.simplex == (0, 1)
        assert w.exponents == (0, 1)
        assert w.image == (0, 3)

    def test_octagon_regular(self):
        octagon = validate_action(_cycle(8), [(i + 4) % 8 for i in range(8)], 2)
        assert check_regularity(octagon) is None

    def test_trivial_always_regular(self):
        for k in (1, 2, 3):
            assert check_regularity(trivial_action(build_complex([{0, 1, 2}]), k)) is None

    @pytest.mark.parametrize("generator, order", [([0, 1], None), ([1, 0], 2)])
    def test_scan_does_not_grow_with_k(self, generator, order, monkeypatch):
        # one edge, fixed or swapped by alpha: every subgroup of Z_k acts
        # through a subgroup of order at most 2, so the scan moves as many
        # vertices at k = 10^3 as at 10^5; the swap fails first at the least
        # subgroup whose image is the swap, of order the 2-part of k
        original, calls = CyclicAction.apply_vertex, []
        monkeypatch.setattr(CyclicAction, "apply_vertex",
                            lambda self, h, v: calls.append(h) or original(self, h, v))
        counts = []
        for k, two_part in ((10**3, 8), (10**5, 32)):
            calls.clear()
            w = check_regularity(validate_action(build_complex([[0, 1]]), generator, k))
            assert (w and w.order) == (order and order * two_part // 2)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_corpus_regular(self, corpus_actions):
        for act in corpus_actions.values():
            assert check_regularity(act) is None

    def test_pointwise_fixing_consequence(self, corpus_actions):
        # regular implies g fixes psi ∩ g.psi vertex-wise
        for act in corpus_actions.values():
            for s in act.complex.all_simplices():
                for c in range(act.k):
                    moved = set(act.apply_simplex(c, s))
                    for v in set(s) & moved:
                        assert act.apply_vertex(c, v) == v

    def test_orbit_never_lands_on_another_face(self, corpus_actions):
        # regular implies: a face moved inside its cofacet is fixed
        from itertools import combinations
        for act in corpus_actions.values():
            for s in act.complex.all_simplices():
                for r in range(1, len(s)):
                    for w in combinations(s, r):
                        for c in range(1, act.k):
                            moved = act.apply_simplex(c, w)
                            if set(moved) <= set(s):
                                assert moved == w


class TestRegularize:
    def test_antipodal_becomes_regular(self, antipodal_action):
        reg = regularize(antipodal_action)
        assert check_regularity(reg) is None
        assert reg.complex.face_counts() == (16, 16)

    def test_already_regular_stays_regular(self, path_action):
        assert check_regularity(regularize(path_action)) is None

    def test_betti_preserved(self, antipodal_action):
        reg = regularize(antipodal_action)
        assert betti_direct(reg.complex, QQ) == betti_direct(antipodal_action.complex, QQ)

    def test_quotient_after_regularize_across_corpus(self, corpus_actions,
                                                     antipodal_action):
        # projection stays well-defined and homology computable after a
        # double subdivision, non-regular input included (the torus-sized
        # entries are skipped: their subdivision is pure bulk)
        from zkhomology.pipeline import compressed_betti
        from zkhomology.transfer import build_triple

        small = [a for a in corpus_actions.values()
                 if a.complex.n_simplices(0) < 20]
        for act in small + [antipodal_action]:
            reg = regularize(act)
            qd = quotient(reg)
            for q in qd.quotient.all_simplices():
                assert qd.fiber(q)
            triple = build_triple(reg, qd=qd)
            assert compressed_betti(triple, QQ) == betti_direct(act.complex, QQ)


class TestQuotient:
    def test_octagon_gives_square(self):
        qd = quotient(validate_action(_cycle(8), [(i + 4) % 8 for i in range(8)], 2))
        assert qd.quotient == _cycle(4)

    def test_path_gives_edge(self, path_action):
        qd = quotient(path_action)
        assert qd.quotient.face_counts() == (2, 1)
        assert qd.project_simplex((1, 2)) == (0, 1)

    def test_two_triangles_give_one(self, corpus_actions):
        qd = quotient(corpus_actions["two_triangles_swap"])
        assert qd.quotient.face_counts() == (3, 3)

    def test_requires_regular(self, antipodal_action):
        with pytest.raises(RegularityError):
            quotient(antipodal_action)

    def test_projection_table(self, path_action):
        qd = quotient(path_action)
        # vertices (0,),(1,),(2,) project to labels 0,1,0; edges both to (0,1)
        X, Y = path_action.complex, qd.quotient
        assert [Y.index_of(qd.project_simplex(s)) for s in X.simplices(0)] == [0, 1, 0]
        assert [Y.index_of(qd.project_simplex(s)) for s in X.simplices(1)] == [0, 0]

    def test_fibers_are_orbits(self, corpus_actions):
        for act in corpus_actions.values():
            qd = quotient(act)
            for q in qd.quotient.all_simplices():
                fiber = qd.fiber(q)
                assert fiber == act.simplex_orbit(fiber[0])

    def test_unique_face_over_quotient(self, corpus_actions):
        from itertools import combinations
        for act in corpus_actions.values():
            qd = quotient(act)
            for s in act.complex.all_simplices():
                sq = qd.project_simplex(s)
                for r in range(1, len(sq) + 1):
                    for wq in combinations(sq, r):
                        matches = [w for w in combinations(s, r)
                                   if qd.project_simplex(w) == wq]
                        assert len(matches) == 1


class TestLifts:
    def test_lex_lift_path(self, path_action):
        lift = lex_lift(quotient(path_action))
        assert lift[(0, 1)] == (0, 1)  # beats (1, 2)
        assert lift[(0,)] == (0,)

    def test_lex_lift_octagon(self):
        act = validate_action(_cycle(8), [(i + 4) % 8 for i in range(8)], 2)
        qd = quotient(act)
        q = qd.project_simplex((3, 4))
        assert lex_lift(qd)[q] == (0, 7)
        assert lex_max_lift(qd)[q] == (3, 4)

    def test_lifts_on_walks_out_of_complex_order(self):
        # i -> i + 6 walks the orbit of 0 as 0, 6, 3 and that of (0, 1) as
        # (0, 1), (6, 7), (3, 4): a fiber's greatest simplex is not the last
        # one its walk meets
        qd = quotient(validate_action(_cycle(9), [(i + 6) % 9 for i in range(9)], 3))
        qs = tuple(qd.quotient.all_simplices())
        assert lex_lift(qd) == {q: qd.fiber(q)[0] for q in qs}
        assert lex_max_lift(qd) == {q: qd.fiber(q)[-1] for q in qs}
        assert lex_max_lift(qd)[qd.project_simplex((0, 1))] == (6, 7)
        assert lex_max_lift(qd)[qd.project_simplex((0,))] == (6,)

    def test_singleton_orbit(self, path_action):
        assert lex_lift(quotient(path_action))[(1,)] == (1,)

    def test_section_property(self, corpus_actions):
        for act in corpus_actions.values():
            qd = quotient(act)
            for policy in (lex_lift, lex_max_lift):
                lift = policy(qd)
                for q, s in lift.items():
                    assert qd.project_simplex(s) == q


class TestCosetOrdering:
    def test_trivial_subgroup_k2(self):
        assert coset_ordering(2, 1) == ((0,), (1,))

    def test_full_subgroup_k2(self):
        assert coset_ordering(2, 2) == ((0, 1),)

    def test_k4_order2(self):
        assert coset_ordering(4, 2) == ((0, 2), (1, 3))

    def test_first_coset_is_subgroup(self):
        for k in (1, 2, 3, 4, 6, 12):
            for order in (d for d in range(1, k + 1) if k % d == 0):
                assert coset_ordering(k, order)[0] == tuple(range(0, k, k // order))
                assert coset_position(k, order, 0) == 1

    def test_cosets_partition(self):
        for k in (6, 12):
            for order in (d for d in range(1, k + 1) if k % d == 0):
                cosets = coset_ordering(k, order)
                flat = sorted(c for coset in cosets for c in coset)
                assert flat == list(range(k))


class TestCompatibleOrdering:
    def test_path_dim0(self, path_action):
        qd = quotient(path_action)
        lp = compatible_ordering(qd, lex_lift(qd), 0)
        assert lp.ordering == ((0,), (2,), (1,))
        assert [list(b) for b in lp.blocks] == [[1, 2], [3]]

    def test_path_dim1(self, path_action):
        qd = quotient(path_action)
        lp = compatible_ordering(qd, lex_lift(qd), 1)
        assert lp.ordering == ((0, 1), (1, 2))
        assert [list(b) for b in lp.blocks] == [[1, 2]]

    def test_trivial_action_identity_ordering(self):
        act = trivial_action(_cycle(8), 2)
        qd = quotient(act)
        lp = compatible_ordering(qd, lex_lift(qd), 1)
        assert lp.ordering == act.complex.simplices(1)
        assert all(len(b) == 1 for b in lp.blocks)

    def test_blocks_partition(self, corpus_actions):
        for act in corpus_actions.values():
            qd = quotient(act)
            lift = lex_lift(qd)
            for d in range(qd.quotient.dim + 1):
                lp = compatible_ordering(qd, lift, d)
                covered = sorted(i for b in lp.blocks for i in b)
                assert covered == list(range(1, len(lp.ordering) + 1))
                assert sorted(lp.ordering) == list(act.complex.simplices(d))
                # first element of each block is the lift
                for start, q in zip(lp.starts, qd.quotient.simplices(d)):
                    assert lp.ordering[start - 1] == lift[q]


class TestIndexReducing:
    def test_path_dim0(self, path_action):
        qd = quotient(path_action)
        lp = compatible_ordering(qd, lex_lift(qd), 0)
        assert index_reducing(lp, 2) == (1, 2, 3, 3)

    def test_path_dim1(self, path_action):
        qd = quotient(path_action)
        lp = compatible_ordering(qd, lex_lift(qd), 1)
        assert index_reducing(lp, 2) == (1, 2)

    def test_trivial_action_constant_blocks(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 3)
        qd = quotient(act)
        lp = compatible_ordering(qd, lex_lift(qd), 1)
        J = index_reducing(lp, 3)
        # full isotropy: every slab is constant at its block index
        assert J == (1, 1, 1, 2, 2, 2, 3, 3, 3)

    def test_slab_image_is_block(self, corpus_actions):
        for act in corpus_actions.values():
            qd = quotient(act)
            lift = lex_lift(qd)
            k = act.k
            for d in range(qd.quotient.dim + 1):
                lp = compatible_ordering(qd, lift, d)
                J = index_reducing(lp, k)
                assert len(J) == len(lp.blocks) * k
                for b, block in enumerate(lp.blocks):
                    assert set(J[b * k:(b + 1) * k]) == set(block)
                assert set(J) == set(range(1, len(lp.ordering) + 1))
