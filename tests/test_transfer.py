import random

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
from zkhomology.checks import coset_position, extended_transfer, extended_transfer_via_face
from zkhomology.exact import QQ
from zkhomology.jsonio import dump_json, load_input, triple_to_dict
from zkhomology.pipeline import g_boundary_matrix
from zkhomology.simplicial import build_complex
from zkhomology.transfer import IsotropyTriple, build_triple, check_axioms

from grids import tuples


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
        assert tri.S == {(0,): 1, (1,): 2, (0, 1): 1}
        assert tri.Tstar[(0, 1), (1,)] == {0, 1}
        assert tri.Tstar[(0, 1), (0,)] == {0}

    def test_trivial_k1(self):
        act = trivial_action(build_complex([{0, 1}, {1, 2}]), 1)
        tri = build_triple(act)
        assert all(n == 1 for n in tri.S.values())
        assert all(v == {0} for v in tri.Tstar.values())

    def test_swapped_triangles_free(self, corpus_actions):
        tri = build_triple(corpus_actions["two_triangles_swap"])
        assert all(n == 1 for n in tri.S.values())
        assert all(len(v) == 1 for v in tri.Tstar.values())

    def test_coset_property_corpus_wide(self, corpus_actions):
        for act in corpus_actions.values():
            tri = build_triple(act)
            for (psi, omega), hits in tri.Tstar.items():
                order = tri.S[omega]
                assert len(hits) == order
                base = min(hits)
                assert hits == {(base + e) % tri.k for e in range(0, tri.k, tri.k // order)}

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
        assert tuples(T) == [[(-1, 0)], [(1, 1)]]

    def test_trivial_k1_identity_entries(self):
        act = trivial_action(build_complex([{0, 1}, {1, 2}]), 1)
        T = g_boundary_matrix(build_triple(act), 1, QQ)
        flat = [w for row in tuples(T) for w in row]
        assert flat == [(-1,), (0,), (1,), (-1,), (0,), (1,)]

    def test_octagon_entry_counts(self, corpus_actions):
        tri = build_triple(corpus_actions["cycle8_rot4"])
        T = g_boundary_matrix(tri, 1, QQ)
        nonzero = [tuple(map(abs, w)) for row in tuples(T) for w in row if any(w)]
        assert sorted(nonzero) == [(0, 1)] + [(1, 0)] * 7

    def test_dimension_gate(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        with pytest.raises(DimensionError):
            g_boundary_matrix(tri, 2, QQ)


class TestCosetMap:
    """The coset map: the position of alpha^c S(omega) among the cosets."""

    def test_full_isotropy_single_coset(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        assert coset_position(tri.k, tri.S[(1,)], 1) == 1

    def test_free_vertex(self, path_setup):
        act, qd, lift = path_setup
        tri = build_triple(act, lift=lift, qd=qd)
        assert coset_position(tri.k, tri.S[(0,)], 1) == 2

    def test_identity_always_first(self, corpus_actions):
        for act in corpus_actions.values():
            tri = build_triple(act)
            for q in tri.quotient.all_simplices():
                assert coset_position(tri.k, tri.S[q], 0) == 1


class TestComplexOfGroups:
    def test_corpus_axioms(self, corpus_actions):
        for act in corpus_actions.values():
            assert check_axioms(build_triple(act)) is None

    def test_trivial_action_constant(self):
        act = trivial_action(build_complex([{0, 1, 2}]), 3)
        tri = build_triple(act)
        assert all(n == 3 for n in tri.S.values())
        # every transfer set is all of Z_3, so e = min T* = 0 throughout
        assert all(min(hits) == 0 for hits in tri.Tstar.values())
        assert check_axioms(tri) is None


class TestStandaloneTripleValidation:
    def _path_triple_dict(self):
        S = {(0,): 1, (1,): 2, (0, 1): 1}
        Tstar = {((0, 1), (0,)): frozenset({0}), ((0, 1), (1,)): frozenset({0, 1})}
        return build_complex([{0, 1}]), S, Tstar

    def test_valid(self):
        Y, S, Tstar = self._path_triple_dict()
        IsotropyTriple(2, Y, S, Tstar).validate()

    def test_tampered_transfer_not_a_coset(self):
        Y, S, Tstar = self._path_triple_dict()
        Tstar[((0, 1), (1,))] = frozenset({1})
        with pytest.raises(TripleValidationError, match="coset"):
            IsotropyTriple(2, Y, S, Tstar).validate()

    def test_missing_transfer(self):
        Y, S, Tstar = self._path_triple_dict()
        del Tstar[((0, 1), (0,))]
        with pytest.raises(TripleValidationError, match="missing"):
            IsotropyTriple(2, Y, S, Tstar).validate()

    def test_isotropy_monotonicity_enforced(self):
        Y = build_complex([{0, 1}])
        S = {(0,): 1, (1,): 1, (0, 1): 2}
        Tstar = {((0, 1), (0,)): frozenset({0}), ((0, 1), (1,)): frozenset({0})}
        with pytest.raises(TripleValidationError, match="embed"):
            IsotropyTriple(2, Y, S, Tstar).validate()


# S values that name no subgroup of Z_4: a bool, no positive order, an
# order not dividing k, a float and the (k, order) pair of a record
NOT_AN_ORDER = (True, 0, -2, 3, 2.0, (4, 2))


@pytest.mark.parametrize("value", NOT_AN_ORDER, ids=repr)
def test_validate_takes_only_plain_int_orders(value):
    Y = build_complex([{0, 1}])
    S = {(0,): 1, (1,): value, (0, 1): 1}
    Tstar = {((0, 1), (0,)): frozenset({0}), ((0, 1), (1,)): frozenset({0})}
    with pytest.raises(TripleValidationError) as info:
        IsotropyTriple(4, Y, S, Tstar).validate()
    assert str(info.value) == "S((1,)) is not a subgroup of Z_4"
    assert info.value.witness == (1,)


def test_one_set_is_judged_against_each_face_group():
    # {0} is a coset of the trivial group of (0,), but not of Z_2 at (1,)
    Y = build_complex([{0, 1}])
    S = {(0,): 1, (1,): 2, (0, 1): 1}
    Tstar = {((0, 1), (0,)): frozenset({0}), ((0, 1), (1,)): frozenset({0})}
    with pytest.raises(TripleValidationError) as info:
        IsotropyTriple(2, Y, S, Tstar).validate()
    assert str(info.value) == "T*((0, 1),(1,)) = [0] is not a left coset of S((1,)) (order 2)"
    assert info.value.witness == ((0, 1), (1,))


def test_isotropy_orders_are_plain_ints(corpus_actions, tmp_path):
    # built from an action and parsed from a triple file alike
    for name, act in corpus_actions.items():
        qd = quotient(act)
        for lift in (lex_lift(qd), lex_max_lift(qd)):
            tri = build_triple(act, lift=lift, qd=qd)
            path = tmp_path / f"{name}.json"
            path.write_text(dump_json(triple_to_dict(tri)))
            kind, parsed = load_input(path)
            assert kind == "triple" and parsed == tri
            for S in (tri.S, parsed.S):
                assert {type(n) for n in S.values()} == {int}, name


def _all_pairs_validate(triple):
    """Validation that tests every (d-simplex, (d-1)-simplex) pair of the
    quotient, O(|Y_d| |Y_(d-1)|): the route taken before faces were
    indexed, kept as an oracle for the first error and its witness."""
    Y, k = triple.quotient, triple.k
    for q in Y.all_simplices():
        if q not in triple.S:
            raise TripleValidationError(f"S undefined on {q}", witness=q)
        n = triple.S[q]
        if type(n) is not int or n < 1 or k % n != 0:
            raise TripleValidationError(f"S({q}) is not a subgroup of Z_{k}", witness=q)
    for d in range(1, Y.dim + 1):
        for psi in Y.simplices(d):
            for omega in Y.simplices(d - 1):
                hits = triple.Tstar.get((psi, omega))
                if not set(omega) <= set(psi):
                    if hits:
                        raise TripleValidationError(
                            f"T*({psi},{omega}) nonempty for a non-face pair",
                            witness=(psi, omega))
                    continue
                if not hits:
                    raise TripleValidationError(
                        f"T*({psi},{omega}) missing or empty for a face pair",
                        witness=(psi, omega))
                n = triple.S[omega]
                coset = frozenset((min(hits) + e) % k for e in range(0, k, k // n))
                if hits != coset:
                    raise TripleValidationError(
                        f"T*({psi},{omega}) = {sorted(hits)} is not a left "
                        f"coset of S({omega}) (order {n})",
                        witness=(psi, omega))
                if triple.S[omega] % triple.S[psi] != 0:
                    raise TripleValidationError(
                        f"S({psi}) does not embed into S({omega})",
                        witness=(psi, omega))
    for (psi, omega) in triple.Tstar:
        if psi not in Y or omega not in Y or len(psi) != len(omega) + 1:
            raise TripleValidationError(
                f"T* keyed by a non codimension-1 pair ({psi},{omega})",
                witness=(psi, omega))


def _first_error(validate):
    try:
        validate()
    except TripleValidationError as exc:
        return str(exc), exc.witness
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _tamper(rng, tri, kind):
    """One violation of the given kind, written into tri's S and T*."""
    Y, k = tri.quotient, tri.k
    d = rng.randint(1, Y.dim)
    psi = rng.choice(Y.simplices(d))
    faces_of = [omega for omega in Y.simplices(d - 1) if set(omega) <= set(psi)]
    omega = rng.choice(faces_of)
    if kind == "non-face key":
        others = [w for w in Y.simplices(d - 1) if w not in faces_of]
        if others:
            tri.Tstar[(psi, rng.choice(others))] = frozenset({rng.randrange(k)})
    elif kind == "dropped face pair":
        if rng.random() < 0.5:
            del tri.Tstar[(psi, omega)]
        else:
            tri.Tstar[(psi, omega)] = frozenset()
    elif kind == "shifted coset":
        # a shift keeps a coset; a shift of part of it breaks one
        shift = rng.randrange(1, k) if k > 1 else 0
        hits = sorted(tri.Tstar.get((psi, omega), ()))
        moved = hits if rng.random() < 0.5 else hits[:1]
        tri.Tstar[(psi, omega)] = frozenset(
            [(c + shift) % k for c in moved] + hits[len(moved):])
    elif kind == "broken embedding":
        orders = [h for h in range(1, k + 1) if k % h == 0]
        tri.S[rng.choice([psi, omega])] = rng.choice(orders)
    elif kind == "non codimension-1 key":
        tri.Tstar[(psi, psi[:1])] = frozenset({0})
    elif kind == "malformed key":
        # not a pair of simplex tuples: a string, a triple, an integer, or
        # a pair holding a frozenset
        key = rng.choice(["ab", (psi, omega, omega), 7, (psi, frozenset(omega[:1]))])
        tri.Tstar[key] = frozenset({0})


TAMPERINGS = ("non-face key", "dropped face pair", "shifted coset", "broken embedding",
              "non codimension-1 key", "malformed key")


PHRASES = ("non-face pair", "missing or empty", "left coset", "does not embed",
           "non codimension-1", "TypeError")


def test_face_indexed_validation_matches_all_pairs(corpus_actions):
    rng = random.Random(59)
    base = [build_triple(act) for act in corpus_actions.values()]
    base = [tri for tri in base if tri.quotient.dim >= 1]
    errors = set()
    for _ in range(600):
        tri = rng.choice(base)
        tampered = IsotropyTriple(tri.k, tri.quotient, tri.S, tri.Tstar)
        for kind in rng.sample(TAMPERINGS, rng.randint(1, 4)):
            _tamper(rng, tampered, kind)
        want = _first_error(lambda: _all_pairs_validate(tampered))
        assert _first_error(tampered.validate) == want
        errors.update(p for p in PHRASES if want and p in want[0])
    # every kind of first error was drawn
    assert errors == set(PHRASES)


def test_stray_pair_ordered_among_faces():
    # psi = (0, 2): the non-face pair ((0, 2), (1,)) sorts between the faces
    # (0,) and (2,), so it is the first error although (2,) is missing too
    Y = build_complex([{0, 1, 2}])
    S = dict.fromkeys(Y.all_simplices(), 1)
    Tstar = {(psi, omega): frozenset({0}) for d in (1, 2) for psi in Y.simplices(d)
             for omega in Y.simplices(d - 1) if set(omega) <= set(psi)}
    Tstar[((0, 2), (1,))] = frozenset({0})
    del Tstar[((0, 2), (2,))]
    tri = IsotropyTriple(1, Y, S, Tstar)
    want = ("T*((0, 2),(1,)) nonempty for a non-face pair", ((0, 2), (1,)))
    assert _first_error(tri.validate) == want == _first_error(
        lambda: _all_pairs_validate(tri))
