from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkhomology.errors import DimensionError, InvalidSimplexError
from zkhomology.exact import GF, QQ
from zkhomology.simplicial import (
    Complex,
    as_simplex,
    barycentric_subdivision,
    betti_direct,
    boundary_matrix,
    build_complex,
)
from zkhomology.checks import _boundary_rows

from grids import dense, field_product


def _cycle(n):
    return [{i, (i + 1) % n} for i in range(n)]


TWO_CIRCLES = [{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}]


class TestBuildComplex:
    def test_closure_of_edges(self):
        X = build_complex([{0, 1}, {1, 2}])
        assert X.simplices(0) == ((0,), (1,), (2,))
        assert X.simplices(1) == ((0, 1), (1, 2))

    def test_closure_of_triangle(self):
        X = build_complex([{0, 1, 2}])
        assert X.face_counts() == (3, 3, 1)

    def test_empty(self):
        X = build_complex([])
        assert X.dim == -1 and X.face_counts() == ()

    def test_rejects_empty_generator(self):
        with pytest.raises(InvalidSimplexError):
            build_complex([set()])

    def test_rejects_negative_vertex(self):
        with pytest.raises(InvalidSimplexError):
            build_complex([{-1, 0}])


def _closure_by_subsets(simplices):
    """Every nonempty subset of every given simplex, per dimension, sorted:
    the closure as the complex built it before it closed level by level."""
    closed = set()
    for s in simplices:
        s = as_simplex(s)
        for r in range(1, len(s) + 1):
            closed.update(combinations(s, r))
    top = max((len(s) for s in closed), default=0)
    return tuple(tuple(sorted(s for s in closed if len(s) == d + 1)) for d in range(top))


@st.composite
def _listed_simplices(draw):
    """Simplices as a file or a caller may give them: some faces listed and
    some not, in any order, as unsorted lists, tuples or sets."""
    tops = draw(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5,
                                  unique=True), max_size=6))
    listed = [list(face) for top in tops for r in range(1, len(top) + 1)
              for face in combinations(top, r) if draw(st.booleans())] + tops
    return [draw(st.sampled_from([list, tuple, set, frozenset]))(draw(st.permutations(s)))
            for s in draw(st.permutations(listed))]


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(_listed_simplices())
    def test_matches_the_subset_closure(self, simplices):
        X = Complex(simplices)
        assert X._by_dim == _closure_by_subsets(simplices)
        assert [X.index_of(s) for s in X.all_simplices()] == [
            i for level in X._by_dim for i in range(len(level))]
        # the canonical listing (as jsonio writes it), the facets alone, and
        # a reversed listing with some simplices repeated build X again
        canonical = [list(s) for s in X.all_simplices()]
        covered = {f for s in X.all_simplices() for f in combinations(s, len(s) - 1)}
        facets = [s for s in canonical if tuple(s) not in covered]
        reversed_ = [s[::-1] for s in canonical[::-1] + canonical[::2]]
        assert Complex(canonical) == Complex(facets) == Complex(reversed_) == X

    def test_first_bad_simplex_in_input_order_is_reported(self):
        bad = [[0, 1, 2], [3, 3], [0, 1, 2, 3], [-1]]
        with pytest.raises(InvalidSimplexError, match=r"repeated vertices in \(3, 3\)"):
            Complex(bad)
        with pytest.raises(InvalidSimplexError, match="bad vertex identifier -1"):
            Complex(bad[::-1])

    # Inputs one step from canonical: the check that takes canonical input
    # as it is must reject each, so that the error stays as_simplex's.
    @pytest.mark.parametrize("simplices, message", [
        ([[0, True]], "bad vertex identifier True"),
        ([[-1, 0]], "bad vertex identifier -1"),
        ([[0, 1.0]], "bad vertex identifier 1.0"),
        ([["0", "1"]], "bad vertex identifier '0'"),
        ([[1, 1]], "repeated vertices in (1, 1)"),
        ([[0, 1], []], "a simplex needs at least one vertex"),
    ])
    def test_near_canonical_input_raises_the_first_error(self, simplices, message):
        with pytest.raises(InvalidSimplexError) as info:
            Complex(simplices)
        assert str(info.value) == message


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (InvalidSimplexError, TypeError) as exc:
        return type(exc), str(exc)


# vertex collections as a caller may give them: vertices 0..9, repeats
# allowed, and sometimes a vertex of another kind inserted
_ODD_VERTEX = st.one_of(st.integers(-3, -1), st.booleans(),
                        st.sampled_from(["a", "0", 1.0, 2.5, None]))
_COLLECTIONS = st.builds(
    lambda kind, vs, odd, at: kind(vs[:at] + odd + vs[at:]),
    st.sampled_from([list, tuple, set]), st.lists(st.integers(0, 9), max_size=5),
    st.just([]) | st.just([]) | st.lists(_ODD_VERTEX, min_size=1, max_size=2),
    st.integers(0, 5))


class TestCanonicalization:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_COLLECTIONS, max_size=4))
    def test_matches_as_simplex(self, collections):
        # the complex of the simplices as_simplex returns, or the error it
        # raises first in input order
        assert _outcome(lambda: Complex(collections)._by_dim) == _outcome(
            _closure_by_subsets, collections)


class TestBoundaryMatrix:
    def test_path(self):
        X = build_complex([{0, 1}, {1, 2}])
        B = boundary_matrix(X, 1, QQ)
        assert [[int(v) for v in row] for row in B.data] == [
            [-1, 0], [1, -1], [0, 1]]

    def test_triangle_alternating_sum(self):
        X = build_complex([{0, 1, 2}])
        B = boundary_matrix(X, 2, QQ)
        # d[0,1,2] = [1,2] - [0,2] + [0,1], rows (0,1),(0,2),(1,2)
        assert [int(r[0]) for r in B.data] == [1, -1, 1]

    def test_dimension_gate(self):
        X = build_complex([{0, 1}])
        with pytest.raises(DimensionError):
            boundary_matrix(X, 2, QQ)
        with pytest.raises(DimensionError):
            boundary_matrix(X, 0, QQ)

    def test_orientation_signs_flip_columns(self):
        # a sign table is read only by the sparse writer of the upstairs
        # model: a column whose sign differs from its faces' is negated
        X = build_complex([{0, 1}, {1, 2}])
        orient = dict.fromkeys(X.all_simplices(), 1)
        orient[(1, 2)] = -1
        B = dense(_boundary_rows(QQ, X.simplices(0), X.simplices(1), orient))
        assert [int(r[0]) for r in B.data] == [-1, 1, 0]
        assert [int(r[1]) for r in B.data] == [0, 1, -1]

    def test_boundary_squared_zero_on_corpus(self, corpus_actions, fields):
        for action in corpus_actions.values():
            X = action.complex
            for field in fields:
                for d in range(2, X.dim + 1):
                    prod = field_product(boundary_matrix(X, d - 1, field),
                                         boundary_matrix(X, d, field))
                    assert not any(any(row) for row in prod.data)


class TestBettiDirect:
    def test_circle(self):
        assert betti_direct(build_complex(_cycle(8)), QQ) == (1, 1)

    def test_two_circles(self):
        assert betti_direct(build_complex(TWO_CIRCLES), QQ) == (2, 2)

    def test_contractible_triangle_char2(self):
        assert betti_direct(build_complex([{0, 1, 2}]), GF(2)) == (1, 0, 0)

    def test_euler_characteristic_matches(self, corpus_actions):
        for action in corpus_actions.values():
            X = action.complex
            chi = sum((-1) ** d * b for d, b in enumerate(betti_direct(X, QQ)))
            assert chi == sum((-1) ** d * X.n_simplices(d) for d in range(X.dim + 1))


class TestBarycentricSubdivision:
    def test_edge(self):
        B, vmap = barycentric_subdivision(build_complex([{0, 1}]))
        assert B.face_counts() == (3, 2)
        assert sorted(vmap.values()) == [0, 1, 2]

    def test_triangle_counts(self):
        B, _ = barycentric_subdivision(build_complex([{0, 1, 2}]))
        assert B.face_counts() == (7, 12, 6)

    def test_vertex_numbering_follows_dim_lex(self):
        X = build_complex([{0, 1}, {1, 2}])
        _, vmap = barycentric_subdivision(X)
        assert vmap == {(0,): 0, (1,): 1, (2,): 2, (0, 1): 3, (1, 2): 4}

    def test_betti_preserved_on_corpus(self, corpus_actions, fields):
        for action in corpus_actions.values():
            X = action.complex
            B, _ = barycentric_subdivision(X)
            for field in fields[:2]:
                assert betti_direct(B, field) == betti_direct(X, field)
