"""Abstract simplicial complexes, boundary matrices, direct Betti numbers,
and barycentric subdivision.

A simplex is a tuple of strictly increasing non-negative vertex ids.  A
complex stores, per dimension, the lexicographically sorted list of its
simplices (the ordering of each chain-group basis) and is always downward
closed; every simplex is oriented by its increasing vertex tuple.
"""

from itertools import chain, combinations, groupby, pairwise, repeat
from operator import lt

from .errors import DimensionError, InvalidSimplexError, UnknownSimplexError
from .exact import FieldMatrix, field_rank


def as_simplex(vertices):
    """Canonicalize a vertex collection into a simplex tuple."""
    given = tuple(vertices)
    for v in given:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InvalidSimplexError(f"bad vertex identifier {v!r}")
    vs = tuple(sorted(set(given)))
    if not vs:
        raise InvalidSimplexError("a simplex needs at least one vertex")
    if len(vs) != len(given) and not isinstance(vertices, (set, frozenset)):
        raise InvalidSimplexError(f"repeated vertices in {given!r}")
    return vs


def faces(simplex):
    """Codimension-1 faces with their alternating-sum index: (t, face)."""
    return [(t, simplex[:t] + simplex[t + 1:]) for t in range(len(simplex))]


class Complex:
    """A finite abstract simplicial complex with canonical indexing."""

    __slots__ = ("_by_dim", "_index")

    def __init__(self, simplices):
        # Canonical input (non-negative ints, each simplex strictly increasing:
        # every file the program writes) is taken as it is, checked one column
        # pair at a time per length.  Other input goes through `as_simplex`,
        # which canonicalizes it or raises the first error in input order.
        # The closure runs from the top dimension down, each level adding its
        # facets to the level below: a listed face costs one set insertion.
        listed = list(map(tuple, simplices))
        given = {n: list(level) for n, level in groupby(sorted(listed, key=len), len)}
        vertices = list(chain.from_iterable(listed))
        canonical = (0 not in given and set(map(type, vertices)) <= {int}
                     and min(vertices, default=0) >= 0
                     and all(all(map(lt, a, b))     # each column below the next
                             for level in given.values() for a, b in pairwise(zip(*level))))
        if not canonical:
            canon = list(map(as_simplex, listed))
            given = {n: list(level) for n, level in groupby(sorted(canon, key=len), len)}
        by_dim = [()] * max(given, default=0)
        above = ()
        for n in range(len(by_dim), 0, -1):
            level = set(given.get(n, ()))
            level.update(chain.from_iterable(map(combinations, above, repeat(n))))
            by_dim[n - 1] = above = tuple(sorted(level))
        self._by_dim = by_dim = tuple(by_dim)
        self._index = {s: i for level in by_dim for i, s in enumerate(level)}

    @property
    def dim(self):
        """Top dimension; -1 for the empty complex."""
        return len(self._by_dim) - 1

    def simplices(self, d):
        if 0 <= d < len(self._by_dim):
            return self._by_dim[d]
        return ()

    def n_simplices(self, d):
        return len(self.simplices(d))

    @property
    def vertex_ids(self):
        return tuple(s[0] for s in self.simplices(0))

    def __contains__(self, simplex):
        return tuple(simplex) in self._index

    def index_of(self, simplex):
        s = tuple(simplex)
        if s not in self._index:
            raise UnknownSimplexError(f"{s} is not a simplex of this complex")
        return self._index[s]

    def all_simplices(self):
        for level in self._by_dim:
            yield from level

    def face_counts(self):
        return tuple(self.n_simplices(d) for d in range(self.dim + 1))

    def __eq__(self, other):
        return isinstance(other, Complex) and self._by_dim == other._by_dim

    def __hash__(self):
        return hash(self._by_dim)

    def __repr__(self):
        return f"Complex(dim={self.dim}, counts={self.face_counts()})"


def build_complex(generators):
    """Downward closure of the given vertex sets."""
    return Complex(generators)


def boundary_matrix(X, d, field):
    """Matrix of the d-th boundary map, the direct oracle's input.

    Rows run over the (d-1)-simplices and columns over the d-simplices, in
    lexicographic order.  Entry (i, j) is the coefficient (-1)^t of the i-th
    row simplex, the t-th face of the j-th column simplex, in its boundary.
    """
    if not (1 <= d <= X.dim):
        raise DimensionError(f"d={d} out of range 1..{X.dim}")
    rows, cols = X.simplices(d - 1), X.simplices(d)
    row_pos = {s: i for i, s in enumerate(rows)}
    z, one = field.zero(), field.one()
    data = [[z] * len(cols) for _ in range(len(rows))]
    for j, s in enumerate(cols):
        for t, f in faces(s):
            c = one if (t % 2 == 0) else field.neg(one)
            data[row_pos[f]][j] = c
    return FieldMatrix(field, len(rows), len(cols), data)


def betti_direct(X, field):
    """Betti numbers over the field, dimension by dimension.

    Uses beta_d = dim C_d - rank d_d - rank d_{d+1} with rank d_0 := 0 and
    rank above the top dimension := 0.  This is the brute-force oracle the
    compressed pipeline is checked against.
    """
    if X.dim < 0:
        return ()
    ranks = [0] * (X.dim + 2)
    for d in range(1, X.dim + 1):
        ranks[d] = field_rank(boundary_matrix(X, d, field))
    return tuple(
        X.n_simplices(d) - ranks[d] - ranks[d + 1] for d in range(X.dim + 1)
    )


def barycentric_subdivision(X):
    """Barycentric subdivision.

    Vertices of the result are the simplices of X, numbered in (dimension,
    lex) order; d-simplices are the chains s_0 < s_1 < ... < s_d under
    strict face inclusion.  Returns (subdivided complex, map from each old
    simplex to its barycenter vertex id).
    """
    vmap = {}
    for d in range(X.dim + 1):
        for s in X.simplices(d):
            vmap[s] = len(vmap)
    ending_at = {}
    for s in X.all_simplices():  # (dim, lex) order: faces come first
        chains = [(vmap[s],)]
        for r in range(1, len(s)):
            for fc in combinations(s, r):
                chains.extend(c + (vmap[s],) for c in ending_at[fc])
        ending_at[s] = chains
    all_chains = [c for chains in ending_at.values() for c in chains]
    return Complex(all_chains), vmap
