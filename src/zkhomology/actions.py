"""Z_k actions on simplicial complexes.

Group elements are exponents c in {0, ..., k-1} of the generating vertex
permutation alpha.  A subgroup of Z_k is fixed by its order alone, a
divisor n of k, and is stored as that int: its members are the multiples
of k / n.  Its coset orderings belong to the upstairs model in `checks`.
`validate_action` walks each simplex orbit once, in the pass that checks
alpha is simplicial; the permutation's order, orbits, isotropy orders, the
regularity scan, the quotient, its lifts and the transfer cosets are all
read off that walk.  Everything is read-only after construction.
"""

from collections import Counter, namedtuple
from math import gcd, isqrt, lcm

from .errors import (
    InvalidActionError,
    RegularityError,
    UnknownSimplexError,
)
from .simplicial import Complex, barycentric_subdivision


class CyclicAction:
    """A Z_k action on a complex, given by one generating vertex permutation.

    Built by `validate_action`, which walks each simplex orbit once,
    following s -> alpha.s.  `orbits(d)` gives the walks of the d-simplex
    orbits, each from its representative (the orbit's first simplex in
    complex order), representatives in complex order; `label` numbers the
    vertex orbits in that order.  Each simplex s is located on its walk by
    the e with s = alpha^e . representative.  Group elements act by moving
    along the walk, and the isotropy of s has order k / |orbit|.
    """

    def __init__(self, complex_, perm, k, orbits, walk):
        self.complex = complex_
        self.k = k
        self.perm = dict(perm)
        self._orbits = orbits
        self._walk = walk
        self.label = {v: i for i, orbit in enumerate(self.orbits(0)) for (v,) in orbit}

    def locate(self, s):
        """(the orbit of s in walk order, the e with s = alpha^e . the
        orbit's representative): the orbit's length is k / |isotropy|."""
        located = self._walk.get(tuple(s))
        if located is None:
            raise UnknownSimplexError(f"{tuple(s)} is not a simplex of the complex")
        return located

    def apply_vertex(self, exponent, v):
        walk, e = self._walk[(v,)]
        return walk[(e + exponent) % len(walk)][0]

    def apply_simplex(self, exponent, s):
        walk, e = self.locate(s)
        return walk[(e + exponent) % len(walk)]

    def orbits(self, d):
        """The d-simplex orbits in walk order, representatives in complex order."""
        return self._orbits[d] if 0 <= d < len(self._orbits) else ()

    def orbit_representatives(self, d):
        """One d-simplex per orbit, in complex order."""
        return tuple(walk[0] for walk in self.orbits(d))

    def isotropy_order(self, s):
        """The order of the stabilizer of a simplex of the complex."""
        return self.k // len(self.locate(s)[0])

    def simplex_orbit(self, s):
        return tuple(sorted(self.locate(s)[0]))

    def __repr__(self):
        return f"CyclicAction(k={self.k}, {self.complex!r})"


def validate_action(X, perm, k):
    """Check that perm generates a Z_k action on X and wrap it.

    Raises InvalidActionError (with a witness vertex or simplex) when perm
    is not a bijection of the vertices, is not simplicial, or, read off the
    orbit walk last, has order not dividing k.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidActionError(f"k must be a positive integer, got {k!r}")
    if hasattr(perm, "keys"):
        perm = {int(v): int(w) for v, w in perm.items()}
    else:
        perm = dict(enumerate(perm))
    vertices = set(X.vertex_ids)
    if set(perm) != vertices:
        missing = sorted(vertices - set(perm)) + sorted(set(perm) - vertices)
        raise InvalidActionError(
            f"permutation domain differs from the vertex set near {missing[:3]}",
            witness=tuple(missing[:3]),
        )
    if set(perm.values()) != vertices:
        stray = next((w for w in perm.values() if w not in vertices), None)
        if stray is not None:
            raise InvalidActionError(
                "permutation is not a bijection of the vertices "
                f"(image {stray} is not a vertex)",
                witness=stray,
            )
        seen = set()
        dup = next(w for w in perm.values() if w in seen or seen.add(w))
        raise InvalidActionError(
            f"permutation is not a bijection of the vertices (image {dup} repeats)",
            witness=dup,
        )

    image, simplices, walks, orbits = perm.__getitem__, X._index, {}, []
    for d in range(X.dim + 1):
        level = []
        for s in X.simplices(d):
            if s in walks:
                continue
            walk, t = [s], tuple(sorted(map(image, s)))
            while t != s:
                if t not in simplices:      # name the first failure in complex order
                    images = ((s, tuple(sorted(map(image, s)))) for s in X.all_simplices())
                    s, t = next((s, t) for s, t in images if t not in simplices)
                    raise InvalidActionError(
                        f"not simplicial: {s} maps to {t} which is not a simplex", witness=s)
                walk.append(t)
                t = tuple(sorted(map(image, t)))
            walk = tuple(walk)
            for e, t in enumerate(walk):
                walks[t] = walk, e
            level.append(walk)
        orbits.append(tuple(level))
    action = CyclicAction(X, perm, k, tuple(orbits), walks)
    # the order of perm is the lcm of its cycle lengths, read off the walk
    order = lcm(*map(len, action.orbits(0)))
    if k % order != 0:
        raise InvalidActionError(f"permutation order {order} does not divide k={k}")
    return action


def trivial_action(X, k=1):
    """The identity permutation viewed as a Z_k action."""
    return validate_action(X, {v: v for v in X.vertex_ids}, k)


class RegularityWitness(namedtuple("RegularityWitness",
                                   "order simplex vertices exponents image")):
    """A failure of the regularity condition: applying `exponents` (members
    of the subgroup of that order) to `vertices` (listed from `simplex`,
    repetition allowed) yields the simplex `image`, yet no single subgroup
    element agrees with the assignment on every vertex."""

    __slots__ = ()

    def describe(self):
        return (
            f"subgroup order {self.order}: simplex {self.simplex}, "
            f"vertices {self.vertices} moved by exponents {self.exponents} "
            f"give simplex {self.image}, but no single element matches"
        )


def _divisors(k):
    # increasing, by trial division up to sqrt(k)
    low = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return low + [k // d for d in reversed(low) if d * d != k]


def check_regularity(action):
    """Regularity check; None if regular, else the first witness.

    Regular means: for every subgroup H, simplex, and assignment of a
    nonempty subset of H to each vertex, if the moved vertex set is a
    simplex, some single h in H realizes the whole assignment.  For cyclic
    H this is decided on vertices and edges: (i) no h1 < h2 in H move a
    vertex onto the two ends of an edge; then each vertex has one target,
    and h v_i = h_i v_i is a system of congruences on h, solvable iff
    pairwise solvable (Ore, 1952), so (ii) on each edge (u, v), every
    (h1, h2) with {h1 u, h2 v} a simplex is realized by one h.

    Both tests move along orbits, because X is invariant and Z_k is
    abelian.  {h1 u, h2 u} is h1 applied to {u, h u} with h = h2 - h1, so
    (i) holds iff no h != e in H makes {u, h u} an edge, and g u passes
    iff u does.  Given (i), (h1, h2) on (u, v) is h1 applied to (e, delta)
    with delta = h2 - h1, realized iff delta v lies in Stab_H(u) v; the
    edge (g u, g v) has the same stabilizers, and its image edges are
    those of (u, v) moved by g.  So one vertex per vertex orbit and one
    edge per edge orbit are scanned, subgroups in increasing order.  H =
    <alpha^s> acts through its image in <alpha>, of order m = n / gcd(s, n)
    for the order n of alpha, so j < m covers every image of h = j s, and H
    passes if an earlier subgroup with the same image (the trivial one at
    least) did: only the first subgroup of each image is scanned, the one
    of largest s with gcd(s, n) = g for each divisor g < n of n, so no
    divisor of k is ever listed.  And a
    representative that cannot fail is skipped: {u, h u} is an edge only
    if u has a neighbour in its own orbit, and w = h v with {u, w} an edge
    is v itself, reached by h = e, unless u has a neighbour other than v in
    v's orbit.  The cost is a count over the edges plus sum_{m|n} m times
    the number of representatives flagged; the skipped ones never fail.

    The witness is the one a scan of every vertex, then every edge, and
    every pair (h1, h2) in combinations/product order would meet first:
    a vertex or edge fails exactly when every member of its orbit fails,
    and the representative is its orbit's first member in complex order,
    so the first failing vertex or edge is a representative; and a
    failing pair (h1, h2) translated by -h1 is the failing pair
    (e, h2 - h1), so the first failing pair is (e, h) for the least
    failing h.
    """
    X, move, k, label = action.complex, action.apply_vertex, action.k, action.label
    edges = X.simplices(1)
    # (vertex, vertex orbit) -> the vertex's neighbours in that orbit
    near = Counter([(u, label[v]) for u, v in edges] + [(v, label[u]) for u, v in edges])
    vertices = [u for (u,) in action.orbit_representatives(0) if (u, label[u]) in near]
    edges = [(u, v) for u, v in action.orbit_representatives(1) if near[u, label[v]] > 1]
    n = lcm(*map(len, action.orbits(0)))
    # per image order m = n / g > 1, the first subgroup <alpha^s> with that
    # image: s = g t for the largest t | k/g coprime to n/g
    scans = []
    for g in _divisors(n)[:-1]:
        t = k // g
        while (c := gcd(t, n // g)) > 1:
            t //= c
        scans.append((k // (g * t), g * t, n // g))
    for order, s, m in sorted(scans):
        hs = range(0, m * s, s)
        for u in vertices:
            for h in hs[1:]:
                image = tuple(sorted((u, move(h, u))))
                if image in X:
                    return RegularityWitness(order, (u,), (u, u), (0, h), image)
        for u, v in edges:
            reachable = {move(h, v) for h in hs if move(h, u) == u}
            for h in hs:
                w = move(h, v)
                if w not in reachable:
                    image = tuple(sorted((u, w)))
                    if image in X:
                        return RegularityWitness(order, (u, v), (u, v), (0, h), image)
    return None


def induced_subdivision_action(action):
    """Transport the action to the barycentric subdivision via
    g . (barycenter of s) = barycenter of (g s)."""
    subdivided, vmap = barycentric_subdivision(action.complex)
    perm = {vmap[s]: vmap[action.apply_simplex(1, s)] for s in vmap}
    return validate_action(subdivided, perm, action.k)


def regularize(action):
    """Apply barycentric subdivision twice; the induced action is regular."""
    return induced_subdivision_action(induced_subdivision_action(action))


class QuotientData:
    """Quotient complex of a regular action, with projection and fibers.

    Quotient vertex ids are the action's orbit labels: orbits sorted by
    their least member, numbered from 0.  Only orbit representatives are
    projected; `walks[q]` is the orbit walk over q, from its
    representative, and the fiber over q is that walk sorted.
    """

    def __init__(self, action):
        witness = check_regularity(action)
        if witness is not None:
            raise RegularityError(
                "quotient requires a regular action: " + witness.describe(),
                witness=witness,
            )
        self.action = action
        self.label = action.label
        over = {}   # quotient simplex -> the orbit walks projecting onto it
        for d in range(action.complex.dim + 1):
            for walk in action.orbits(d):
                q = self.project_simplex(walk[0])
                if len(q) != len(walk[0]):
                    raise RegularityError(f"projection collapses {walk[0]}; "
                                          "action cannot be regular")
                over.setdefault(q, []).append(walk)
        for q, walks in over.items():
            if len(walks) > 1:
                fiber = tuple(sorted(t for walk in walks for t in walk))
                raise RegularityError(f"fiber over {q} is not a single orbit: {fiber} vs "
                                      f"{action.simplex_orbit(fiber[0])}")
        self.quotient = Complex(over)
        self.walks = {q: walks[0] for q, walks in over.items()}

    def project_simplex(self, s):
        return tuple(sorted(map(self.label.__getitem__, s)))

    def fiber(self, q):
        q = tuple(q)
        if q not in self.walks:
            raise UnknownSimplexError(f"{q} is not a simplex of the quotient")
        return tuple(sorted(self.walks[q]))


def quotient(action):
    """Quotient complex, projection and orbit tables of a regular action."""
    return QuotientData(action)


def lex_lift(qd):
    """The deterministic lift: per fiber its least simplex, where its walk starts."""
    return {q: qd.walks[q][0] for q in qd.quotient.all_simplices()}


def lex_max_lift(qd):
    """The opposite choice, per fiber its greatest simplex; for lift-independence tests."""
    return {q: max(qd.walks[q]) for q in qd.quotient.all_simplices()}
