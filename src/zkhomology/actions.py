"""Z_k actions on simplicial complexes.

Group elements are exponents c in {0, ..., k-1} of the generating vertex
permutation alpha.  Subgroups of Z_k are stored by their order (a divisor
of k); their coset orderings belong to the upstairs model in `checks`.  An
action walks each simplex orbit once, when it is built; the permutation's
order, orbits, isotropy, the regularity verdict, the quotient's fibers and
the transfer cosets are all read off that walk.  Everything is read-only
after construction.
"""

from math import gcd, isqrt, lcm

from .errors import (
    InvalidActionError,
    RegularityError,
    UnknownSimplexError,
)
from .records import record
from .simplicial import Complex, barycentric_subdivision


class Subgroup(record("Subgroup", "k order")):
    """The unique subgroup of Z_k of the given order: <alpha^(k/order)>."""

    __slots__ = ()

    def __new__(cls, k, order):
        if order <= 0 or k % order != 0:
            raise ValueError(f"order {order} does not divide k={k}")
        return super().__new__(cls, k, order)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: validate there too
        return cls(*iterable)

    @property
    def index(self):
        return self.k // self.order

    def exponents(self):
        step = self.k // self.order
        return tuple(j * step for j in range(self.order))

    def __contains__(self, exponent):
        return exponent % (self.k // self.order) == 0


class CyclicAction:
    """A Z_k action on a complex, given by one generating vertex permutation.

    Each simplex orbit is walked once, following s -> alpha.s through
    `image`, the image of every simplex under alpha (which validate_action
    computes while checking that alpha is simplicial).  The walk records,
    per simplex s, its orbit in walk order and the exponent e with
    s = alpha^e . representative, the representative being the orbit's
    first simplex in complex order.  Group elements act by moving along the
    walk, and the isotropy of s has order k / |orbit|.
    """

    def __init__(self, complex_, perm, k, image):
        self.complex = complex_
        self.k = k
        self.perm = dict(perm)
        walks = {}
        for s in image:             # the complex's simplices, in order
            if s in walks:
                continue
            walk, t = [s], image[s]
            while t != s:
                walk.append(t)
                t = image[t]
            n = len(walk)
            walk = tuple(walk)
            walks.update(zip(walk, zip([walk] * n, range(n))))
        self._walk = walks

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

    def orbit_representatives(self, d):
        """One d-simplex per orbit, in complex order."""
        return tuple(s for s in self.complex.simplices(d) if self._walk[s][1] == 0)

    def isotropy(self, s):
        """The stabilizer subgroup of a simplex of the complex."""
        return Subgroup(self.k, self.k // len(self.locate(s)[0]))

    def simplex_orbit(self, s):
        return tuple(sorted(self.locate(s)[0]))

    def vertex_orbits(self):
        return tuple(tuple(sorted(w for (w,) in self._walk[u][0]))
                     for u in self.orbit_representatives(0))

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

    image = {s: tuple(sorted(map(perm.__getitem__, s))) for s in X.all_simplices()}
    if not all(map(image.__contains__, image.values())):
        s, t = next((s, t) for s, t in image.items() if t not in image)
        raise InvalidActionError(
            f"not simplicial: {s} maps to {t} which is not a simplex",
            witness=s,
        )
    action = CyclicAction(X, perm, k, image)
    # the order of perm is the lcm of its cycle lengths, read off the walk
    order = lcm(*map(len, action.vertex_orbits()))
    if k % order != 0:
        raise InvalidActionError(
            f"permutation order {order} does not divide k={k}"
        )
    return action


def trivial_action(X, k=1):
    """The identity permutation viewed as a Z_k action."""
    return validate_action(X, {v: v for v in X.vertex_ids}, k)


class RegularityWitness(record("RegularityWitness",
                               "subgroup simplex vertices exponents image")):
    """A failure of the regularity condition: applying `exponents` (members
    of the subgroup) to `vertices` (listed from `simplex`, repetition
    allowed) yields the simplex `image`, yet no single subgroup element
    agrees with the assignment on every vertex."""

    __slots__ = ()

    def describe(self):
        return (
            f"subgroup order {self.subgroup.order}: simplex {self.simplex}, "
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
    least) did: only the first subgroup of each image is scanned, at cost
    sum_{m|n} m * (#vertex orbits + #edge orbits).

    The witness is the one a scan of every vertex, then every edge, and
    every pair (h1, h2) in combinations/product order would meet first:
    a vertex or edge fails exactly when every member of its orbit fails,
    and the representative is its orbit's first member in complex order,
    so the first failing vertex or edge is a representative; and a
    failing pair (h1, h2) translated by -h1 is the failing pair
    (e, h2 - h1), so the first failing pair is (e, h) for the least
    failing h.
    """
    X, move, k = action.complex, action.apply_vertex, action.k
    vertices, edges = action.orbit_representatives(0), action.orbit_representatives(1)
    n = lcm(*(len(action.locate(v)[0]) for v in vertices))
    seen = {1}
    for order in _divisors(k):
        s = k // order
        m = n // gcd(s, n)
        if m in seen:
            continue
        seen.add(m)
        hs = range(0, m * s, s)
        for (u,) in vertices:
            for h in hs[1:]:
                image = tuple(sorted((u, move(h, u))))
                if image in X:
                    return RegularityWitness(Subgroup(k, order), (u,), (u, u), (0, h), image)
        for u, v in edges:
            reachable = {move(h, v) for h in hs if move(h, u) == u}
            for h in hs:
                w = move(h, v)
                if w not in reachable:
                    image = tuple(sorted((u, w)))
                    if image in X:
                        return RegularityWitness(Subgroup(k, order), (u, v), (u, v),
                                                 (0, h), image)
    return None


def induced_subdivision_action(action):
    """Transport the action to the barycentric subdivision via
    g . (barycenter of s) = barycenter of (g s)."""
    subdivided, vmap = barycentric_subdivision(action.complex)
    perm = {vmap[s]: vmap[action.apply_simplex(1, s)] for s in vmap}
    return validate_action(subdivided, perm, action.k)


def regularize(action):
    """Apply barycentric subdivision twice; the induced action is regular."""
    once = induced_subdivision_action(action)
    twice = induced_subdivision_action(once)
    return twice


class QuotientData:
    """Quotient complex of a regular action, with projection and fibers.

    Quotient vertex ids are orbit labels: orbits sorted by their least
    member, numbered from 0.  Only orbit representatives are projected;
    each fiber is the orbit of its representative.
    """

    def __init__(self, action):
        witness = check_regularity(action)
        if witness is not None:
            raise RegularityError(
                "quotient requires a regular action: " + witness.describe(),
                witness=witness,
            )
        self.action = action
        orbits = action.vertex_orbits()
        self.vertex_orbits = orbits
        self.label = {v: i for i, orbit in enumerate(orbits) for v in orbit}
        over = {}   # quotient simplex -> representatives projecting onto it
        for d in range(action.complex.dim + 1):
            for s in action.orbit_representatives(d):
                q = self.project_simplex(s)
                if len(q) != len(s):
                    raise RegularityError(
                        f"projection collapses {s}; action cannot be regular"
                    )
                over.setdefault(q, []).append(s)
        for q, reps in over.items():
            if len(reps) > 1:
                fiber = tuple(sorted(t for s in reps for t in action.simplex_orbit(s)))
                raise RegularityError(
                    f"fiber over {q} is not a single orbit: {fiber} vs "
                    f"{action.simplex_orbit(fiber[0])}"
                )
        self.quotient = Complex(over)
        self._fibers = {q: action.simplex_orbit(reps[0]) for q, reps in over.items()}

    def project_simplex(self, s):
        return tuple(sorted(map(self.label.__getitem__, s)))

    def fiber(self, q):
        q = tuple(q)
        if q not in self._fibers:
            raise UnknownSimplexError(f"{q} is not a simplex of the quotient")
        return self._fibers[q]


def quotient(action):
    """Quotient complex, projection and orbit tables of a regular action."""
    return QuotientData(action)


def lex_lift(qd):
    """The deterministic lift: lexicographically least simplex per fiber."""
    return {q: qd.fiber(q)[0] for q in qd.quotient.all_simplices()}


def lex_max_lift(qd):
    """The opposite deterministic choice, used by lift-independence tests."""
    return {q: qd.fiber(q)[-1] for q in qd.quotient.all_simplices()}
