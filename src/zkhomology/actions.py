"""Z_k actions on simplicial complexes.

Group elements are exponents c in {0, ..., k-1} of the generating vertex
permutation alpha, matching the fixed ordering (e, alpha, ..., alpha^(k-1)).
Subgroups of Z_k are stored by their order (a divisor of k).  All derived
tables (orbits, isotropy) are computed eagerly; everything is read-only
after construction.

Index conventions: lifted partitions and the index-reducing function keep
the 1-based positions used by their definitions (block I_a starts at n_a,
values of the reducing map land in {1, ..., |Sigma_d|}); callers subtract
one when addressing Python sequences.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from .errors import (
    InvalidActionError,
    RegularityError,
    UnknownSimplexError,
)
from .simplicial import Complex, barycentric_subdivision


@dataclass(frozen=True)
class Subgroup:
    """The unique subgroup of Z_k of the given order: <alpha^(k/order)>."""

    k: int
    order: int

    def __post_init__(self):
        if self.order <= 0 or self.k % self.order != 0:
            raise ValueError(f"order {self.order} does not divide k={self.k}")

    @property
    def index(self):
        return self.k // self.order

    def exponents(self):
        step = self.k // self.order
        return tuple(j * step for j in range(self.order))

    def __contains__(self, exponent):
        return exponent % (self.k // self.order) == 0


def coset_ordering(H):
    """Left cosets of H in Z_k in first-appearance order under
    (e, alpha, ..., alpha^(k-1)); the first coset is H itself.

    Each coset is the sorted tuple of its exponents.
    """
    step = H.index  # exponents of H are the multiples of step
    return tuple(
        tuple(sorted((g + j * step) % H.k for j in range(H.order)))
        for g in range(step)
    )


def coset_position(H, exponent):
    """1-based position of alpha^exponent's coset in coset_ordering(H)."""
    return (exponent % H.k) % H.index + 1


class CyclicAction:
    """A Z_k action on a complex, given by one generating vertex permutation."""

    def __init__(self, complex_, perm, k):
        self.complex = complex_
        self.k = k
        self.perm = dict(perm)
        # perm powers, exponent -> vertex map
        powers = [{v: v for v in self.perm}]
        for _ in range(1, k):
            prev = powers[-1]
            powers.append({v: self.perm[prev[v]] for v in self.perm})
        self._powers = powers
        self._isotropy = {}
        for s in complex_.all_simplices():
            fixing = sum(1 for c in range(k) if self.apply_simplex(c, s) == s)
            self._isotropy[s] = Subgroup(k, fixing)

    def apply_vertex(self, exponent, v):
        return self._powers[exponent % self.k][v]

    def apply_simplex(self, exponent, s):
        p = self._powers[exponent % self.k]
        return tuple(sorted(p[v] for v in s))

    def isotropy(self, s):
        """The stabilizer subgroup of a simplex of the complex."""
        s = tuple(s)
        if s not in self._isotropy:
            raise UnknownSimplexError(f"{s} is not a simplex of the complex")
        return self._isotropy[s]

    def simplex_orbit(self, s):
        return tuple(sorted({self.apply_simplex(c, s) for c in range(self.k)}))

    def vertex_orbits(self):
        seen = set()
        orbits = []
        for v in sorted(self.perm):
            if v in seen:
                continue
            orbit = tuple(sorted({self.apply_vertex(c, v) for c in range(self.k)}))
            seen.update(orbit)
            orbits.append(orbit)
        return tuple(orbits)

    def __repr__(self):
        return f"CyclicAction(k={self.k}, {self.complex!r})"


def validate_action(X, perm, k):
    """Check that perm generates a Z_k action on X and wrap it.

    Raises InvalidActionError (with a witness vertex or simplex) when perm
    is not a bijection of the vertices, is not simplicial, or has order not
    dividing k.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidActionError(f"k must be a positive integer, got {k!r}")
    if hasattr(perm, "keys"):
        perm = {int(v): int(w) for v, w in perm.items()}
    else:
        perm = {v: w for v, w in enumerate(perm)}
    vertices = set(X.vertex_ids)
    if set(perm) != vertices:
        missing = sorted(vertices - set(perm)) + sorted(set(perm) - vertices)
        raise InvalidActionError(
            f"permutation domain differs from the vertex set near {missing[:3]}",
            witness=tuple(missing[:3]),
        )
    if set(perm.values()) != vertices:
        seen = set()
        dup = next((w for w in perm.values() if w in seen or seen.add(w)), None)
        raise InvalidActionError(
            f"permutation is not a bijection of the vertices (image {dup} repeats)",
            witness=dup,
        )

    # order = lcm of cycle lengths; must divide k
    seen = set()
    order = 1
    for v in perm:
        if v in seen:
            continue
        length = 0
        w = v
        while True:
            w = perm[w]
            length += 1
            seen.add(w)
            if w == v:
                break
        order = order * length // gcd(order, length)
    if k % order != 0:
        raise InvalidActionError(
            f"permutation order {order} does not divide k={k}"
        )

    for s in X.all_simplices():
        image = tuple(sorted(perm[v] for v in s))
        if image not in X:
            raise InvalidActionError(
                f"not simplicial: {s} maps to {image} which is not a simplex",
                witness=s,
            )
    return CyclicAction(X, perm, k)


def trivial_action(X, k=1):
    """The identity permutation viewed as a Z_k action."""
    return validate_action(X, {v: v for v in X.vertex_ids}, k)


@dataclass(frozen=True)
class RegularityWitness:
    """A failure of the regularity condition: applying `exponents` (members
    of the subgroup) to `vertices` (listed from `simplex`, repetition
    allowed) yields the simplex `image`, yet no single subgroup element
    agrees with the assignment on every vertex."""

    subgroup: Subgroup
    simplex: tuple
    vertices: tuple
    exponents: tuple
    image: tuple

    def describe(self):
        return (
            f"subgroup order {self.subgroup.order}: simplex {self.simplex}, "
            f"vertices {self.vertices} moved by exponents {self.exponents} "
            f"give simplex {self.image}, but no single element matches"
        )


def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def check_regularity(action):
    """Regularity check; None if regular, else a witness.

    Regular means: for every subgroup H, simplex, and assignment of a
    nonempty subset of H to each vertex, if the moved vertex set is a
    simplex, some single h in H realizes the whole assignment.  For cyclic
    H this is decided on vertices and edges (cost sum_{d|k} d^2 |E|):
    (i) no h1 < h2 in H move a vertex onto the two ends of an edge; then
    each vertex has one target, and h v_i = h_i v_i is a system of
    congruences on h, solvable iff pairwise solvable (Ore, 1952), so
    (ii) on each edge (u, v), every (h1, h2) with {h1 u, h2 v} a simplex
    is realized by one h.  Subgroups in increasing order and simplices in
    complex order give the witness the exhaustive search would meet first.
    """
    X, k = action.complex, action.k
    move = action.apply_vertex
    for d_order in _divisors(k):
        if d_order == 1:
            continue  # h = e always realizes the trivial subgroup
        H = Subgroup(k, d_order)
        hs = H.exponents()
        for (u,) in X.simplices(0):
            for h1, h2 in combinations(hs, 2):
                image = tuple(sorted({move(h1, u), move(h2, u)}))
                if len(image) == 2 and image in X:
                    return RegularityWitness(H, (u,), (u, u), (h1, h2), image)
        for u, v in X.simplices(1):
            realized = {(move(h, u), move(h, v)) for h in hs}
            for h1, h2 in product(hs, repeat=2):
                moved = (move(h1, u), move(h2, v))
                image = tuple(sorted(set(moved)))
                if moved not in realized and image in X:
                    return RegularityWitness(H, (u, v), (u, v), (h1, h2), image)
    return None


def is_regular(action):
    """True iff the action is regular (quotient-safe)."""
    return check_regularity(action) is None


def induced_subdivision_action(action, subdivided=None, vmap=None):
    """Transport the action to the barycentric subdivision via
    g . (barycenter of s) = barycenter of (g s)."""
    if subdivided is None:
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
    member, numbered from 0.
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
        fibers = {}
        for s in action.complex.all_simplices():
            q = self.project_simplex(s)
            if len(q) != len(s):
                raise RegularityError(
                    f"projection collapses {s}; action cannot be regular"
                )
            fibers.setdefault(q, set()).add(s)
        self.quotient = Complex(fibers.keys())
        self._fibers = {q: tuple(sorted(ss)) for q, ss in fibers.items()}
        for q, fiber in self._fibers.items():
            orbit = action.simplex_orbit(fiber[0])
            if orbit != fiber:
                raise RegularityError(
                    f"fiber over {q} is not a single orbit: {fiber} vs {orbit}"
                )

    def project_simplex(self, s):
        return tuple(sorted(self.label[v] for v in s))

    def projection_table(self, d):
        """Quotient index of each d-simplex upstairs, in lex position order."""
        return tuple(
            self.quotient.index_of(self.project_simplex(s))
            for s in self.action.complex.simplices(d)
        )

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


@dataclass(frozen=True)
class LiftedPartition:
    """Compatible ordering of the d-simplices upstairs, block by block.

    `ordering` lists the d-simplices of the acted-on complex: fibers are
    concatenated in quotient order, and within the fiber over psi'_a the
    j-th simplex is (coset j of the isotropy of the lift) applied to the
    lift.  `starts[a]` is n_a and `blocks[a]` the 1-based index range I_a;
    the lift of psi'_a sits at position starts[a].
    """

    d: int
    quotient_order: tuple
    ordering: tuple
    starts: tuple
    blocks: tuple
    subgroup_orders: tuple


def compatible_ordering(qd, lift, d, quotient_order=None):
    """Order Sigma_d of the acted-on complex compatibly with the quotient
    ordering, the lift, and the group ordering (e, alpha, ...)."""
    if quotient_order is None:
        quotient_order = qd.quotient.simplices(d)
    else:
        quotient_order = tuple(tuple(s) for s in quotient_order)
        if sorted(quotient_order) != list(qd.quotient.simplices(d)):
            raise ValueError("quotient_order is not a permutation of the d-simplices")
    action = qd.action
    ordering = []
    starts = []
    blocks = []
    horders = []
    n_next = 1
    for q in quotient_order:
        ell = lift[q]
        H = action.isotropy(ell)
        block = [action.apply_simplex(cs[0], ell) for cs in coset_ordering(H)]
        if len(set(block)) != len(block) or set(block) != set(qd.fiber(q)):
            raise RegularityError(f"coset orbit of {ell} does not tile the fiber of {q}")
        starts.append(n_next)
        blocks.append(range(n_next, n_next + len(block)))
        horders.append(H.order)
        ordering.extend(block)
        n_next += len(block)
    return LiftedPartition(
        d=d,
        quotient_order=tuple(quotient_order),
        ordering=tuple(ordering),
        starts=tuple(starts),
        blocks=tuple(blocks),
        subgroup_orders=tuple(horders),
    )


def index_reducing(lp, k):
    """The isotropy index-reducing map as a tuple of 1-based values.

    Writing i = (b-1)k + c with c in {1..k}, position i maps to
    n_b - 1 + gamma where gamma is the position of alpha^(c-1)'s coset in
    the coset ordering of the b-th block's isotropy subgroup.  The image of
    each length-k slab L_b is exactly the block I_b.
    """
    values = []
    for b, h in enumerate(lp.subgroup_orders):
        H = Subgroup(k, h)
        q_b = lp.starts[b]
        for c in range(1, k + 1):
            gamma = coset_position(H, c - 1)
            values.append(q_b - 1 + gamma)
    return tuple(values)
