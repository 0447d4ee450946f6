"""The isotropy transfer triple and its derived structures: the extended
transfer, the transfer matrix over F[Z_k], the coset map, and the
associated complex of groups with its axiom validation.

The triple (quotient, S, T*) is all the compressed pipeline consumes: S
sends each quotient simplex to the isotropy subgroup of its lift, and T*
sends each codimension-1 face pair (psi', omega') to the set of exponents
c with alpha^c . lift(omega') contained in lift(psi') -- always a left
coset of S(omega').  Triples can also be constructed standalone (parsed
from JSON) and validated without ever materializing the acted-on complex.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AxiomError,
    DimensionError,
    TripleValidationError,
    UnknownSimplexError,
)
from .actions import Subgroup, coset_position, lex_lift, quotient
from .groupring import GroupRingMatrix, sigma


def extended_transfer(action, lift, psi, omega):
    """All exponents c with alpha^c . lift(omega) a face of lift(psi).

    Empty exactly when omega is not a face of psi; otherwise a left coset
    of the isotropy subgroup of lift(omega).
    """
    psi, omega = tuple(psi), tuple(omega)
    if psi not in lift or omega not in lift:
        raise UnknownSimplexError(f"{psi} or {omega} is not a quotient simplex")
    if len(psi) != len(omega) + 1:
        raise DimensionError("extended transfer needs a codimension-1 pair")
    lp, lo = lift[psi], lift[omega]
    hits = frozenset(
        c for c in range(action.k)
        if set(action.apply_simplex(c, lo)) <= set(lp)
    )
    return hits


def extended_transfer_via_face(qd, lift, psi, omega):
    """Second, independent route: locate the unique face of lift(psi) over
    omega and collect the exponents carrying lift(omega) onto it."""
    psi, omega = tuple(psi), tuple(omega)
    if psi not in lift or omega not in lift:
        raise UnknownSimplexError(f"{psi} or {omega} is not a quotient simplex")
    if len(psi) != len(omega) + 1:
        raise DimensionError("extended transfer needs a codimension-1 pair")
    if not set(omega) <= set(psi):
        return frozenset()
    lp = lift[psi]
    matches = [
        f for f in combinations(lp, len(omega)) if qd.project_simplex(f) == omega
    ]
    if len(matches) != 1:
        raise TripleValidationError(
            f"face of {lp} over {omega} is not unique: {matches}",
            witness=(psi, omega),
        )
    target = matches[0]
    lo = lift[omega]
    return frozenset(
        c for c in range(qd.action.k) if qd.action.apply_simplex(c, lo) == target
    )


class IsotropyTriple:
    """The compressed data (quotient complex, S, T*) for one action+lift."""

    def __init__(self, k, quotient_complex, S, Tstar, validate=True):
        self.k = k
        self.quotient = quotient_complex
        self.S = dict(S)
        self.Tstar = {pair: frozenset(v) for pair, v in Tstar.items()}
        if validate:
            self.validate()

    def subgroup(self, q):
        q = tuple(q)
        if q not in self.S:
            raise UnknownSimplexError(f"{q} is not a quotient simplex")
        return self.S[q]

    def transfer_set(self, psi, omega):
        """T*(psi, omega); empty for non-face pairs of codimension 1."""
        psi, omega = tuple(psi), tuple(omega)
        if psi not in self.quotient or omega not in self.quotient:
            raise UnknownSimplexError(f"{psi} or {omega} is not a quotient simplex")
        if len(psi) != len(omega) + 1:
            raise DimensionError("transfer sets live on codimension-1 pairs")
        return self.Tstar.get((psi, omega), frozenset())

    def chain_dim(self, d):
        """dim C_d of the acted-on complex via orbit-stabilizer: each
        quotient simplex contributes k / |S|, with no access to X."""
        return sum(self.k // self.S[q].order for q in self.quotient.simplices(d))

    def validate(self):
        """Structural invariants of a triple (raises TripleValidationError)."""
        Y, k = self.quotient, self.k
        for q in Y.all_simplices():
            if q not in self.S:
                raise TripleValidationError(f"S undefined on {q}", witness=q)
            H = self.S[q]
            if not isinstance(H, Subgroup) or H.k != k or k % H.order != 0:
                raise TripleValidationError(f"S({q}) is not a subgroup of Z_{k}", witness=q)
        for d in range(1, Y.dim + 1):
            for psi in Y.simplices(d):
                for omega in Y.simplices(d - 1):
                    hits = self.Tstar.get((psi, omega))
                    if not set(omega) <= set(psi):
                        if hits:
                            raise TripleValidationError(
                                f"T*({psi},{omega}) nonempty for a non-face pair",
                                witness=(psi, omega),
                            )
                        continue
                    if not hits:
                        raise TripleValidationError(
                            f"T*({psi},{omega}) missing or empty for a face pair",
                            witness=(psi, omega),
                        )
                    H = self.S[omega]
                    base = min(hits)
                    coset = frozenset((base + e) % k for e in H.exponents())
                    if hits != coset:
                        raise TripleValidationError(
                            f"T*({psi},{omega}) = {sorted(hits)} is not a left "
                            f"coset of S({omega}) (order {H.order})",
                            witness=(psi, omega),
                        )
                    # coface isotropy embeds into face isotropy
                    if self.S[omega].order % self.S[psi].order != 0:
                        raise TripleValidationError(
                            f"S({psi}) does not embed into S({omega})",
                            witness=(psi, omega),
                        )
        for (psi, omega) in self.Tstar:
            if psi not in Y or omega not in Y or len(psi) != len(omega) + 1:
                raise TripleValidationError(
                    f"T* keyed by a non codimension-1 pair ({psi},{omega})",
                    witness=(psi, omega),
                )

    def __eq__(self, other):
        return (
            isinstance(other, IsotropyTriple)
            and self.k == other.k
            and self.quotient == other.quotient
            and self.S == other.S
            and self.Tstar == other.Tstar
        )

    def __repr__(self):
        return f"IsotropyTriple(k={self.k}, quotient={self.quotient!r})"


def build_triple(action, lift=None, qd=None):
    """Assemble (quotient, S, T*) from a regular action and a lift."""
    if qd is None:
        qd = quotient(action)
    if lift is None:
        lift = lex_lift(qd)
    Y = qd.quotient
    S = {q: action.isotropy(lift[q]) for q in Y.all_simplices()}
    Tstar = {}
    for d in range(1, Y.dim + 1):
        for psi in Y.simplices(d):
            for omega in combinations(psi, d):
                Tstar[(psi, omega)] = extended_transfer(action, lift, psi, omega)
    return IsotropyTriple(action.k, Y, S, Tstar)


def transfer_matrix(triple, d, field, row_order=None, col_order=None):
    """The d-th transfer matrix over F[Z_k]: rows over the (d-1)-simplices,
    columns over the d-simplices, entry (a, b) = sigma(T*(psi_b, omega_a))."""
    Y = triple.quotient
    if not (1 <= d <= Y.dim):
        raise DimensionError(f"d={d} out of range 1..{Y.dim}")
    rows = tuple(row_order) if row_order is not None else Y.simplices(d - 1)
    cols = tuple(col_order) if col_order is not None else Y.simplices(d)
    k = triple.k
    data = [
        [sigma(triple.transfer_set(psi, omega), field, k) for psi in cols]
        for omega in rows
    ]
    return GroupRingMatrix(field, k, len(rows), len(cols), data)


def coset_map(triple, omega, exponent):
    """1-based index of alpha^exponent . S(omega) in the coset ordering."""
    return coset_position(triple.subgroup(omega), exponent)


@dataclass
class ComplexOfGroups:
    """The complex of groups associated to a triple, plus the constant
    morphism data; construction validates every axiom.

    For Z_k all face maps are (trivial) conjugations, so what is stored is
    the single-valued transfer choice on codimension-1 pairs, its extension
    along fixed face chains, and the 2-morphism elements of the
    codimension-2 squares.
    """

    triple: IsotropyTriple
    groups: dict
    transfer_choice: dict      # codim-1 pair -> exponent picked from T*
    transfer_ext: dict         # any nested pair (psi1, psi2) -> exponent
    two_morphisms: dict        # codim-2 square (psi1, psi2, psi3) -> exponent


def _nested_pairs(Y):
    for psi1 in Y.all_simplices():
        verts = psi1
        for r in range(1, len(verts) + 1):
            for psi2 in combinations(verts, r):
                yield psi1, psi2


def build_complex_of_groups(triple, transfer_choice=None):
    """Build and validate the associated complex of groups.

    `transfer_choice` may pick one exponent from each codimension-1 T*
    coset (default: the least exponent).  Longer face chains use the fixed
    descent that repeatedly drops the largest vertex not in the target.
    Raises AxiomError with the offending simplices on any violation.

    Face maps are the identity on exponents (Z_k is abelian) and the
    2-morphism of psi1 >= psi2 >= psi3 is g = e23 + e12 - e13 (e: the
    extended transfer), so the cocycle condition, the constant-morphism
    constraint and the triviality of degenerate 2-morphisms hold by
    definition.  The axiom left, g in S(psi3), is checked on the
    codimension-2 squares psi1 > psi1 - a > psi1 - {a, b} only: two
    descents from psi1 to psi3 differ by swaps of adjacent drops, each
    swap changes the sum by a square's g, and the group of that square's
    bottom face embeds into S(psi3) by the nested-pair check.
    """
    Y, k = triple.quotient, triple.k
    choice = {}
    for (psi, omega), hits in triple.Tstar.items():
        if not hits:
            continue
        picked = transfer_choice(psi, omega, hits) if transfer_choice else min(hits)
        if picked not in hits:
            raise TripleValidationError(
                f"transfer choice for ({psi},{omega}) not in T*", witness=(psi, omega)
            )
        choice[(psi, omega)] = picked

    ext = {}
    for psi1, psi2 in _nested_pairs(Y):
        t = 0
        current = psi1
        while current != psi2:
            drop = max(v for v in current if v not in psi2)
            nxt = tuple(v for v in current if v != drop)
            t = (t + choice[(current, nxt)]) % k
            current = nxt
        ext[(psi1, psi2)] = t

    # f_{psi1 psi2} must inject the coface group into the face group.
    for (psi1, psi2) in ext:
        if triple.S[psi2].order % triple.S[psi1].order != 0:
            raise AxiomError(
                f"group of {psi1} does not embed into group of {psi2}",
                witness=(psi1, psi2),
            )

    two = {}
    for d in range(2, Y.dim + 1):
        for psi1 in Y.simplices(d):
            for psi2 in combinations(psi1, d):
                for psi3 in combinations(psi2, d - 1):
                    g = (ext[(psi2, psi3)] + ext[(psi1, psi2)] - ext[(psi1, psi3)]) % k
                    two[(psi1, psi2, psi3)] = g
                    if g not in triple.S[psi3]:
                        raise AxiomError(
                            f"2-morphism of ({psi1},{psi2},{psi3}) has exponent "
                            f"{g} outside the group of {psi3}",
                            witness=(psi1, psi2, psi3),
                        )
    return ComplexOfGroups(
        triple=triple,
        groups={q: triple.S[q] for q in Y.all_simplices()},
        transfer_choice=choice,
        transfer_ext=ext,
        two_morphisms=two,
    )
