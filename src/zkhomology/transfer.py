"""The isotropy transfer triple and what is derived from it: the extended
transfer and the check of the complex-of-groups axioms.

The triple (quotient, S, T*) is all the compressed pipeline consumes: S
sends each quotient simplex to the isotropy subgroup of its lift, and T*
sends each codimension-1 face pair (psi', omega') to the set of exponents
c with alpha^c . lift(omega') contained in lift(psi') -- always a left
coset of S(omega').  A triple only stores its data; `validate` checks it
where a triple enters the program (a triple file, or `verify`), without
ever materializing the acted-on complex.
"""

from itertools import combinations

from .errors import (
    AxiomError,
    DimensionError,
    TripleValidationError,
    UnknownSimplexError,
)
from .actions import Subgroup, lex_lift, quotient


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


class IsotropyTriple:
    """The compressed data (quotient complex, S, T*) for one action+lift."""

    def __init__(self, k, quotient_complex, S, Tstar):
        self.k = k
        self.quotient = quotient_complex
        self.S = dict(S)
        self.Tstar = {pair: frozenset(v) for pair, v in Tstar.items()}

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
        # Pairs (psi, omega) are visited in (d, psi, omega) order, omega
        # running over the faces of psi and the strays: the other
        # (d-1)-simplices keyed with psi by a nonempty T*, each an error.
        # Every pair left out passes; a key that is no pair of simplex
        # tuples is never looked up here.
        stray = {}
        for pair, hits in self.Tstar.items():
            try:
                psi, omega = pair
                if (hits and isinstance(omega, tuple) and len(psi) == len(omega) + 1
                        and not set(omega) <= set(psi) and psi in Y and omega in Y):
                    stray.setdefault(psi, []).append(omega)
            except (TypeError, ValueError):
                pass        # not a pair of simplices: the last loop reports it
        for d in range(1, Y.dim + 1):
            for psi in Y.simplices(d):
                strays = stray.get(psi, ())
                omegas = combinations(psi, d)
                if strays:
                    omegas = sorted([*omegas, *strays], key=Y.index_of)
                psi_order = self.S[psi].order
                for omega in omegas:
                    if omega in strays:
                        raise TripleValidationError(
                            f"T*({psi},{omega}) nonempty for a non-face pair",
                            witness=(psi, omega),
                        )
                    hits = self.Tstar.get((psi, omega))
                    if not hits:
                        raise TripleValidationError(
                            f"T*({psi},{omega}) missing or empty for a face pair",
                            witness=(psi, omega),
                        )
                    H = self.S[omega]
                    if hits != frozenset(range(min(hits) % H.index, k, H.index)):
                        raise TripleValidationError(
                            f"T*({psi},{omega}) = {sorted(hits)} is not a left "
                            f"coset of S({omega}) (order {H.order})",
                            witness=(psi, omega),
                        )
                    # coface isotropy embeds into face isotropy
                    if H.order % psi_order != 0:
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
    """Assemble (quotient, S, T*) from a regular action and a lift.

    T* is read off the action's orbit walk; `extended_transfer` is the
    reference route it is checked against."""
    if qd is None:
        qd = quotient(action)
    if lift is None:
        lift = lex_lift(qd)
    Y, k, label = qd.quotient, action.k, qd.label
    S = {q: action.isotropy(lift[q]) for q in Y.all_simplices()}
    Tstar = {}
    for d in range(1, Y.dim + 1):
        for psi in Y.simplices(d):
            lp = lift[psi]
            for t in range(d, -1, -1):     # combinations(psi, d) order
                omega = psi[:t] + psi[t + 1:]
                # alpha^c lift(omega) lies in lift(psi) iff it is the one face
                # f of lift(psi) over omega: c = e_f - e_lift(omega) mod |orbit|.
                face = tuple(v for v in lp if label[v] != psi[t])
                shift = action.orbit_exponent(face) - action.orbit_exponent(lift[omega])
                step = S[omega].index
                Tstar[(psi, omega)] = frozenset(range(shift % step, k, step))
    return IsotropyTriple(k, Y, S, Tstar)


def check_axioms(triple):
    """Check the complex-of-groups axioms of a validated triple.

    Raises AxiomError with the offending square on the first violation.
    The triple must have passed `IsotropyTriple.validate`, which already
    checks that each coface group embeds into its face groups.

    Face maps are the identity on exponents (Z_k is abelian), so with
    e = min T* on codimension-1 pairs, extended along the fixed descent
    through mid = psi1 less its largest vertex not in psi3, the 2-morphism
    of psi1 > psi2 > psi3 is
    g = e(psi2,psi3) + e(psi1,psi2) - e(psi1,mid) - e(mid,psi3).
    The cocycle condition, the constant-morphism constraint and the
    triviality of degenerate 2-morphisms hold by definition.  The axiom
    left, g in S(psi3), is checked on codimension-2 squares only: two
    descents from psi1 to psi3 differ by swaps of adjacent drops, each
    swap changes the sum by a square's g, and the group of that square's
    bottom face embeds into S(psi3).
    """
    Y, k, S = triple.quotient, triple.k, triple.S
    e = {pair: min(hits) for pair, hits in triple.Tstar.items() if hits}
    for d in range(2, Y.dim + 1):
        for psi1 in Y.simplices(d):
            for psi2 in combinations(psi1, d):
                for psi3 in combinations(psi2, d - 1):
                    drop = max(v for v in psi1 if v not in psi3)
                    mid = tuple(v for v in psi1 if v != drop)
                    g = (e[(psi2, psi3)] + e[(psi1, psi2)]
                         - e[(psi1, mid)] - e[(mid, psi3)]) % k
                    if g not in S[psi3]:
                        raise AxiomError(
                            f"2-morphism of ({psi1},{psi2},{psi3}) has exponent "
                            f"{g} outside the group of {psi3}",
                            witness=(psi1, psi2, psi3),
                        )
