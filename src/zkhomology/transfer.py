"""The isotropy transfer triple and the check of the complex-of-groups axioms.

The triple (quotient, S, T*) is all the compressed pipeline consumes: S
sends each quotient simplex to the order of the isotropy subgroup of its
lift, an int n dividing k (the subgroup is the multiples of k / n), and T*
sends each codimension-1 face pair (psi', omega') to the set of exponents
c with alpha^c . lift(omega') contained in lift(psi') -- always a left
coset of S(omega').  A triple only stores its data; `validate` checks it
where a triple enters the program (a triple file, or `verify`), without
ever materializing the acted-on complex.
"""

from itertools import combinations

from .errors import AxiomError, TripleValidationError
from .actions import lex_lift, quotient


class IsotropyTriple:
    """The compressed data (quotient complex, S, T*) for one action+lift."""

    def __init__(self, k, quotient_complex, S, Tstar):
        self.k = k
        self.quotient = quotient_complex
        self.S = dict(S)
        self.Tstar = dict(zip(Tstar, map(frozenset, Tstar.values())))

    def chain_dim(self, d):
        """dim C_d of the acted-on complex via orbit-stabilizer: each
        quotient simplex contributes k / |S|, with no access to X."""
        return sum(self.k // self.S[q] for q in self.quotient.simplices(d))

    def validate(self):
        """Structural invariants of a triple (raises TripleValidationError).

        S must give each quotient simplex an order dividing k.  The face pairs
        are walked in (d, psi, omega) order: T*(psi, omega) must be a left
        coset of S(omega), and S(psi) must embed into S(omega).  A walk with
        no fault over T* with one key per face pair is done; otherwise the
        keys are scanned, and the first of the fault and the strays (T*
        nonempty on a codimension-1 non-face pair) is raised, else a key that
        is no codimension-1 pair.
        """
        Y, k, S, Tstar = self.quotient, self.k, self.S, self.Tstar
        step = {}           # q -> k / |S(q)|, the step between exponents of S(q)
        for q in Y.all_simplices():
            if q not in S:
                raise TripleValidationError(f"S undefined on {q}", witness=q)
            n = S[q]
            if type(n) is not int or n < 1 or k % n != 0:
                raise TripleValidationError(f"S({q}) is not a subgroup of Z_{k}", witness=q)
            step[q] = k // n
        for d in range(1, Y.dim + 1):
            for psi in Y.simplices(d):
                psi_step = step[psi]
                for omega in combinations(psi, d):
                    pair = (psi, omega)
                    hits = Tstar.get(pair)
                    if not hits:
                        raise _scan_keys(Y, Tstar, TripleValidationError(
                            f"T*({psi},{omega}) missing or empty for a face pair", witness=pair))
                    # a coset of S(omega): |S(omega)| exponents in [0, k),
                    # each a multiple of omega's step from the least
                    omega_step, base = step[omega], min(hits)
                    if len(hits) * omega_step != k or not all(
                            0 <= c < k and (c - base) % omega_step == 0 for c in hits):
                        raise _scan_keys(Y, Tstar, TripleValidationError(
                            f"T*({psi},{omega}) = {sorted(hits)} is not a left "
                            f"coset of S({omega}) (order {S[omega]})", witness=pair))
                    # S(psi) embeds into S(omega): omega's step divides psi's
                    if psi_step % omega_step != 0:
                        raise _scan_keys(Y, Tstar, TripleValidationError(
                            f"S({psi}) does not embed into S({omega})", witness=pair))
        faces = sum((d + 1) * Y.n_simplices(d) for d in range(1, Y.dim + 1))
        if len(Tstar) != faces and (error := _scan_keys(Y, Tstar)):
            raise error

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


def _scan_keys(Y, Tstar, fault=None):
    """The error `validate` raises, given the walk's first fault, if any: the
    first of the fault (at its witness, a face pair) and the strays of T* in
    (d, psi, omega) order, else the first key that is no codimension-1 pair
    of quotient simplices; None if there is none."""
    # Membership reads the quotient's index, copying only a key that is no
    # tuple, as `in Y` would: every key of a parsed triple is a tuple.
    strays, late, index = [], None, Y._index
    for key, hits in Tstar.items():
        try:
            psi, omega = key
            codim1 = ((psi if type(psi) is tuple else tuple(psi)) in index
                      and (omega if type(omega) is tuple else tuple(omega)) in index
                      and len(psi) == len(omega) + 1)
        except (TypeError, ValueError) as exc:    # not a pair of simplices
            late = late or exc
            continue
        if not codim1:
            late = late or TripleValidationError(
                f"T* keyed by a non codimension-1 pair ({psi},{omega})", witness=(psi, omega))
        elif hits and isinstance(omega, tuple) and psi in index and not set(psi).issuperset(omega):
            strays.append((psi, omega))

    def order(key):
        return len(key[0]), index[key[0]], index[key[1]]

    stray = min(strays, key=order, default=None)
    if stray and not (fault and order(fault.witness) < order(stray)):
        return TripleValidationError(
            f"T*({stray[0]},{stray[1]}) nonempty for a non-face pair", witness=stray)
    return fault or late


def build_triple(action, lift=None, qd=None):
    """Assemble (quotient, S, T*) from a regular action and a lift.

    T* is read off the action's orbit walk; `checks.extended_transfer` is
    the reference route it is checked against."""
    if qd is None:
        qd = quotient(action)
    if lift is None:
        lift = lex_lift(qd)
    Y, k, label, locate, walks = qd.quotient, action.k, qd.label, action.locate, qd.walks
    # the isotropy order is k / |orbit|; at[q] is the e with lift(q) = alpha^e . walks[q][0]
    S = {q: k // len(walks[q]) for q in Y.all_simplices()}
    at = {q: locate(lift[q])[1] for q in Y.all_simplices()}
    Tstar = {}
    for d in range(1, Y.dim + 1):
        for psi in Y.simplices(d):
            lp = lift[psi]
            labels = list(map(label.__getitem__, lp))
            for t in range(d, -1, -1):     # combinations(psi, d) order
                omega = psi[:t] + psi[t + 1:]
                # alpha^c lift(omega) lies in lift(psi) iff it is the one face f
                # of lift(psi) over omega: c = e_f - e_lift(omega) mod |orbit|.
                p = labels.index(psi[t])
                n = len(walks[omega])
                shift = (locate(lp[:p] + lp[p + 1:])[1] - at[omega]) % n
                Tstar[(psi, omega)] = frozenset(range(shift, k, n))
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
    bottom face embeds into S(psi3).  Of those squares only the ones where
    psi3 drops a vertex of psi2 at or after the position psi2 dropped from
    psi1 are read: otherwise mid is psi2 itself and g is 0.
    """
    Y, k, S = triple.quotient, triple.k, triple.S
    e = {pair: min(hits) for pair, hits in triple.Tstar.items() if hits}
    for d in range(2, Y.dim + 1):
        for psi1 in Y.simplices(d):
            # psi2 drops position a of psi1, psi3 position b of psi2 (combinations
            # order); mid = drops[j] drops the larger of the two, at position j.
            drops = [psi1[:j] + psi1[j + 1:] for j in range(d + 1)]
            e1 = [e[(psi1, mid)] for mid in drops]
            for a in range(d, -1, -1):
                psi2 = drops[a]
                for b in range(d - 1, a - 1, -1):      # b < a: g = 0
                    psi3 = psi2[:b] + psi2[b + 1:]
                    g = (e[(psi2, psi3)] + e1[a] - e1[b + 1] - e[(drops[b + 1], psi3)]) % k
                    if g % (k // S[psi3]) != 0:
                        raise AxiomError(f"2-morphism of ({psi1},{psi2},{psi3}) has exponent "
                                         f"{g} outside the group of {psi3}",
                                         witness=(psi1, psi2, psi3))
