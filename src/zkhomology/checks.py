"""Invariant suites for actions and triples.

Each check returns a CheckOutcome; a suite is a list of them, every line
carrying a first counterexample when it fails.  The CLI's verify command
prints one line per outcome, and the test suite reuses the same functions.
"""

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .exact import field_rank
from .simplicial import boundary_matrix
from .actions import compatible_ordering, index_reducing, lex_lift, lex_max_lift
from .transfer import (
    build_complex_of_groups,
    build_triple,
    extended_transfer,
    extended_transfer_via_face,
)
from .pipeline import (
    compatible_boundary,
    compressed_betti,
    compressed_rank,
    compressed_snf,
    isotropy_expansion,
    verify_expansion_lemma,
)
from .errors import ZkHomologyError
from .simplicial import betti_direct


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        tail = f": {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name}{tail}"


def _outcome(name, failures):
    if failures:
        return CheckOutcome(name, False, failures[0])
    return CheckOutcome(name, True)


def check_boundary_squared(X, fields):
    failures = []
    for field in fields:
        for d in range(2, X.dim + 1):
            prod = boundary_matrix(X, d - 1, field) * boundary_matrix(X, d, field)
            if not prod.is_zero():
                failures.append(f"d{d-1} o d{d} != 0 over {field.name}")
    return _outcome("boundary-squared-zero", failures)


def check_orbit_stabilizer(action):
    failures = []
    for s in action.complex.all_simplices():
        orbit = action.simplex_orbit(s)
        if len(orbit) * action.isotropy(s).order != action.k:
            failures.append(
                f"simplex {s}: |orbit|={len(orbit)}, "
                f"|stabilizer|={action.isotropy(s).order}, k={action.k}"
            )
            break
    return _outcome("orbit-stabilizer", failures)


def check_pointwise_fixing(action):
    """Regular actions fix psi ∩ g.psi vertex-wise, for every g."""
    failures = []
    for s in action.complex.all_simplices():
        for c in range(action.k):
            moved = set(action.apply_simplex(c, s))
            for v in set(s) & moved:
                if action.apply_vertex(c, v) != v:
                    failures.append(f"alpha^{c} moves {v} inside {s} ∩ image")
    return _outcome("regular-pointwise-fixing", failures)


def check_orbit_not_another_face(action):
    failures = []
    X = action.complex
    for s in X.all_simplices():
        for r in range(1, len(s)):
            for w in combinations(s, r):
                for c in range(1, action.k):
                    moved = action.apply_simplex(c, w)
                    if set(moved) <= set(s) and moved != w:
                        failures.append(
                            f"alpha^{c} sends face {w} of {s} to another face {moved}"
                        )
    return _outcome("orbit-not-another-face", failures)


def check_unique_face_over_quotient(qd):
    failures = []
    for s in qd.action.complex.all_simplices():
        sq = qd.project_simplex(s)
        for r in range(1, len(sq) + 1):
            for wq in combinations(sq, r):
                matches = [
                    w for w in combinations(s, r) if qd.project_simplex(w) == wq
                ]
                if len(matches) != 1:
                    failures.append(
                        f"{len(matches)} faces of {s} project onto {wq}"
                    )
    return _outcome("unique-face-over-quotient", failures)


def check_transfer_cosets(action, qd, lift, triple):
    failures = []
    k = action.k
    for (psi, omega), hits in sorted(triple.Tstar.items()):
        H = triple.S[omega]
        if len(hits) != H.order:
            failures.append(f"|T*({psi},{omega})| = {len(hits)} != |S| = {H.order}")
            continue
        base = min(hits)
        coset = {(base + e) % k for e in H.exponents()}
        if hits != coset:
            failures.append(f"T*({psi},{omega}) is not a coset of S({omega})")
        via_face = extended_transfer_via_face(qd, lift, psi, omega)
        direct = extended_transfer(action, lift, psi, omega)
        if via_face != direct or direct != hits:
            failures.append(
                f"the two transfer routes disagree on ({psi},{omega}): "
                f"{sorted(direct)} vs {sorted(via_face)}"
            )
    return _outcome("transfer-coset-and-two-routes", failures)


def check_complex_of_groups(triple):
    try:
        build_complex_of_groups(triple)
    except ZkHomologyError as exc:
        return CheckOutcome("complex-of-groups-axioms", False, str(exc))
    return CheckOutcome("complex-of-groups-axioms", True)


def check_index_reducing(qd, lift):
    failures = []
    k = qd.action.k
    for d in range(qd.quotient.dim + 1):
        lp = compatible_ordering(qd, lift, d)
        J = index_reducing(lp, k)
        for b, block in enumerate(lp.blocks):
            slab = J[b * k:(b + 1) * k]
            if set(slab) != set(block):
                failures.append(
                    f"d={d}: image of slab {b + 1} is {sorted(set(slab))}, "
                    f"expected block {list(block)}"
                )
        if set(J) != set(range(1, len(lp.ordering) + 1)):
            failures.append(f"d={d}: index-reducing map is not surjective")
    return _outcome("index-reducing-range", failures)


def check_expansion_lemma(action, qd, lift, fields):
    failures = []
    for field in fields:
        for d in range(1, action.complex.dim + 1):
            ok, report = verify_expansion_lemma(action, lift, d, field, qd=qd)
            if not ok:
                failures.append(f"{field.name}: {report}")
    return _outcome("expansion-equals-circulant-image", failures)


def check_rank_preservation(action, qd, lift, fields):
    failures = []
    for field in fields:
        for d in range(1, action.complex.dim + 1):
            rb = field_rank(compatible_boundary(action, lift, d, field, qd=qd))
            re = field_rank(isotropy_expansion(action, lift, d, field, qd=qd))
            if rb != re:
                failures.append(
                    f"{field.name} d={d}: boundary rank {rb} vs expansion rank {re}"
                )
    return _outcome("expansion-preserves-rank", failures)


def check_rank_reconstruction(action, qd, lift, triple, fields):
    """The main rank identity, for every generator of Z_k."""
    failures = []
    generators = [t for t in range(1, triple.k + 1) if gcd(t, triple.k) == 1]
    for field in fields:
        for d in range(1, action.complex.dim + 1):
            upstairs = field_rank(compatible_boundary(action, lift, d, field, qd=qd))
            for t in generators:
                got = compressed_rank(triple, d, field, generator_exponent=t)
                if got != upstairs:
                    failures.append(
                        f"{field.name} d={d} generator alpha^{t}: "
                        f"compressed {got} vs boundary {upstairs}"
                    )
    return _outcome("rank-reconstruction", failures)


def check_snf_invariants(triple, fields):
    failures = []
    for field in fields:
        for d in range(1, triple.quotient.dim + 1):
            try:
                snf = compressed_snf(triple, d, field)  # certificate enforced inside
            except (ZkHomologyError, ArithmeticError) as exc:
                failures.append(f"{field.name} d={d}: {exc}")
                continue
            for a, b in zip(snf.lifts, snf.lifts[1:]):
                if not a.divides(b):
                    failures.append(f"{field.name} d={d}: chain broken")
    return _outcome("snf-divisibility-and-certificate", failures)


def check_lift_independence(action, qd, fields):
    failures = []
    tri_min = build_triple(action, lift=lex_lift(qd), qd=qd)
    tri_max = build_triple(action, lift=lex_max_lift(qd), qd=qd)
    for field in fields:
        a = compressed_betti(tri_min, field)
        b = compressed_betti(tri_max, field)
        if a != b:
            failures.append(f"{field.name}: lex-min {a} vs lex-max {b}")
    return _outcome("lift-independence", failures)


def check_ordering_independence(triple, fields, trials=3, seed=20240601):
    rng = random.Random(seed)
    failures = []
    base = {f.name: compressed_betti(triple, f) for f in fields}
    Y = triple.quotient
    for _ in range(trials):
        orders = {}
        for d in range(Y.dim + 1):
            perm = list(Y.simplices(d))
            rng.shuffle(perm)
            orders[d] = tuple(perm)
        for f in fields:
            got = compressed_betti(triple, f, orders=orders)
            if got != base[f.name]:
                failures.append(
                    f"{f.name}: reordered quotient gives {got}, expected {base[f.name]}"
                )
    return _outcome("ordering-independence", failures)


def check_oracle_equality(action, triple, fields):
    failures = []
    for field in fields:
        direct = betti_direct(action.complex, field)
        compressed = compressed_betti(triple, field)
        if direct != compressed:
            failures.append(
                f"{field.name}: direct {direct} vs compressed {compressed}"
            )
    return _outcome("compressed-matches-direct-oracle", failures)


def _guarded(name, thunk):
    try:
        return thunk()
    except (ZkHomologyError, ArithmeticError) as exc:
        return CheckOutcome(name, False, str(exc))


def run_action_suite(qd, fields):
    """Full invariant suite for the action of `qd`, a QuotientData: regular
    by construction, so the leading regularity outcome always passes."""
    action = qd.action
    lift = lex_lift(qd)
    triple = build_triple(action, lift=lift, qd=qd)
    items = [
        ("boundary-squared-zero", lambda: check_boundary_squared(action.complex, fields)),
        ("boundary-squared-zero", lambda: check_boundary_squared(qd.quotient, fields)),
        ("orbit-stabilizer", lambda: check_orbit_stabilizer(action)),
        ("regular-pointwise-fixing", lambda: check_pointwise_fixing(action)),
        ("orbit-not-another-face", lambda: check_orbit_not_another_face(action)),
        ("unique-face-over-quotient", lambda: check_unique_face_over_quotient(qd)),
        ("transfer-coset-and-two-routes", lambda: check_transfer_cosets(action, qd, lift, triple)),
        ("complex-of-groups-axioms", lambda: check_complex_of_groups(triple)),
        ("index-reducing-range", lambda: check_index_reducing(qd, lift)),
        ("expansion-equals-circulant-image", lambda: check_expansion_lemma(action, qd, lift, fields)),
        ("expansion-preserves-rank", lambda: check_rank_preservation(action, qd, lift, fields)),
        ("rank-reconstruction", lambda: check_rank_reconstruction(action, qd, lift, triple, fields)),
        ("snf-divisibility-and-certificate", lambda: check_snf_invariants(triple, fields)),
        ("lift-independence", lambda: check_lift_independence(action, qd, fields)),
        ("ordering-independence", lambda: check_ordering_independence(triple, fields)),
        ("compressed-matches-direct-oracle", lambda: check_oracle_equality(action, triple, fields)),
    ]
    outcomes = [CheckOutcome("regularity", True)]
    outcomes.extend(_guarded(name, thunk) for name, thunk in items)
    return outcomes


def check_triple_structure(triple):
    try:
        triple.validate()
    except ZkHomologyError as exc:
        return CheckOutcome("triple-structure", False, str(exc))
    return CheckOutcome("triple-structure", True)


def run_triple_suite(triple, fields):
    """Invariant suite for a standalone triple (no acted-on complex)."""
    outcomes = [
        check_triple_structure(triple),
        check_boundary_squared(triple.quotient, fields),
    ]
    if outcomes[0].ok:
        items = [
            ("complex-of-groups-axioms", lambda: check_complex_of_groups(triple)),
            ("snf-divisibility-and-certificate", lambda: check_snf_invariants(triple, fields)),
            ("ordering-independence", lambda: check_ordering_independence(triple, fields)),
        ]
        outcomes.extend(_guarded(name, thunk) for name, thunk in items)
        failures = []
        for field in fields:
            try:
                compressed_betti(triple, field)
            except (ZkHomologyError, ArithmeticError) as exc:
                failures.append(f"{field.name}: {exc}")
        outcomes.append(_outcome("compressed-betti-computable", failures))
    return outcomes
