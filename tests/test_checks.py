"""The check protocol of `checks`: each check reports its first
counterexample, and an error a check raises is reported as that check's
counterexample, in its own outcome {"name", "ok", "detail"}."""

import pytest

from zkhomology import checks
from zkhomology.actions import quotient
from zkhomology.exact import GF
from zkhomology.transfer import build_triple

F3 = GF(3)

# outcome name -> (function of `checks` behind it, which of its calls is that check's)
ACTION_CHECKS = {
    "boundary-squared-zero": ("check_boundary_squared", 0),
    "quotient-boundary-squared-zero": ("check_boundary_squared", 1),
    "orbit-stabilizer": ("check_orbit_stabilizer", 0),
    "regular-pointwise-fixing": ("check_pointwise_fixing", 0),
    "orbit-not-another-face": ("check_orbit_not_another_face", 0),
    "unique-face-over-quotient": ("check_unique_face_over_quotient", 0),
    "transfer-coset-and-two-routes": ("check_transfer_cosets", 0),
    "complex-of-groups-axioms": ("check_complex_of_groups", 0),
    "index-reducing-range": ("check_index_reducing", 0),
    "expansion-equals-circulant-image": ("check_expansion_lemma", 0),
    "expansion-preserves-rank": ("check_rank_preservation", 0),
    "rank-reconstruction": ("check_rank_reconstruction", 0),
    "snf-divisibility-and-certificate": ("check_snf_invariants", 0),
    "lift-independence": ("check_lift_independence", 0),
    "ordering-independence": ("check_ordering_independence", 0),
    "compressed-matches-direct-oracle": ("check_oracle_equality", 0),
}
TRIPLE_CHECKS = {
    "triple-structure": ("check_triple_structure", 0),
    "quotient-boundary-squared-zero": ("check_boundary_squared", 0),
    "complex-of-groups-axioms": ("check_complex_of_groups", 0),
    "snf-divisibility-and-certificate": ("check_snf_invariants", 0),
    "ordering-independence": ("check_ordering_independence", 0),
    "compressed-betti-computable": ("_betti_computable", 0),
}


@pytest.fixture(scope="module")
def torus(corpus_actions):
    qd = quotient(corpus_actions["torus9x3_rot3"])
    return qd, build_triple(qd.action, qd=qd)


def _suite_and_input(suite, torus):
    qd, triple = torus
    if suite == "action":
        return checks.run_action_suite, qd, ACTION_CHECKS
    return checks.run_triple_suite, triple, TRIPLE_CHECKS


@pytest.mark.parametrize("suite, name", [
    *(("action", n) for n in ACTION_CHECKS), *(("triple", n) for n in TRIPLE_CHECKS)])
def test_a_raising_check_fails_alone(suite, name, torus, monkeypatch):
    run, arg, table = _suite_and_input(suite, torus)
    before = run(arg, F3)
    assert all(o["ok"] and o["detail"] == "" for o in before)
    fn_name, which = table[name]
    original, calls = getattr(checks, fn_name), []

    def boom(*args):
        calls.append(args)
        if len(calls) - 1 == which:
            raise ArithmeticError("boom")
        return original(*args)

    monkeypatch.setattr(checks, fn_name, boom)
    after = run(arg, F3)
    expected = [{"name": name, "ok": False, "detail": "boom"} if o["name"] == name else o
                for o in before]
    if name == "triple-structure":
        # past a failed structure check only the quotient's boundaries run
        expected = expected[:2]
    assert after == expected


@pytest.mark.parametrize("suite", ["action", "triple"])
def test_first_counterexample_survives_a_later_error(suite, torus, monkeypatch):
    # ordering independence finds a mismatch on the first reordering; the
    # second reordering raises, and the mismatch is what the line reports
    run, arg, _ = _suite_and_input(suite, torus)
    trials = []

    def reordered(triple, field, rng):
        trials.append(rng)
        if len(trials) == 1:
            return (9, 9, 9)
        raise ArithmeticError("later self-check failure")

    monkeypatch.setattr(checks, "_shuffled_betti", reordered)
    outcomes = {o["name"]: o for o in run(arg, F3)}
    assert outcomes["ordering-independence"] == {
        "name": "ordering-independence", "ok": False,
        "detail": "Fp:3: reordered quotient gives (9, 9, 9), expected (1, 2, 1)"}
    assert len(trials) == 1
    assert [o["name"] for o in outcomes.values() if not o["ok"]] == ["ordering-independence"]
