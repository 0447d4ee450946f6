import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zkhomology import actions, checks, cli, corpus, ring_snf, simplicial, transfer
from zkhomology.corpus import entry, names, to_input_dict
from zkhomology.exact import GF, QQ, FieldMatrix
from zkhomology.jsonio import (
    action_to_dict,
    dump_json,
    load_input,
    parse_input,
    triple_to_dict,
)
from zkhomology.actions import lex_lift, quotient, regularize
from zkhomology.checks import isotropy_expansion
from zkhomology.groupring import GroupRingMatrix, rho_extend
from zkhomology.pipeline import compressed_result, g_boundary_matrix
from zkhomology.transfer import build_triple


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    return _write(tmp_path, "path.json", to_input_dict(entry("path_flip")))

@pytest.fixture
def antipodal_file(tmp_path):
    return _write(tmp_path, "anti.json", to_input_dict(entry("cycle4_antipodal")))


@pytest.fixture
def triple_file(tmp_path, corpus_actions):
    tri = build_triple(corpus_actions["path_flip"])
    return _write(tmp_path, "triple.json", triple_to_dict(tri))


class TestCheck:
    def test_regular_exit_zero(self, path_file, capsys):
        assert cli.run(["check", path_file]) == 0
        out = capsys.readouterr().out
        assert "regular" in out

    def test_non_regular_exit_three_with_witness(self, antipodal_file, capsys):
        assert cli.run(["check", antipodal_file]) == 3
        out = capsys.readouterr().out
        assert "NON-REGULAR" in out and "(0, 1)" in out and "(0, 3)" in out

    def test_wrong_order_perm_exit_two(self, tmp_path, capsys):
        bad = {"k": 3, "simplices": [[0, 1, 2]], "generator": [1, 0, 2]}
        assert cli.run(["check", _write(tmp_path, "bad.json", bad)]) == 2

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.run(["check", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.run(["check", str(tmp_path / "nope.json")]) == 2

    def test_valid_triple(self, triple_file, capsys):
        assert cli.run(["check", triple_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_one_edge_triples_at_large_k(self, tmp_path, capsys):
        # each T* set is tested as a coset arithmetically, never against a
        # table of all k / |S| cosets: k = 10^12 checks at once
        k = 10**12
        body = {"k": k, "triple": {"quotient": [[0, 1]], "S": {"0": 1, "1": 1, "0,1": 1},
                                   "Tstar": {"0,1|0": [0], "0,1|1": [k - 1]}}}
        assert cli.run(["check", _write(tmp_path, "free.json", body)]) == 0
        assert capsys.readouterr().out == f"triple: valid (k={k}, quotient (2, 1))\n"
        body["triple"]["S"]["1"] = 2
        for hits, code in (([3, 3 + k // 2], 0), ([3, 4], 2), ([3], 2)):
            body["triple"]["Tstar"]["0,1|1"] = hits
            assert cli.run(["check", _write(tmp_path, "half.json", body)]) == code
            err = capsys.readouterr().err
            assert err == ("" if code == 0 else f"input error: T*((0, 1),(1,)) = {hits} "
                           "is not a left coset of S((1,)) (order 2)\n")

    @pytest.mark.parametrize("k, simplices, generator, code, tail", [
        # the identity: the permutation's order is 1, so no subgroup moves anything
        (10**18, [[0, 1]], [0, 1], 0, "regularity: regular\n"),
        # a 2-cycle: the first subgroup that moves a vertex is <alpha^s> for
        # the largest odd s | k, here 5^17, of order 2^18
        (2 * 10**17, [[0], [1]], [1, 0], 0, "regularity: regular\n"),
        (2 * 10**17, [[0, 1]], [1, 0], 3,
         "regularity: NON-REGULAR\nwitness: subgroup order 262144: simplex (0,), "
         "vertices (0, 0) moved by exponents (0, 762939453125) give simplex (0, 1), "
         "but no single element matches\n"),
    ])
    def test_regularity_at_large_k_lists_no_divisor_of_k(self, tmp_path, capsys, k,
                                                         simplices, generator, code, tail):
        # only divisors of the permutation's order give new images, so the
        # scan never lists the divisors of k, a trial division up to sqrt(k)
        body = {"k": k, "simplices": simplices, "generator": generator}
        started = time.perf_counter()
        assert cli.run(["check", _write(tmp_path, "big_k.json", body)]) == code
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().out.endswith(tail)


class TestBooleansRejected:
    """JSON true and false are not integers: every integer field rejects
    them (exit 2) rather than reading them as 1 and 0."""

    PATH_TRIPLE = {"quotient": [[0, 1]], "S": {"0": 1, "1": 2, "0,1": 1},
                   "Tstar": {"0,1|0": [0], "0,1|1": [0, 1]}}

    @pytest.mark.parametrize("body, message", [
        ({"k": True, "simplices": [[0, 1], [1, 2]], "generator": [0, 1, 2]},
         '"k" must be a positive integer'),
        ({"k": 2, "simplices": [[0, 1]], "generator": [False, True]},
         '"generator" must be a list of integers'),
        ({"k": 2, "triple": {**PATH_TRIPLE,
                             "S": {**PATH_TRIPLE["S"], "0,1": True}}},
         "S['0,1'] must be a positive integer"),
        ({"k": 2, "triple": {**PATH_TRIPLE,
                             "Tstar": {**PATH_TRIPLE["Tstar"], "0,1|1": [False, True]}}},
         "Tstar['0,1|1'] must be a list of exponents"),
    ], ids=["k", "generator", "S", "Tstar"])
    def test_boolean_exit_two(self, tmp_path, capsys, body, message):
        f = _write(tmp_path, "bool.json", body)
        mode = "both" if "triple" not in body else "compressed"
        assert cli.run(["homology", f, "--mode", mode, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["input error: " + message]


class TestNonIntegerQuotientVertex:
    """A quotient vertex that is not an integer is an input error (exit 2),
    not a traceback, under every command that reads a triple."""

    @pytest.mark.parametrize("command", ["check", "homology", "verify"])
    @pytest.mark.parametrize("vertex", ["a", None, [1], {}],
                             ids=["string", "null", "list", "object"])
    def test_exit_two(self, tmp_path, capsys, command, vertex):
        body = {"k": 2, "triple": {"quotient": [[0, vertex]], "S": {}, "Tstar": {}}}
        assert cli.run([command, _write(tmp_path, "vertex.json", body)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"input error: bad quotient simplex: bad vertex identifier {vertex!r}"]


class TestHomology:
    def test_path_compressed_table(self, path_file, capsys):
        assert cli.run(["homology", path_file, "--mode", "compressed"]) == 0
        out = capsys.readouterr().out
        assert "compressed betti: [1, 0]" in out
        assert "[1]" in out  # snf lift for d=1

    def test_path_both_match(self, path_file, capsys):
        assert cli.run(["homology", path_file, "--mode", "both"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out

    def test_json_schema(self, path_file, capsys):
        assert cli.run(["homology", path_file, "--mode", "compressed",
                        "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["field"] == "Q"
        assert data["betti"] == [1, 0]
        assert data["per_dim"][1] == {
            "d": 1, "dimC": 2, "rank": 2, "snf_lifts": ["1"]}

    COMPRESSED_KEYS = ["field", "k", "generator", "lift", "orderings", "betti", "per_dim"]

    @pytest.mark.parametrize("mode, keys, dim_keys", [
        ("direct", ["field", "mode", "betti", "per_dim"], ["d", "dimC", "rank"]),
        ("compressed", COMPRESSED_KEYS + ["mode"], ["d", "dimC", "rank", "snf_lifts"]),
        ("both", COMPRESSED_KEYS + ["mode", "direct_betti", "match"],
         ["d", "dimC", "rank", "snf_lifts"]),
    ])
    def test_json_key_order_on_an_action(self, path_file, capsys, mode, keys, dim_keys):
        assert cli.run(["homology", path_file, "--mode", mode, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == keys and data["mode"] == mode
        assert [list(r) for r in data["per_dim"]] == [dim_keys] * 2

    def test_json_key_order_on_a_triple(self, triple_file, capsys):
        assert cli.run(["homology", triple_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == self.COMPRESSED_KEYS
        assert data["lift"] == "(given triple)"
        assert [list(r) for r in data["per_dim"]] == [["d", "dimC", "rank", "snf_lifts"]] * 2

    def test_octagon_both_all_fields(self, tmp_path, capsys):
        f = _write(tmp_path, "oct.json", to_input_dict(entry("cycle8_rot4")))
        for field in ("Q", "Fp:2", "Fp:3", "Fp:5"):
            assert cli.run(["homology", f, "--mode", "both", "--field", field]) == 0
            assert "MATCH" in capsys.readouterr().out

    def test_non_regular_needs_flag(self, antipodal_file, capsys):
        assert cli.run(["homology", antipodal_file, "--mode", "compressed"]) == 3

    def test_regularize_flag(self, antipodal_file, capsys):
        assert cli.run(["homology", antipodal_file, "--mode", "both",
                        "--regularize"]) == 0
        out = capsys.readouterr().out
        assert "[1, 1]" in out and "MATCH" in out

    def test_direct_mode_ignores_regularity(self, antipodal_file, capsys):
        assert cli.run(["homology", antipodal_file, "--mode", "direct"]) == 0
        assert "direct betti: [1, 1]" in capsys.readouterr().out

    def test_bad_field_exit_two(self, path_file):
        assert cli.run(["homology", path_file, "--field", "Fp:6"]) == 2

    def test_large_prime_field(self, path_file, capsys):
        assert cli.run(["homology", path_file, "--field",
                        "Fp:2305843009213693951"]) == 0
        assert "compressed betti: [1, 0]" in capsys.readouterr().out

    def test_too_large_prime_exit_two(self, path_file, capsys):
        p = 2**89 - 1  # a Mersenne prime beyond the deterministic test's range
        assert cli.run(["homology", path_file, "--field", f"Fp:{p}"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_non_coprime_generator_exit_two(self, tmp_path):
        f = _write(tmp_path, "c9.json", to_input_dict(entry("cycle9_rot3")))
        assert cli.run(["homology", f, "--generator", "0"]) == 2

    def test_lift_flag(self, path_file, capsys):
        for lift in ("lex-min", "lex-max"):
            assert cli.run(["homology", path_file, "--mode", "compressed",
                            "--lift", lift]) == 0
            assert "betti: [1, 0]" in capsys.readouterr().out

    def test_triple_input_compressed_only(self, triple_file, capsys):
        assert cli.run(["homology", triple_file, "--mode", "compressed"]) == 0
        assert "betti: [1, 0]" in capsys.readouterr().out
        assert cli.run(["homology", triple_file, "--mode", "both"]) == 2
        assert cli.run(["homology", triple_file, "--mode", "direct"]) == 2

    def test_k8_torus_both_match(self, tmp_path, capsys):
        # 24x3 grid torus rotated by 3 rows, a free Z_8 action: the
        # regularity gate must stay polynomial in the subgroup order.
        body = {"k": 8,
                "simplices": [sorted(t) for t in corpus._grid_torus(24, 3)],
                "generator": list(corpus._torus_shift_perm(24, 3, 3))}
        f = _write(tmp_path, "torus24x3.json", body)
        assert cli.run(["homology", f, "--mode", "both", "--field", "Fp:2"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_a_sparse_rank_fault_leaves_homology_unchanged(self, path_file, monkeypatch,
                                                           capsys):
        # An expanded rank off by one fails verify's certificate, but homology
        # ranks nothing over F: its exit code and output stay as they are.
        # Its internal self-checks exit 4 (the broken chain below).
        argv = ["homology", path_file, "--field", "Q"]
        assert cli.run(argv) == 0
        before = capsys.readouterr()
        original = ring_snf.sparse_rank
        monkeypatch.setattr(ring_snf, "sparse_rank", lambda M: original(M) + 1)
        assert cli.run(argv) == 0
        assert capsys.readouterr() == before

    def test_broken_chain_after_the_unit_lifts_exit_four(self, tmp_path, monkeypatch,
                                                         capsys):
        # The trivial k=3 action has no unit pivot; its d=1 core gives the
        # lifts sigma, sigma, sigma, sigma, x^3-1, x^3-1 over Q.  A gcd that
        # returns x^3-1 first puts the chain out of order.
        f = _write(tmp_path, "circles.json", to_input_dict(entry("trivial_k3_two_circles")))
        calls = []
        original = ring_snf.poly_gcd

        def out_of_order(p, a, b):
            calls.append(a)
            return b if len(calls) == 1 else original(p, a, b)

        monkeypatch.setattr(ring_snf, "poly_gcd", out_of_order)
        assert cli.run(["homology", f, "--field", "Q"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == ["error: divisibility chain broken in lifted SNF"]


class TestAxiomGate:
    """Triples that pass validate() but break the complex-of-groups axioms
    are input errors for `check` and `homology`, and fail `verify`."""

    # Its G-boundary maps do not compose to zero: over Q the rank
    # reconstruction would yield a negative Betti number.
    NEGATIVE_BETTI = {"k": 2, "triple": {
        "quotient": [[0, 1, 2]],
        "S": {"0": 1, "1": 1, "2": 1, "0,1": 1, "0,2": 1, "1,2": 1, "0,1,2": 1},
        "Tstar": {"0,1|0": [0], "0,1|1": [0], "0,2|0": [0], "0,2|2": [0],
                  "1,2|1": [0], "1,2|2": [1], "0,1,2|0,1": [0],
                  "0,1,2|0,2": [0], "0,1,2|1,2": [0]}}}

    @pytest.fixture
    def shifted_torus_file(self, tmp_path, corpus_actions):
        # Two T* cosets shifted by 1: still cosets of their (trivial)
        # groups, so validate() passes, but d_G1 . d_G2 != 0.
        body = triple_to_dict(build_triple(corpus_actions["torus9x3_rot3"]))
        tstar = body["triple"]["Tstar"]
        for key in ("0,1|0", "0,1,3|0,1"):
            tstar[key] = [(c + 1) % body["k"] for c in tstar[key]]
        f = _write(tmp_path, "shifted.json", body)
        load_input(f)[1].validate()
        return f

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["homology", "--field", "Q"],
        ["homology", "--field", "Fp:2"],
    ])
    def test_shifted_cosets_exit_two(self, shifted_torus_file, capsys, argv):
        assert cli.run(argv[:1] + [shifted_torus_file] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: ")
        assert "outside the group of" in err[0]

    def test_composition_check_without_the_axiom_gate(self, shifted_torus_file):
        # compressed_result alone, past check_axioms: the shifted
        # cosets break d_G1 . d_G2 = 0, which the production path checks
        tri = load_input(shifted_torus_file)[1]
        for field in (QQ, GF(2), GF(3)):
            with pytest.raises(ArithmeticError, match=r"failed at d=2: "):
                compressed_result(tri, field)

    def test_shifted_cosets_fail_verify(self, shifted_torus_file, capsys):
        assert cli.run(["verify", shifted_torus_file]) == 4
        assert "FAIL complex-of-groups-axioms" in capsys.readouterr().out

    def test_negative_betti_triple_exit_two(self, tmp_path, capsys):
        f = _write(tmp_path, "bad_triple.json", self.NEGATIVE_BETTI)
        assert cli.run(["homology", f, "--field", "Q"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            "input error: 2-morphism of ((0, 1, 2),(1, 2),(2,)) has exponent 1 "
            "outside the group of (2,)"]
        assert cli.run(["verify", f]) == 4


class TestRegularityCheckedOnce:
    """The regularity check runs once per action object a command touches:
    quotient() is the only gate."""

    @pytest.fixture
    def calls(self, monkeypatch):
        original = actions.check_regularity
        seen = []

        def counting(action):
            seen.append(action)
            return original(action)

        # Replace the check wherever the package binds it.
        for name, module in list(sys.modules.items()):
            if name.startswith("zkhomology") and \
                    getattr(module, "check_regularity", None) is original:
                monkeypatch.setattr(module, "check_regularity", counting)
        return seen

    @pytest.mark.parametrize("argv", [
        ["homology", "--mode", "compressed"],
        ["verify"],
    ])
    def test_regular_input_one_check(self, path_file, calls, capsys, argv):
        assert cli.run(argv[:1] + [path_file] + argv[1:]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["homology", "--mode", "compressed", "--regularize"],
        ["verify", "--regularize"],
    ])
    def test_regularized_input_one_check_per_action(self, antipodal_file, calls,
                                                    capsys, argv):
        assert cli.run(argv[:1] + [antipodal_file] + argv[1:]) == 0
        assert len(calls) == 2
        assert calls[0] is not calls[1]


class TestProductionPath:
    """On a regular action, T* comes from the orbit walk: extended_transfer
    is the reference, reached only by verify."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"extended_transfer": 0}
        original = checks.extended_transfer

        def spy(*args, **kwargs):
            seen["extended_transfer"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(checks, "extended_transfer", spy)
        return seen

    def test_compressed_homology_skips_extended_transfer(self, path_file, calls, capsys):
        assert cli.run(["homology", path_file, "--mode", "compressed"]) == 0
        assert calls == {"extended_transfer": 0}

    def test_verify_compares_with_extended_transfer(self, path_file, calls, capsys):
        assert cli.run(["verify", path_file]) == 0
        assert calls["extended_transfer"] > 0

    @pytest.fixture
    def validations(self, monkeypatch):
        seen = []
        original = transfer.IsotropyTriple.validate

        def counting(triple):
            seen.append(triple)
            return original(triple)

        monkeypatch.setattr(transfer.IsotropyTriple, "validate", counting)
        return seen

    def test_compressed_homology_on_an_action_never_validates(self, path_file,
                                                                validations, capsys):
        # build_triple writes T* as cosets by construction
        assert cli.run(["homology", path_file, "--mode", "compressed"]) == 0
        assert len(validations) == 0

    def test_homology_on_a_triple_validates_once(self, triple_file, validations,
                                                 capsys):
        assert cli.run(["homology", triple_file]) == 0
        assert len(validations) == 1

    def test_verify_on_an_action_validates_the_built_triple(self, path_file,
                                                            validations, capsys):
        # the lex-min triple in complex-of-groups-axioms, the lex-max one in
        # lift-independence
        assert cli.run(["verify", path_file]) == 0
        assert len(validations) == 2

    def test_non_regular_check_prints_the_first_witness(self, antipodal_file, capsys):
        assert cli.run(["check", antipodal_file]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            "witness: subgroup order 2: simplex (0, 1), vertices (0, 1) moved by "
            "exponents (0, 1) give simplex (0, 3), but no single element matches")


def _one_json_document_or_empty(out):
    if out:
        return json.loads(out)      # raises on stray text around the document
    return None


class TestVerify:
    def test_doctored_isotropy_fails_orbit_stabilizer(self, path_file, monkeypatch,
                                                      capsys):
        # The path's middle vertex is fixed by the flip; report it as free.
        true_isotropy = actions.CyclicAction.isotropy_order

        def doctored(action, s):
            return 1 if tuple(s) == (1,) else true_isotropy(action, s)

        monkeypatch.setattr(actions.CyclicAction, "isotropy_order", doctored)
        assert cli.run(["verify", path_file]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL orbit-stabilizer: simplex (1,): |orbit|=1, |stabilizer|=2, " \
               "isotropy order 1, k=2" in lines

    def test_corpus_entry_passes(self, path_file, capsys):
        assert cli.run(["verify", path_file]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_k1_trivially_passes(self, tmp_path, capsys):
        f = _write(tmp_path, "triv.json", to_input_dict(entry("trivial_k1_octagon")))
        assert cli.run(["verify", f]) == 0

    def test_non_regular_without_flag(self, antipodal_file):
        assert cli.run(["verify", antipodal_file]) == 3

    def test_non_regular_without_flag_json_keeps_stdout_clean(self, antipodal_file,
                                                              capsys):
        assert cli.run(["verify", antipodal_file, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert _one_json_document_or_empty(captured.out) is None
        assert "non-regular action; witness: " in captured.err
        assert "re-run with --regularize" in captured.err

    @pytest.fixture
    def bad_order_triple_file(self, tmp_path, corpus_actions):
        body = triple_to_dict(build_triple(corpus_actions["path_flip"]))
        body["triple"]["S"]["0"] = 3       # k = 2
        return _write(tmp_path, "bad_order.json", body)

    def test_s_order_not_dividing_k_fails_triple_structure(self, bad_order_triple_file,
                                                            capsys):
        assert cli.run(["verify", bad_order_triple_file]) == 4
        assert capsys.readouterr().out == (
            "FAIL triple-structure: order 3 does not divide k=2\n"
            "VERIFICATION FAILED\n")

    def test_s_order_not_dividing_k_json(self, bad_order_triple_file, capsys):
        argv = ["verify", bad_order_triple_file, "--format", "json", "--field", "Fp:3"]
        assert cli.run(argv) == 4
        assert _one_json_document_or_empty(capsys.readouterr().out) == {
            "field": "Fp:3", "ok": False,
            "checks": [{"name": "triple-structure", "ok": False,
                        "detail": "order 3 does not divide k=2"}]}

    def test_non_regular_with_flag(self, antipodal_file, capsys):
        assert cli.run(["verify", antipodal_file, "--regularize"]) == 0

    def test_corrupted_triple_coset_failure(self, tmp_path, corpus_actions, capsys):
        tri = build_triple(corpus_actions["path_flip"])
        body = triple_to_dict(tri)
        body["triple"]["Tstar"]["0,1|1"] = [1]  # no longer a coset of S([1])
        f = _write(tmp_path, "tampered.json", body)
        assert cli.run(["verify", f]) == 4
        out = capsys.readouterr().out
        assert "FAIL triple-structure" in out and "coset" in out

    def test_verify_runs_the_upstairs_certificate(self, triple_file, path_file,
                                                 monkeypatch, capsys):
        # An expanded rank off by one fails the full certificate, which
        # verify runs itself rather than inside the production SNF.
        original = checks.sparse_rank
        monkeypatch.setattr(checks, "sparse_rank", lambda M: original(M) + 1)
        assert cli.run(["verify", triple_file]) == 4
        failed = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("FAIL")]
        assert failed == [
            "FAIL snf-divisibility-and-certificate: Q d=1: rank certificate "
            "failed: SNF predicts 2, expanded matrix has rank 3"]
        assert cli.run(["verify", path_file]) == 4
        assert "FAIL snf-divisibility-and-certificate: " in capsys.readouterr().out

    @staticmethod
    def _compressed_runs(tmp_path, corpus_actions, capsys):
        """`homology --mode compressed` on the 9x3 torus and on its triple,
        over Q, F2 and F3, with the stdout of each unpatched run."""
        torus = _write(tmp_path, "torus.json", to_input_dict(entry("torus9x3_rot3")))
        triple = _write(tmp_path, "torus_triple.json", triple_to_dict(
            build_triple(corpus_actions["torus9x3_rot3"])))
        runs = [["homology", f, "--mode", "compressed", "--field", field]
                for f in (torus, triple) for field in ("Q", "Fp:2", "Fp:3")]
        before = []
        for argv in runs:
            assert cli.run(argv) == 0
            before.append(capsys.readouterr().out)
        return runs, before

    def test_homology_never_expands_upstairs(self, tmp_path, corpus_actions,
                                             monkeypatch, capsys):
        # homology neither expands a matrix to rho nor ranks one over F: on
        # the 9x3 torus, on its triple, and on one edge fixed by all of
        # Z_K, whose core has full isotropy.  verify runs both.
        runs, before = self._compressed_runs(tmp_path, corpus_actions, capsys)
        edge = _write(tmp_path, "edge.json",
                      {"k": 10**4, "simplices": [[0, 1]], "generator": [0, 1]})
        for field in ("Q", "Fp:2", "Fp:3"):
            runs.append(["homology", edge, "--mode", "compressed", "--field", field])
            assert cli.run(runs[-1]) == 0
            before.append(capsys.readouterr().out)
        calls = []

        def spy(name, original):
            def called(M):
                calls.append(name)
                return original(M)
            return called

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "zkhomology":
                for name in ("rho_extend", "sparse_rank"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        for argv, want in zip(runs, before):
            assert cli.run(argv) == 0
            assert capsys.readouterr().out == want
        assert "compressed betti: [1, 2, 1]" in before[0]
        assert "compressed betti: [1, 0]" in before[-1]
        assert calls == []
        triple = runs[3][1]
        assert cli.run(["verify", triple]) == 0
        assert {"rho_extend", "sparse_rank"} <= set(calls)

    def test_compressed_route_builds_no_dense_matrix(self, tmp_path, corpus_actions,
                                                     monkeypatch, capsys):
        # no FieldMatrix is built and the dense field_rank is never called;
        # rho_extend, which verify's certificate ranks, writes sparse rows
        runs, before = self._compressed_runs(tmp_path, corpus_actions, capsys)
        act = corpus_actions["torus9x3_rot3"]
        qd = quotient(act)
        tri = build_triple(act, qd=qd)
        E = isotropy_expansion(qd, lex_lift(qd), 1, QQ)
        assert isinstance(E, GroupRingMatrix) and E.k == 1

        def refuse(*args):
            raise AssertionError("a dense matrix on the compressed route")

        monkeypatch.setattr(FieldMatrix, "__init__", refuse)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "zkhomology" and hasattr(module, "field_rank"):
                monkeypatch.setattr(module, "field_rank", refuse)
        for argv, want in zip(runs, before):
            assert cli.run(argv) == 0
            assert capsys.readouterr().out == want
        for field in (QQ, GF(2), GF(3)):
            M = g_boundary_matrix(tri, 2, field)
            R = rho_extend(M)
            assert isinstance(R, GroupRingMatrix)
            assert (R.k, R.rows, R.cols) == (1, M.rows * M.k, M.cols * M.k)

    def test_verify_builds_dense_matrices_only_for_the_oracle(self, tmp_path, monkeypatch,
                                                             capsys):
        # every check but compressed-matches-direct-oracle writes sparse
        # rows: a FieldMatrix is built only by simplicial.boundary_matrix,
        # called from betti_direct
        torus = _write(tmp_path, "torus.json", to_input_dict(entry("torus9x3_rot3")))
        original, callers = FieldMatrix.__init__, []

        def spy(self, *args):
            frame = sys._getframe(1)
            builder = frame.f_code.co_name
            while frame is not None and frame.f_code is not simplicial.betti_direct.__code__:
                frame = frame.f_back
            callers.append((builder, frame is not None))
            original(self, *args)

        monkeypatch.setattr(FieldMatrix, "__init__", spy)
        for field in ("Q", "Fp:3"):
            callers.clear()
            assert cli.run(["verify", torus, "--field", field]) == 0
            assert "all checks passed" in capsys.readouterr().out
            assert callers == [("boundary_matrix", True)] * 2

    def test_triple_verify_json(self, triple_file, capsys):
        assert cli.run(["verify", triple_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])

    def test_verify_json_key_order(self, triple_file, path_file, capsys):
        for f in (triple_file, path_file):
            assert cli.run(["verify", f, "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert list(data) == ["field", "ok", "checks"]
            assert {tuple(c) for c in data["checks"]} == {("name", "ok", "detail")}
            assert {c["detail"] for c in data["checks"]} == {""}


class TestCorpusCommand:
    def test_list(self, capsys):
        assert cli.run(["corpus", "--list"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out

    def test_write_and_use(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert cli.run(["corpus", "two_triangles_swap", "-o", str(target)]) == 0
        capsys.readouterr()
        assert cli.run(["homology", str(target), "--mode", "both"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert cli.run(["corpus", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unknown corpus entry 'nope'; know {', '.join(names())}\n"

    def test_regular_entries_subdivide_once(self, monkeypatch):
        calls = []

        def counted(action):
            calls.append(action)
            return regularize(action)

        monkeypatch.setattr(corpus, "regularize", counted)
        assert "cycle4_antipodal_subdivided" in [e.name for e in corpus.regular_entries()]
        assert len(calls) == 1

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "out.json"
        assert cli.run(["corpus", "path_flip", "-o", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:")


class TestRoundTrip:
    def test_action_files(self, tmp_path, corpus_actions):
        for name, action in corpus_actions.items():
            data = to_input_dict(entry(name))
            kind, parsed = parse_input(data)
            assert kind == "action"
            assert action_to_dict(parsed) == json.loads(dump_json(data))

    def test_triple_files(self, tmp_path, corpus_actions):
        for action in corpus_actions.values():
            tri = build_triple(action)
            body = triple_to_dict(tri)
            kind, parsed = parse_input(json.loads(dump_json(body)))
            assert kind == "triple"
            parsed.validate()
            assert triple_to_dict(parsed) == body

    def test_load_input_roundtrip_on_disk(self, tmp_path):
        for name in ("path_flip", "cycle9_rot3", "trivial_k2_triangle"):
            path = _write(tmp_path, f"{name}.json", to_input_dict(entry(name)))
            kind, action = load_input(path)
            path2 = _write(tmp_path, f"{name}2.json", action_to_dict(action))
            kind2, action2 = load_input(path2)
            assert action_to_dict(action2) == action_to_dict(action)


SRC = str(Path(cli.__file__).resolve().parents[1])


def _fresh_interpreter(argv, script=None):
    """Exit code, stdout and stderr of `python -m zkhomology argv` (or of
    `script`) in a new interpreter on this source tree, 80 columns wide."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    command = ["-c", script] if script else ["-m", "zkhomology", *argv]
    proc = subprocess.run([sys.executable, *command], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _floor_interpreter():
    """(executable, environment) of the oldest Python that pyproject.toml
    admits, set to run this source tree, or None when it is not installed."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"', text).group(1)
    exe = shutil.which(f"python{floor}")
    if exe is None:
        return None
    # PYENV_VERSION selects that version behind a pyenv shim; any other
    # interpreter ignores it
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80", "PYENV_VERSION": floor}
    probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                           capture_output=True, text=True, env=env, timeout=60)
    return (exe, env) if probe.stdout.strip() == floor else None


def test_declared_python_floor_answers_as_this_interpreter(tmp_path, corpus_actions,
                                                           capsys):
    # requires-python is checked, not only declared: the floor's
    # interpreter prints the same documents and exits with the same codes
    floor = _floor_interpreter()
    if floor is None:
        pytest.skip("the interpreter of the declared Python floor is not installed")
    exe, env = floor
    action = _write(tmp_path, "action.json", to_input_dict(entry("cycle8_rot4")))
    triple = _write(tmp_path, "triple.json",
                    triple_to_dict(build_triple(corpus_actions["cycle8_rot4"])))
    for f in (action, triple):
        for argv in (["homology", f, "--mode", "both", "--format", "json"],
                     ["homology", f, "--format", "json"],
                     ["verify", f, "--format", "json"]):
            proc = subprocess.run([exe, "-m", "zkhomology", *argv], capture_output=True,
                                  text=True, env=env, timeout=120)
            code = cli.run(argv)
            assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out), argv


class TestReentrantRun:
    """`run` builds its parser on first use and keeps it: consecutive calls
    in one process answer as runs in fresh interpreters do."""

    def test_consecutive_calls_match_fresh_interpreters(self, antipodal_file,
                                                        path_file, capsys):
        runs = [
            ["homology", antipodal_file, "--mode", "both", "--regularize"],
            ["homology", path_file],
            ["verify", path_file, "--format", "json"],
            ["verify", path_file],
            ["corpus", "--list"],
        ]
        fresh = [_fresh_interpreter(argv) for argv in runs]
        for _ in range(2):
            for argv, want in zip(runs, fresh):
                code = cli.run(argv)
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == want

    def test_bad_flag_exits_two_on_every_call(self, path_file, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.run(["homology", path_file, "--bogus"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
            assert cli.run(["homology", path_file]) == 0
            assert "compressed betti: [1, 0]" in capsys.readouterr().out
        assert errors[0] == errors[1]
        assert errors[0].endswith("error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv", [["--help"], ["homology", "--help"]])
    def test_help_text_unchanged(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.run(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert (0, texts[0], "") == _fresh_interpreter(argv)

    def test_import_builds_no_parser(self):
        # the parser is built by the first run, not at import (which the
        # start-up time of every command pays), and only once
        script = "\n".join([
            "import argparse, contextlib, io",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(1)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "from zkhomology import cli",
            "print(len(built))",
            "for _ in range(2):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        cli.run(['corpus', '--list'])",
            "    print(len(built))",
        ])
        code, out, err = _fresh_interpreter(None, script)
        assert (code, err) == (0, "")
        assert out.split() == ["0", "5", "5"]


class TestStartupImports:
    """`homology` and `check` run only the production path: the verify
    suite is bound but never executed, and the corpus and the dataclass
    machinery are not imported."""

    # True once module `name` has run: executing a module body adds
    # `__builtins__` to its namespace.  Reading the namespace through
    # `object.__getattribute__` does not trigger a lazily bound module.
    RAN = ("def ran(name):\n"
           "    m = sys.modules.get(name)\n"
           "    return m is not None and '__builtins__' in "
           "object.__getattribute__(m, '__dict__')")

    def test_homology_and_check_leave_suite_unrun(self, tmp_path, triple_file):
        torus = _write(tmp_path, "torus.json", to_input_dict(entry("torus9x3_rot3")))
        runs = [["homology", torus, "--mode", "both"], ["check", torus],
                ["homology", triple_file], ["check", triple_file]]
        script = "\n".join([
            "import contextlib, io, sys",
            self.RAN,
            "before = set(sys.modules)",
            "from zkhomology import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    codes = [cli.run(argv) for argv in {runs!r}]",
            "print(codes)",
            "print(' '.join(sorted(set(sys.modules) - before)))",
            "print(ran('zkhomology.checks'))",
        ])
        code, out, err = _fresh_interpreter(None, script)
        assert (code, err) == (0, "")
        codes, added, checks_ran = out.splitlines()
        added = set(added.split())
        assert codes == "[0, 0, 0, 0]"
        assert "zkhomology.ring_snf" in added     # the compressed route ran
        assert "zkhomology.checks" in added       # bound, like every layer
        assert checks_ran == "False"
        assert not added & {"zkhomology.corpus", "dataclasses", "inspect"}

    # Every module `import zkhomology.cli` may add to a fresh interpreter:
    # the package's production modules (`checks` bound, not run) and the
    # standard library they need, with its C parts.  Cold start grows with
    # this graph, so a new import has to be added here on purpose.
    CLI_IMPORTS = frozenset({
        "zkhomology", "zkhomology.actions", "zkhomology.checks", "zkhomology.cli",
        "zkhomology.errors", "zkhomology.exact", "zkhomology.groupring",
        "zkhomology.jsonio", "zkhomology.pipeline", "zkhomology.ring_snf",
        "zkhomology.simplicial", "zkhomology.transfer",
        "argparse", "json", "json.decoder", "json.encoder", "json.scanner", "_json",
        "fractions", "decimal", "_decimal", "heapq", "_heapq", "numbers", "gettext",
    })

    def test_cli_import_graph_does_not_grow(self):
        script = "\n".join([
            "import sys",
            "before = set(sys.modules)",
            "import zkhomology.cli",
            "print(' '.join(sorted(set(sys.modules) - before)))",
        ])
        code, out, err = _fresh_interpreter(None, script)
        assert (code, err) == (0, "")
        added = set(out.split())
        assert "zkhomology.ring_snf" in added
        assert added <= self.CLI_IMPORTS, sorted(added - self.CLI_IMPORTS)

    def test_verify_and_corpus_load_their_modules_on_first_use(self, path_file):
        script = "\n".join([
            "import contextlib, io, sys",
            self.RAN,
            "from zkhomology import cli",
            "seen = []",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    for argv in (['verify', {path_file!r}], ['corpus', '--list']):",
            "        seen.append([ran(m) for m in "
            "('zkhomology.checks', 'zkhomology.corpus')])",
            "        seen.append(cli.run(argv))",
            "print(seen)",
            "print(ran('zkhomology.corpus'), 'dataclasses' in sys.modules)",
        ])
        code, out, err = _fresh_interpreter(None, script)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["[[False, False], 0, [True, False], 0]", "True True"]

    def test_import_binds_the_suite_module_unrun(self):
        # Code that looks the layers up in sys.modules, or on the package,
        # finds `checks` there after importing the CLI alone; reading from
        # it runs it, and it is then the module a normal import gives.
        script = "\n".join([
            "import sys, types",
            self.RAN,
            "import zkhomology.cli",
            "import zkhomology",
            "m = sys.modules['zkhomology.checks']",
            "print(zkhomology.checks is m, ran('zkhomology.checks'))",
            "names = vars(m)",
            "import zkhomology.checks as again",
            "print(ran('zkhomology.checks'), again is m, type(m) is types.ModuleType,",
            "      'run_action_suite' in names, 'dataclasses' in sys.modules)",
        ])
        code, out, err = _fresh_interpreter(None, script)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["True False", "True True True True True"]
