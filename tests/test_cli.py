import json
import sys

import pytest

from zkhomology import actions, cli, corpus, ring_snf
from zkhomology.corpus import entry, names, to_input_dict
from zkhomology.jsonio import (
    action_to_dict,
    dump_json,
    load_input,
    parse_input,
    triple_to_dict,
)
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

    def test_internal_self_check_failure_exit_four(self, path_file, monkeypatch,
                                                   capsys):
        # A rank certificate that cannot hold: the expanded rank is off by one.
        original = ring_snf.field_rank
        monkeypatch.setattr(ring_snf, "field_rank", lambda M: original(M) + 1)
        assert cli.run(["homology", path_file, "--field", "Q"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: rank certificate failed: SNF predicts 2, "
            "expanded matrix has rank 3"]


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


class TestVerify:
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

    def test_triple_verify_json(self, triple_file, capsys):
        assert cli.run(["verify", triple_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])


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

    def test_unknown_name(self):
        assert cli.run(["corpus", "nope"]) == 2


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
