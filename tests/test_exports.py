"""The package's public names: every export resolves, and names deleted
from the API stay deleted."""

import importlib
import inspect
import pickle
import sys
from dataclasses import fields

import pytest

import zkhomology
from zkhomology import (actions, checks, cli, errors, exact, groupring, jsonio, pipeline,
                        ring_snf, simplicial, transfer)


def test_every_export_resolves():
    missing = [name for name in zkhomology.__all__ if not hasattr(zkhomology, name)]
    assert missing == []
    assert len(set(zkhomology.__all__)) == len(zkhomology.__all__)


def test_package_names_resolve_to_their_defining_objects():
    # names resolve on first access, each to the object of the module that
    # defines it, not to a copy taken at import
    assert zkhomology.compatible_boundary is checks.compatible_boundary
    assert zkhomology.snf_over_R is ring_snf.snf_over_R
    for name in zkhomology.__all__:
        obj = getattr(zkhomology, name)
        assert obj.__module__.startswith("zkhomology."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(zkhomology.__all__) <= set(dir(zkhomology))
    assert {"__version__", "checks"} <= set(dir(zkhomology))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        zkhomology.no_such_name
    with pytest.raises(ImportError):
        from zkhomology import no_such_name  # noqa: F401


def test_complex_of_groups_object_is_gone():
    for name in ("ComplexOfGroups", "build_complex_of_groups"):
        assert not hasattr(transfer, name)
        assert not hasattr(zkhomology, name)
    assert zkhomology.check_axioms is transfer.check_axioms


def test_test_only_helpers_are_gone():
    assert not hasattr(exact, "parse_poly")
    # polynomials are plain coefficient tuples: no class wraps them, and
    # no error is left for operands over mixed fields
    assert not hasattr(exact, "Poly")
    assert not hasattr(zkhomology, "Poly") and "Poly" not in zkhomology.__all__
    assert not hasattr(errors, "DomainMismatchError")
    M = groupring.GroupRingMatrix(exact.QQ, 2, 2, 2, {0: {0: {1: 2}}, 1: {1: {0: 1, 1: 1}}})
    lifts = ring_snf.snf_over_R(M)
    assert lifts == ((1,), (1, 1)) and all(type(f) is tuple for f in lifts)
    assert not hasattr(groupring, "explicit_circulant_rank")
    assert not hasattr(simplicial.Complex, "euler_characteristic")
    # helpers that restated a step of the production path
    for module, name in ((pipeline, "compressed_snf"), (pipeline, "compressed_rank"),
                         (groupring, "circulant_rank"), (transfer, "coset_map"),
                         (actions, "is_regular"),
                         # the second scan that named a non-regular witness
                         (actions, "_first_witness"),
                         (actions, "_regular_on_representatives")):
        assert not hasattr(module, name)
        assert not hasattr(zkhomology, name)
    for cls, name in ((transfer.IsotropyTriple, "subgroup"),
                      (actions.QuotientData, "projection_table"),
                      (exact.FieldMatrix, "transpose"),
                      # conveniences only the tests called
                      (groupring.GroupRingMatrix, "zeros"),
                      (groupring.GroupRingMatrix, "identity"),
                      (exact.FieldMatrix, "zeros"),
                      (exact.FieldMatrix, "from_rows")):
        assert not hasattr(cls, name)
    # fields that nothing read
    assert "quotient_order" not in {f.name for f in fields(checks.LiftedPartition)}
    # exact.Field keeps only what Q and F_p share
    assert {n for n in vars(exact.Field) if not n.startswith("__")} == {"char", "name"}
    assert "__repr__" in vars(exact.Field)
    # parameters: a triple only stores its data; the non-regular witness
    # always goes to stderr
    assert "validate" not in inspect.signature(transfer.IsotropyTriple).parameters
    assert "out" not in inspect.signature(cli._regular_quotient).parameters
    # knobs no caller set: the upstairs model's, and the G-boundary orders
    # that only verify set (it permutes the lex G-boundaries itself); verify
    # checks the one field it is given
    for fn, names in ((checks.compatible_boundary, {"orient_x"}),
                      (checks.isotropy_expansion, {"orient_x"}),
                      (checks.verify_expansion_lemma, {"orient_x"}),
                      (checks.compatible_ordering, {"quotient_order"}),
                      (checks.check_ordering_independence, {"trials", "seed"}),
                      (pipeline.g_boundary_matrix, {"orders"}),
                      (pipeline.compressed_result, {"orders"}),
                      (pipeline.compressed_betti, {"orders"}),
                      (actions.induced_subdivision_action, {"subdivided", "vmap"})):
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    for fn in (checks.check_boundary_squared, checks.check_expansion_lemma,
               checks.check_rank_preservation, checks.check_rank_reconstruction,
               checks.check_snf_invariants, checks.check_lift_independence,
               checks.check_ordering_independence, checks.check_oracle_equality,
               checks.run_action_suite, checks.run_triple_suite):
        params = inspect.signature(fn).parameters
        assert "fields" not in params and "field" in params, fn.__name__


def test_result_records_are_gone():
    # each command's result is the plain data it prints: the compressed
    # document, the direct report and the check outcomes are dicts
    for module, name in ((pipeline, "CompressedResult"), (pipeline, "DimensionReport"),
                         (checks, "CheckOutcome")):
        assert not hasattr(module, name), name
        assert not hasattr(zkhomology, name) and name not in zkhomology.__all__
    for module in (pipeline, checks, cli):
        assert not [name for name, obj in vars(module).items() if hasattr(obj, "as_dict")]
    assert not hasattr(pipeline, "record")
    for name in ("_print_direct_table", "_print_compressed_table"):
        assert not hasattr(cli, name)
    for fn in (cli.cmd_check, cli.cmd_homology, cli.cmd_verify, cli.cmd_corpus):
        assert list(inspect.signature(fn).parameters) == ["args"], fn.__name__


def test_upstairs_model_lives_in_checks():
    # check-only helpers moved into checks, whose names the package still
    # resolves; the sign-table and ordering knobs of the dense boundary, the
    # quotient's all-+1 sign table and the dense-to-sparse conversion are
    # gone; rho has one function
    for module, name in ((actions, "coset_ordering"), (actions, "coset_position"),
                         (transfer, "extended_transfer")):
        assert not hasattr(module, name), name
        assert callable(getattr(checks, name))
    for name in ("coset_ordering", "extended_transfer"):
        assert getattr(zkhomology, name) is getattr(checks, name)
    for module, name in ((simplicial, "default_orientation"),
                         (groupring, "circulant_expansion"),
                         (checks, "_over_trivial_group")):
        assert not hasattr(module, name), name
        assert not hasattr(zkhomology, name)
    assert list(inspect.signature(simplicial.boundary_matrix).parameters) == ["X", "d", "field"]
    assert list(inspect.signature(groupring.rho_extend).parameters) == ["M"]
    # the model takes the quotient data first, never the action, and never
    # re-quotients: no parameter qd of checks has a default
    for fn in (checks.compatible_orientations, checks.compatible_boundary,
               checks.isotropy_expansion, checks.verify_expansion_lemma):
        params = list(inspect.signature(fn).parameters)
        assert params[:2] == ["qd", "lift"] and "action" not in params, fn.__name__
    for name, fn in vars(checks).items():
        if inspect.isfunction(fn) and fn.__module__ == checks.__name__:
            qd = inspect.signature(fn).parameters.get("qd")
            assert qd is None or qd.default is inspect.Parameter.empty, name


def test_dense_group_ring_model_is_gone(monkeypatch):
    # group-ring entries are {exponent: coefficient} rows only: no element
    # type, no dense grid, and one product, the sparse composition check,
    # which verify's boundary-squared checks run too
    for name in ("GroupRingElem", "sigma", "rho"):
        assert not hasattr(groupring, name)
        assert not hasattr(zkhomology, name)
        assert name not in zkhomology.__all__
    for name in ("data", "from_rows", "from_sparse", "_fill", "__mul__"):
        assert not hasattr(groupring.GroupRingMatrix, name)
    for name in ("__mul__", "is_zero", "_from_canonical", "_fill"):
        assert not hasattr(exact.FieldMatrix, name)
    calls = []
    monkeypatch.setattr(checks, "_composes_to_zero",
                        lambda A, B: calls.append((A.k, B.k)) or pipeline._composes_to_zero(A, B))
    X = simplicial.build_complex([{0, 1, 2, 3}])
    assert checks.check_boundary_squared(X, exact.QQ) is None
    assert calls == [(1, 1)] * 2


def test_witness_errors_share_one_init():
    witnessed = (errors.InvalidActionError, errors.RegularityError,
                 errors.TripleValidationError, errors.AxiomError)
    assert {cls.__init__ for cls in witnessed} == {errors._WitnessedError.__init__}
    for cls in witnessed:
        exc = cls("message", witness=(0, 1))
        assert str(exc) == "message" and exc.witness == (0, 1)
        assert cls("message").witness is None


def test_value_records_are_gone():
    # an isotropy subgroup is its order and a Smith diagonal its lifts, so
    # no record type wraps either, and the record base is gone with them
    for module, name in ((actions, "Subgroup"), (ring_snf, "SnfDiagonal")):
        assert not hasattr(module, name), name
        assert not hasattr(zkhomology, name) and name not in zkhomology.__all__
    for module in (actions, ring_snf, transfer, jsonio):
        assert not hasattr(module, "record")
    assert not hasattr(actions.CyclicAction, "isotropy")
    assert callable(actions.CyclicAction.isotropy_order)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("zkhomology.records")
    assert not hasattr(zkhomology, "records")
    assert "rank_sum" in zkhomology.__all__ and zkhomology.rank_sum is ring_snf.rank_sum


class TestRecords:
    """RegularityWitness, the one value record left, is a plain namedtuple:
    its fields, repr, equality, hash and pickling are a namedtuple's, and
    the subgroup is named by its order."""

    VALUES = (2, (0, 1), (0,), (2,), (1, 2))

    def _make(self):
        return actions.RegularityWitness(*self.VALUES)

    def test_equal_fields_equal_objects_and_hashes(self):
        w, same = self._make(), self._make()
        assert w is not same and w == same and hash(w) == hash(same)
        assert not w != same
        assert w != w._replace(order=4)
        assert len({w, same}) == 1

    def test_replace_validates_and_pickle_round_trips(self):
        # no validation rides on _replace or _make any more: the order is
        # checked where the witness is raised
        w = self._make()
        assert w._replace(order=4) == actions.RegularityWitness(4, *self.VALUES[1:])
        assert actions.RegularityWitness._make(self.VALUES) == w
        again = pickle.loads(pickle.dumps(w))
        assert type(again) is actions.RegularityWitness and again == w

    def test_repr_names_every_field(self):
        w = self._make()
        assert actions.RegularityWitness._fields == ("order", "simplex", "vertices",
                                                     "exponents", "image")
        assert repr(w) == ("RegularityWitness(order=2, simplex=(0, 1), vertices=(0,), "
                           "exponents=(2,), image=(1, 2))")
        assert w.describe() == ("subgroup order 2: simplex (0, 1), vertices (0,) moved by "
                                "exponents (2,) give simplex (1, 2), but no single element "
                                "matches")

    def test_fields_cannot_be_assigned_or_added(self):
        w = self._make()
        for name in ("order", "extra"):
            with pytest.raises(AttributeError):
                setattr(w, name, 0)
