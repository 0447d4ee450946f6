"""The package's public names: every export resolves, and names deleted
from the API stay deleted."""

import inspect
from dataclasses import fields

import zkhomology
from zkhomology import (actions, checks, cli, errors, exact, groupring, pipeline,
                        ring_snf, simplicial, transfer)


def test_every_export_resolves():
    missing = [name for name in zkhomology.__all__ if not hasattr(zkhomology, name)]
    assert missing == []
    assert len(set(zkhomology.__all__)) == len(zkhomology.__all__)


def test_complex_of_groups_object_is_gone():
    for name in ("ComplexOfGroups", "build_complex_of_groups"):
        assert not hasattr(transfer, name)
        assert not hasattr(zkhomology, name)
    assert zkhomology.check_axioms is transfer.check_axioms


def test_test_only_helpers_are_gone():
    assert not hasattr(exact, "parse_poly")
    assert not hasattr(groupring, "explicit_circulant_rank")
    assert not hasattr(simplicial.Complex, "euler_characteristic")
    # helpers that restated a step of the production path
    for module, name in ((pipeline, "compressed_snf"), (pipeline, "compressed_rank"),
                         (groupring, "circulant_rank"), (transfer, "coset_map"),
                         (actions, "is_regular")):
        assert not hasattr(module, name)
        assert not hasattr(zkhomology, name)
    for cls, name in ((groupring.GroupRingElem, "generator_power"),
                      (groupring.GroupRingElem, "reindex"),
                      (transfer.IsotropyTriple, "subgroup"),
                      (actions.QuotientData, "projection_table"),
                      (ring_snf.SnfDiagonal, "diag"),
                      (exact.FieldMatrix, "transpose"),
                      (exact.Poly, "x"),
                      # conveniences only the tests called
                      (groupring.GroupRingElem, "lift"),
                      (groupring.GroupRingMatrix, "zeros"),
                      (groupring.GroupRingMatrix, "identity"),
                      (exact.FieldMatrix, "zeros")):
        assert not hasattr(cls, name)
    # fields that nothing read
    assert "shape" not in {f.name for f in fields(ring_snf.SnfDiagonal)}
    assert "quotient_order" not in {f.name for f in fields(checks.LiftedPartition)}
    # exact.Field keeps only what Q and F_p share
    assert {n for n in vars(exact.Field) if not n.startswith("__")} == {"char", "name"}
    assert "__repr__" in vars(exact.Field)
    # parameters: a triple only stores its data; the non-regular witness
    # always goes to stderr
    assert "validate" not in inspect.signature(transfer.IsotropyTriple).parameters
    assert "out" not in inspect.signature(cli._regular_quotient).parameters
    # upstairs-model knobs no caller set; verify checks the one field it is given
    for fn, names in ((checks.compatible_boundary, {"orient_x"}),
                      (checks.isotropy_expansion, {"orient_x"}),
                      (checks.verify_expansion_lemma, {"orient_x"}),
                      (checks.compatible_ordering, {"quotient_order"}),
                      (checks.check_ordering_independence, {"trials", "seed"}),
                      (actions.induced_subdivision_action, {"subdivided", "vmap"})):
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    for fn in (checks.check_boundary_squared, checks.check_expansion_lemma,
               checks.check_rank_preservation, checks.check_rank_reconstruction,
               checks.check_snf_invariants, checks.check_lift_independence,
               checks.check_ordering_independence, checks.check_oracle_equality,
               checks.run_action_suite, checks.run_triple_suite):
        params = inspect.signature(fn).parameters
        assert "fields" not in params and "field" in params, fn.__name__


def test_witness_errors_share_one_init():
    witnessed = (errors.InvalidActionError, errors.RegularityError,
                 errors.TripleValidationError, errors.AxiomError)
    assert {cls.__init__ for cls in witnessed} == {errors._WitnessedError.__init__}
    for cls in witnessed:
        exc = cls("message", witness=(0, 1))
        assert str(exc) == "message" and exc.witness == (0, 1)
        assert cls("message").witness is None
