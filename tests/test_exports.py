"""The package's public names: every export resolves, and names deleted
from the API stay deleted."""

import zkhomology
from zkhomology import exact, groupring, simplicial, transfer


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
