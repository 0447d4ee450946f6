"""The package's public names: every export resolves, and names deleted
from the API stay deleted."""

import zkhomology
from zkhomology import transfer


def test_every_export_resolves():
    missing = [name for name in zkhomology.__all__ if not hasattr(zkhomology, name)]
    assert missing == []
    assert len(set(zkhomology.__all__)) == len(zkhomology.__all__)


def test_complex_of_groups_object_is_gone():
    for name in ("ComplexOfGroups", "build_complex_of_groups"):
        assert not hasattr(transfer, name)
        assert not hasattr(zkhomology, name)
    assert zkhomology.check_axioms is transfer.check_axioms
