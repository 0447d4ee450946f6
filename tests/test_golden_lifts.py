"""Golden Smith-form lifts for cores of two or more lines.

The other oracles for such cores (the augmented and the plain lift in
`test_ring_snf`) call the same `snf_over_polys` that they check.  These
values were recorded from `compressed_result` and are independent of it:
per dimension d, the multiset of printed lifts other than "1".
"""

from collections import Counter
from functools import cache

import pytest

from zkhomology import ring_snf
from zkhomology.corpus import build_action, entry
from zkhomology.exact import parse_field
from zkhomology.pipeline import compressed_result
from zkhomology.transfer import build_triple

from grids import lens_cover


@cache
def _triple(name):
    if name == "trivial_k3_two_circles":
        return build_triple(build_action(entry(name)))
    k, s = {"lens (2, 2)": (2, 2), "lens (3, 2)": (3, 2)}[name]
    return build_triple(lens_cover(k, s))


# per field: x - 1, then x^2 - 1 and x^3 - 1 as printed
_X_MINUS_ONE = {"Q": "x-1", "Fp:2": "x+1", "Fp:3": "x+2"}
_X2_MINUS_ONE = {"Q": "x^2-1", "Fp:2": "x^2+1", "Fp:3": "x^2+2"}
_X3_MINUS_ONE = {"Q": "x^3-1", "Fp:2": "x^3+1", "Fp:3": "x^3+2"}


def _golden(name, field):
    ends = {_X_MINUS_ONE[field]: 1}
    if name == "lens (2, 2)":
        return {0: {}, 1: ends, 2: {"x+1": 1, _X2_MINUS_ONE[field]: 39}, 3: ends}
    if name == "lens (3, 2)":
        return {0: {}, 1: ends, 2: {"x^2+x+1": 1, _X3_MINUS_ONE[field]: 55}, 3: ends}
    return {0: {}, 1: {"x^2+x+1": 4, _X3_MINUS_ONE[field]: 2}}


@pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
@pytest.mark.parametrize("name", ["lens (2, 2)", "lens (3, 2)", "trivial_k3_two_circles"])
def test_lifts_of_cores_with_several_lines(name, field, monkeypatch):
    calls, original = [], ring_snf.snf_over_polys

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ring_snf, "snf_over_polys", spy)
    res = compressed_result(_triple(name), parse_field(field))
    assert calls, "no core of two or more lines reached the polynomial Smith form"
    got = {r["d"]: Counter(f for f in r["snf_lifts"] if f != "1") for r in res["per_dim"]}
    assert got == _golden(name, field)
