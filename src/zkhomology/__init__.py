"""Field homology of simplicial complexes with a cyclic symmetry, computed
from their quotient complexes.

Given a complex X with a regular Z_k action, the quotient complex together
with the isotropy subgroups of chosen lifts and the transfer cosets of
codimension-1 face pairs determines the homology of X over any field: the
boundary data compresses into matrices over the group ring F[Z_k], whose
Smith normal form yields the boundary ranks of X one circulant block at a
time.  A brute-force direct oracle is included for verification.
"""

# Each public name and the module that defines it.  Names resolve on first
# access (PEP 562), so importing the package, or `zkhomology.cli`, runs only
# the modules a command needs: the `checks` suite loads when one of its
# names, or `verify`, is first used.
_EXPORTS = {
    "exact": ("GF", "QQ", "FieldMatrix", "field_rank", "parse_field", "poly_gcd",
              "snf_over_polys"),
    "simplicial": ("Complex", "barycentric_subdivision", "betti_direct",
                   "boundary_matrix", "build_complex"),
    "actions": ("CyclicAction", "check_regularity", "lex_lift", "lex_max_lift",
                "quotient", "regularize", "trivial_action", "validate_action"),
    "groupring": ("GroupRingMatrix", "rho_extend"),
    "transfer": ("IsotropyTriple", "build_triple", "check_axioms"),
    "ring_snf": ("rank_sum", "snf_over_R"),
    "pipeline": ("compressed_betti", "compressed_result", "g_boundary_matrix"),
    "checks": ("compatible_boundary", "compatible_ordering", "compatible_orientations",
               "coset_ordering", "extended_transfer", "index_reducing",
               "isotropy_expansion", "verify_expansion_lemma"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
