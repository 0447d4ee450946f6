"""Field homology of simplicial complexes with a cyclic symmetry, computed
from their quotient complexes.

Given a complex X with a regular Z_k action, the quotient complex together
with the isotropy subgroups of chosen lifts and the transfer cosets of
codimension-1 face pairs determines the homology of X over any field: the
boundary data compresses into matrices over the group ring F[Z_k], whose
Smith normal form yields the boundary ranks of X one circulant block at a
time.  A brute-force direct oracle is included for verification.
"""

from .exact import (
    GF,
    QQ,
    FieldMatrix,
    Poly,
    field_rank,
    parse_field,
    poly_gcd,
    snf_over_polys,
)
from .simplicial import (
    Complex,
    barycentric_subdivision,
    betti_direct,
    boundary_matrix,
    build_complex,
)
from .actions import (
    CyclicAction,
    Subgroup,
    check_regularity,
    coset_ordering,
    lex_lift,
    lex_max_lift,
    quotient,
    regularize,
    trivial_action,
    validate_action,
)
from .groupring import (
    GroupRingElem,
    GroupRingMatrix,
    rho,
    rho_extend,
    sigma,
)
from .transfer import (
    IsotropyTriple,
    build_triple,
    check_axioms,
    extended_transfer,
)
from .ring_snf import SnfDiagonal, snf_over_R
from .pipeline import (
    CompressedResult,
    compressed_betti,
    compressed_result,
    g_boundary_matrix,
)
from .checks import (
    compatible_boundary,
    compatible_ordering,
    compatible_orientations,
    index_reducing,
    isotropy_expansion,
    verify_expansion_lemma,
)

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "FieldMatrix", "Poly", "field_rank", "parse_field",
    "poly_gcd", "snf_over_polys",
    "Complex", "barycentric_subdivision", "betti_direct", "boundary_matrix",
    "build_complex",
    "CyclicAction", "Subgroup", "check_regularity", "coset_ordering",
    "lex_lift", "lex_max_lift", "quotient", "regularize", "trivial_action",
    "validate_action",
    "GroupRingElem", "GroupRingMatrix", "rho", "rho_extend", "sigma",
    "IsotropyTriple", "build_triple", "check_axioms", "extended_transfer",
    "SnfDiagonal", "snf_over_R",
    "CompressedResult", "compressed_betti", "compressed_result",
    "g_boundary_matrix",
    "compatible_boundary", "compatible_ordering", "compatible_orientations",
    "index_reducing", "isotropy_expansion", "verify_expansion_lemma",
]
