"""Bundled input corpus: small symmetric complexes with known homology.

Each entry is a complex together with a generating vertex permutation and
the order k of the acting cyclic group.  `expected_betti` records the
homology of the underlying space (field-independent for these examples),
used as an extra anchor for the direct oracle.

The torus entry is a 9x3 grid torus with the rows shifted by 3: the shift
distance keeps mixed-shift images of simplices from being simplices, so
the action is regular without any subdivision.
"""

from dataclasses import dataclass

from .actions import regularize, validate_action
from .jsonio import action_to_dict
from .simplicial import build_complex


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    k: int
    generators: tuple          # maximal simplices (or enough of them)
    perm: tuple                # image of vertex i at position i
    expected_betti: tuple
    regular: bool              # whether the action is regular as given


def _cycle(n):
    return tuple(frozenset({i, (i + 1) % n}) for i in range(n))


def _identity(n):
    return tuple(range(n))


def _grid_torus(rows, cols):
    """Triangulated torus on a rows x cols vertex grid (both >= 3)."""
    def v(i, j):
        return (i % rows) * cols + (j % cols)

    tris = []
    for i in range(rows):
        for j in range(cols):
            tris.append(frozenset({v(i, j), v(i + 1, j), v(i, j + 1)}))
            tris.append(frozenset({v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)}))
    return tuple(tris)


def _torus_shift_perm(rows, cols, shift):
    return tuple(((i // cols + shift) % rows) * cols + (i % cols)
                 for i in range(rows * cols))


_TWO_TRIANGLE_EDGES = tuple(
    frozenset(e) for e in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
)

_RAW_ENTRIES = [
    CorpusEntry(
        name="path_flip",
        k=2,
        generators=(frozenset({0, 1}), frozenset({1, 2})),
        perm=(2, 1, 0),
        expected_betti=(1, 0),
        regular=True,
    ),
    CorpusEntry(
        name="cycle8_rot4",
        k=2,
        generators=_cycle(8),
        perm=tuple((i + 4) % 8 for i in range(8)),
        expected_betti=(1, 1),
        regular=True,
    ),
    CorpusEntry(
        name="two_triangles_swap",
        k=2,
        generators=_TWO_TRIANGLE_EDGES,
        perm=(3, 4, 5, 0, 1, 2),
        expected_betti=(2, 2),
        regular=True,
    ),
    CorpusEntry(
        name="cycle9_rot3",
        k=3,
        generators=_cycle(9),
        perm=tuple((i + 3) % 9 for i in range(9)),
        expected_betti=(1, 1),
        regular=True,
    ),
    CorpusEntry(
        name="torus9x3_rot3",
        k=3,
        generators=_grid_torus(9, 3),
        perm=_torus_shift_perm(9, 3, 3),
        expected_betti=(1, 2, 1),
        regular=True,
    ),
    CorpusEntry(
        name="trivial_k1_octagon",
        k=1,
        generators=_cycle(8),
        perm=_identity(8),
        expected_betti=(1, 1),
        regular=True,
    ),
    CorpusEntry(
        name="trivial_k2_triangle",
        k=2,
        generators=(frozenset({0, 1, 2}),),
        perm=_identity(3),
        expected_betti=(1, 0, 0),
        regular=True,
    ),
    CorpusEntry(
        name="trivial_k3_two_circles",
        k=3,
        generators=_TWO_TRIANGLE_EDGES,
        perm=_identity(6),
        expected_betti=(2, 2),
        regular=True,
    ),
    CorpusEntry(
        name="cycle4_antipodal",
        k=2,
        generators=_cycle(4),
        perm=tuple((i + 2) % 4 for i in range(4)),
        expected_betti=(1, 1),
        regular=False,
    ),
]


def _subdivided_antipodal_entry():
    raw = entry("cycle4_antipodal")
    action = regularize(build_action(raw))
    n = len(action.complex.vertex_ids)
    perm = tuple(action.perm[v] for v in range(n))
    return CorpusEntry(
        name="cycle4_antipodal_subdivided",
        k=2,
        generators=tuple(map(frozenset, action.complex.simplices(1))),
        perm=perm,
        expected_betti=(1, 1),
        regular=True,
    )


_BY_NAME = {e.name: e for e in _RAW_ENTRIES}

# Listing order.  The subdivided antipodal entry is built on demand by
# entry(): regularizing at import time would slow every start-up.
_NAMES = (
    "path_flip",
    "cycle8_rot4",
    "two_triangles_swap",
    "cycle9_rot3",
    "torus9x3_rot3",
    "cycle4_antipodal_subdivided",
    "trivial_k1_octagon",
    "trivial_k2_triangle",
    "trivial_k3_two_circles",
    "cycle4_antipodal",
)


def names():
    """Every entry name, in listing order."""
    return _NAMES


def entry(name):
    if name == "cycle4_antipodal_subdivided":
        return _subdivided_antipodal_entry()
    if name not in _BY_NAME:
        raise KeyError(f"unknown corpus entry {name!r}; know {', '.join(_NAMES)}")
    return _BY_NAME[name]


def build_action(e):
    """Materialize a corpus entry as a validated action."""
    X = build_complex(e.generators)
    return validate_action(X, list(e.perm), e.k)


def regular_entries():
    """The acceptance corpus: every entry whose action is regular as given
    (the raw antipodal 4-cycle is exercised separately through regularize)."""
    return tuple(e for e in map(entry, names()) if e.regular)


def to_input_dict(e):
    """The CLI's JSON input form of a corpus entry."""
    return action_to_dict(build_action(e))
