"""Reference homology of the full complex, for checking the Morse route.

These run no ``gf2.homology_cycles`` walk: Betti numbers count ranks from
``gf2.echelonize`` of every boundary matrix, a boundary test reduces the
chain against the echelon of the boundary entering its grade, and class
coordinates solve one linear system of boundaries plus basis classes.  They
stay on bitmasks: ``boundary_masks`` turns the index-list columns of
``morsespec.homology.boundary_columns`` into masks, and a d-chain is a mask
over ``cx.ids_of_dim(d)`` with bit i the cell ``ids_of_dim(d)[i]``.
"""

from __future__ import annotations

import morsespec.homology as fullh
from morsespec import gf2
from morsespec.errors import ChainError


def solve(columns: list[int], target: int) -> int | None:
    """Combination mask expressing target as a XOR of columns, or None.

    Target is appended as a last column: it is in the span exactly when it
    reduces to zero, and its kernel mask then holds the combination.
    """
    n = len(columns)
    kernel = gf2.reduce_boundary([*columns, target])[0]
    if kernel and kernel[-1] >> n:
        return kernel[-1] ^ (1 << n)
    return None


def boundary_masks(cx, dim: int) -> list[int]:
    """The boundary matrix from dim-cells to (dim-1)-cells as bitmask columns."""
    return [gf2.from_bits(col) for col in fullh.boundary_columns(cx, dim)]


def chain_mask(cx, grade: int, support) -> int:
    ids = cx.ids_of_dim(grade)
    stray = sorted(c for c in support if c not in ids)
    if stray:
        raise ChainError(f"cells {stray} are not of dimension {grade}")
    return gf2.from_bits(c - ids.start for c in support)


def betti_numbers(cx) -> list[int]:
    """Betti numbers b_0..b_top by rank counting on the boundary matrices."""
    ranks = [len(gf2.echelonize(boundary_masks(cx, d))) for d in range(cx.top_dim + 2)]
    return [
        len(cx.ids_of_dim(d)) - ranks[d] - ranks[d + 1] for d in range(cx.top_dim + 1)
    ]


def is_boundary(cx, grade: int, support) -> bool:
    """True iff the chain is a mod-2 boundary in the full complex."""
    if grade >= cx.top_dim:
        return not support
    ech = gf2.echelonize(boundary_masks(cx, grade + 1))
    return not gf2.reduce_vector(chain_mask(cx, grade, support), ech)


def classes_equal(cx, grade: int, a, b) -> bool:
    return is_boundary(cx, grade, frozenset(a) ^ frozenset(b))


def class_coordinates(cx, grade: int, support, basis) -> list[int]:
    """Coordinates of [support] in the given homology basis of that grade."""
    bcols = boundary_masks(cx, grade + 1)
    cols = bcols + [chain_mask(cx, grade, h.support) for h in basis]
    combo = solve(cols, chain_mask(cx, grade, support))
    if combo is None:
        raise ChainError("chain is not a cycle combination in this grade")
    return [(combo >> (len(bcols) + k)) & 1 for k in range(len(basis))]
