"""Homology of the full cell complex by direct GF(2) boundary reduction.

No matchings, no flow: the incidence matrices go through the same
``gf2.homology_cycles`` walk as the Morse complex, top grade down, each
boundary matrix reduced once with the columns that the grade above cleared
skipped.  It supplies the canonical homology classes of class selectors.

A cell has a few faces however many cells its dimension holds, so the
columns are row-index lists, as the Morse complex's are, reduced by
``gf2.reduce_columns``.  On a surface every matrix is graphic: an edge has two
vertices and lies in at most two top cells.  So the selectors of a surface
run on union-find, in near-linear time; a middle grade, as in a 3-torus, or
a non-manifold top grade falls back to ``gf2.reduce_sparse``.

Chains over the full complex are frozensets of cell ids.  A complex numbers
its cells dimension by dimension, so row i of a d-chain is the cell
``ids_of_dim(d)[i]``; column j of a boundary matrix belongs to the j-th cell
of its dimension, and kernel combinations are themselves chains.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import gf2
from .complex import CellComplex
from .errors import ReadOnly


class HomologyClass(ReadOnly):
    """A GF(2) cycle in one grade, tagged with the complex it lives over.

    ``basis`` is ``"full"`` for cycles over all cells of a CellComplex and
    ``"morse"`` for cycles over the critical cells of one Morse complex.
    ``owner`` is that complex, or None; ``==`` and the hash leave it out.
    """

    __slots__ = ("grade", "support", "basis", "owner")

    def __init__(self, grade: int, support: frozenset[int], basis: str = "full",
                 owner: object = None):
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "owner", owner)

    def __eq__(self, other):
        if type(other) is not HomologyClass:
            return NotImplemented
        return (self.grade, self.support, self.basis) == (other.grade, other.support, other.basis)

    def __hash__(self) -> int:
        return hash((self.grade, self.support, self.basis))

    def __bool__(self) -> bool:
        return bool(self.support)


def boundary_columns(cx: CellComplex, dim: int) -> Sequence[Sequence[int]]:
    """Columns of the boundary matrix from dim-cells to (dim-1)-cells as row
    indices (face id minus the first (dim-1)-cell id)."""
    ids, rows = cx.ids_of_dim(dim), cx.ids_of_dim(dim - 1).start
    faces = cx.faces[ids.start : ids.stop]
    return [[f - rows for f in fs] for fs in faces] if rows else faces


def boundary_support(cx: CellComplex, support) -> frozenset[int]:
    """Mod-2 boundary of a chain given as a set of cell ids."""
    out: set[int] = set()
    for cid in support:
        out.symmetric_difference_update(cx.faces[cid])
    return frozenset(out)


def is_cycle(cx: CellComplex, support) -> bool:
    return not boundary_support(cx, support)


def homology_basis(cx: CellComplex) -> dict[int, list[HomologyClass]]:
    """A deterministic homology basis per grade: the ``gf2.homology_cycles`` walk
    over the boundary matrices, columns in id order, through ``gf2.reduce_columns``."""
    walk = gf2.homology_cycles(cx.top_dim, lambda d: boundary_columns(cx, d))
    out: dict[int, list[HomologyClass]] = {}
    for d, cycles in walk:
        start = cx.ids_of_dim(d).start
        out[d] = [
            HomologyClass(d, frozenset(map(start.__add__, combo)), "full", owner=cx)
            for combo in cycles
        ]
    return dict(sorted(out.items()))
