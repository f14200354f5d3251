"""Homology of the full cell complex by direct GF(2) boundary reduction.

No matchings, no flow: the incidence matrices go through the same
``gf2.homology_cycles`` walk as the Morse complex, top grade down, each
boundary matrix reduced once with the columns that the grade above cleared
skipped.  It supplies the canonical homology classes of class selectors.

Chains over the full complex are frozensets of cell ids.  A complex numbers
its cells dimension by dimension, so bit i of a d-chain mask is the cell
``ids_of_dim(d)[i]``; column j of a boundary matrix belongs to the j-th cell
of its dimension, and kernel combination masks are themselves chains.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field

from . import gf2
from .complex import CellComplex


@dataclass(frozen=True)
class HomologyClass:
    """A GF(2) cycle in one grade, tagged with the complex it lives over.

    ``basis`` is ``"full"`` for cycles over all cells of a CellComplex and
    ``"morse"`` for cycles over the critical cells of one Morse complex.
    """

    grade: int
    support: frozenset[int]
    basis: str = "full"
    owner: object = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return bool(self.support)


def boundary_columns(cx: CellComplex, dim: int, skip: Container[int] = ()) -> list[int]:
    """Columns of the boundary matrix from dim-cells to (dim-1)-cells; those in skip are 0."""
    rows = cx.ids_of_dim(dim - 1).start
    return [
        0 if j in skip else gf2.from_bits(f - rows for f in c.faces)
        for j, c in enumerate(cx.cells_of_dim(dim))
    ]


def boundary_support(cx: CellComplex, support) -> frozenset[int]:
    """Mod-2 boundary of a chain given as a set of cell ids."""
    out: set[int] = set()
    for cid in support:
        out.symmetric_difference_update(cx.cells[cid].faces)
    return frozenset(out)


def is_cycle(cx: CellComplex, support) -> bool:
    return not boundary_support(cx, support)


def homology_basis(cx: CellComplex) -> dict[int, list[HomologyClass]]:
    """A deterministic homology basis per grade: the ``gf2.homology_cycles`` walk
    over the boundary matrices, columns in id order."""
    walk = gf2.homology_cycles(cx.top_dim, lambda d, cleared: boundary_columns(cx, d, cleared))
    out: dict[int, list[HomologyClass]] = {}
    for d, cycles in walk:
        ids = cx.ids_of_dim(d)
        out[d] = [
            HomologyClass(d, frozenset(ids[i] for i in gf2.to_bits(v)), "full", owner=cx)
            for v in cycles
        ]
    return dict(sorted(out.items()))
