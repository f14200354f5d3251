"""Homology of the full cell complex by direct GF(2) boundary reduction.

This is the slow-but-simple route: no matchings, no flow, just column
reduction of the incidence matrices.  It serves as the reference computation
against which the Morse-complex route is checked, and it supplies canonical
homology classes for class selectors: one walk down the grades reduces each
boundary matrix once, skipping the columns that the grade above cleared.

Chains over the full complex are frozensets of cell ids.  Internally each
dimension's cells are indexed in id order and chains become int bitmasks;
column j of a boundary matrix belongs to the j-th cell of its dimension, so
kernel combination masks are themselves chains.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field

from . import gf2
from .complex import CellComplex
from .errors import ChainError


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


class _DimIndex:
    """Bitmask indexing of one dimension's cells, in id order."""

    def __init__(self, cx: CellComplex, dim: int):
        self.cells = [c.id for c in cx.cells if c.dim == dim]
        self.pos = {cid: i for i, cid in enumerate(self.cells)}

    def mask(self, support) -> int:
        return gf2.from_bits(self.pos[c] for c in support)

    def unmask(self, v: int) -> frozenset[int]:
        return frozenset(self.cells[i] for i in gf2.to_bits(v))


def boundary_columns(
    cx: CellComplex, dim: int, index: _DimIndex | None = None, skip: Container[int] = ()
) -> list[int]:
    """Columns of the boundary matrix from dim-cells to (dim-1)-cells; those in skip are 0."""
    pos = (index if index is not None else _DimIndex(cx, dim - 1)).pos
    return [
        0 if j in skip else gf2.from_bits(pos[f] for f in c.faces)
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


def betti_numbers(cx: CellComplex) -> list[int]:
    """Betti numbers b_0..b_top by rank counting on the boundary matrices."""
    ranks = {}
    for d in range(cx.top_dim + 2):
        ranks[d] = gf2.rank(boundary_columns(cx, d))
    return [
        len(cx.cells_of_dim(d)) - ranks[d] - ranks[d + 1]
        for d in range(cx.top_dim + 1)
    ]


def homology_basis(cx: CellComplex) -> dict[int, list[HomologyClass]]:
    """A deterministic homology basis per grade, walking the grades top down.

    Each boundary matrix (columns in id order) is reduced once: its kernel
    masks, with the pivot rows of the grade above cleared, are the classes.
    A mask's top bit is no boundary pivot, so the masks stay independent
    modulo boundaries.
    """
    out: dict[int, list[HomologyClass]] = {}
    idx, cleared = _DimIndex(cx, cx.top_dim), set()
    for d in range(cx.top_dim, -1, -1):
        rows = _DimIndex(cx, d - 1)
        cycles, cleared = gf2.reduce_boundary(boundary_columns(cx, d, rows, cleared), cleared)
        out[d] = [HomologyClass(d, idx.unmask(v), "full", owner=cx) for v in cycles]
        idx = rows
    return dict(sorted(out.items()))


def is_boundary(cx: CellComplex, grade: int, support) -> bool:
    """True iff the chain is a mod-2 boundary in the full complex."""
    if grade >= cx.top_dim:
        return not support
    idx = _DimIndex(cx, grade)
    ech = gf2.echelonize(boundary_columns(cx, grade + 1, idx))
    return gf2.in_span(idx.mask(support), ech)


def classes_equal(cx: CellComplex, grade: int, a, b) -> bool:
    return is_boundary(cx, grade, frozenset(a) ^ frozenset(b))


def class_coordinates(
    cx: CellComplex, grade: int, support, basis: list[HomologyClass]
) -> list[int]:
    """Coordinates of [support] in the given homology basis of that grade."""
    idx = _DimIndex(cx, grade)
    bcols = boundary_columns(cx, grade + 1, idx)
    cols = bcols + [idx.mask(h.support) for h in basis]
    combo = gf2.solve(cols, idx.mask(support))
    if combo is None:
        raise ChainError("chain is not a cycle combination in this grade")
    return [(combo >> (len(bcols) + k)) & 1 for k in range(len(basis))]
