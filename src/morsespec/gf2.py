"""GF(2) column linear algebra on int bitmasks.

A vector is a Python int; bit i is coordinate i.  Column reduction keeps at
most one column per pivot (the highest set bit), processing columns in the
order given, so every routine here is deterministic.  ``reduce_vector`` is
the one elimination loop: ``reduce_boundary`` reduces augmented columns whose
low bits carry the combination and returns the kernel and the pivot rows, and
``homology_cycles`` walks a chain complex's grades top down with it, so each
boundary matrix is reduced once (clearing).
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Iterator


def pivot(v: int) -> int:
    """Index of the highest set bit. The zero vector has no pivot."""
    if v == 0:
        raise ValueError("zero vector has no pivot")
    return v.bit_length() - 1


def echelonize(columns: Iterable[int]) -> dict[int, int]:
    """Reduce columns to echelon form with distinct pivots.

    Returns a map pivot -> column. Columns that reduce to zero are dropped.
    """
    ech: dict[int, int] = {}
    for v in columns:
        v = reduce_vector(v, ech)
        if v:
            ech[pivot(v)] = v
    return ech


def reduce_vector(v: int, ech: dict[int, int]) -> int:
    """Cancel the top bit of v against ech until it is no longer a pivot."""
    while v:
        p = v.bit_length() - 1
        col = ech.get(p)
        if col is None:
            return v
        v ^= col
    return 0


def reduce_boundary(columns: list[int], skip: Container[int] = ()) -> tuple[list[int], set[int]]:
    """(kernel masks, pivot rows) of the columns whose index is not in skip.

    A mask c has XOR of {columns[j] : bit j of c} = 0.  Column j is reduced as
    ``(columns[j] << n) | 1 << j``; once its column part cancels, the low n
    bits hold its combination, whose top bit is j.  The pivot rows are the
    keys of ``echelonize`` on the same columns.  Clearing (Chen-Kerber): a
    pivot row j of the boundary into a grade is the top bit of a cycle, so
    column j of the grade's own boundary is dependent and may be skipped.
    """
    n = len(columns)
    ech: dict[int, int] = {}
    out = []
    for j, col in enumerate(columns):
        if j in skip:
            continue
        v = reduce_vector((col << n) | 1 << j, ech)
        if v >> n:
            ech[pivot(v)] = v
        else:
            out.append(v)
    return out, {p - n for p in ech}


def homology_cycles(
    top: int, boundary: Callable[[int, set[int]], list[int]]
) -> Iterator[tuple[int, list[int]]]:
    """(k, cycle masks) for k = top..0: a homology basis of each grade.

    ``boundary(k, cleared)`` returns the columns of the boundary leaving
    grade k, one per k-cell; the columns whose index is in ``cleared`` (the
    pivot rows of the boundary leaving grade k+1) are skipped, so they may be
    given as 0.  The masks of grade k are the kernel of that matrix without
    the cleared columns.  A mask's top bit is no pivot row of the grade above,
    so the masks stay independent modulo boundaries.
    """
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        cycles, cleared = reduce_boundary(boundary(k, cleared), cleared)
        yield k, cycles


def from_bits(bits: Iterable[int]) -> int:
    v = 0
    for b in bits:
        v |= 1 << b
    return v


def to_bits(v: int) -> list[int]:
    """Indices of the set bits of v, ascending; one step per set bit.

    A negative v has no finite set of bits and raises ValueError.
    """
    if v < 0:
        raise ValueError(f"negative vector {v} has no finite set of bits")
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
