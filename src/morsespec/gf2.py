"""GF(2) column linear algebra on int bitmasks and on sparse row sets.

A bitmask vector is a Python int; bit i is coordinate i.  Column reduction
keeps at most one column per pivot (the highest coordinate), processing
columns in the order given, so every routine here is deterministic.
``reduce_vector`` is the one bitmask elimination loop; ``reduce_boundary``
reduces augmented columns with it whose low bits carry the combination, and
``reduce_sparse`` does the same on row-index columns held as sets, at a cost
per entry rather than per top index.  Both return the kernel and the pivot
rows, and ``homology_cycles`` walks a chain complex's grades top down with
either one, so each boundary matrix is reduced once (clearing).
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Iterator, Sequence


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


def reduce_sparse(
    columns: Sequence[Iterable[int]], skip: Container[int] = ()
) -> tuple[list[set[int]], set[int]]:
    """``reduce_boundary`` on columns given as row indices.

    Column j is reduced as a set of rows with the set {j} beside it for its
    combination; XOR is ``^=`` on both and the pivot is the largest row.  The
    kernel combinations (sets of column indices) and the pivot rows equal
    ``reduce_boundary``'s on the same columns as masks, in the same order.
    """
    ech: dict[int, tuple[set[int], set[int]]] = {}
    out = []
    for j, col in enumerate(columns):
        if j in skip:
            continue
        rows, combo = set(col), {j}
        while rows:
            p = max(rows)
            entry = ech.get(p)
            if entry is None:
                ech[p] = (rows, combo)
                break
            rows ^= entry[0]
            combo ^= entry[1]
        else:
            out.append(combo)
    return out, set(ech)


def homology_cycles(
    top: int, boundary: Callable[[int, set[int]], list], reduce: Callable[..., tuple[list, set]]
) -> Iterator[tuple[int, list]]:
    """(k, cycles) for k = top..0: a homology basis of each grade.

    ``boundary(k, cleared)`` returns the columns of the boundary leaving
    grade k, one per k-cell; the columns whose index is in ``cleared`` (the
    pivot rows of the boundary leaving grade k+1) are skipped, so they may be
    given empty.  ``reduce`` is ``reduce_boundary`` for bitmask columns or
    ``reduce_sparse`` for index lists, and a grade's cycles are its kernel
    combinations without the cleared columns.  A cycle's top index is no
    pivot row of the grade above, so the cycles stay independent modulo
    boundaries.
    """
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        cycles, cleared = reduce(boundary(k, cleared), cleared)
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
