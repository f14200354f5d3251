"""GF(2) column linear algebra on int bitmasks.

A vector is a Python int; bit i is coordinate i.  Column reduction keeps at
most one column per pivot (the highest set bit), processing columns in the
order given, so every routine here is deterministic.  ``reduce_vector`` is
the one elimination loop: ``reduce_boundary`` reduces augmented columns whose
low bits carry the combination and returns the kernel and the pivot rows, so
a homology basis reduces each boundary matrix once (clearing).
"""

from __future__ import annotations

from collections.abc import Container, Iterable


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
    extend(ech, columns)
    return ech


def extend(ech: dict[int, int], vectors: Iterable[int]) -> list[int]:
    """Reduce each vector against ech in turn and insert the nonzero results.

    ech is updated in place; the inserted vectors are returned in input order.
    """
    added = []
    for v in vectors:
        v = reduce_vector(v, ech)
        if v:
            ech[pivot(v)] = v
            added.append(v)
    return added


def reduce_vector(v: int, ech: dict[int, int]) -> int:
    """Cancel the top bit of v against ech until it is no longer a pivot."""
    while v:
        p = v.bit_length() - 1
        col = ech.get(p)
        if col is None:
            return v
        v ^= col
    return 0


def rank(columns: Iterable[int]) -> int:
    return len(echelonize(columns))


def in_span(v: int, ech: dict[int, int]) -> bool:
    return reduce_vector(v, ech) == 0


def kernel_basis(columns: list[int], skip: Container[int] = ()) -> list[int]:
    """The kernel masks of ``reduce_boundary``: a basis of the kernel, in column order."""
    return reduce_boundary(columns, skip)[0]


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


def solve(columns: list[int], target: int) -> int | None:
    """Combination mask expressing target as a XOR of columns, or None.

    Target is appended as a last column: it is in the span exactly when it
    reduces to zero, and its kernel mask then holds the combination.
    """
    n = len(columns)
    kernel = kernel_basis([*columns, target])
    if kernel and kernel[-1] >> n:
        return kernel[-1] ^ (1 << n)
    return None


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
