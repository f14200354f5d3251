"""GF(2) column linear algebra on int bitmasks.

A vector is a Python int; bit i is coordinate i.  Column reduction keeps at
most one column per pivot (the highest set bit), processing columns in the
order given, so every routine here is deterministic.  ``reduce_vector`` is
the one elimination loop: ``kernel_basis`` tracks combinations by reducing
augmented columns whose low bits carry them, and ``cycle_basis`` is the
homology basis step both homology modules share, with clearing.
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
    """Combination masks c with XOR of {columns[j] : bit j of c} = 0.

    One mask per dependent column, in column order: a basis of the kernel.
    Column j is reduced as the augmented vector ``(columns[j] << n) | 1 << j``;
    once its column part cancels, the low n bits hold its combination.
    Columns whose index is in ``skip`` are left out.
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
    return out


def cycle_basis(d_in: list[int], boundary_ech: dict[int, int]) -> list[int]:
    """Kernel masks of d_in that extend boundary_ech to a basis of the cycles.

    Clearing (Chen-Kerber): a pivot j of boundary_ech is the top bit of a
    cycle, so column j of d_in is dependent; skipping it changes no other
    column's reduction.  boundary_ech itself is not modified.
    """
    return extend(dict(boundary_ech), kernel_basis(d_in, skip=boundary_ech.keys()))


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
