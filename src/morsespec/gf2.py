"""GF(2) column linear algebra on int bitmasks.

A vector is a Python int; bit i is coordinate i.  Column reduction keeps at
most one column per pivot (the highest set bit), processing columns in the
order given, so every routine here is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable


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


def kernel_basis(columns: list[int]) -> list[int]:
    """Combination masks c with XOR of {columns[j] : bit j of c} = 0.

    The masks form a basis of the kernel of the column matrix; one mask per
    dependent column, in column order.
    """
    ech: dict[int, tuple[int, int]] = {}
    out = []
    for j, col in enumerate(columns):
        combo = 1 << j
        while col:
            p = col.bit_length() - 1
            entry = ech.get(p)
            if entry is None:
                ech[p] = (col, combo)
                break
            col ^= entry[0]
            combo ^= entry[1]
        else:
            out.append(combo)
    return out


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
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out
