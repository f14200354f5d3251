"""Reference homology of the full complex, for checking the Morse route.

These run no ``gf2.homology_cycles`` walk: Betti numbers count ranks from
``echelonize`` of every boundary matrix, a boundary test reduces the chain
against the echelon of the boundary entering its grade, and class
coordinates solve one linear system of boundaries plus basis classes.  They
stay on bitmasks, a column form the package keeps only inside the spectral
echelon: a bitmask vector is a Python int, bit i is coordinate i, and a column's
pivot is its highest set bit.  ``boundary_masks`` turns the index-list
columns of ``morsespec.homology.boundary_columns`` into masks, and a d-chain
is a mask over ``cx.ids_of_dim(d)`` with bit i the cell ``ids_of_dim(d)[i]``;
``morse_masks`` and ``morse_chain`` do the same for a Morse complex's
position tuples and chains.  ``reduce_boundary`` is the bitmask elimination
that ``gf2.reduce_sparse`` and its union-find routes must agree with.

``reference_gradient`` is the slow route of ``morse.build_gradient``: the
same lower-star matching from (key, id) heap pairs and a key for every cell.
``check_order_decreasing`` checks a Morse boundary against the total order
on cells.
"""

from __future__ import annotations

import heapq

import morsespec.homology as fullh
from morsespec.errors import ChainError, ComplexBuildError, ComplexMismatchError
from morsespec.morse import DiscreteGradient, vertex_rank


def pivot(v: int) -> int:
    """Index of the highest set bit. The zero vector has no pivot."""
    if v == 0:
        raise ValueError("zero vector has no pivot")
    return v.bit_length() - 1


def reduce_vector(v: int, ech: dict[int, int]) -> int:
    """Cancel the top bit of v against ech until it is no longer a pivot."""
    while v:
        col = ech.get(v.bit_length() - 1)
        if col is None:
            return v
        v ^= col
    return 0


def echelonize(columns) -> dict[int, int]:
    """Reduce columns to echelon form with distinct pivots.

    Returns a map pivot -> column. Columns that reduce to zero are dropped.
    """
    ech: dict[int, int] = {}
    for v in columns:
        v = reduce_vector(v, ech)
        if v:
            ech[pivot(v)] = v
    return ech


def reduce_boundary(columns: list[int], skip=()) -> tuple[list[int], set[int]]:
    """(kernel masks, pivot rows) of the columns whose index is not in skip.

    A mask c has XOR of {columns[j] : bit j of c} = 0.  Column j is reduced as
    ``(columns[j] << n) | 1 << j``; once its column part cancels, the low n
    bits hold its combination, whose top bit is j.  The pivot rows are the
    keys of ``echelonize`` on the same columns.
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


def from_bits(bits) -> int:
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


def morse_masks(mc, grade: int) -> list[int]:
    """The Morse boundary leaving ``grade`` as bitmask columns."""
    return [from_bits(col) for col in mc.boundary.get(grade, [])]


def morse_chain(mc, grade: int, support) -> int:
    """A chain of critical cells of ``grade`` as a bitmask over its positions."""
    return from_bits(mc.positions(grade, support))


def morse_cells(mc, grade: int, v: int) -> frozenset[int]:
    """The critical cells of ``grade`` at the set bits of v."""
    return mc.cells_at(grade, to_bits(v))


def solve(columns: list[int], target: int) -> int | None:
    """Combination mask expressing target as a XOR of columns, or None.

    Target is appended as a last column: it is in the span exactly when it
    reduces to zero, and its kernel mask then holds the combination.
    """
    n = len(columns)
    kernel = reduce_boundary([*columns, target])[0]
    if kernel and kernel[-1] >> n:
        return kernel[-1] ^ (1 << n)
    return None


def boundary_masks(cx, dim: int) -> list[int]:
    """The boundary matrix from dim-cells to (dim-1)-cells as bitmask columns."""
    return [from_bits(col) for col in fullh.boundary_columns(cx, dim)]


def chain_mask(cx, grade: int, support) -> int:
    ids = cx.ids_of_dim(grade)
    stray = sorted(c for c in support if c not in ids)
    if stray:
        raise ChainError(f"cells {stray} are not of dimension {grade}")
    return from_bits(c - ids.start for c in support)


def betti_numbers(cx) -> list[int]:
    """Betti numbers b_0..b_top by rank counting on the boundary matrices."""
    ranks = [len(echelonize(boundary_masks(cx, d))) for d in range(cx.top_dim + 2)]
    return [
        len(cx.ids_of_dim(d)) - ranks[d] - ranks[d + 1] for d in range(cx.top_dim + 1)
    ]


def is_boundary(cx, grade: int, support) -> bool:
    """True iff the chain is a mod-2 boundary in the full complex."""
    if grade >= cx.top_dim:
        return not support
    ech = echelonize(boundary_masks(cx, grade + 1))
    return not reduce_vector(chain_mask(cx, grade, support), ech)


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


def reference_gradient(cx, fld, tie_break: str = "id") -> DiscreteGradient:
    """The lower-star matching of ``morse.build_gradient`` by the same rules,
    on a separate route: (key, id) heap pairs, a key for every cell with the
    vertices' keys grouping the stars, edges found by membership tests, and
    a closure that pushes the candidate cofaces."""
    if fld.complex is not cx:
        raise ComplexMismatchError("field was built over a different complex")
    rank = vertex_rank(fld, tie_break)
    forward = tie_break == "id"
    faces, vertices, edge_ids = cx.faces, cx.vertices, cx.ids_of_dim(1)
    key = [
        (tuple(sorted([rank[u] for u in vertices[c]], reverse=True)), d, c if forward else -c)
        for d in range(cx.top_dim + 1)
        for c in cx.ids_of_dim(d)
    ]
    stars: list[list[int]] = [[] for _ in rank]
    for c, k in enumerate(key):
        stars[k[0][0]].append(c)

    pair_up: dict[int, int] = {}
    critical: set[int] = set()

    def push_candidates(cid: int) -> None:
        for co in cx.cofaces(cid):
            if co in unpaired and len(unpaired.intersection(faces[co])) == 1:
                heapq.heappush(pq_one, (key[co], co))

    for members in stars:
        v = members[0]  # vertices are numbered first
        if len(members) == 1:
            critical.add(v)
            continue
        edges = [cid for cid in members if cid in edge_ids]
        if not edges:
            raise ComplexBuildError(
                f"lower star of vertex {v} has no edge; cannot seed the matching"
            )
        first = min(edges, key=key.__getitem__)
        unpaired = set(members) - {v, first}
        pair_up[v] = first

        pq_one: list = []
        pq_zero = [(key[cid], cid) for cid in edges if cid != first]
        heapq.heapify(pq_zero)
        push_candidates(first)
        while pq_one or pq_zero:
            while pq_one:
                _, alpha = heapq.heappop(pq_one)
                if alpha not in unpaired:
                    continue
                front = unpaired.intersection(faces[alpha])
                if not front:
                    heapq.heappush(pq_zero, (key[alpha], alpha))
                    continue
                (lam,) = front  # pushed with one unpaired face; never more
                unpaired -= {lam, alpha}
                pair_up[lam] = alpha
                push_candidates(alpha)
                push_candidates(lam)
            while pq_zero:
                _, gamma = heapq.heappop(pq_zero)
                if gamma not in unpaired:
                    continue
                unpaired.discard(gamma)
                critical.add(gamma)
                push_candidates(gamma)
                break

    return DiscreteGradient(cx, fld, pair_up, frozenset(critical), tie_break)


def check_order_decreasing(mc) -> bool:
    """Every Morse boundary entry strictly precedes its cell in the total
    order (cell value, dimension, id), keyed by ``(cell_values[c], c)``:
    ids run dimension by dimension."""
    vals = mc.field.cell_values
    for k, cols in mc.boundary.items():
        for i, col in enumerate(cols):
            if not col:
                continue
            a = mc.grades[k][i]
            for b in mc.cells_at(k - 1, col):
                if (vals[b], b) >= (vals[a], a):
                    return False
    return True
