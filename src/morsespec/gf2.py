"""GF(2) column reduction on sparse row-index columns.

A column lists the rows of its nonzero entries.  Column reduction keeps at
most one column per pivot (the largest row), processing columns in the order
given, so every routine here is deterministic.  ``reduce_sparse`` is the
elimination loop: each column is reduced as a set of rows with a set of
column indices beside it for its combination, at a cost per entry rather
than per top index.  It returns the kernel combinations and the pivot rows,
and ``homology_cycles`` walks a chain complex's grades top down with it, so
each boundary matrix is reduced once (clearing).  ``cancel`` is the same
pivot step without the combination: it cancels a row set against a kept
echelon, which is how spectral values reduce chains.

Every matrix goes through ``reduce_columns``, which returns what
``reduce_sparse`` returns but takes union-find where the matrix is graphic:
``reduce_edges`` when every column has at most two rows (a graph's incidence
matrix, as the boundary of edges), ``reduce_rows`` when every row has at most
two entries (its transpose, as the top boundary of a surface).  Both are
near-linear, where elimination carries row and combination sets that grow
with the paths and regions they sum.  Other matrices stay on
``reduce_sparse``.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Container, Iterable, Iterator, Sequence


def reduce_sparse(
    columns: Sequence[Iterable[int]], skip: Container[int] = ()
) -> tuple[list[set[int]], set[int]]:
    """(kernel combinations, pivot rows) of the columns whose index is not in
    skip.

    Column j is reduced as a set of rows with the set {j} beside it for its
    combination; XOR is ``^=`` on both and the pivot is the largest row.  A
    combination c has XOR of {columns[j] : j in c} = 0, and its largest index
    is the column it belongs to.  Clearing (Chen-Kerber): a pivot row j of the
    boundary into a grade is the top index of a cycle, so column j of the
    grade's own boundary is dependent and may be skipped.
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


def cancel(rows: set[int], ech: dict[int, set[int]]) -> set[int]:
    """Cancel ``max(rows)`` against the echelon ``ech`` (pivot -> rows) in
    place until it is no pivot; return rows, empty iff they were in the span
    of ech's columns."""
    while rows:
        col = ech.get(max(rows))
        if col is None:
            break
        rows ^= col
    return rows


def reduce_columns(
    columns: Sequence[Sequence[int]], skip: Collection[int] = ()
) -> tuple[list[set[int]], set[int]]:
    """``reduce_sparse``'s kernel and pivot rows, by union-find where the
    matrix is graphic.

    Each column lists distinct rows.  The route follows the shape, counted on
    every call: columns of at most two rows go through ``reduce_edges``, under
    any skip set; with nothing skipped, a matrix whose rows hold at most two
    entries goes through ``reduce_rows``; anything else through
    ``reduce_sparse``.
    """
    if max(map(len, columns), default=0) <= 2:
        return reduce_edges(columns, skip)
    if not skip:
        out = reduce_rows(columns)
        if out is not None:
            return out
    return reduce_sparse(columns, skip)


def reduce_edges(
    columns: Sequence[Sequence[int]], skip: Container[int] = ()
) -> tuple[list[set[int]], set[int]]:
    """``reduce_sparse`` on columns of at most two rows, by union-find.

    A column is an edge between its rows; a one-row column ends at a ground
    node -1, and an empty one is a loop at the ground.  Columns run in order,
    and a component is named by its least node, the ground being least of
    all.  A column that joins two components is a pivot whose pivot row is the
    larger of the two names (the elder rule); one inside a component reduces
    to zero.  A zero column's combination is the unique one over itself and
    the earlier pivot columns, which form a forest: itself plus the forest
    path between its ends, which the final forest holds too.  The forest is
    kept rooted, the smaller tree rerooted at its end of each new pivot
    column, so a path is two climbs to where they meet.
    """
    ground = -1
    nodes = max(map(max, filter(None, columns)), default=-1) + 2
    parent = list(range(nodes - 1))
    parent.append(ground)  # slot -1 is the ground node
    size = [1] * nodes
    up: list = [None] * nodes  # (parent node, column) in the rooted forest
    loops, pivots = [], set()
    for j, col in enumerate(columns):
        if j in skip:
            continue
        if len(col) == 2:
            a, b = col
        else:
            a, b = (col[0] if col else ground), ground
        ra, rb = a, b
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            loops.append((j, a, b))
            continue
        sa, sb = size[ra], size[rb]
        if ra < rb:
            ra, rb = rb, ra
        pivots.add(ra)
        parent[ra] = rb
        size[rb] = sa + sb
        if sa > sb:
            a, b = b, a
        link = (b, j)
        while True:
            old = up[a]
            up[a] = link
            if old is None:
                break
            link = (a, old[1])
            a = old[0]
    kernel = []
    for j, a, b in loops:
        combo, seen, path = {j}, {a: 0}, []
        while up[a] is not None:
            a, c = up[a]
            path.append(c)
            seen[a] = len(path)
        while b not in seen:
            b, c = up[b]
            combo.add(c)
        combo.update(path[: seen[b]])
        kernel.append(combo)
    return kernel, pivots


def reduce_rows(columns: Sequence[Sequence[int]]) -> tuple[list[set[int]], set[int]] | None:
    """``reduce_sparse`` with nothing skipped, by union-find on the dual graph;
    None when some row holds more than two entries.

    A row is an edge between the columns that hold it, and a row held by one
    column ends at a ground node -1.  The anti-transpose (rows in descending
    order as columns) has the same pivot pairs (de Silva, Morozov and
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011), and its
    columns have at most two entries: so the pivot rows are the rows that,
    taken in descending order, join two components.  A kernel vector is
    constant on each component and zero on the ground's, so the
    combinations are the other components, in the order of their largest
    column, which is the one zero column among them.
    """
    rows = max(map(max, filter(None, columns)), default=-1) + 1
    first, second = [-1] * rows, [-1] * rows
    for j, col in enumerate(columns):
        for r in col:
            if first[r] < 0:
                first[r] = j
            elif second[r] < 0:
                second[r] = j
            else:
                return None
    parent = list(range(len(columns)))
    parent.append(-1)  # slot -1 is the ground node
    pivots = set()
    for r in range(rows - 1, -1, -1):
        a, b = first[r], second[r]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            pivots.add(r)
    components: dict[int, set[int]] = {}
    for j in range(len(columns)):
        a = j
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        components.setdefault(a, set()).add(j)
    grounded = -1
    while parent[grounded] != grounded:
        grounded = parent[grounded]
    components.pop(grounded, None)
    return sorted(components.values(), key=max), pivots


def homology_cycles(
    top: int, boundary: Callable[[int], Sequence[Sequence[int]]]
) -> Iterator[tuple[int, list[set[int]]]]:
    """(k, cycles) for k = top..0: a homology basis of each grade.

    ``boundary(k)`` returns the columns of the boundary leaving grade k, one
    per k-cell, and ``reduce_columns`` skips the ones whose index is a pivot
    row of the boundary leaving grade k+1.  A grade's cycles are its kernel
    combinations without those cleared columns.  A cycle's top index is no
    pivot row of the grade above, so the cycles stay independent modulo
    boundaries.
    """
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        cycles, cleared = reduce_columns(boundary(k), cleared)
        yield k, cycles
