"""Reference homology of the full complex, for checking the Morse route.

These run no ``gf2.homology_cycles`` walk: Betti numbers count ranks from
``echelonize`` of every boundary matrix, a boundary test reduces the chain
against the echelon of the boundary entering its grade, and class
coordinates solve one linear system of boundaries plus basis classes.  They
run on bitmasks, a column form the package does not use, so they share no
code with the position sets of ``gf2``: a bitmask vector is a Python int, bit
i is coordinate i, and a column's pivot is its highest set bit.
``echelonize`` and ``reduce_vector`` are the reference for the spectral
echelon, ``MorseComplex.boundary_echelon`` and ``reduce_chain``.
``boundary_masks`` turns the index-list columns of
``morsespec.homology.boundary_columns`` into masks, and a d-chain is a mask
over ``cx.ids_of_dim(d)`` with bit i the cell ``ids_of_dim(d)[i]``;
``morse_masks`` and ``morse_chain`` do the same for a Morse complex's
position tuples and chains.  ``reduce_boundary`` is the bitmask elimination
that ``gf2.reduce_sparse`` and its union-find routes must agree with.

``reference_gradient`` is the slow route of ``morse.build_gradient``: the
same lower-star matching from (key, id) heap pairs and a key for every cell.
It also breaks value ties by reversed id ("reverse-id"), a second matching of
the same field that the package never builds: the tests compare the two to
show that spectral values do not depend on the matching.  ``mirror_gradient``
builds that second matching through ``build_gradient`` on a relabelled
complex, as a fast route to hold the reference against.  ``empty_gradient``
is a third matching that shares no code with the lower-star builder: it
leaves every cell critical, so its Morse complex is the full complex.

``reference_morse_complex`` is the slow route of
``morse.build_morse_complex``: every critical cell's column is ``flow_down``
of its faces, grade 1 included, cells taken grade by grade in field order
and grades sorted on a (value, id) tuple key.

``exhaustive_spectral_value`` is the brute-force minimum ``chain_action``
(the largest cell value in a chain's support) over a class's coset, the
small-size reference for the echelon greedy of
``morsespec.spectral.spectral_value``.

The predicates check what the package computes and compute nothing it needs:
``validate_complex`` and ``euler_characteristic`` of a complex,
``validate_gradient`` of a matching, ``check_order_decreasing`` of a Morse
boundary against the total order on cells, ``same_class`` of two Morse
chains, ``functoriality_check`` and ``roundtrip_check`` of the continuation
maps, ``lipschitz_check`` of rho and ``spectral_gap`` of a spectrum.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import morsespec.homology as fullh
from morsespec.complex import CellComplex, c0_distance, make_field
from morsespec.errors import ChainError, ComplexBuildError, ComplexMismatchError
from morsespec.morse import (
    DiscreteGradient,
    MorseComplex,
    build_gradient,
    check_one_complex,
    homology_basis,
)
from morsespec.spectral import rho


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


def vertex_rank(fld, tie_break: str) -> list[int]:
    """Position of each vertex in the order by value, ties by id ("id") or by
    -id ("reverse-id")."""
    sign = {"id": 1, "reverse-id": -1}[tie_break]
    vals = fld.vertex_values
    rank = [0] * len(vals)
    for r, v in enumerate(sorted(range(len(vals)), key=lambda v: (vals[v], sign * v))):
        rank[v] = r
    return rank


def reference_gradient(cx, fld, tie_break: str = "id") -> DiscreteGradient:
    """The lower-star matching of ``morse.build_gradient`` by the same rules,
    on a separate route: (key, id) heap pairs, a key for every cell with the
    vertices' keys grouping the stars, edges found by membership tests, and
    a closure that pushes the candidate cofaces.  Under "reverse-id" value
    ties go to the larger vertex id and key ties to the larger cell id."""
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
    cofaces: list[list[int]] = [[] for _ in key]
    for c, fs in enumerate(faces):
        for f in fs:
            cofaces[f].append(c)

    pair_up: dict[int, int] = {}
    critical: set[int] = set()

    def push_candidates(cid: int) -> None:
        for co in cofaces[cid]:
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

    return DiscreteGradient(fld, pair_up, frozenset(critical))


def mirror_gradient(fld) -> DiscreteGradient:
    """The "reverse-id" matching of ``fld`` through ``build_gradient``.

    Within each dimension the ids of a copy of the complex run backwards, so
    every id comparison of the lower-star order flips; the "id" matching of
    the copy, read back through the relabelling, is the "reverse-id" matching
    of ``fld``.
    """
    cx = fld.complex
    # Reversing the ids within each dimension is its own inverse: cell c of
    # the copy is cell flip[c] of cx.
    flip = [c for d in range(cx.top_dim + 1) for c in reversed(cx.ids_of_dim(d))]
    copy = CellComplex(
        tuple(tuple(flip[f] for f in cx.faces[c]) for c in flip),
        tuple(tuple(flip[v] for v in cx.vertices[c]) for c in flip),
        cx.starts,
        "mirror",
    )
    g = build_gradient(make_field(copy, [fld.vertex_values[c] for c in flip[: cx.n_vertices]]))
    return DiscreteGradient(
        fld,
        {flip[q]: flip[k] for q, k in g.pair_up.items()},
        frozenset(flip[c] for c in g.critical),
    )


def empty_gradient(fld) -> DiscreteGradient:
    """The empty matching of ``fld``: every cell critical, no V-path."""
    return DiscreteGradient(fld, {}, frozenset(range(len(fld.complex))))


def reference_morse_complex(gradient) -> MorseComplex:
    """The Morse complex of ``gradient`` with one ``flow_down`` walk per
    critical cell; a cycle in the matching raises GradientCycleError."""
    cx, vals = gradient.complex, gradient.field.cell_values
    grades: dict[int, list[int]] = {}
    for cid in sorted(gradient.critical, key=lambda c: (vals[c], c)):
        grades.setdefault(cx.dim(cid), []).append(cid)
    mc = MorseComplex(gradient, grades, {})
    pos = mc._pos
    for k, cells in grades.items():
        cols = []
        for cid in cells:
            bd = gradient.flow_down(cx.faces[cid])
            if bd and k - 1 not in grades:
                raise ChainError(f"boundary of {cid} hits an absent grade")
            cols.append(tuple(sorted([pos[c][1] for c in bd])))
        mc.boundary[k] = cols
    return mc


def chain_action(fld, chain) -> float:
    """Largest cell value over the support of a nonzero chain."""
    support = frozenset(chain)
    if not support:
        raise ChainError("action of the zero chain is undefined")
    return max(fld.cell_values[c] for c in support)


def exhaustive_spectral_value(mc, X, max_generators: int = 20) -> float:
    """Brute-force minimum action over the whole coset of X.

    Walks all combinations of the raw boundary columns entering the grade in
    Gray-code order, one column XORed into the chain per step; independent of
    the echelon-greedy path.  The action of a chain is the value of its
    largest position because each grade lists cells in ascending order.
    """
    k = X.grade
    cols = mc.boundary.get(k + 1, [])
    if len(cols) > max_generators:
        raise ValueError(
            f"{len(cols)} boundary generators exceed the cap {max_generators}"
        )
    cur = mc.positions(k, X.support)
    if not cur:
        raise ChainError("zero class")
    values = mc.values(k)
    best = values[max(cur)]
    for i in range(1, 1 << len(cols)):
        # Gray codes i-1 and i differ in the lowest set bit of i.
        cur.symmetric_difference_update(cols[(i & -i).bit_length() - 1])
        if cur:
            best = min(best, values[max(cur)])
    return best


def validate_gradient(g, tie_break: str = "id") -> None:
    """Check that g is a lower-star matching under ``tie_break`` with no
    closed V-path; raise on failure.

    Every cell is matched or critical exactly once, each pair is a face and a
    coface on one level set and in one lower star, and ``flow_down`` of every
    matched lower cell walks all V-paths, raising GradientCycleError on a
    closed one.
    """
    cx = g.complex
    seen = set(g.critical)
    for q, k in g.pair_up.items():
        if q in seen or k in seen:
            raise ComplexBuildError(f"cell in pair ({q},{k}) used twice")
        seen.add(q)
        seen.add(k)
    ids = set(range(len(cx)))
    if seen != ids:
        stray, missing = sorted(seen - ids), sorted(ids - seen)
        raise ComplexBuildError(f"matching misses cells: stray {stray}, missing {missing}")
    rank = vertex_rank(g.field, tie_break).__getitem__
    for q, k in g.pair_up.items():
        if cx.dim(k) != cx.dim(q) + 1 or q not in cx.faces[k]:
            raise ComplexBuildError(f"pair ({q},{k}) is not a face-coface pair")
        if g.field.cell_values[q] != g.field.cell_values[k]:
            raise ComplexBuildError(f"pair ({q},{k}) crosses a level set")
        if max(map(rank, cx.vertices[q])) != max(map(rank, cx.vertices[k])):
            raise ComplexBuildError(f"pair ({q},{k}) crosses lower stars")
    g.flow_down(g.pair_up)


def validate_complex(cx) -> None:
    """Check the structural invariants; raise ComplexBuildError on failure.

    Checks: duplicate-free face lists and every (d, d-2) cell pair has an
    even number of (d-1)-cells between them (the mod-2 boundary-of-boundary
    condition).  That the faces of a d-cell are (d-1)-cells is checked on
    construction.
    """
    for d in range(cx.top_dim + 1):
        for c in cx.ids_of_dim(d):
            fs = cx.faces[c]
            if len(set(fs)) != len(fs):
                raise ComplexBuildError(f"duplicate face in cell {c}")
            if d >= 2:
                counts: dict[int, int] = {}
                for f in fs:
                    for g in cx.faces[f]:
                        counts[g] = counts.get(g, 0) + 1
                odd = [g for g, n in counts.items() if n % 2]
                if odd:
                    raise ComplexBuildError(
                        f"odd face-of-face incidence between cell {c} and {odd}"
                    )


def euler_characteristic(cx) -> int:
    return sum((-1) ** d * len(cx.ids_of_dim(d)) for d in range(cx.top_dim + 1))


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


def same_class(mc, a, b) -> bool:
    """Whether two Morse chains of one grade differ by a boundary."""
    diff = frozenset(a) ^ frozenset(b)
    if not diff:
        return True
    grade = {mc.position(c)[0] for c in diff}
    if len(grade) != 1:
        return False
    (k,) = grade
    return not mc.reduce_chain(k, mc.positions(k, diff))


def _transfer(mc_src, mc_dst, support) -> frozenset[int]:
    return mc_dst.gradient.flow_down(mc_src.gradient.expand(support))


def functoriality_check(mc_a, mc_b, mc_c) -> bool:
    """Composing a->b and b->c equals a->c on a full homology basis."""
    check_one_complex(mc_a, mc_b, mc_c)
    for classes in homology_basis(mc_a).values():
        for X in classes:
            direct = _transfer(mc_a, mc_c, X.support)
            via_b = _transfer(mc_a, mc_b, X.support)
            composed = _transfer(mc_b, mc_c, via_b)
            if not same_class(mc_c, direct, composed):
                return False
    return True


def roundtrip_check(mc_a, mc_b) -> bool:
    """Going a->b->a is the identity on a homology basis of the source."""
    check_one_complex(mc_a, mc_b)
    for classes in homology_basis(mc_a).values():
        for X in classes:
            there = _transfer(mc_a, mc_b, X.support)
            back = _transfer(mc_b, mc_a, there)
            if not same_class(mc_a, X.support, back):
                return False
    return True


@dataclass(frozen=True)
class LipschitzReport:
    lhs: float
    rhs: float
    passed: bool


def lipschitz_check(mc1, mc2, Y) -> LipschitzReport:
    """Compare |rho(f1) - rho(f2)| against the sup distance of the fields."""
    check_one_complex(mc1, mc2)
    lhs = abs(rho(mc1, Y).sigma - rho(mc2, Y).sigma)
    rhs = c0_distance(mc1.field, mc2.field)
    return LipschitzReport(lhs, rhs, lhs <= rhs)


def spectral_gap(values) -> float:
    """Smallest positive gap between distinct spectrum points (inf if none)."""
    vs = sorted(set(values))
    if len(vs) < 2:
        return float("inf")
    return min(b - a for a, b in zip(vs, vs[1:]))
