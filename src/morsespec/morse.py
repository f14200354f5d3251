"""Discrete gradients, Morse complexes, and the flow chain equivalences.

The gradient is an acyclic matching of cells with cofaces built greedily
inside each lower star (the cells whose order-maximal vertex is a given
vertex).  Unmatched cells are critical.  The boundary operator of the Morse
complex counts alternating paths along the matching mod 2, never one by one:
a vertex has one V-path, to its root, so an edge's column is its ends' roots;
above grade 1 a column is the flow of the cell's boundary, one topological
walk of the V-paths (q -> the other faces of q's coface).

Two linear maps connect the Morse complex with the full complex, both on that
walk, which decides each matched lower cell once, upstream first:

* ``DiscreteGradient.flow_down`` replaces each matched lower cell still in the
  chain by the other faces of its coface and keeps the critical cells; it is
  a chain map.
* ``DiscreteGradient.expand`` adds to a chain of critical cells the cofaces
  the walk uses on its boundary.  The result is the unique such chain in the
  full complex (two would differ by cofaces whose lower faces cancel in
  pairs, which closes a V-path); its boundary expands the Morse boundary.

``project(expand(x)) = x`` holds on the nose, which makes the two maps a
deformation-retract style equivalence realizing the matching's homology
isomorphism at chain level.  The Morse complex thus has the homology of the
full complex, and both take their cycles from one top-down
``gf2.homology_cycles`` walk over row-index columns (here ``homology_basis``,
which ``betti`` counts).  A Morse column is the ascending tuple of its row
positions, and a Morse chain is a set of positions in its grade.  The echelon
of the boundary entering a grade, which ``MorseComplex.reduce_chain`` reduces
chains against for spectral values, holds position sets too.

Everything here takes each fact once: a gradient is built from a field, which
knows its complex, and a Morse complex from a gradient, which knows its field.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush

from . import gf2
from .complex import CellComplex, ScalarField
from .errors import ChainError, ComplexBuildError, ComplexMismatchError, GradientCycleError
from .homology import HomologyClass, boundary_support

_GRAY = object()  # in-progress marker of the V-path walk


class DiscreteGradient:
    """An acyclic matching on the complex of ``field``: the lower-star one of
    ``build_gradient``, or the empty one, whose Morse complex is the full
    complex.

    ``pair_up`` maps a cell to its matched coface, and ``critical`` collects
    everything unmatched.
    """

    __slots__ = ("field", "pair_up", "critical")

    def __init__(self, field: ScalarField, pair_up: dict[int, int], critical: frozenset[int]):
        self.field = field
        self.pair_up = pair_up
        self.critical = critical

    @property
    def complex(self) -> CellComplex:
        return self.field.complex

    # -- the V-path walk ----------------------------------------------------

    def _vpath_order(self, starts) -> list[int]:
        """Matched lower cells reachable from ``starts``, in post-order.

        The V-path digraph has an edge q -> f for every other face f of q's
        coface that is itself a matched lower cell.  Each cell comes after
        every cell it reaches; a back edge closes a V-path and raises.
        """
        faces, up = self.complex.faces, self.pair_up
        mark: dict[int, object] = {}
        order: list[int] = []
        stack = [q for q in starts if q in up]
        while stack:
            q = stack.pop()
            if mark.get(q) is _GRAY:
                mark[q] = True
                order.append(q)
            elif q not in mark:
                mark[q] = _GRAY
                stack.append(q)
                for f in faces[up[q]]:
                    if f != q and f in up:
                        if mark.get(f) is _GRAY:
                            raise GradientCycleError(f"closed V-path at cell {f}")
                        stack.append(f)
        return order

    def _descend(self, chain: set[int]) -> list[int]:
        """Cancel every matched lower cell of ``chain`` in place.

        Upstream cells come first, so a cell is decided once, after every
        cell that can still toggle it: if it is in the chain, the faces of
        its coface are added.  Returns the cofaces used.
        """
        faces, up = self.complex.faces, self.pair_up
        used = []
        for q in reversed(self._vpath_order(chain)):
            if q in chain:
                used.append(up[q])
                chain.symmetric_difference_update(faces[up[q]])
        return used

    # -- flow along the matching -------------------------------------------

    def flow_down(self, support) -> frozenset[int]:
        """Image of a chain under the projection onto critical cells."""
        chain = set(support)
        self._descend(chain)
        return self.critical.intersection(chain)

    def expand(self, support) -> frozenset[int]:
        """Realize a chain of critical cells as a chain in the full complex.

        The cofaces that cancel the matched lower cells of the chain's
        boundary are added; the output projects back to the input and its
        boundary expands the Morse one.
        """
        chain = set(support)
        stray = chain - self.critical
        if stray:
            raise ChainError(f"chain touches non-critical cells {sorted(stray)}")
        chain.update(self._descend(set(boundary_support(self.complex, chain))))
        return frozenset(chain)


def vertex_rank(fld: ScalarField) -> list[int]:
    """Position of each vertex in the lower-star order: by value, ties by id,
    as a stable sort of the ids gives."""
    rank = [0] * len(fld.vertex_values)
    for r, v in enumerate(sorted(range(len(rank)), key=fld.vertex_values.__getitem__)):
        rank[v] = r
    return rank


def build_gradient(fld: ScalarField) -> DiscreteGradient:
    """Greedy acyclic matching inside each lower star (Robins–Wood–Sheppard,
    "ProcessLowerStars", IEEE TPAMI 2011).

    Each cell above dimension 0 has one key: its vertices' ``vertex_rank`` in
    descending order, then its dimension, then its id.  The first rank names
    the cell's lower star, the star of its order-maximal vertex.  A vertex
    needs no key: it seeds its own star.  The keys themselves are the heap
    entries, and a popped key gives its cell back as ``key[2]``.  Within one
    star the matching is built coreduction style: a cell is matched to a
    coface as soon as it is that coface's only unpaired face, smallest keys
    first; when nothing is matchable the smallest remaining cell is declared
    critical.  A regular point's star (the vertex, two edges and one cell
    with both among its faces, most stars of a smooth field) needs no heap:
    the vertex takes the edge of smaller key and the cell the other.
    Pairings of this kind can never close a V-path, and paths between stars
    only descend, so the matching is acyclic by construction.  Stars are
    matched independently and walked in vertex-id order, which keeps the walk
    in nearby memory: a star's cells have ids near its vertex.
    """
    cx = fld.complex
    rank = vertex_rank(fld)
    faces, vertices = cx.faces, cx.vertices
    key: list = [None] * len(rank)
    for d in range(1, cx.top_dim + 1):
        key += [
            (tuple(sorted(map(rank.__getitem__, vertices[c]), reverse=True)), d, c)
            for c in cx.ids_of_dim(d)
        ]
    stars: list[list[int]] = [[] for _ in rank]  # by rank, walked in vertex-id order
    for v, r in enumerate(rank):
        stars[r].append(v)
    for c in range(len(rank), len(key)):
        stars[key[c][0][0]].append(c)
    edge_end = cx.ids_of_dim(1).stop

    pair_up: dict[int, int] = {}
    critical: set[int] = set()
    for members in map(stars.__getitem__, rank):
        v = members[0]
        if len(members) == 1:
            critical.add(v)
            continue
        # Members are in id order, and ids run dimension by dimension.
        if len(members) == 4:  # a regular point's star: v, edges a and b, one cell on both?
            _, a, b, co = members
            if b < edge_end <= co and a in faces[co] and b in faces[co]:
                lo, hi = (a, b) if key[a] < key[b] else (b, a)
                pair_up[v], pair_up[hi] = lo, co  # as the heap loop pairs them
                continue
        above = bisect_left(members, edge_end, 1)
        pq_zero = [key[e] for e in members[1:above]]
        if not pq_zero:
            raise ComplexBuildError(
                f"lower star of vertex {v} has no edge; cannot seed the matching"
            )
        heapify(pq_zero)
        first = heappop(pq_zero)[2]
        pair_up[v] = first
        unpaired = set(members[1:])
        unpaired.discard(first)
        # The only cofaces that can be unpaired are the star's own cells
        # above dimension 1: one pass over their faces lists them all.
        cofaces: dict[int, list[int]] = {}
        for co in members[above:]:
            for f in faces[co]:
                cofaces.setdefault(f, []).append(co)
        pq_one: list = []
        fresh: tuple[int, ...] = (first,)  # cells just paired or made critical
        while fresh:
            for c in fresh:
                for co in cofaces.get(c, ()):
                    if co in unpaired and len(unpaired.intersection(faces[co])) == 1:
                        heappush(pq_one, key[co])
            fresh = ()
            while pq_one and not fresh:
                alpha = heappop(pq_one)[2]
                if alpha in unpaired:
                    front = unpaired.intersection(faces[alpha])
                    if front:
                        (lam,) = front  # pushed with one unpaired face; never more
                        unpaired -= {lam, alpha}
                        pair_up[lam] = alpha
                        fresh = (alpha, lam)
                    else:
                        heappush(pq_zero, key[alpha])
            while pq_zero and not fresh:
                gamma = heappop(pq_zero)[2]
                if gamma in unpaired:
                    unpaired.discard(gamma)
                    critical.add(gamma)
                    fresh = (gamma,)

    return DiscreteGradient(fld, pair_up, frozenset(critical))


class MorseComplex:
    """Critical cells graded by dimension with the flow-counted boundary.

    ``grades[k]`` lists critical k-cells in ascending field order, so within
    a grade position i is the i-th smallest cell and a column's largest
    position is its order-maximal entry.  ``boundary[k][i]`` is the boundary
    of the i-th critical k-cell as the ascending tuple of its positions in
    ``grades[k-1]``.  The complex and the field are the gradient's.
    """

    # A weak reference lets a caller watch a streamed Morse complex being freed.
    __slots__ = ("gradient", "grades", "boundary", "_pos", "_echelon", "__weakref__")

    def __init__(self, gradient: DiscreteGradient, grades: dict[int, list[int]],
                 boundary: dict[int, list[tuple[int, ...]]]):
        self.gradient = gradient
        self.grades = grades
        self.boundary = boundary
        self._pos = {cid: (k, i) for k, cells in grades.items() for i, cid in enumerate(cells)}
        self._echelon: dict[int, dict[int, set[int]]] = {}

    @property
    def complex(self) -> CellComplex:
        return self.gradient.field.complex

    @property
    def field(self) -> ScalarField:
        return self.gradient.field

    @classmethod
    def from_field(cls, fld: ScalarField) -> MorseComplex:
        """Build the field's lower-star gradient and its Morse complex.

        This is the one place that reduces a field's complex; every query
        (spectral values, continuation, homology) then runs on the result.
        """
        return build_morse_complex(build_gradient(fld))

    def rank(self, grade: int) -> int:
        return len(self.grades.get(grade, []))

    def cells(self, grade: int) -> list[int]:
        return self.grades.get(grade, [])

    def values(self, grade: int) -> list[float]:
        return [self.field.cell_values[c] for c in self.cells(grade)]

    def position(self, cell_id: int) -> tuple[int, int]:
        try:
            return self._pos[cell_id]
        except KeyError:
            raise ChainError(f"cell {cell_id} is not critical here") from None

    def positions(self, grade: int, support) -> set[int]:
        """The chain of critical cells ``support`` as positions in ``grade``."""
        pos, out = self._pos, set()
        for cid in support:
            k, i = pos.get(cid) or self.position(cid)  # position raises off the grades
            if k != grade:
                raise ChainError(f"cell {cid} has grade {k}, expected {grade}")
            out.add(i)
        return out

    def class_positions(self, X: HomologyClass) -> set[int]:
        """Positions of X's representative; raise unless X is a nonzero cycle
        of this Morse complex (a class with no owner may be one)."""
        if X.basis != "morse":
            raise ChainError("expected a Morse-complex class")
        if X.owner is not None and X.owner is not self:
            raise ComplexMismatchError("class belongs to a different Morse complex")
        chain = self.positions(X.grade, X.support)
        if not chain:
            raise ChainError("the zero class has no spectral value or continuation image")
        if not self.is_cycle(X.grade, chain):
            raise ChainError("representative is not a cycle")
        return chain

    def cells_at(self, grade: int, chain) -> frozenset[int]:
        cells = self.grades[grade]
        return frozenset(cells[i] for i in chain)

    def boundary_of(self, grade: int, chain) -> set[int]:
        cols = self.boundary.get(grade, [])
        out: set[int] = set()
        for i in chain:
            out.symmetric_difference_update(cols[i])
        return out

    def is_cycle(self, grade: int, chain) -> bool:
        return not self.boundary_of(grade, chain)

    def boundary_echelon(self, grade: int) -> dict[int, set[int]]:
        """The columns of the boundary arriving in ``grade`` in echelon form,
        as a map pivot -> set of positions, each built by ``gf2.cancel``.
        Cached for spectral queries; the homology walk keeps no echelon
        alive."""
        ech = self._echelon.get(grade)
        if ech is None:
            ech = {}
            for col in self.boundary.get(grade + 1, []):
                rows = gf2.cancel(set(col), ech)
                if rows:
                    ech[max(rows)] = rows
            self._echelon[grade] = ech
        return ech

    def reduce_chain(self, grade: int, chain) -> list[int]:
        """Positions of ``chain`` once its top is cancelled against the
        boundary echelon until no pivot matches, ascending; empty iff the
        chain is a boundary."""
        return sorted(gf2.cancel(set(chain), self.boundary_echelon(grade)))

    def betti(self) -> list[int]:
        return [len(classes) for classes in homology_basis(self).values()]

    def to_json_dict(self) -> dict:
        vals = self.field.cell_values
        return {
            "grades": {
                str(k): [{"cell": cid, "value": vals[cid]} for cid in cells]
                for k, cells in sorted(self.grades.items())
            },
            "boundary": {str(k): list(cols) for k, cols in sorted(self.boundary.items())},
        }


def build_morse_complex(gradient: DiscreteGradient) -> MorseComplex:
    """Assemble the Morse complex of a gradient.

    Boundary entries are parities of alternating paths from the faces of a
    critical cell down to critical cells one dimension lower.  A vertex has
    one path (a matched vertex goes on to the other end of its edge), so a
    critical edge's column is the roots of its two ends, each root found
    once; higher grades take ``flow_down`` of the faces, one topological walk
    of the V-paths they reach.  Cells are walked in id order, near in memory.
    A cycle in the matching surfaces as GradientCycleError.
    """
    cx, vals = gradient.complex, gradient.field.cell_values
    faces, up, critical = cx.faces, gradient.pair_up, gradient.critical
    ids = sorted(critical)
    grades: dict[int, list[int]] = {}
    # Ids run dimension by dimension: a stable sort by value gives (value, dim, id).
    for cid in sorted(ids, key=vals.__getitem__):
        grades.setdefault(cx.dim(cid), []).append(cid)
    mc = MorseComplex(gradient, grades, {k: [()] * len(cells) for k, cells in grades.items()})
    pos = mc._pos
    root: list = [None] * cx.n_vertices  # where each vertex's V-path ends; -1: no critical cell

    def find(v: int) -> int:
        path = []
        while root[v] is None and v in up:
            root[v] = _GRAY
            path.append(v)
            try:
                a, b = faces[up[v]]
            except ValueError:  # only a forged matching pairs a vertex with a non-edge
                raise ChainError(f"vertex {v} is paired with cell {up[v]}, not an edge") from None
            v = b if a == v else a
        if root[v] is None:
            root[v] = v if v in critical else -1
        elif root[v] is _GRAY:
            raise GradientCycleError(f"closed V-path at cell {v}")
        for u in path:
            root[u] = root[v]
        return root[v]

    for cid in ids:
        k, i = pos[cid]
        if k == 1:
            a, b = map(find, faces[cid])
            bd = () if a == b else [r for r in (a, b) if r >= 0]
        else:  # flow_down of a k-cell's faces lands on critical (k-1)-cells
            bd = gradient.flow_down(faces[cid]) if faces[cid] else ()
            if bd and k - 1 not in grades:
                raise ChainError(f"boundary of {cid} hits an absent grade")
        if bd:
            mc.boundary[k][i] = tuple(sorted([pos[c][1] for c in bd]))
    return mc


def check_one_complex(*mcs: MorseComplex) -> None:
    """Raise unless Morse complexes compared or mapped share one cell complex."""
    if any(mc.complex is not mcs[0].complex for mc in mcs):
        raise ComplexMismatchError("Morse complexes live on different cell complexes")


def verify_d_squared(mc: MorseComplex) -> bool:
    """True iff boundary-of-boundary is zero in every grade."""
    for k, cols in mc.boundary.items():
        for col in cols:
            if mc.boundary_of(k - 1, col):
                return False
    return True


def homology_basis(mc: MorseComplex) -> dict[int, list[HomologyClass]]:
    """Per grade, a deterministic GF(2) basis of cycles modulo boundaries: the
    ``gf2.homology_cycles`` walk over the Morse boundary columns."""
    walk = gf2.homology_cycles(mc.complex.top_dim, lambda k: mc.boundary.get(k, []))
    return {
        k: [HomologyClass(k, mc.cells_at(k, combo), "morse", owner=mc) for combo in cycles]
        for k, cycles in sorted(walk)
    }
