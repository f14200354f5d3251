"""Discrete gradients, Morse complexes, and the flow chain equivalences.

The gradient is an acyclic matching of cells with cofaces built greedily
inside each lower star (the cells whose order-maximal vertex is a given
vertex).  Unmatched cells are critical.  The boundary operator of the Morse
complex counts alternating paths along the matching mod 2; counting is done
by a memoized traversal of the matching digraph, never by enumerating paths.

Two linear maps connect the Morse complex with the full complex:

* ``DiscreteGradient.flow_down`` pushes an arbitrary chain down along the
  matching until it is supported on critical cells (replace a matched cell by
  the other faces of its partner coface, iterate); it is a chain map.
* ``DiscreteGradient.expand`` inflates a chain of critical cells by
  repeatedly cancelling matched cells from its boundary; the result is a
  chain in the full complex whose boundary again expands the Morse boundary.

``project(expand(x)) = x`` holds on the nose, which makes the two maps a
deformation-retract style equivalence realizing the matching's homology
isomorphism at chain level.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import gf2
from .complex import CellComplex, ScalarField
from .errors import ChainError, ComplexBuildError, ComplexMismatchError, GradientCycleError
from .homology import HomologyClass

_GRAY = object()  # in-progress marker for the iterative flow traversal


@dataclass(eq=False)
class DiscreteGradient:
    """A lower-star acyclic matching.

    ``pair_up`` maps a cell to its matched coface, ``pair_down`` is the
    inverse, and ``critical`` collects everything unmatched.  ``tie_break``
    records which id order broke value ties ("id" or "reverse-id").
    """

    complex: CellComplex
    field: ScalarField
    pair_up: dict[int, int]
    pair_down: dict[int, int]
    critical: frozenset[int]
    tie_break: str = "id"

    def __post_init__(self):
        self._phi: dict[int, object] = {}

    def vertex_key(self, v: int):
        val = self.field.vertex_values[v]
        return (val, v) if self.tie_break == "id" else (val, -v)

    def max_vertex(self, cell_id: int) -> int:
        return max(self.complex.cells[cell_id].vertices, key=self.vertex_key)

    # -- flow along the matching -------------------------------------------

    def flow_down(self, support) -> frozenset[int]:
        """Image of a chain under the projection onto critical cells."""
        out: set[int] = set()
        for cid in support:
            out.symmetric_difference_update(self._flow_cell(cid))
        return frozenset(out)

    def _flow_cell(self, cell_id: int) -> frozenset[int]:
        """Critical chain reached from one cell, memoized over the digraph.

        A critical cell maps to itself, an upper partner to zero, and a lower
        partner to the sum of flows of the other faces of its coface.
        """
        memo = self._phi
        got = memo.get(cell_id)
        if isinstance(got, frozenset):
            return got
        stack = [cell_id]
        while stack:
            c = stack[-1]
            entry = memo.get(c)
            if isinstance(entry, frozenset):
                stack.pop()
                continue
            if c in self.critical:
                memo[c] = frozenset((c,))
                stack.pop()
                continue
            if c in self.pair_down:
                memo[c] = frozenset()
                stack.pop()
                continue
            king = self.pair_up[c]
            deps = [f for f in self.complex.cells[king].faces if f != c]
            if entry is _GRAY:
                acc: set[int] = set()
                for f in deps:
                    acc.symmetric_difference_update(memo[f])
                memo[c] = frozenset(acc)
                stack.pop()
                continue
            memo[c] = _GRAY
            for f in deps:
                sub = memo.get(f)
                if sub is _GRAY:
                    raise GradientCycleError(
                        f"closed V-path through cells {c} and {f}"
                    )
                if not isinstance(sub, frozenset):
                    stack.append(f)
        return memo[cell_id]

    def expand(self, support) -> frozenset[int]:
        """Realize a chain of critical cells as a chain in the full complex.

        Matched boundary cells are cancelled until none is left; the output
        projects back to the input and its boundary expands the Morse one.
        """
        chain = set(support)
        stray = chain - self.critical
        if stray:
            raise ChainError(f"chain touches non-critical cells {sorted(stray)}")
        for _ in range(len(self.complex) + 1):
            bd: set[int] = set()
            for cid in chain:
                bd.symmetric_difference_update(self.complex.cells[cid].faces)
            kings = {self.pair_up[q] for q in bd if q in self.pair_up}
            if not kings:
                return frozenset(chain)
            chain.symmetric_difference_update(kings)
        raise GradientCycleError("expansion did not stabilize; matching has a cycle")

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check matching invariants and acyclicity; raise on failure."""
        cx = self.complex
        seen = set(self.critical)
        for q, k in self.pair_up.items():
            if self.pair_down.get(k) != q:
                raise ComplexBuildError(f"pair ({q},{k}) missing from inverse map")
            if q in seen or k in seen:
                raise ComplexBuildError(f"cell in pair ({q},{k}) used twice")
            seen.add(q)
            seen.add(k)
            if cx.cells[k].dim != cx.cells[q].dim + 1 or q not in cx.cells[k].faces:
                raise ComplexBuildError(f"pair ({q},{k}) is not a face-coface pair")
            if self.field.cell_values[q] != self.field.cell_values[k]:
                raise ComplexBuildError(f"pair ({q},{k}) crosses a level set")
            if self.max_vertex(q) != self.max_vertex(k):
                raise ComplexBuildError(f"pair ({q},{k}) crosses lower stars")
        if len(seen) != len(cx):
            raise ComplexBuildError("matching plus critical cells do not cover")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        color: dict[int, int] = {}
        for start in self.pair_up:
            if color.get(start, 0) == 2:
                continue
            stack = [start]
            while stack:
                q = stack[-1]
                state = color.get(q, 0)
                succ = [
                    f
                    for f in self.complex.cells[self.pair_up[q]].faces
                    if f != q and f in self.pair_up
                ]
                if state == 0:
                    color[q] = 1
                    for f in succ:
                        if color.get(f, 0) == 1:
                            raise GradientCycleError(f"closed V-path at cell {f}")
                        if color.get(f, 0) == 0:
                            stack.append(f)
                else:
                    color[q] = 2
                    stack.pop()


def build_gradient(
    cx: CellComplex, fld: ScalarField, tie_break: str = "id"
) -> DiscreteGradient:
    """Greedy acyclic matching inside each lower star.

    Cells are grouped by their order-maximal vertex.  Within one group the
    matching is built coreduction style: a cell is matched to a coface as
    soon as it is that coface's only unclassified face, smallest candidates
    first; when nothing is matchable the smallest remaining cell is declared
    critical.  Pairings of this kind can never close a V-path, and paths
    between groups only descend, so the matching is acyclic by construction.
    """
    if fld.complex is not cx:
        raise ComplexMismatchError("field was built over a different complex")
    if tie_break not in ("id", "reverse-id"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    sgn = 1 if tie_break == "id" else -1
    values = fld.vertex_values
    vkey = lambda v: (values[v], sgn * v)

    star: dict[int, list[int]] = {}
    for c in cx.cells:
        mv = max(c.vertices, key=vkey)
        star.setdefault(mv, []).append(c.id)

    def ckey(cid: int):
        c = cx.cells[cid]
        return (
            tuple(sorted((vkey(u) for u in c.vertices), reverse=True)),
            c.dim,
            sgn * cid,
        )

    pair_up: dict[int, int] = {}
    pair_down: dict[int, int] = {}
    critical: set[int] = set()
    ACTIVE, DONE = 0, 1

    for v, members in star.items():
        if len(members) == 1:
            critical.add(v)
            continue
        in_star = set(members)
        status = {cid: ACTIVE for cid in members}
        faces_in_star = {
            cid: [f for f in cx.cells[cid].faces if f in in_star] for cid in members
        }

        def n_active(cid: int) -> int:
            return sum(1 for f in faces_in_star[cid] if status[f] == ACTIVE)

        one_cells = [cid for cid in members if cx.cells[cid].dim == 1]
        if not one_cells:
            raise ComplexBuildError(
                f"lower star of vertex {v} has no edge; cannot seed the matching"
            )
        first = min(one_cells, key=ckey)
        status[v] = status[first] = DONE
        pair_up[v] = first
        pair_down[first] = v

        pq_one: list = []
        pq_zero: list = []
        for cid in one_cells:
            if cid != first:
                heapq.heappush(pq_zero, (ckey(cid), cid))

        def push_candidates(cid: int) -> None:
            for co in cx.cofaces(cid):
                if co in in_star and status[co] == ACTIVE and n_active(co) == 1:
                    heapq.heappush(pq_one, (ckey(co), co))

        push_candidates(first)
        while pq_one or pq_zero:
            while pq_one:
                _, alpha = heapq.heappop(pq_one)
                if status[alpha] != ACTIVE:
                    continue
                front = [f for f in faces_in_star[alpha] if status[f] == ACTIVE]
                if not front:
                    heapq.heappush(pq_zero, (ckey(alpha), alpha))
                    continue
                if len(front) > 1:
                    continue
                lam = front[0]
                status[lam] = status[alpha] = DONE
                pair_up[lam] = alpha
                pair_down[alpha] = lam
                push_candidates(alpha)
                push_candidates(lam)
            while pq_zero:
                _, gamma = heapq.heappop(pq_zero)
                if status[gamma] != ACTIVE:
                    continue
                status[gamma] = DONE
                critical.add(gamma)
                push_candidates(gamma)
                break

    return DiscreteGradient(cx, fld, pair_up, pair_down, frozenset(critical), tie_break)


@dataclass(eq=False)
class MorseComplex:
    """Critical cells graded by dimension with the flow-counted boundary.

    ``grades[k]`` lists critical k-cells in ascending field order, so within
    a grade bit position i of a chain mask is the i-th smallest cell and a
    column's highest bit is its order-maximal entry.  ``boundary[k][i]`` is
    the boundary of the i-th critical k-cell as a mask over ``grades[k-1]``.
    """

    complex: CellComplex
    field: ScalarField
    gradient: DiscreteGradient | None
    grades: dict[int, list[int]]
    boundary: dict[int, list[int]]

    def __post_init__(self):
        self._pos = {
            cid: (k, i) for k, cells in self.grades.items() for i, cid in enumerate(cells)
        }
        self._echelon: dict[int, dict[int, int]] = {}

    @classmethod
    def from_field(
        cls, cx: CellComplex, fld: ScalarField, tie_break: str = "id"
    ) -> MorseComplex:
        """Build the field's lower-star gradient and its Morse complex.

        This is the one place that reduces a field's complex; every query
        (spectral values, continuation, homology) then runs on the result.
        """
        return build_morse_complex(cx, fld, build_gradient(cx, fld, tie_break))

    def rank(self, grade: int) -> int:
        return len(self.grades.get(grade, []))

    def cells(self, grade: int) -> list[int]:
        return self.grades.get(grade, [])

    def values(self, grade: int) -> list[float]:
        return [self.field.cell_values[c] for c in self.cells(grade)]

    def position(self, cell_id: int) -> tuple[int, int]:
        return self._pos[cell_id]

    def mask(self, grade: int, support) -> int:
        v = 0
        for cid in support:
            try:
                k, i = self._pos[cid]
            except KeyError:
                raise ChainError(f"cell {cid} is not critical here") from None
            if k != grade:
                raise ChainError(f"cell {cid} has grade {k}, expected {grade}")
            v |= 1 << i
        return v

    def unmask(self, grade: int, v: int) -> frozenset[int]:
        cells = self.grades[grade]
        return frozenset(cells[i] for i in gf2.to_bits(v))

    def boundary_of(self, grade: int, v: int) -> int:
        cols = self.boundary.get(grade, [])
        out = 0
        for i in gf2.to_bits(v):
            out ^= cols[i]
        return out

    def is_cycle(self, grade: int, v: int) -> bool:
        return self.boundary_of(grade, v) == 0

    def boundary_echelon(self, grade: int) -> dict[int, int]:
        """Echelonized columns of the boundary arriving in ``grade``."""
        ech = self._echelon.get(grade)
        if ech is None:
            ech = gf2.echelonize(self.boundary.get(grade + 1, []))
            self._echelon[grade] = ech
        return ech

    def betti(self) -> list[int]:
        out = []
        for k in range(self.complex.top_dim + 1):
            r_k = gf2.rank(self.boundary.get(k, []))
            r_k1 = gf2.rank(self.boundary.get(k + 1, []))
            out.append(self.rank(k) - r_k - r_k1)
        return out

    def to_json_dict(self) -> dict:
        return {
            "grades": {
                str(k): [
                    {"cell": cid, "value": self.field.cell_values[cid]}
                    for cid in cells
                ]
                for k, cells in sorted(self.grades.items())
            },
            "boundary": {
                str(k): [gf2.to_bits(col) for col in cols]
                for k, cols in sorted(self.boundary.items())
            },
        }


def build_morse_complex(
    cx: CellComplex, fld: ScalarField, gradient: DiscreteGradient
) -> MorseComplex:
    """Assemble the Morse complex of a gradient.

    Boundary entries are parities of alternating paths from the faces of a
    critical cell down to critical cells one dimension lower, computed by
    ``flow_down``.  A cycle in the matching surfaces as GradientCycleError.
    """
    if gradient.complex is not cx or gradient.field is not fld:
        raise ComplexMismatchError("gradient belongs to a different complex or field")
    rank = fld.order_rank
    grades: dict[int, list[int]] = {}
    for cid in sorted(gradient.critical, key=lambda c: rank[c]):
        grades.setdefault(cx.cells[cid].dim, []).append(cid)
    mc = MorseComplex(cx, fld, gradient, grades, {})
    for k, cells in grades.items():
        cols = []
        for cid in cells:
            bd = gradient.flow_down(cx.cells[cid].faces)
            cols.append(mc.mask(k - 1, bd) if k - 1 in grades else 0)
            if bd and k - 1 not in grades:
                raise ChainError(f"boundary of {cid} hits an absent grade")
        mc.boundary[k] = cols
    return mc


def check_one_complex(*mcs: MorseComplex) -> None:
    """Raise unless Morse complexes compared or mapped share one cell complex."""
    if any(mc.complex is not mcs[0].complex for mc in mcs):
        raise ComplexMismatchError("Morse complexes live on different cell complexes")


def verify_d_squared(mc: MorseComplex) -> bool:
    """True iff boundary-of-boundary is zero in every grade."""
    for k, cols in mc.boundary.items():
        for col in cols:
            if mc.boundary_of(k - 1, col) != 0:
                return False
    return True


def check_order_decreasing(mc: MorseComplex) -> bool:
    """Every boundary entry strictly precedes its cell in the total order."""
    rank = mc.field.order_rank
    for k, cols in mc.boundary.items():
        for i, col in enumerate(cols):
            if col == 0:
                continue
            a = mc.grades[k][i]
            for b in mc.unmask(k - 1, col):
                if rank[b] >= rank[a]:
                    return False
    return True


def homology_basis(mc: MorseComplex) -> dict[int, list[HomologyClass]]:
    """Per grade, a deterministic GF(2) basis of cycles modulo boundaries."""
    out: dict[int, list[HomologyClass]] = {}
    for k in range(mc.complex.top_dim + 1):
        n = mc.rank(k)
        if n == 0:
            out[k] = []
            continue
        cols = mc.boundary.get(k, [])
        if k == 0 or all(c == 0 for c in cols):
            cycles = [1 << i for i in range(n)]
        else:
            cycles = gf2.kernel_basis(cols)
        ech = dict(mc.boundary_echelon(k))
        out[k] = [
            HomologyClass(k, mc.unmask(k, v), "morse", owner=mc)
            for v in gf2.extend(ech, cycles)
        ]
    return out


def same_class(mc: MorseComplex, a, b) -> bool:
    """Whether two Morse chains of one grade differ by a boundary."""
    diff = frozenset(a) ^ frozenset(b)
    if not diff:
        return True
    grade = {mc.position(c)[0] for c in diff}
    if len(grade) != 1:
        return False
    (k,) = grade
    return gf2.in_span(mc.mask(k, diff), mc.boundary_echelon(k))
