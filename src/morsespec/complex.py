"""Cell complexes and scalar fields.

Two builders are provided: a cubical grid on the flat 2-torus and the closure
of a list of maximal simplices.  Both produce :class:`CellComplex` objects
whose incidence data is purely combinatorial and taken mod 2 (no orientation
signs are stored).  A cell is its id: a complex keeps one face tuple and one
vertex tuple per id, numbers its cells dimension by dimension and records
the first id of each dimension, from which a cell's dimension is read.

A :class:`ScalarField` assigns one real value per vertex.  Values extend to
higher cells by taking the maximum over the cell's vertices, so sublevel sets
of the extension are subcomplexes.  Ties are resolved by the deterministic
total order (value, dimension, id), which makes every field behave like an
injective one.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from itertools import chain, combinations, pairwise, repeat
from pathlib import Path

from .errors import (
    ComplexBuildError,
    ComplexMismatchError,
    FieldError,
    InputFormatError,
    ReadOnly,
)

# The cell count of the largest torus the command line accepts (4 cells per
# vertex, 2^20 vertices): a simplicial closure past it is bad input.
MAX_SIMPLICIAL_CELLS = 4 << 20


class CellComplex(ReadOnly):
    """A finite regular cell complex with mod-2 incidence.

    A cell is its id, 0..len-1: ``faces[c]`` lists the ids of its
    codimension-1 faces and ``vertices[c]`` the ids of its vertices.  Cells
    are numbered dimension by dimension, and ``starts[d]`` is the id of the
    first d-cell, with ``starts[-1]`` the number of cells; so the d-cells hold
    the ids ``ids_of_dim(d)`` and ``dim(c)`` is read off the offsets.
    ``descriptor`` records provenance: ``"torus:NX:NY"`` for grid builds,
    ``"simplicial"`` otherwise.
    """

    __slots__ = ("faces", "vertices", "starts", "descriptor")

    def __init__(self, faces: tuple[tuple[int, ...], ...],
                 vertices: tuple[tuple[int, ...], ...], starts: tuple[int, ...],
                 descriptor: str):
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "descriptor", descriptor)
        n, s = len(faces), starts
        if len(vertices) != n:
            raise ComplexBuildError(f"{n} face lists but {len(vertices)} vertex lists")
        if len(s) < 2 or s[0] != 0 or s[-1] != n or any(a > b for a, b in pairwise(s)):
            raise ComplexBuildError(
                f"dimension offsets {list(s)} do not rise from 0 to the {n} cells"
            )
        for d in range(len(s) - 1):
            below = self.ids_of_dim(d - 1)
            fs = list(chain.from_iterable(faces[s[d] : s[d + 1]]))
            if fs and (min(fs) < below.start or max(fs) >= below.stop):
                c, f = next((c, f) for c in self.ids_of_dim(d) for f in faces[c]
                            if f not in below)
                raise ComplexBuildError(f"cell {c} (dim {d}) lists face {f}, not in {below}")

    def __len__(self) -> int:
        return len(self.faces)

    @property
    def top_dim(self) -> int:
        return len(self.starts) - 2

    def dim(self, cell_id: int) -> int:
        """Dimension of a cell, read off the offsets."""
        return bisect_right(self.starts, cell_id) - 1

    def ids_of_dim(self, dim: int) -> range:
        """Ids of the dim-cells; empty outside 0..top_dim."""
        return range(*self.starts[dim : dim + 2]) if 0 <= dim <= self.top_dim else range(0)

    @property
    def n_vertices(self) -> int:
        return len(self.ids_of_dim(0))

    @property
    def torus_shape(self) -> tuple[int, int] | None:
        if self.descriptor.startswith("torus:"):
            _, nx, ny = self.descriptor.split(":")
            return int(nx), int(ny)
        return None


def build_torus_grid(nx: int, ny: int) -> CellComplex:
    """Cubical complex of the flat 2-torus with an nx-by-ny vertex grid.

    Id layout (row-major, i runs over x in [0,nx), j over y in [0,ny)):

    * vertex  v(i,j)            id = j*nx + i
    * h-edge  v(i,j)-v(i+1,j)   id = V + j*nx + i
    * v-edge  v(i,j)-v(i,j+1)   id = V + E_h + j*nx + i
    * square with corner v(i,j) id = V + 2*E_h + j*nx + i

    All index arithmetic wraps around, so the complex is closed:
    nx*ny vertices, 2*nx*ny edges, nx*ny squares.
    """
    if nx < 2 or ny < 2:
        raise ComplexBuildError(f"torus grid needs nx, ny >= 2, got ({nx}, {ny})")
    nv = nx * ny
    # v(i,j), v(i+1,j), v(i,j+1), v(i+1,j+1) for each corner v(i,j), in id order;
    # the edges and the square at a corner take its id plus their offset.
    quads = [
        (r + i, r + i1, r1 + i, r1 + i1)
        for r, r1 in [(j * nx, (j + 1) % ny * nx) for j in range(ny)]
        for i, i1 in [(i, (i + 1) % nx) for i in range(nx)]
    ]
    h_ends = tuple((a, b) if a < b else (b, a) for a, b, _, _ in quads)
    v_ends = tuple((a, c) if a < c else (c, a) for a, _, c, _ in quads)
    squares = tuple((nv + a, nv + c, 2 * nv + a, 2 * nv + b) for a, b, c, _ in quads)
    corners = tuple(tuple(sorted(q)) for q in quads)
    return CellComplex(
        ((),) * nv + h_ends + v_ends + squares,
        tuple((v,) for v in range(nv)) + h_ends + v_ends + corners,
        (0, nv, 3 * nv, 4 * nv),
        f"torus:{nx}:{ny}",
    )


def build_from_simplicial(spec: list[list[int]]) -> CellComplex:
    """Close a list of maximal simplices under faces.

    ``spec`` lists each maximal simplex as a collection of vertex labels
    (arbitrary ints).  Labels are remapped to dense ids with the 0-cells
    first, ordered by label; higher cells follow dimension by dimension in
    lexicographic vertex order.  The closure of a simplex is its nonempty
    vertex subsets; a simplex whose subsets could take the closure past
    ``MAX_SIMPLICIAL_CELLS`` cells is refused before they are listed.
    """
    if not spec:
        raise ComplexBuildError("empty simplex list")
    for i, s in enumerate(spec):
        if len(set(s)) != len(s):
            raise ComplexBuildError(f"simplex {list(s)} repeats a vertex", i)
    vmap = {lab: i for i, lab in enumerate(sorted({v for s in spec for v in s}))}
    cells: set[tuple[int, ...]] = set()
    for i, s in enumerate(spec):
        vs = sorted(vmap[v] for v in s)
        if len(cells) + 2 ** len(vs) - 1 > MAX_SIMPLICIAL_CELLS:
            raise ComplexBuildError(
                f"a simplex of {len(vs)} vertices would take the closure past the cap of "
                f"{MAX_SIMPLICIAL_CELLS} cells", i
            )
        for r in range(1, len(vs) + 1):
            cells.update(combinations(vs, r))
    order = sorted(cells, key=lambda s: (len(s), s))
    ids = {s: i for i, s in enumerate(order)}
    # Faces by removed index; starts[d] is the first cell of d + 1 vertices.
    faces = tuple(tuple(ids[s[:k] + s[k + 1 :]] for k in range(len(s))) if len(s) > 1 else ()
                  for s in order)
    top = len(order[-1]) if order else 0
    starts = [bisect_left(order, n, key=len) for n in range(1, top + 1)] + [len(order)]
    return CellComplex(faces, tuple(order), tuple(starts), "simplicial")


class ScalarField(ReadOnly):
    """Vertex values with max-extension to cells.

    ``cell_values[c]`` is the maximum vertex value over cell c.  The total
    order on cells is (cell value, dimension, id), which is the key
    ``(cell_values[c], c)`` because ids run dimension by dimension; faces
    never come after their cofaces in it.
    """

    __slots__ = ("complex", "vertex_values", "cell_values")

    def __init__(self, complex: CellComplex, vertex_values: tuple[float, ...],
                 cell_values: tuple[float, ...]):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "vertex_values", vertex_values)
        object.__setattr__(self, "cell_values", cell_values)


def make_field(cx: CellComplex, values) -> ScalarField:
    """Build the scalar field with lower-star extension over ``cx``.

    ``values`` gives one finite real per 0-cell, in id order.
    """
    vals = list(map(float, values))
    if len(vals) != cx.n_vertices:
        raise FieldError(
            f"expected {cx.n_vertices} vertex values, got {len(vals)}"
        )
    if not all(map(math.isfinite, vals)):  # only a bad field pays for finding its vertex
        i = next(i for i, v in enumerate(vals) if not math.isfinite(v))
        raise FieldError(f"non-finite value {vals[i]!r} at vertex {i}")
    vertex_values = tuple(vals)  # vertex c is cell c; other cells take their vertices' max
    extension = map(max, map(map, repeat(vals.__getitem__), cx.vertices[len(vals):]))
    return ScalarField(cx, vertex_values, vertex_values + tuple(extension))


def c0_distance(f: ScalarField, g: ScalarField) -> float:
    """Max over vertices of |f - g| (the sup norm of the difference)."""
    if f.complex is not g.complex:
        raise ComplexMismatchError("fields live on different complexes")
    return max(
        abs(a - b) for a, b in zip(f.vertex_values, g.vertex_values)
    )


# ---------------------------------------------------------------------------
# text input formats


def load_simplicial(path: str | Path) -> CellComplex:
    """Read maximal simplices, one per line, whitespace-separated vertex ids.
    Here and in ``load_field`` lines end at "\\n" only, not where ``splitlines`` would."""
    spec, linenos = [], []
    for lineno, line in enumerate(Path(path).read_text().split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InputFormatError(f"bad vertex id in {line!r}", lineno) from None
        linenos.append(lineno)
    if not spec:
        raise InputFormatError("no simplices in file")
    try:
        return build_from_simplicial(spec)
    except ComplexBuildError as e:
        line = None if e.simplex is None else linenos[e.simplex]
        raise InputFormatError(str(e), line) from e


def load_field(path: str | Path, cx: CellComplex) -> ScalarField:
    """Read vertex values for ``cx`` from a text file.

    Plain format: one real per vertex in id order (any whitespace layout).
    For torus grids a CSV of shape ny rows x nx columns is also accepted;
    row j column i is the value at grid vertex (i, j).
    """
    text = Path(path).read_text()
    if "," in text:
        shape = cx.torus_shape
        if shape is None:
            raise InputFormatError("CSV grid input requires a torus-grid complex")
        nx, ny = shape
        # Blank lines are skipped, and each row keeps its line in the file.
        reader = csv.reader(text.split("\n"))
        rows = [(reader.line_num, r) for r in reader if any(t.strip() for t in r)]
        if len(rows) != ny:
            raise InputFormatError(f"expected {ny} CSV rows, got {len(rows)}")
        vals = []
        for lineno, row in rows:
            cells = [t for t in row if t.strip()]
            if len(cells) != nx:
                raise InputFormatError(f"expected {nx} columns, got {len(cells)}", lineno)
            try:
                vals += map(float, cells)
            except ValueError:  # only a bad row pays for finding its token
                for tok in cells:
                    try:
                        float(tok)
                    except ValueError:
                        raise InputFormatError(f"bad number {tok!r}", lineno) from None
    else:
        try:
            vals = [float(t) for t in text.split()]
        except ValueError as e:
            # Only a bad file pays for finding its line, counted as CSV rows are.
            for lineno, line in enumerate(text.split("\n"), start=1):
                try:
                    list(map(float, line.split()))
                except ValueError:
                    raise InputFormatError(f"bad number in field file: {e}", lineno) from None
    try:
        return make_field(cx, vals)
    except FieldError as e:
        raise InputFormatError(str(e)) from e
