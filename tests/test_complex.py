import hashlib
import math
import random

import pytest

import oracles
from conftest import (
    cubical_3torus,
    cycle_graph,
    dyadic_field,
    random_simplicial,
    shifted,
    tetra_boundary,
)
from morsespec import complex as cplx
from morsespec import (
    CellComplex,
    MorseComplex,
    build_from_simplicial,
    build_torus_grid,
    c0_distance,
    load_field,
    load_simplicial,
    make_field,
)
from morsespec.errors import (
    ComplexBuildError,
    ComplexMismatchError,
    FieldError,
    InputFormatError,
)


def test_torus_counts_and_chi():
    for nx, ny, nv in [(2, 2, 4), (3, 3, 9), (4, 3, 12)]:
        cx = build_torus_grid(nx, ny)
        oracles.validate_complex(cx)
        assert cx.n_vertices == nv
        assert len(cx.ids_of_dim(1)) == 2 * nv
        assert len(cx.ids_of_dim(2)) == nv
        assert oracles.euler_characteristic(cx) == 0


def test_torus_too_small():
    with pytest.raises(ComplexBuildError):
        build_torus_grid(1, 5)
    with pytest.raises(ComplexBuildError):
        build_torus_grid(4, 1)


def test_simplicial_examples():
    tetra = tetra_boundary()
    oracles.validate_complex(tetra)
    assert oracles.euler_characteristic(tetra) == 2
    c4 = cycle_graph(4)
    oracles.validate_complex(c4)
    assert oracles.euler_characteristic(c4) == 0
    tri = build_from_simplicial([[0, 1, 2]])
    oracles.validate_complex(tri)
    assert oracles.euler_characteristic(tri) == 1


def test_simplicial_malformed():
    with pytest.raises(ComplexBuildError):
        build_from_simplicial([[0, 1, 1]])
    with pytest.raises(ComplexBuildError):
        build_from_simplicial([])
    # The only simplex is empty, so no cell is left and the offsets are refused.
    with pytest.raises(ComplexBuildError, match="dimension offsets"):
        build_from_simplicial([[]])


def closure_specs():
    """Seeded simplex lists: 1 to 10 vertices per simplex, sparse, negative
    and huge labels in any order, and lines that share faces."""
    fixed = [
        [[7]],
        [[3, 1], [1, 2], [2, 3]],
        [[-5, 10**30, 0], [0, -5], [10**30, 0, -5]],
        [[4, 2, 9, 1], [2, 9], [1], [6, 4]],
    ]
    rng = random.Random(23)
    randoms = []
    for _ in range(80):
        pool = rng.sample(range(-40, 1000, rng.choice((1, 7, 61))), rng.randint(1, 12))
        randoms.append([rng.sample(pool, rng.randint(1, min(10, len(pool))))
                        for _ in range(rng.randint(1, 6))])
    return fixed + randoms


# Taken from the three-pass closure (an explicit face stack, a label remap and
# a regroup by dimension) that the one-pass numbering of vertex subsets
# replaced; the rewrite keeps every cell, face list and offset.
CLOSURE_DIGEST = "869f9c5f285893b79cef200ec35157dd2c437d654d0ab067b8b06177b2bbda09"


def test_simplicial_closure_is_pinned():
    h = hashlib.sha256()
    for spec in closure_specs():
        cx = build_from_simplicial(spec)
        h.update(repr((cx.faces, cx.vertices, cx.starts)).encode())
    assert h.hexdigest() == CLOSURE_DIGEST


def test_simplicial_closure_cap(monkeypatch):
    # A triangle closes to 7 cells and a lone vertex adds 1.
    monkeypatch.setattr(cplx, "MAX_SIMPLICIAL_CELLS", 7)
    assert len(build_from_simplicial([[0, 1, 2]])) == 7
    with pytest.raises(ComplexBuildError, match="simplex of 1 vertices .* cap of 7 cells"):
        build_from_simplicial([[0, 1, 2], [3]])


def test_ids_of_dim_partitions_the_cells(corpus):
    rng = random.Random(9)
    complexes = [cx for cx, _ in corpus] + [random_simplicial(rng) for _ in range(20)]
    complexes += [build_torus_grid(5, 3), cubical_3torus(3, 3, 3), cubical_3torus(4, 4, 3)]
    for cx in complexes:
        ranges = [cx.ids_of_dim(d) for d in range(cx.top_dim + 1)]
        assert [i for r in ranges for i in r] == list(range(len(cx)))
        for d, r in enumerate(ranges):
            assert all(cx.dim(i) == d for i in r)
            # A d-cell's shape agrees with the dimension its id is filed under.
            assert all(bool(cx.faces[i]) == (d > 0) for i in r)
        assert len(cx.faces) == len(cx.vertices) == len(cx)
        assert all(cx.vertices[v] == (v,) for v in cx.ids_of_dim(0))
        assert cx.n_vertices == sum(1 for c in range(len(cx)) if cx.dim(c) == 0)
        assert cx.ids_of_dim(-1) == cx.ids_of_dim(cx.top_dim + 1) == range(0)


@pytest.mark.parametrize(
    "faces, vertices, starts, expect",
    [
        # A vertex filed after an edge: the offsets fall.
        (((), (0, 2), ()), ((0,), (0, 2), (2,)), (0, 2, 1, 3), "offsets"),
        (((), ()), ((0,), (1,)), (1, 2), "offsets"),
        (((), ()), ((0,), (1,)), (0, 3), "offsets"),
        (((), ()), ((0,), (1,)), (0,), "offsets"),
        (((), ()), ((0,),), (0, 2), "vertex lists"),
    ],
    ids=["falling", "start", "end", "short", "lengths"],
)
def test_offsets_that_disagree_with_the_cells_are_refused(faces, vertices, starts, expect):
    with pytest.raises(ComplexBuildError, match=expect):
        CellComplex(faces, vertices, starts, "simplicial")


@pytest.mark.parametrize(
    "faces, expect",
    [
        # An edge of two vertices, 0 and 1, that names a face past the end.
        (((), (), (0, 5)), r"cell 2 \(dim 1\) lists face 5, not in range\(0, 2\)"),
        # A negative id would index the coface table from its end.
        (((), (), (0, -1)), r"cell 2 \(dim 1\) lists face -1, not in range\(0, 2\)"),
        # An edge that lists an edge.
        (((), (), (0, 1), (0, 2)), r"cell 3 \(dim 1\) lists face 2, not in range\(0, 2\)"),
    ],
    ids=["past the end", "negative", "wrong dimension"],
)
def test_face_ids_outside_the_dimension_below_are_refused(faces, expect):
    vertices = ((0,), (1,), *([(0, 1)] * (len(faces) - 2)))
    with pytest.raises(ComplexBuildError, match=expect):
        CellComplex(faces, vertices, (0, 2, len(faces)), "simplicial")


def test_corpus_invariants(corpus):
    for cx, fld in corpus:
        oracles.validate_complex(cx)
        key = [(fld.cell_values[c], c) for c in range(len(cx))]
        # face-monotonicity of the total order
        for c, fs in enumerate(cx.faces):
            for f in fs:
                assert key[f] < key[c]
        # order is a strict total order on all cells
        assert len(set(key)) == len(cx)


def test_constant_field_order_falls_back():
    cx = build_torus_grid(3, 3)
    fld = make_field(cx, [0.0] * 9)
    assert set(fld.cell_values) == {0.0}
    by_order = sorted(range(len(cx)), key=lambda c: (fld.cell_values[c], c))
    keys = [(cx.dim(c), c) for c in by_order]
    assert keys == sorted(keys)
    mc = MorseComplex.from_field(fld)
    assert sum(map(len, mc.grades.values())) > 1
    for cells in mc.grades.values():
        assert cells == sorted(cells)


def value_dim_id(fld):
    """The total order on cells by the explicit (cell value, dimension, id) key."""
    cx = fld.complex
    return lambda c: (fld.cell_values[c], cx.dim(c), c)


def test_grades_follow_the_value_dim_id_order(corpus):
    """``build_morse_complex`` sorts by (value, id); ties, which plateau and
    constant fields make by the thousand, must still fall to (dim, id)."""
    rng = random.Random(13)
    fields = [fld for _, fld in corpus]
    complexes = [cx for cx, _ in corpus] + [
        build_torus_grid(nx, ny) for nx, ny in ((2, 5), (7, 3), (16, 16))
    ]
    complexes += [random_simplicial(rng) for _ in range(20)]
    complexes += [cubical_3torus(3, 3, 3), cubical_3torus(4, 4, 3)]
    for cx in complexes:
        n = cx.n_vertices
        fields.append(dyadic_field(cx, rng))
        fields.append(make_field(cx, [rng.randrange(3) / 2 for _ in range(n)]))
        fields.append(make_field(cx, [rng.randrange(2) for _ in range(n)]))
        fields.append(make_field(cx, [0.0] * n))
    assert sum(len(set(f.cell_values)) < len(f.complex) // 4 for f in fields) > 100
    for fld in fields:
        cx, key = fld.complex, value_dim_id(fld)
        cells = range(len(cx))
        assert sorted(cells, key=lambda c: (fld.cell_values[c], c)) == sorted(cells, key=key)
        assert all(key(f) < key(c) for c in cells for f in cx.faces[c])
        mc = MorseComplex.from_field(fld)
        assert sorted(c for grade in mc.grades.values() for c in grade) == sorted(
            mc.gradient.critical
        )
        for k, grade in mc.grades.items():
            assert grade == sorted(grade, key=key)


def test_edge_values_on_cycle():
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    edges = {cx.vertices[c]: fld.cell_values[c] for c in cx.ids_of_dim(1)}
    assert edges == {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 2.0, (0, 3): 1.0}
    for c in cx.ids_of_dim(1):
        assert fld.cell_values[c] >= max(
            fld.vertex_values[u] for u in cx.vertices[c]
        )


def test_make_field_errors():
    cx = cycle_graph(4)
    with pytest.raises(FieldError):
        make_field(cx, [0.0, 1.0])
    with pytest.raises(FieldError):
        make_field(cx, [0.0, 1.0, float("nan"), 2.0])
    with pytest.raises(FieldError):
        make_field(cx, [0.0, 1.0, math.inf, 2.0])


def test_c0_distance_examples():
    rng = random.Random(3)
    cx = build_torus_grid(4, 4)
    f = dyadic_field(cx, rng)
    assert c0_distance(f, f) == 0.0
    g = shifted(f, 0.25)
    assert c0_distance(f, g) == 0.25
    h = dyadic_field(cx, rng)
    brute = max(abs(a - b) for a, b in zip(f.vertex_values, h.vertex_values))
    assert c0_distance(f, h) == brute


def test_c0_distance_is_a_metric():
    rng = random.Random(4)
    cx = build_torus_grid(3, 4)
    for _ in range(25):
        f, g, h = (dyadic_field(cx, rng) for _ in range(3))
        assert c0_distance(f, g) == c0_distance(g, f)
        assert c0_distance(f, h) <= c0_distance(f, g) + c0_distance(g, h)
        assert c0_distance(f, g) > 0.0  # injective fields differ somewhere
    with pytest.raises(ComplexMismatchError):
        c0_distance(dyadic_field(cx, rng), dyadic_field(build_torus_grid(3, 4), rng))


def test_simplicial_file_roundtrip(tmp_path):
    p = tmp_path / "tetra.txt"
    p.write_text("0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    cx = load_simplicial(p)
    assert oracles.euler_characteristic(cx) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 x\n")
    with pytest.raises(InputFormatError) as err:
        load_simplicial(bad)
    assert err.value.line == 1


def test_field_file_plain_and_csv(tmp_path):
    cx = build_torus_grid(3, 2)
    plain = tmp_path / "f.txt"
    plain.write_text("\n".join(str(i / 4) for i in range(6)) + "\n")
    fld = load_field(plain, cx)
    assert fld.vertex_values == tuple(i / 4 for i in range(6))
    grid = tmp_path / "f.csv"
    grid.write_text("0,0.25,0.5\n0.75,1.0,1.25\n")
    fld2 = load_field(grid, cx)
    assert fld2.vertex_values == (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
    short = tmp_path / "short.txt"
    short.write_text("0.0 1.0\n")
    with pytest.raises(InputFormatError):
        load_field(short, cx)
    csv_on_simplicial = tmp_path / "g.csv"
    csv_on_simplicial.write_text("0,1\n2,3\n")
    with pytest.raises(InputFormatError):
        load_field(csv_on_simplicial, cycle_graph(4))


# Characters that str.splitlines ends a line at but the loaders keep in it.
NOT_NEWLINES = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def error_line(load, tmp_path, text, *args):
    path = tmp_path / "in.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError) as err:
        load(path, *args)
    return err.value.line


def newline_counted(text, marker):
    """The line of ``marker`` in ``text``, lines ended by "\\n" alone."""
    return text[: text.index(marker)].count("\n") + 1


@pytest.mark.parametrize("ch", NOT_NEWLINES)
def test_simplicial_file_lines_end_at_newlines_only(tmp_path, ch):
    # The character separates vertex ids as whitespace does, and starts no line.
    for text, marker in ((f"0 1 2{ch}3\n4 5\n6 x\n", "x"), (f"0 1{ch}2\n{ch}\n3 4\n5 5\n", "5 5")):
        assert error_line(load_simplicial, tmp_path, text) == newline_counted(text, marker)
    assert error_line(load_simplicial, tmp_path, "0 1\n2 x\n") == 2


@pytest.mark.parametrize("ch", NOT_NEWLINES)
def test_field_file_lines_end_at_newlines_only(tmp_path, ch):
    cx = build_torus_grid(3, 3)
    plain = f"0.1 0.2{ch}0.3\n{ch}\n0.4 0.5 0.6\n0.7 x 0.8 0.9\n"
    assert error_line(load_field, tmp_path, plain, cx) == newline_counted(plain, "x")
    # A CSV line of that character alone is blank, so it is skipped.
    grid = f"0.1,0.2,0.3\n{ch}\n0.4,0.5,0.6\n0.7,0.8,x\n"
    assert error_line(load_field, tmp_path, grid, cx) == newline_counted(grid, "x")
    wide = f"0.1,0.2,0.3\n{ch}\n0.4,0.5,0.6,0.65\n0.7,0.8,0.9\n"
    assert error_line(load_field, tmp_path, wide, cx) == newline_counted(wide, "0.65")
