"""The lower-star gradient: a pinned matching, plateau fields, validation.

``build_gradient`` breaks value ties by vertex id, so the matching it builds
is a fixed function of the field.  ``oracles.reference_gradient`` also builds
the matching that breaks ties by reversed id ("reverse-id").  The pin below
hashes the sorted ``pair_up`` and ``critical`` over a corpus of tori (square,
non-square and 2-wide sides), seeded simplicial complexes and a cubical
3-torus, under random, plateau, constant and bump fields and both
tie-breaks; any change to the matching changes the digest.
"""

import hashlib
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DENOM, cubical_3torus, dyadic_field, random_simplicial
from morsespec import CellComplex, build_from_simplicial, build_torus_grid, make_field
from morsespec.errors import ChainError, ComplexBuildError
from morsespec.fields import expression_field
from morsespec.morse import DiscreteGradient, build_gradient, build_morse_complex, vertex_rank

TIE_BREAKS = ("id", "reverse-id")


def tie_broken_gradient(cx, fld, tie_break):
    """The package's matching under "id", the reference's under "reverse-id"."""
    if tie_break == "id":
        return build_gradient(fld)
    return oracles.reference_gradient(cx, fld, tie_break)


def plateau_values(cx, rng):
    return [rng.randrange(3) / 2 for _ in range(cx.n_vertices)]


def matching_corpus():
    """(label, complex, field) triples of the pin, in a fixed order."""
    rng = random.Random(12)
    for nx, ny in ((2, 2), (2, 5), (5, 2), (3, 3), (3, 7), (8, 5), (13, 11), (16, 16)):
        cx = build_torus_grid(nx, ny)
        yield f"torus {nx}x{ny} random", cx, dyadic_field(cx, rng)
        yield f"torus {nx}x{ny} plateau", cx, make_field(cx, plateau_values(cx, rng))
        yield f"torus {nx}x{ny} constant", cx, make_field(cx, [0.0] * cx.n_vertices)
        yield f"torus {nx}x{ny} bump", cx, expression_field(cx, "bump")
    for i in range(40):
        cx = random_simplicial(rng)
        yield f"simplicial {i} random", cx, dyadic_field(cx, rng)
        yield f"simplicial {i} 0/1", cx, make_field(
            cx, [rng.randrange(2) for _ in range(cx.n_vertices)]
        )
    cx = cubical_3torus(3, 3, 3)
    yield "3-torus random", cx, dyadic_field(cx, rng)
    yield "3-torus plateau", cx, make_field(cx, plateau_values(cx, rng))


def matching_digest():
    h = hashlib.sha256()
    for label, cx, fld in matching_corpus():
        for tie_break in TIE_BREAKS:
            g = tie_broken_gradient(cx, fld, tie_break)
            h.update(repr((label, tie_break, sorted(g.pair_up.items()),
                           sorted(g.critical))).encode())
    return h.hexdigest()


# Taken from the matching built before the lower-star order was rewritten
# around vertex ranks; the rewrite keeps every pair and critical cell.
MATCHING_DIGEST = "0fdb156c15d3703fc69638d54dc30d373163d805b6ddab7927680cdf02a46504"


def test_matching_is_pinned():
    assert matching_digest() == MATCHING_DIGEST


@st.composite
def plateau_instances(draw):
    """A closed simplicial complex on at most 7 vertices with values in
    {0, 1/2, 1}: most cells tie, so the tie-break decides the matching."""
    n = draw(st.integers(3, 7))
    simplices = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    spec = draw(st.lists(simplices, min_size=1, max_size=8))
    cx = build_from_simplicial(spec)
    values = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)),
                           min_size=cx.n_vertices, max_size=cx.n_vertices))
    return cx, make_field(cx, values)


@settings(max_examples=150, deadline=None)
@given(plateau_instances(), st.sampled_from(TIE_BREAKS))
def test_plateau_gradient_is_valid_and_keeps_homology(instance, tie_break):
    cx, fld = instance
    g = tie_broken_gradient(cx, fld, tie_break)
    oracles.validate_gradient(g, tie_break)
    assert build_morse_complex(g).betti() == oracles.betti_numbers(cx)


def test_vertex_rank_breaks_ties_by_id():
    cx = build_from_simplicial([[0, 1], [1, 2], [2, 3]])
    fld = make_field(cx, [1.0, 0.0, 1.0, 0.0])
    assert vertex_rank(fld) == oracles.vertex_rank(fld, "id") == [2, 0, 3, 1]
    assert oracles.vertex_rank(fld, "reverse-id") == [3, 1, 2, 0]


def forged(g, critical):
    return DiscreteGradient(g.field, g.pair_up, frozenset(critical))


@pytest.mark.parametrize("stray", ["-1", "past the end"])
def test_validate_refuses_a_cell_outside_the_complex(stray):
    cx = build_torus_grid(3, 3)
    g = build_gradient(make_field(cx, [0.0] * 9))
    top = max(g.critical)
    if stray == "-1":
        # -1 indexes the faces of the last cell, a square like the one it replaces.
        bad = forged(g, g.critical - {top} | {-1})
        expect = rf"stray \[-1\], missing \[{top}\]"
    else:
        bad = forged(g, g.critical | {len(cx) + 5})
        expect = rf"stray \[{len(cx) + 5}\], missing \[\]"
    with pytest.raises(ComplexBuildError, match=expect):
        oracles.validate_gradient(bad)
    if stray == "-1":
        # The offsets would grade the bogus id under dimension -1, so the Morse
        # builder refuses it too.
        with pytest.raises(ChainError, match=r"^critical id -1 is not a cell"):
            build_morse_complex(bad)





def gradient_fields(cx, rng):
    """Dyadic, plateau ({0, 1/2, 1}) and constant fields over one complex."""
    yield "dyadic", dyadic_field(cx, rng)
    yield "plateau", make_field(cx, plateau_values(cx, rng))
    yield "constant", make_field(cx, [0.0] * cx.n_vertices)


def assert_same_matching(cx, fld, tie_break):
    # Under "reverse-id" the fast route is build_gradient on the mirrored complex.
    g = build_gradient(fld) if tie_break == "id" else oracles.mirror_gradient(fld)
    ref = oracles.reference_gradient(cx, fld, tie_break)
    assert g.pair_up == ref.pair_up
    assert g.critical == ref.critical


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(TIE_BREAKS))
def test_gradient_equals_reference_on_simplicial_complexes(rng, tie_break):
    cx = random_simplicial(rng)
    for _, fld in gradient_fields(cx, rng):
        assert_same_matching(cx, fld, tie_break)


@pytest.mark.parametrize("shape", [
    (2, 2), (2, 3), (3, 2), (2, 16), (16, 2), (3, 3), (4, 7), (9, 5), (12, 12), (16, 16),
])
def test_gradient_equals_reference_on_tori(shape):
    rng = random.Random(f"torus {shape}")
    cx = build_torus_grid(*shape)
    for _, fld in [*gradient_fields(cx, rng), ("bump", expression_field(cx, "bump"))]:
        for tie_break in TIE_BREAKS:
            assert_same_matching(cx, fld, tie_break)


def test_gradient_equals_reference_on_the_3_torus():
    rng = random.Random(16)
    cx = cubical_3torus(3, 4, 3)
    for _, fld in gradient_fields(cx, rng):
        for tie_break in TIE_BREAKS:
            assert_same_matching(cx, fld, tie_break)


def fan(n):
    """Apex 0 joined to the path 1, 2, ..., n + 1: n triangles round one vertex."""
    return build_from_simplicial([[0, i, i + 1] for i in range(1, n + 1)])


def book(n):
    """n triangles on the one edge {0, 1}."""
    return build_from_simplicial([[0, 1, i] for i in range(2, n + 2)])


def lifted(fld, top):
    """``fld`` with the vertices ``top`` tied above every other value, so one
    lower star holds every cell that touches them."""
    vals, high = list(fld.vertex_values), max(fld.vertex_values) + 1
    for v in top:
        vals[v] = high
    return make_field(fld.complex, vals)


@pytest.mark.parametrize("shape", ["fan", "book"])
def test_gradient_equals_reference_on_one_wide_lower_star(shape):
    # Lifted, the apex's star holds all 300 triangles of the fan, and the
    # spine's star all 298 triangles on the book's one edge.
    cx, top = (fan(300), [0]) if shape == "fan" else (book(298), [0, 1])
    rng = random.Random(shape)
    for _, fld in gradient_fields(cx, rng):
        for f in (fld, lifted(fld, top)):
            for tie_break in TIE_BREAKS:
                assert_same_matching(cx, f, tie_break)


def test_one_lower_star_of_20000_triangles_is_matched_in_one_pass():
    # Scanning the star once per fresh cell would take minutes here.
    cx = fan(20_000)
    fld = lifted(make_field(cx, [0.0] * cx.n_vertices), [0])
    start = time.perf_counter()
    g = build_gradient(fld)
    assert time.perf_counter() - start < 5
    # The fan is a disk: the critical cells count its Euler characteristic.
    assert sum((-1) ** cx.dim(c) for c in g.critical) == 1


# -- the regular-star route ---------------------------------------------------
#
# A lower star of exactly its vertex v, two edges a and b and one cell above
# dimension 1 with both among its faces (a regular point's, on a surface) is
# matched without the heap: v with the edge of smaller key, the other edge
# with the cell.  Every other star takes the heap loop.


def regular_share(fld) -> float:
    """The share of lower stars that take the regular-star route."""
    cx, rank = fld.complex, vertex_rank(fld)
    stars = [[] for _ in rank]
    for c in range(len(cx)):
        stars[max(rank[u] for u in cx.vertices[c])].append(c)
    regular = [m for m in stars if len(m) == 4 and cx.dim(m[1]) == cx.dim(m[2]) == 1
               and cx.dim(m[3]) > 1 and {m[1], m[2]} <= set(cx.faces[m[3]])]
    return len(regular) / len(stars)


@pytest.mark.parametrize("name", ["bump", "twobump"])
def test_gradient_equals_reference_where_most_stars_are_regular(name):
    cx = build_torus_grid(64, 64)
    fld = expression_field(cx, name)
    assert regular_share(fld) > 0.9
    assert_same_matching(cx, fld, "id")


@pytest.mark.parametrize("values, first", [([0.0, 0.5, 1.0], (0, 2)), ([0.5, 0.0, 1.0], (1, 2))])
def test_regular_star_pairs_its_vertex_with_the_smaller_edge(values, first):
    # Vertex 2 tops the triangle: its star is 2, edges 02 and 12, and the
    # triangle.  The edge to the lower of 0 and 1 has the smaller key.
    cx = build_from_simplicial([[0, 1, 2]])
    edge = {cx.vertices[e]: e for e in cx.ids_of_dim(1)}
    other = edge[(0, 2)] + edge[(1, 2)] - edge[first]
    fld = make_field(cx, values)
    assert regular_share(fld) == 1 / 3
    g = build_gradient(fld)
    assert g.pair_up[2] == edge[first] and g.pair_up[other] == cx.ids_of_dim(2)[0]
    assert_same_matching(cx, fld, "id")


@pytest.mark.parametrize("values", [[0.0, 0.5, 1.0], [0.5, 0.0, 1.0]])
def test_star_whose_top_cell_misses_an_edge_takes_the_heap_loop(values):
    # Hand-built: the 2-cell 6 on the vertices 0, 1, 2 lists the edges 3 =
    # {0, 2} and 5 = {0, 1} as its faces but not 4 = {1, 2}, so the lower star
    # of vertex 2 (2, 3, 4 and 6) has the regular shape without its faces.
    # The boundary of 6 is no cycle, and the heap loop leaves 6 neither
    # matched nor critical: the two routes are compared, not validated.
    cx = CellComplex(((),) * 3 + ((0, 2), (1, 2), (0, 1)) + ((3, 5),),
                     ((0,), (1,), (2,), (0, 2), (1, 2), (0, 1), (0, 1, 2)), (0, 3, 6, 7),
                     "hand-built")
    fld = make_field(cx, values)
    assert regular_share(fld) == 0
    assert_same_matching(cx, fld, "id")
    assert build_gradient(fld).pair_up.get(4) != 6


def smooth_values(points, period, centers) -> list[float]:
    """Sums of Gaussians at ``centers`` on a torus of sides ``period``,
    rounded to k / 2^20: smooth fields whose values are exact."""
    def wrap(d, p):
        return min(abs(d) % p, p - abs(d) % p)

    return [round(sum(h * math.exp(-(wrap(x - x0, period[0]) ** 2 + wrap(y - y0, period[1]) ** 2)
                                   / (2 * w * w)) for x0, y0, h, w in centers) * DENOM) / DENOM
            for x, y in points]


@st.composite
def gradient_instances(draw):
    """A simplicial 2-complex on at most 8 vertices or a torus of 2 to 9
    vertices a side, with a dyadic, a plateau ({0, 1/2, 1}) or a smooth
    field.  The simplicial vertices sit on a circle for the smooth one."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 8))
        simplices = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        cx = build_from_simplicial(draw(st.lists(simplices, min_size=1, max_size=12)))
        points, period = [(v, 0) for v in range(cx.n_vertices)], (cx.n_vertices, 1)
    else:
        period = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
        cx = build_torus_grid(*period)
        points = [(i, j) for j in range(period[1]) for i in range(period[0])]
    kind = draw(st.sampled_from(("dyadic", "plateau", "smooth")))
    if kind == "smooth":
        center = st.tuples(st.floats(0, period[0]), st.floats(0, period[1]),
                           st.floats(0.25, 1), st.floats(0.5, 4))
        values = smooth_values(points, period, draw(st.lists(center, min_size=1, max_size=3)))
    else:
        each = (st.integers(0, DENOM - 1).map(lambda k: k / DENOM) if kind == "dyadic"
                else st.sampled_from((0.0, 0.5, 1.0)))
        values = draw(st.lists(each, min_size=cx.n_vertices, max_size=cx.n_vertices))
    return cx, make_field(cx, values)


@settings(deadline=None)
@given(gradient_instances(), st.sampled_from(TIE_BREAKS))
def test_gradient_equals_reference_on_generated_complexes(instance, tie_break):
    cx, fld = instance
    assert_same_matching(cx, fld, tie_break)
