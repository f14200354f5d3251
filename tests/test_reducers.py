"""The graphic reducers against the elimination loop they stand in for.

``gf2.reduce_columns`` routes a matrix by its shape: columns of at most two
rows to ``gf2.reduce_edges``, rows of at most two entries (with nothing
skipped) to ``gf2.reduce_rows``, anything else to ``gf2.reduce_sparse``.
Whatever the route, it must return what ``gf2.reduce_sparse`` returns: the
kernel combinations in order and the pivot rows, compared with ``==``.  The
properties draw multigraph incidence matrices and their transposes, with
skip sets drawn the way clearing draws them: the pivot rows of a random
matrix above.  Whole bases are compared with ``homology.homology_basis`` run
on the elimination loop alone.

The spectral echelon is held against the bitmask reference of
``tests/oracles.py``: ``MorseComplex.boundary_echelon`` on random sparse
columns equals ``oracles.echelonize`` of their masks, and
``MorseComplex.reduce_chain`` of a random chain equals
``oracles.reduce_vector`` against that echelon.

The properties take their example count from the Hypothesis profile, so
``--hypothesis-profile=ci`` (see ``conftest.py``) runs them longer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec.homology as fullh
import oracles
from conftest import cubical_3torus, random_simplicial, tetra_boundary
from morsespec import MorseComplex, build_from_simplicial, build_torus_grid, gf2


@st.composite
def graphs(draw):
    """(rows, columns): a multigraph's incidence matrix, 0 to 2 rows a column."""
    rows = draw(st.integers(1, 10), label="rows")
    column = st.lists(st.integers(0, rows - 1), unique=True, max_size=2)
    return rows, draw(st.lists(column, max_size=20), label="columns")


def transpose(rows, columns):
    return [[j for j, col in enumerate(columns) if i in col] for i in range(rows)]


def clearing_skip(data, n):
    """The pivot rows of a random matrix whose rows are the n columns."""
    if not n:
        return set()
    column = st.lists(st.integers(0, n - 1), unique=True, max_size=4)
    return gf2.reduce_sparse(data.draw(st.lists(column, max_size=n), label="above"))[1]


@settings(deadline=None)
@given(graphs(), st.data())
def test_edges_route_equals_elimination(graph, data):
    _, columns = graph
    assert gf2.reduce_edges(columns) == gf2.reduce_sparse(columns)
    skip = clearing_skip(data, len(columns))
    expected = gf2.reduce_sparse(columns, skip)
    assert gf2.reduce_edges(columns, skip) == expected
    assert gf2.reduce_columns(columns, skip) == expected


@settings(deadline=None)
@given(graphs(), st.data())
def test_rows_route_equals_elimination(graph, data):
    columns = transpose(*graph)
    expected = gf2.reduce_sparse(columns)
    assert gf2.reduce_rows(columns) == expected
    assert gf2.reduce_columns(columns) == expected
    skip = clearing_skip(data, len(columns))
    assert gf2.reduce_columns(columns, skip) == gf2.reduce_sparse(columns, skip)


@settings(deadline=None)
@given(st.data())
def test_rows_route_refuses_a_row_of_three(data):
    rows = data.draw(st.integers(1, 6), label="rows")
    column = st.lists(st.integers(0, rows - 1), unique=True, max_size=rows)
    columns = data.draw(st.lists(column, max_size=12), label="columns")
    counts = [sum(i in col for col in columns) for i in range(rows)]
    out = gf2.reduce_rows(columns)
    if max(counts) > 2:
        assert out is None
    else:
        assert out == gf2.reduce_sparse(columns)
    assert gf2.reduce_columns(columns) == gf2.reduce_sparse(columns)


@settings(deadline=None)
@given(st.data())
def test_set_echelon_equals_bitmask_echelon(data):
    rows = data.draw(st.integers(1, 12), label="rows")
    column = st.lists(st.integers(0, rows - 1), unique=True, max_size=5)
    columns = [tuple(sorted(c)) for c in data.draw(st.lists(column, max_size=16), label="columns")]
    chain = data.draw(st.sets(st.integers(0, rows - 1)), label="chain")
    # The echelon and the cancellation read only the boundary entering grade 0.
    mc = MorseComplex(None, {}, {1: columns})
    masks = oracles.echelonize([oracles.from_bits(c) for c in columns])
    assert {p: oracles.from_bits(c) for p, c in mc.boundary_echelon(0).items()} == masks
    expected = oracles.to_bits(oracles.reduce_vector(oracles.from_bits(chain), masks))
    assert mc.reduce_chain(0, chain) == expected


def elimination_basis(cx, monkeypatch):
    """``homology_basis`` with every matrix on ``gf2.reduce_sparse``."""
    with monkeypatch.context() as m:
        m.setattr(gf2, "reduce_columns", gf2.reduce_sparse)
        return fullh.homology_basis(cx)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33, 64])
def test_torus_basis_equals_elimination(n, monkeypatch):
    cx = build_torus_grid(n, n + n % 3)
    assert fullh.homology_basis(cx) == elimination_basis(cx, monkeypatch)


def disk():
    return build_from_simplicial([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])


def two_spheres():
    return build_from_simplicial(
        [list(s) for s in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                           [4, 5, 6], [4, 5, 7], [4, 6, 7], [5, 6, 7])]
    )


def three_triangles_on_an_edge():
    return build_from_simplicial([[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def test_simplicial_basis_equals_elimination(corpus, monkeypatch):
    rng = random.Random(18)
    complexes = [cx for cx, _ in corpus] + [random_simplicial(rng) for _ in range(40)]
    complexes += [disk(), tetra_boundary(), two_spheres(), three_triangles_on_an_edge()]
    for cx in complexes:
        assert fullh.homology_basis(cx) == elimination_basis(cx, monkeypatch)


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 3)], ids=["3x3x3", "4x4x3"])
def test_3torus_basis_equals_elimination(shape, monkeypatch):
    cx = cubical_3torus(*shape)
    calls = []
    loop = gf2.reduce_sparse

    def recorded(columns, skip=()):
        calls.append(len(columns))
        return loop(columns, skip)

    monkeypatch.setattr(gf2, "reduce_sparse", recorded)
    basis = fullh.homology_basis(cx)
    # Only the middle grade, faces of cubes, falls back: an edge of the
    # 3-torus lies in four squares and a square has four edges.
    assert calls == [len(cx.ids_of_dim(2))]
    monkeypatch.setattr(gf2, "reduce_sparse", loop)
    assert basis == elimination_basis(cx, monkeypatch)


def test_surfaces_never_reach_the_elimination_loop(monkeypatch):
    def refuse(columns, skip=()):
        raise AssertionError("elimination loop reached")

    monkeypatch.setattr(gf2, "reduce_sparse", refuse)
    basis = fullh.homology_basis(build_torus_grid(16, 16))
    assert [len(basis[d]) for d in range(3)] == [1, 2, 1]
    fullh.homology_basis(disk())
    with pytest.raises(AssertionError, match="elimination loop reached"):
        fullh.homology_basis(three_triangles_on_an_edge())
