"""Cleared homology bases against the uncleared route they replaced.

Both ``homology_basis`` routes, and ``MorseComplex.betti``, take their
cycles from one ``gf2.homology_cycles`` walk: the grades top down, each
boundary matrix reduced once, skipping every column that is a pivot row of
the boundary from the grade above (clearing).  Both routes reduce
index-list columns through ``gf2.reduce_columns``, which takes union-find on
graphic matrices (checked against the elimination loop in
``test_reducers.py``) and ``gf2.reduce_sparse`` on the rest; that loop must
return what the bitmask elimination ``oracles.reduce_boundary`` returns on
the same columns as masks.
The reference here is the route without clearing: a kernel basis built by
an explicit (column, combination) pair loop over every column, then each
kernel vector reduced against the echelon of the boundary from the grade
above and kept when nonzero.  Both must give the same vectors in the same
order, compared with ``==``.  The cubical 3-torus runs clearing across
three grades.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec.homology as fullh
import oracles
from conftest import (
    cubical_3torus,
    cycle_graph,
    dyadic_field,
    random_simplicial,
    tetra_boundary,
)
from morsespec import MorseComplex, build_torus_grid, gf2, homology_basis, make_field
from morsespec.fields import expression_field


def tuple_loop_kernel(columns):
    """Kernel masks by reducing (column, combination) pairs side by side."""
    ech = {}
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


def uncleared_cycle_basis(d_in, d_out):
    ech = oracles.echelonize(d_out)
    out = []
    for v in tuple_loop_kernel(d_in):
        v = oracles.reduce_vector(v, ech)
        if v:
            ech[oracles.pivot(v)] = v
            out.append(v)
    return out


def check_full_complex(cx):
    basis = fullh.homology_basis(cx)
    assert list(basis) == list(range(cx.top_dim + 1))
    cleared = set()
    for d in range(cx.top_dim, -1, -1):
        cells = [c for c in range(len(cx)) if cx.dim(c) == d]
        d_in = oracles.boundary_masks(cx, d)
        d_out = oracles.boundary_masks(cx, d + 1)
        cycles = uncleared_cycle_basis(d_in, d_out)
        expected = [frozenset(cells[i] for i in oracles.to_bits(v)) for v in cycles]
        assert [h.support for h in basis[d]] == expected
        # The cleared columns change no pivot: the next grade skips exactly
        # the echelon pivots of this boundary matrix.
        combos, pivots = gf2.reduce_sparse(fullh.boundary_columns(cx, d), cleared)
        masks, cleared = oracles.reduce_boundary(d_in, cleared)
        assert masks == cycles == [oracles.from_bits(c) for c in combos]
        assert cleared == pivots == oracles.echelonize(d_in).keys()


def check_morse_complex(mc):
    basis = homology_basis(mc)
    for k in range(mc.complex.top_dim + 1):
        d_out = oracles.morse_masks(mc, k + 1)
        assert mc.boundary_echelon(k) == oracles.echelonize(d_out)
        cycles = uncleared_cycle_basis(oracles.morse_masks(mc, k), d_out)
        assert [h.support for h in basis[k]] == [oracles.morse_cells(mc, k, v) for v in cycles]


TORUS_SHAPES = [(n, n) for n in range(2, 25)] + [
    (2, 5), (5, 2), (3, 7), (9, 4), (16, 24), (24, 11),
]


@pytest.mark.parametrize("nx,ny", TORUS_SHAPES)
def test_torus_full_basis_matches_uncleared(nx, ny):
    check_full_complex(build_torus_grid(nx, ny))


def test_simplicial_full_basis_matches_uncleared():
    rng = random.Random(6)
    complexes = [tetra_boundary(), cycle_graph(3), cycle_graph(8)]
    complexes += [random_simplicial(rng) for _ in range(40)]
    assert any(cx.top_dim == 3 for cx in complexes)
    for cx in complexes:
        check_full_complex(cx)


def plateau_field(cx, rng):
    """Three distinct values over all vertices: most cells tie."""
    return make_field(cx, [rng.randrange(3) / 4 for _ in range(cx.n_vertices)])


@pytest.mark.parametrize("field", ["random", "bump", "plateau"])
def test_morse_basis_matches_uncleared(field, corpus):
    rng = random.Random(7)
    complexes = [build_torus_grid(nx, ny) for nx, ny in [(4, 4), (7, 5), (16, 16), (24, 24)]]
    complexes += [cx for cx, _ in corpus]
    for cx in complexes:
        if field == "random":
            fld = dyadic_field(cx, rng)
        elif field == "bump":
            if cx.torus_shape is None:
                continue
            fld = expression_field(cx, "bump")
        else:
            fld = plateau_field(cx, rng)
        check_morse_complex(MorseComplex.from_field(fld))


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 3)], ids=["3x3x3", "4x4x3"])
def test_3torus_bases_match_uncleared(shape):
    cx = cubical_3torus(*shape)
    oracles.validate_complex(cx)
    # Every boundary matrix has positive rank, so clearing skips columns of
    # grades 2, 1 and 0.
    assert all(oracles.echelonize(oracles.boundary_masks(cx, d)) for d in (1, 2, 3))
    check_full_complex(cx)
    assert oracles.betti_numbers(cx) == [1, 3, 3, 1]
    rng = random.Random(8)
    fields = [dyadic_field(cx, rng) for _ in range(3)] + [plateau_field(cx, rng) for _ in range(3)]
    for fld in fields:
        mc = MorseComplex.from_field(fld)
        check_morse_complex(mc)
        assert mc.betti() == [1, 3, 3, 1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_basis_skips_only_the_given_dependent_masks(data):
    width = data.draw(st.integers(1, 10), label="width")
    cols = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=14), label="cols")
    full = oracles.reduce_boundary(cols)[0]
    assert full == tuple_loop_kernel(cols)
    # Each kernel mask's top bit is the index of the dependent column it belongs to.
    dependent = [oracles.pivot(m) for m in full]
    skip = data.draw(st.sets(st.sampled_from(dependent)) if dependent else st.just(set()))
    kept = [m for m in full if oracles.pivot(m) not in skip]
    assert oracles.reduce_boundary(cols, skip)[0] == kept


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduce_boundary_pivots_are_the_echelon_pivots(data):
    width = data.draw(st.integers(1, 10), label="width")
    cols = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=14), label="cols")
    masks, pivots = oracles.reduce_boundary(cols)
    assert masks == tuple_loop_kernel(cols) == oracles.reduce_boundary(cols)[0]
    assert pivots == oracles.echelonize(cols).keys()
    # Skipping dependent columns (what clearing does) keeps every pivot.
    skip = data.draw(st.sets(st.sampled_from([oracles.pivot(m) for m in masks])) if masks
                     else st.just(set()))
    kept = [m for m in masks if oracles.pivot(m) not in skip]
    assert oracles.reduce_boundary(cols, skip) == (kept, pivots)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduce_sparse_equals_reduce_boundary(data):
    width = data.draw(st.integers(1, 12), label="width")
    cols = data.draw(st.lists(st.lists(st.integers(0, width - 1), unique=True, max_size=6),
                              max_size=16), label="cols")
    masks = [oracles.from_bits(col) for col in cols]
    combos, pivots = gf2.reduce_sparse(cols)
    assert ([oracles.from_bits(c) for c in combos], pivots) == oracles.reduce_boundary(masks)
    # Clearing hands down pivot rows of the boundary into this grade: each is
    # the top index of a cycle, so skip sets are drawn from those tops.
    dependent = [oracles.pivot(m) for m in oracles.reduce_boundary(masks)[0]]
    skip = data.draw(st.sets(st.sampled_from(dependent)) if dependent else st.just(set()))
    combos, pivots = gf2.reduce_sparse(cols, skip)
    assert ([oracles.from_bits(c) for c in combos], pivots) == oracles.reduce_boundary(masks, skip)

