"""Shared instance generators for the test suite.

Random fields use dyadic rationals (k / 2^20 with distinct integers k) so
that sums and differences of field values are exact in binary64; "exact"
assertions in the tests then really are exact.

The Hypothesis profile ``ci`` (``pytest --hypothesis-profile=ci``) runs each
property that sets no example count of its own on 1,000 examples.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings

from morsespec import CellComplex, build_from_simplicial, build_torus_grid, make_field

DENOM = 1 << 20

settings.register_profile("ci", max_examples=1000)


def dyadic_field(cx, rng, span_bits=20):
    """Injective vertex field with values k / 2^20, k distinct."""
    ks = rng.sample(range(1 << span_bits), cx.n_vertices)
    return make_field(cx, [k / DENOM for k in ks])


def shifted(fld, c):
    return make_field(fld.complex, [v + c for v in fld.vertex_values])


def tetra_boundary():
    return build_from_simplicial([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def cycle_graph(n):
    return build_from_simplicial([[i, (i + 1) % n] for i in range(n)])


def random_simplicial(rng):
    """A small random complex: triangles plus stray edges, closed under
    faces; one time in four a random tetrahedron joins, making it 3-dim."""
    n = rng.randint(4, 7)
    tris = list(itertools.combinations(range(n), 3))
    chosen = rng.sample(tris, rng.randint(2, min(6, len(tris))))
    spec = [list(t) for t in chosen]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        spec.append([a, b])
    if rng.random() < 0.25:
        spec.append(sorted(rng.sample(range(n), 4)))
    return build_from_simplicial(spec)


def cubical_3torus(n0, n1, n2):
    """Cubical complex of the flat 3-torus on an n0 x n1 x n2 vertex grid.

    A cell is a base point p with a set S of axes: it spans p + e_T for every
    T within S, and its faces are (p, S - {s}) and (p + e_s, S - {s}).  Cells
    are numbered dimension by dimension, then by S, then by p row-major; all
    coordinates wrap, so every side needs at least 3 vertices.
    """
    shape = (n0, n1, n2)
    points = list(itertools.product(*map(range, shape)))

    def shift(p, axes):
        return tuple((x + (i in axes)) % n for i, (x, n) in enumerate(zip(p, shape)))

    ids: dict = {}
    faces, vertices, starts = [], [], [0]
    for d in range(4):
        for axes in itertools.combinations(range(3), d):
            for p in points:
                ids[p, axes] = len(faces)
                faces.append(tuple(
                    ids[q, tuple(a for a in axes if a != s)]
                    for s in axes
                    for q in (p, shift(p, (s,)))
                ))
                corners = {
                    ids[shift(p, sub), ()]
                    for r in range(d + 1)
                    for sub in itertools.combinations(axes, r)
                }
                vertices.append(tuple(sorted(corners)))
        starts.append(len(faces))
    return CellComplex(tuple(faces), tuple(vertices), tuple(starts), f"cubical3:{n0}:{n1}:{n2}")


def random_instance(rng):
    """One random (complex, field) pair drawn from the mixed corpus shapes."""
    kind = rng.randrange(3)
    if kind == 0:
        cx = build_torus_grid(rng.randint(2, 5), rng.randint(2, 5))
    elif kind == 1:
        cx = random_simplicial(rng)
    else:
        cx = cycle_graph(rng.randint(3, 8))
    return cx, dyadic_field(cx, rng)


@pytest.fixture(scope="session")
def corpus():
    """Fixed mixed corpus of (complex, field) instances, seed 2024."""
    rng = random.Random(2024)
    out = [
        (tetra_boundary(), None),
        (cycle_graph(4), None),
        (build_torus_grid(3, 3), None),
        (build_torus_grid(2, 2), None),
        (build_torus_grid(8, 8), None),
    ]
    out = [(cx, dyadic_field(cx, rng)) for cx, _ in out]
    for _ in range(40):
        out.append(random_instance(rng))
    return out
