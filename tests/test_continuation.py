import random

import pytest

import morsespec.gf2 as gf2
import morsespec.homology as fullh
from conftest import dyadic_field, shifted, tetra_boundary
from morsespec import (
    MorseComplex,
    build_gradient,
    build_morse_complex,
    build_torus_grid,
    continuation_map,
    functoriality_check,
    homology_basis,
    roundtrip_check,
    same_class,
    sandwich_built,
)
from morsespec.errors import ChainError, ComplexMismatchError
from morsespec.homology import HomologyClass


def pipeline(cx, fld):
    g = build_gradient(cx, fld)
    return g, build_morse_complex(cx, fld, g)


def test_identity_when_fields_agree():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(40))
    _, mc = pipeline(cx, fld)
    for k, classes in homology_basis(mc).items():
        for X in classes:
            img = continuation_map(mc, MorseComplex.from_field(cx, fld), X)
            assert img.grade == k
            assert same_class(mc, X.support, img.support)


def test_point_and_fundamental_map_to_their_kind():
    rng = random.Random(41)
    cx = build_torus_grid(4, 4)
    fa = dyadic_field(cx, rng)
    fb = dyadic_field(cx, rng)
    ga, mca = pipeline(cx, fa)
    _, mcb = pipeline(cx, fb)
    point = HomologyClass(0, ga.flow_down({0}), "morse", owner=mca)
    img = continuation_map(mca, mcb, point)
    assert img.grade == 0 and len(img.support) == 1
    top = frozenset(c.id for c in cx.cells if c.dim == 2)
    fund = HomologyClass(2, ga.flow_down(top), "morse", owner=mca)
    img = continuation_map(mca, mcb, fund)
    assert img.grade == 2
    # grade-2 classes on the torus are rank one: image must be the generator
    (gen,) = homology_basis(mcb)[2]
    assert same_class(mcb, img.support, gen.support)


def test_grade_one_matrix_matches_full_complex_change_of_basis():
    # independent route: express expanded basis cycles of both fields in one
    # full-complex homology basis and solve the change of basis over GF(2)
    rng = random.Random(42)
    for _ in range(10):
        cx = build_torus_grid(4, 4)
        fa = dyadic_field(cx, rng)
        fb = dyadic_field(cx, rng)
        ga, mca = pipeline(cx, fa)
        gb, mcb = pipeline(cx, fb)
        basis_a = homology_basis(mca)[1]
        basis_b = homology_basis(mcb)[1]
        full_basis = fullh.homology_basis(cx)[1]

        def coords(chain):
            return fullh.class_coordinates(cx, 1, chain, full_basis)

        A = [coords(ga.expand(X.support)) for X in basis_a]
        B = [coords(gb.expand(X.support)) for X in basis_b]
        bcols = [sum(bit << i for i, bit in enumerate(v)) for v in B]
        # continuation matrix from the flow route, column per basis_a class
        for j, X in enumerate(basis_a):
            img = continuation_map(mca, mcb, X)
            # coordinates of img in basis_b through the Morse complex
            cols = list(mcb.boundary.get(2, [])) + [
                mcb.mask(1, Z.support) for Z in basis_b
            ]
            combo = gf2.solve(cols, mcb.mask(1, img.support))
            assert combo is not None
            offset = len(mcb.boundary.get(2, []))
            flow_coords = [(combo >> (offset + i)) & 1 for i in range(len(basis_b))]
            # independent route: solve A_j = B * x over the full-complex coords
            target = sum(bit << i for i, bit in enumerate(A[j]))
            combo2 = gf2.solve(bcols, target)
            assert combo2 is not None
            full_coords = [(combo2 >> i) & 1 for i in range(len(basis_b))]
            assert flow_coords == full_coords


def test_functoriality_trivial_and_random():
    rng = random.Random(43)
    cx = build_torus_grid(4, 4)
    f = dyadic_field(cx, rng)
    assert functoriality_check(*(MorseComplex.from_field(cx, g) for g in (f, f, f)))
    for _ in range(10):
        fa, fb, fc = (dyadic_field(cx, rng) for _ in range(3))
        assert functoriality_check(*(MorseComplex.from_field(cx, g) for g in (fa, fb, fc)))
    tetra = tetra_boundary()
    for _ in range(10):
        fa, fb, fc = (dyadic_field(tetra, rng) for _ in range(3))
        assert functoriality_check(*(MorseComplex.from_field(tetra, g) for g in (fa, fb, fc)))


def test_roundtrip_is_identity():
    rng = random.Random(44)
    cx = build_torus_grid(3, 4)
    for _ in range(10):
        fa, fb = dyadic_field(cx, rng), dyadic_field(cx, rng)
        assert roundtrip_check(MorseComplex.from_field(cx, fa), MorseComplex.from_field(cx, fb))


def test_sandwich_identical_and_shift():
    rng = random.Random(45)
    cx = build_torus_grid(4, 4)
    fld = dyadic_field(cx, rng)
    _, mc = pipeline(cx, fld)
    for k, classes in homology_basis(mc).items():
        for X in classes:
            rep = sandwich_built(mc, MorseComplex.from_field(cx, fld), X)
            assert rep.passed
            assert rep.target_sigma - rep.source_sigma == 0.0
            rep = sandwich_built(mc, MorseComplex.from_field(cx, shifted(fld, 0.5)), X)
            assert rep.passed
            assert rep.lower == rep.upper == 0.5
            assert rep.target_sigma - rep.source_sigma == 0.5
            rep = sandwich_built(mc, MorseComplex.from_field(cx, shifted(fld, -1.25)), X)
            assert rep.lower == rep.upper == -1.25 and rep.passed


def test_sandwich_random_pairs():
    rng = random.Random(46)
    cx = build_torus_grid(3, 3)
    f0 = dyadic_field(cx, rng)
    _, mc0 = pipeline(cx, f0)
    classes = [X for cl in homology_basis(mc0).values() for X in cl]
    for _ in range(50):
        mcb = MorseComplex.from_field(cx, dyadic_field(cx, rng))
        for X in classes:
            assert sandwich_built(mc0, mcb, X).passed


def test_grade_preservation():
    rng = random.Random(47)
    cx = build_torus_grid(3, 3)
    fa, fb = dyadic_field(cx, rng), dyadic_field(cx, rng)
    _, mca = pipeline(cx, fa)
    _, mcb = pipeline(cx, fb)
    for k, classes in homology_basis(mca).items():
        for X in classes:
            img = continuation_map(mca, mcb, X)
            assert img.grade == k
            dims = {cx.cells[c].dim for c in img.support}
            assert dims <= {k}


def test_zero_class_rejected():
    cx = build_torus_grid(3, 3)
    mc = MorseComplex.from_field(cx, dyadic_field(cx, random.Random(48)))
    with pytest.raises(ChainError):
        continuation_map(mc, mc, HomologyClass(1, frozenset(), "morse", owner=None))


def test_complexes_of_different_cell_complexes_rejected():
    # Two equal torus grids are still two CellComplex objects: no query may
    # compare or map between their Morse complexes.
    rng = random.Random(49)
    cx1, cx2 = build_torus_grid(3, 3), build_torus_grid(3, 3)
    mc1 = MorseComplex.from_field(cx1, dyadic_field(cx1, rng))
    mc2 = MorseComplex.from_field(cx2, dyadic_field(cx2, rng))
    (X,) = homology_basis(mc1)[0]
    with pytest.raises(ComplexMismatchError):
        sandwich_built(mc1, mc2, X)
    with pytest.raises(ComplexMismatchError):
        continuation_map(mc1, mc2, X)
    with pytest.raises(ComplexMismatchError):
        roundtrip_check(mc1, mc2)
    with pytest.raises(ComplexMismatchError):
        functoriality_check(mc1, mc1, mc2)
