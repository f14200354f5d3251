import itertools
import math
import random

import pytest

import morsespec.homology as fullh
from conftest import cycle_graph, dyadic_field, shifted, tetra_boundary
from morsespec import (
    MorseComplex,
    build_gradient,
    build_morse_complex,
    build_torus_grid,
    c0_distance,
    chain_action,
    exhaustive_spectral_value,
    homology_basis,
    invariance_sweep,
    lipschitz_check,
    make_field,
    rho,
    spectral_gap,
    spectral_value,
    spectrum,
)
from morsespec.complex import torus_vertex_id
from morsespec.errors import ChainError, ComplexMismatchError, SpectrumMismatchError
from morsespec.fields import translate_field
from morsespec.homology import HomologyClass


def pipeline(cx, fld):
    g = build_gradient(cx, fld)
    return g, build_morse_complex(cx, fld, g)


def point_class(cx):
    return HomologyClass(0, frozenset({0}), "full", owner=cx)


def fundamental_class(cx):
    return HomologyClass(
        cx.top_dim,
        frozenset(c.id for c in cx.cells if c.dim == cx.top_dim),
        "full",
        owner=cx,
    )


# ------------------------------------------------------------ chain action


def test_chain_action_examples():
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    assert chain_action(fld, {0}) == 0.0
    e01 = next(c.id for c in cx.cells_of_dim(1) if c.vertices == (0, 1))
    e12 = next(c.id for c in cx.cells_of_dim(1) if c.vertices == (1, 2))
    assert chain_action(fld, {e01, e12}) == 2.0
    with pytest.raises(ChainError):
        chain_action(fld, set())


# ------------------------------------------------------------ spectral value


def test_sigma_point_is_min_fundamental_is_max():
    rng = random.Random(20)
    for _ in range(20):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        fld = dyadic_field(cx, rng)
        mc = MorseComplex.from_field(cx, fld)
        assert rho(mc, point_class(cx)).sigma == min(fld.vertex_values)
        assert rho(mc, fundamental_class(cx)).sigma == max(fld.vertex_values)
    tetra = tetra_boundary()
    fld = dyadic_field(tetra, rng)
    mc = MorseComplex.from_field(tetra, fld)
    assert rho(mc, point_class(tetra)).sigma == min(fld.vertex_values)
    assert rho(mc, fundamental_class(tetra)).sigma == max(fld.vertex_values)


def test_greedy_sigma_equals_coset_enumeration():
    rng = random.Random(21)
    for _ in range(40):
        cx = build_torus_grid(3, 3)
        fld = dyadic_field(cx, rng)
        _, mc = pipeline(cx, fld)
        for k, classes in homology_basis(mc).items():
            for X in classes:
                assert spectral_value(mc, X).sigma == exhaustive_spectral_value(mc, X)


def test_sigma_against_literal_itertools_oracle():
    # third, fully literal route: enumerate raw column subsets, honest max()
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(22))
    _, mc = pipeline(cx, fld)
    for k, classes in homology_basis(mc).items():
        cols = mc.boundary.get(k + 1, [])
        vals = mc.values(k)
        for X in classes:
            base = mc.mask(k, X.support)
            best = None
            for combo in itertools.product([0, 1], repeat=len(cols)):
                v = base
                for j, bit in enumerate(combo):
                    if bit:
                        v ^= cols[j]
                if v:
                    act = max(vals[i] for i in range(v.bit_length()) if v >> i & 1)
                    best = act if best is None else min(best, act)
            assert spectral_value(mc, X).sigma == best


def test_sigma_independent_of_representative():
    # adding random boundary noise to the representative must not move sigma
    rng = random.Random(36)
    for _ in range(20):
        cx = build_torus_grid(rng.randint(3, 4), rng.randint(3, 4))
        fld = dyadic_field(cx, rng)
        _, mc = pipeline(cx, fld)
        for k, classes in homology_basis(mc).items():
            cols = mc.boundary.get(k + 1, [])
            for X in classes:
                base = spectral_value(mc, X).sigma
                noisy = mc.mask(k, X.support)
                for col in cols:
                    if rng.random() < 0.5:
                        noisy ^= col
                Xn = HomologyClass(k, mc.unmask(k, noisy), "morse", owner=mc)
                assert spectral_value(mc, Xn).sigma == base


def test_witness_is_homologous_minimizer():
    cx = build_torus_grid(4, 3)
    fld = dyadic_field(cx, random.Random(23))
    _, mc = pipeline(cx, fld)
    for k, classes in homology_basis(mc).items():
        for X in classes:
            rep = spectral_value(mc, X)
            assert chain_action(fld, rep.witness) == rep.sigma
            diff = rep.witness ^ X.support
            if diff:
                import morsespec.gf2 as gf2

                assert gf2.in_span(mc.mask(k, diff), mc.boundary_echelon(k))
            assert rep.sigma == fld.cell_values[rep.critical_cell]


def test_spectral_value_errors():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(24))
    _, mc = pipeline(cx, fld)
    with pytest.raises(ChainError):
        spectral_value(mc, HomologyClass(1, frozenset(), "morse", owner=mc))
    # a boundary is the zero class
    if mc.rank(2) and any(mc.boundary[2]):
        col = next(c for c in mc.boundary[2] if c)
        bd = mc.unmask(1, col)
        with pytest.raises(ChainError):
            spectral_value(mc, HomologyClass(1, bd, "morse", owner=mc))
    # non-cycle input
    noncycle = frozenset(mc.grades[1][:1])
    v = mc.mask(1, noncycle)
    if not mc.is_cycle(1, v):
        with pytest.raises(ChainError):
            spectral_value(mc, HomologyClass(1, noncycle, "morse", owner=mc))


# ------------------------------------------------------------ spectrum


def test_spectrum_examples():
    c4 = cycle_graph(4)
    _, mc = pipeline(c4, make_field(c4, [0.0, 1.0, 2.0, 1.0]))
    assert spectrum(mc) == [0.0, 2.0]
    torus = build_torus_grid(3, 3)
    _, mc = pipeline(torus, make_field(torus, [0.0] * 9))
    assert spectrum(mc) == [0.0]
    rng = random.Random(25)
    fld = dyadic_field(torus, rng)
    _, mc = pipeline(torus, fld)
    assert set(spectrum(mc)) <= set(fld.vertex_values)


def test_spectral_gap_helper():
    assert spectral_gap([0.0, 2.0, 2.5]) == 0.5
    assert spectral_gap([1.0]) == math.inf
    assert spectral_gap([1.0, 1.0]) == math.inf


# ------------------------------------------------------------ rho


def test_rho_twobump_matches_oracle():
    from morsespec.fields import twobump_field

    cx = build_torus_grid(4, 4)
    fld = twobump_field(cx)
    for k, classes in fullh.homology_basis(cx).items():
        for Y in classes:
            mc = MorseComplex.from_field(cx, fld)
            rep = rho(mc, Y)
            xi = mc.gradient.flow_down(Y.support)
            X = HomologyClass(k, xi, "morse", owner=mc)
            assert rep.sigma == exhaustive_spectral_value(mc, X)


def test_rho_rejects_bad_classes():
    cx = build_torus_grid(3, 3)
    mc = MorseComplex.from_field(cx, dyadic_field(cx, random.Random(26)))
    with pytest.raises(ChainError):
        rho(mc, HomologyClass(0, frozenset(), "full", owner=cx))
    e = next(c.id for c in cx.cells_of_dim(1))
    with pytest.raises(ChainError):
        rho(mc, HomologyClass(1, frozenset({e}), "full", owner=cx))  # not a cycle


def test_shift_equivariance():
    rng = random.Random(27)
    cx = build_torus_grid(4, 4)
    Ys = [point_class(cx), fundamental_class(cx)] + fullh.homology_basis(cx)[1]
    for _ in range(10):
        fld = dyadic_field(cx, rng)
        mf = MorseComplex.from_field(cx, fld)
        for c in (0.5, -0.25, 2.0):
            mg = MorseComplex.from_field(cx, shifted(fld, c))
            for Y in Ys:
                assert rho(mg, Y).sigma == rho(mf, Y).sigma + c


def test_monotonicity_in_the_field():
    rng = random.Random(28)
    cx = build_torus_grid(4, 4)
    Ys = [point_class(cx)] + fullh.homology_basis(cx)[1] + [fundamental_class(cx)]
    for _ in range(15):
        f = dyadic_field(cx, rng)
        bump = [rng.randrange(1 << 10) / (1 << 20) for _ in range(cx.n_vertices)]
        g = make_field(cx, [a + b for a, b in zip(f.vertex_values, bump)])
        mf, mg = MorseComplex.from_field(cx, f), MorseComplex.from_field(cx, g)
        for Y in Ys:
            assert rho(mf, Y).sigma <= rho(mg, Y).sigma


def test_sigma_independent_of_gradient_tie_break():
    rng = random.Random(29)
    for _ in range(25):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        fld = dyadic_field(cx, rng)
        mc_id = MorseComplex.from_field(cx, fld, tie_break="id")
        mc_rev = MorseComplex.from_field(cx, fld, tie_break="reverse-id")
        for k, classes in fullh.homology_basis(cx).items():
            for Y in classes:
                a = rho(mc_id, Y).sigma
                b = rho(mc_rev, Y).sigma
                assert a == b


# ------------------------------------------------------------ lipschitz


def test_lipschitz_identical_and_shift():
    cx = build_torus_grid(4, 4)
    fld = dyadic_field(cx, random.Random(30))
    Y = point_class(cx)
    mf = MorseComplex.from_field(cx, fld)
    rep = lipschitz_check(mf, mf, Y)
    assert rep.lhs == 0.0 and rep.passed
    g = shifted(fld, 0.75)
    rep = lipschitz_check(mf, MorseComplex.from_field(cx, g), Y)
    assert rep.lhs == rep.rhs == 0.75 and rep.passed


def test_lipschitz_random_pairs():
    rng = random.Random(31)
    cx = build_torus_grid(6, 6)
    Ys = [point_class(cx)] + fullh.homology_basis(cx)[1] + [fundamental_class(cx)]
    for _ in range(200):
        f = dyadic_field(cx, rng)
        g = dyadic_field(cx, rng)
        mf, mg = MorseComplex.from_field(cx, f), MorseComplex.from_field(cx, g)
        for Y in Ys:
            assert lipschitz_check(mf, mg, Y).passed


# ------------------------------------------------------------ membership


def test_spectrum_membership_random():
    rng = random.Random(32)
    for _ in range(30):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        mc = MorseComplex.from_field(cx, dyadic_field(cx, rng))
        for k, classes in fullh.homology_basis(cx).items():
            for Y in classes:
                assert rho(mc, Y).spectrum_member
    cx = build_torus_grid(3, 3)
    mc = MorseComplex.from_field(cx, make_field(cx, [0.0] * 9))
    assert rho(mc, point_class(cx)).sigma == 0.0
    assert rho(mc, point_class(cx)).spectrum_member


# ------------------------------------------------------------ invariance


def test_invariance_translate_family():
    rng = random.Random(33)
    cx = build_torus_grid(5, 4)
    fld = dyadic_field(cx, rng)
    family = [translate_field(fld, k, 0) for k in range(5)]
    family += [translate_field(fld, 0, k) for k in range(4)]
    mcs = [MorseComplex.from_field(cx, f) for f in family]
    for Y in [point_class(cx), fundamental_class(cx)] + fullh.homology_basis(cx)[1]:
        res = invariance_sweep(mcs, Y)
        assert res.constant


def test_invariance_constant_family():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(34))
    mcs = [MorseComplex.from_field(cx, f) for f in (fld, fld, fld)]
    res = invariance_sweep(mcs, point_class(cx))
    assert res.constant and len(res.values) == 3


def test_invariance_rejects_spectrum_mismatch():
    rng = random.Random(35)
    cx = build_torus_grid(3, 3)
    f = dyadic_field(cx, rng)
    g = dyadic_field(cx, rng)
    with pytest.raises(SpectrumMismatchError):
        invariance_sweep(
            [MorseComplex.from_field(cx, f), MorseComplex.from_field(cx, g)], point_class(cx)
        )


def test_queries_reject_two_cell_complexes():
    rng = random.Random(37)
    cx1, cx2 = build_torus_grid(3, 3), build_torus_grid(3, 3)
    mc1 = MorseComplex.from_field(cx1, dyadic_field(cx1, rng))
    mc2 = MorseComplex.from_field(cx2, dyadic_field(cx2, rng))
    with pytest.raises(ComplexMismatchError):
        lipschitz_check(mc1, mc2, point_class(cx1))
    with pytest.raises(ComplexMismatchError):
        invariance_sweep([mc1, mc2], point_class(cx1))
    with pytest.raises(ComplexMismatchError):
        rho(mc2, point_class(cx1))  # Y belongs to the other complex


def anisotropic_bump(cx, cx0, cy0, wx, wy):
    nx, ny = cx.torus_shape
    vals = [0.0] * (nx * ny)
    for j in range(ny):
        for i in range(nx):
            dx = min(abs(i - cx0), nx - abs(i - cx0))
            dy = min(abs(j - cy0), ny - abs(j - cy0))
            vals[torus_vertex_id(cx, i, j)] = math.exp(
                -dx * dx / (2 * wx * wx) - dy * dy / (2 * wy * wy)
            )
    return make_field(cx, vals)


def test_invariance_fine_step_bump_family():
    # a broad bump slid along its wide axis: consecutive sup distance stays
    # below the smallest spectral gap, and the sweep is constant
    cx = build_torus_grid(10, 10)
    fld = anisotropic_bump(cx, 5 - 0.31830989, 5 - 0.56418958, 3.5, 5.5)
    assert len(set(fld.vertex_values)) == cx.n_vertices  # injective
    family = [translate_field(fld, 0, k) for k in range(10)]
    g = build_gradient(cx, fld)
    mc = build_morse_complex(cx, fld, g)
    gap = spectral_gap(spectrum(mc))
    step = max(c0_distance(a, b) for a, b in zip(family, family[1:]))
    assert step < gap  # the family really is fine relative to its spectrum
    mcs = [MorseComplex.from_field(cx, f) for f in family]
    for Y in (point_class(cx), fundamental_class(cx)):
        res = invariance_sweep(mcs, Y)
        assert res.constant
