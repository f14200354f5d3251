import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec.fields
import morsespec.homology as fullh
import oracles
from conftest import DENOM, cubical_3torus, cycle_graph, dyadic_field, shifted, tetra_boundary
from morsespec import (
    MorseComplex,
    build_gradient,
    build_morse_complex,
    build_torus_grid,
    c0_distance,
    homology_basis,
    make_field,
    rho,
    spectral_value,
    spectrum,
    sweep,
)
from morsespec.errors import ChainError, ComplexMismatchError
from morsespec.fields import translate_field
from morsespec.homology import HomologyClass


def pipeline(cx, fld):
    g = build_gradient(fld)
    return g, build_morse_complex(g)


def point_class(cx):
    return HomologyClass(0, frozenset({0}), "full", owner=cx)


def fundamental_class(cx):
    return HomologyClass(
        cx.top_dim,
        frozenset(cx.ids_of_dim(cx.top_dim)),
        "full",
        owner=cx,
    )


# ------------------------------------------------------------ chain action


def test_chain_action_examples():
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    assert oracles.chain_action(fld, {0}) == 0.0
    e01 = next(c for c in cx.ids_of_dim(1) if cx.vertices[c] == (0, 1))
    e12 = next(c for c in cx.ids_of_dim(1) if cx.vertices[c] == (1, 2))
    assert oracles.chain_action(fld, {e01, e12}) == 2.0
    with pytest.raises(ChainError):
        oracles.chain_action(fld, set())


# ------------------------------------------------------------ spectral value


def test_sigma_point_is_min_fundamental_is_max():
    rng = random.Random(20)
    for _ in range(20):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        fld = dyadic_field(cx, rng)
        mc = MorseComplex.from_field(fld)
        assert rho(mc, point_class(cx)).sigma == min(fld.vertex_values)
        assert rho(mc, fundamental_class(cx)).sigma == max(fld.vertex_values)
    tetra = tetra_boundary()
    fld = dyadic_field(tetra, rng)
    mc = MorseComplex.from_field(fld)
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
                assert spectral_value(mc, X).sigma == oracles.exhaustive_spectral_value(mc, X)


def test_sigma_against_literal_itertools_oracle():
    # third, fully literal route: enumerate raw column subsets, honest max()
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(22))
    _, mc = pipeline(cx, fld)
    for k, classes in homology_basis(mc).items():
        cols = oracles.morse_masks(mc, k + 1)
        vals = mc.values(k)
        for X in classes:
            base = oracles.morse_chain(mc, k, X.support)
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
            cols = oracles.morse_masks(mc, k + 1)
            for X in classes:
                base = spectral_value(mc, X).sigma
                noisy = oracles.morse_chain(mc, k, X.support)
                for col in cols:
                    if rng.random() < 0.5:
                        noisy ^= col
                Xn = HomologyClass(k, oracles.morse_cells(mc, k, noisy), "morse", owner=mc)
                assert spectral_value(mc, Xn).sigma == base


def test_witness_is_homologous_minimizer():
    cx = build_torus_grid(4, 3)
    fld = dyadic_field(cx, random.Random(23))
    _, mc = pipeline(cx, fld)
    for k, classes in homology_basis(mc).items():
        for X in classes:
            rep = spectral_value(mc, X)
            assert oracles.chain_action(fld, rep.witness) == rep.sigma
            diff = rep.witness ^ X.support
            if diff:
                chain = oracles.morse_chain(mc, k, diff)
                echelon = {p: oracles.from_bits(c) for p, c in mc.boundary_echelon(k).items()}
                assert not oracles.reduce_vector(chain, echelon)
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
        bd = mc.cells_at(1, col)
        with pytest.raises(ChainError):
            spectral_value(mc, HomologyClass(1, bd, "morse", owner=mc))
    # non-cycle input
    noncycle = frozenset(mc.grades[1][:1])
    v = mc.positions(1, noncycle)
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
    assert oracles.spectral_gap([0.0, 2.0, 2.5]) == 0.5
    assert oracles.spectral_gap([1.0]) == math.inf
    assert oracles.spectral_gap([1.0, 1.0]) == math.inf


# ------------------------------------------------------------ rho


def test_rho_twobump_matches_oracle():
    from morsespec.fields import twobump_field

    cx = build_torus_grid(4, 4)
    fld = twobump_field(cx)
    for k, classes in fullh.homology_basis(cx).items():
        for Y in classes:
            mc = MorseComplex.from_field(fld)
            rep = rho(mc, Y)
            xi = mc.gradient.flow_down(Y.support)
            X = HomologyClass(k, xi, "morse", owner=mc)
            assert rep.sigma == oracles.exhaustive_spectral_value(mc, X)


def test_rho_rejects_bad_classes():
    cx = build_torus_grid(3, 3)
    mc = MorseComplex.from_field(dyadic_field(cx, random.Random(26)))
    with pytest.raises(ChainError):
        rho(mc, HomologyClass(0, frozenset(), "full", owner=cx))
    e = cx.ids_of_dim(1)[0]
    with pytest.raises(ChainError):
        rho(mc, HomologyClass(1, frozenset({e}), "full", owner=cx))  # not a cycle


def test_shift_equivariance():
    rng = random.Random(27)
    cx = build_torus_grid(4, 4)
    Ys = [point_class(cx), fundamental_class(cx)] + fullh.homology_basis(cx)[1]
    for _ in range(10):
        fld = dyadic_field(cx, rng)
        mf = MorseComplex.from_field(fld)
        for c in (0.5, -0.25, 2.0):
            mg = MorseComplex.from_field(shifted(fld, c))
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
        mf, mg = MorseComplex.from_field(f), MorseComplex.from_field(g)
        for Y in Ys:
            assert rho(mf, Y).sigma <= rho(mg, Y).sigma


def test_sigma_independent_of_gradient_tie_break():
    rng = random.Random(29)
    instances = []
    for _ in range(25):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        instances.append((cx, dyadic_field(cx, rng)))
    # The cubical 3-torus has classes in grades 0 to 3, and its middle grade
    # reduces through gf2.reduce_sparse.
    for shape in ((3, 3, 3), (4, 4, 3), (3, 4, 5)):
        cx = cubical_3torus(*shape)
        for _ in range(4):
            instances.append((cx, dyadic_field(cx, rng)))
            plateau = [rng.randrange(3) / 2 for _ in range(cx.n_vertices)]
            instances.append((cx, make_field(cx, plateau)))
    compared_3torus = 0
    for cx, fld in instances:
        mc_id = MorseComplex.from_field(fld)
        mc_rev = build_morse_complex(oracles.reference_gradient(cx, fld, "reverse-id"))
        mc_full = build_morse_complex(oracles.empty_gradient(fld))
        for k, classes in fullh.homology_basis(cx).items():
            for Y in classes:
                a = rho(mc_id, Y).sigma
                assert rho(mc_rev, Y).sigma == a
                assert rho(mc_full, Y).sigma == a
                compared_3torus += cx.top_dim == 3
    assert compared_3torus == 3 * 8 * 8  # 24 fields, Betti numbers 1, 3, 3, 1


# ------------------------------------------------------------ lipschitz


def test_lipschitz_identical_and_shift():
    cx = build_torus_grid(4, 4)
    fld = dyadic_field(cx, random.Random(30))
    Y = point_class(cx)
    mf = MorseComplex.from_field(fld)
    rep = oracles.lipschitz_check(mf, mf, Y)
    assert rep.lhs == 0.0 and rep.passed
    g = shifted(fld, 0.75)
    rep = oracles.lipschitz_check(mf, MorseComplex.from_field(g), Y)
    assert rep.lhs == rep.rhs == 0.75 and rep.passed


def test_lipschitz_random_pairs():
    rng = random.Random(31)
    cx = build_torus_grid(6, 6)
    Ys = [point_class(cx)] + fullh.homology_basis(cx)[1] + [fundamental_class(cx)]
    for _ in range(200):
        f = dyadic_field(cx, rng)
        g = dyadic_field(cx, rng)
        mf, mg = MorseComplex.from_field(f), MorseComplex.from_field(g)
        for Y in Ys:
            assert oracles.lipschitz_check(mf, mg, Y).passed


# ------------------------------------------------------------ membership


def test_spectrum_membership_random():
    rng = random.Random(32)
    for _ in range(30):
        cx = build_torus_grid(rng.randint(3, 5), rng.randint(3, 5))
        mc = MorseComplex.from_field(dyadic_field(cx, rng))
        for k, classes in fullh.homology_basis(cx).items():
            for Y in classes:
                assert rho(mc, Y).spectrum_member
    cx = build_torus_grid(3, 3)
    mc = MorseComplex.from_field(make_field(cx, [0.0] * 9))
    assert rho(mc, point_class(cx)).sigma == 0.0
    assert rho(mc, point_class(cx)).spectrum_member


# ------------------------------------------------------------ invariance


def test_invariance_translate_family():
    rng = random.Random(33)
    cx = build_torus_grid(5, 4)
    fld = dyadic_field(cx, rng)
    family = [translate_field(fld, k, 0) for k in range(5)]
    family += [translate_field(fld, 0, k) for k in range(4)]
    mcs = [MorseComplex.from_field(f) for f in family]
    Ys = [point_class(cx), fundamental_class(cx)] + fullh.homology_basis(cx)[1]
    for res in sweep(mcs, Ys):
        assert res.constant


def test_invariance_constant_family():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(34))
    mcs = [MorseComplex.from_field(f) for f in (fld, fld, fld)]
    (res,) = sweep(mcs, [point_class(cx)])
    assert res.constant and len(res.rho_values) == 3


def test_invariance_rejects_spectrum_mismatch():
    rng = random.Random(35)
    cx = build_torus_grid(3, 3)
    f = dyadic_field(cx, rng)
    g = dyadic_field(cx, rng)
    (res,) = sweep(
        [MorseComplex.from_field(f), MorseComplex.from_field(g)], [point_class(cx)]
    )
    assert res.spectra_equal is False and res.constant is None


def test_queries_reject_two_cell_complexes():
    rng = random.Random(37)
    cx1, cx2 = build_torus_grid(3, 3), build_torus_grid(3, 3)
    mc1 = MorseComplex.from_field(dyadic_field(cx1, rng))
    mc2 = MorseComplex.from_field(dyadic_field(cx2, rng))
    with pytest.raises(ComplexMismatchError):
        oracles.lipschitz_check(mc1, mc2, point_class(cx1))
    with pytest.raises(ComplexMismatchError):
        sweep([mc1, mc2], [point_class(cx1)])
    with pytest.raises(ComplexMismatchError):
        rho(mc2, point_class(cx1))  # Y belongs to the other complex


def test_sweep_streams_families(monkeypatch):
    rng = random.Random(38)
    cx = build_torus_grid(4, 4)
    base = dyadic_field(cx, rng)

    # sweep holds at most the previous and the current Morse complex.
    live = peak = 0

    def dropped():
        nonlocal live
        live -= 1

    def built():
        nonlocal live, peak
        for fld in morsespec.fields.family(base, "perturb:0.5:12"):
            mc = MorseComplex.from_field(fld)
            weakref.finalize(mc, dropped)
            live += 1
            peak = max(peak, live)
            yield mc

    Ys = [point_class(cx), fundamental_class(cx)] + fullh.homology_basis(cx)[1]
    reports = sweep(built(), Ys)
    assert [len(rep.rho_values) for rep in reports] == [12] * len(Ys)
    assert peak == 2

    # The spec is checked up front, but no field is built until asked for.
    def no_field(*args):
        raise AssertionError("a field was built")

    with monkeypatch.context() as m:
        m.setattr(morsespec.fields, "make_field", no_field)
        specs = ("constant:10000", "translate:10000", "perturb:1:10000")
        constant, translate, _ = (morsespec.fields.family(base, spec) for spec in specs)
        assert next(constant) is base
        with pytest.raises(AssertionError, match="a field was built"):
            next(translate)

    # Lazily, each kind gives the fields it gave as an eager list.
    seeded = random.Random(7)
    g = [seeded.random() for _ in range(cx.n_vertices)]
    eager = {
        "translate:4": [translate_field(base, k, 0) for k in range(4)],
        "constant:5": [base] * 5,
        "perturb:0.25:5:7": [
            make_field(cx, [a + eps * b for a, b in zip(base.vertex_values, g)])
            for eps in (0.25 * i / 4 for i in range(5))
        ],
    }
    for spec, fields in eager.items():
        got = [fld.vertex_values for fld in morsespec.fields.family(base, spec)]
        assert got == [fld.vertex_values for fld in fields], spec


def anisotropic_bump(cx, cx0, cy0, wx, wy):
    nx, ny = cx.torus_shape
    vals = [0.0] * (nx * ny)
    for j in range(ny):
        for i in range(nx):
            dx = min(abs(i - cx0), nx - abs(i - cx0))
            dy = min(abs(j - cy0), ny - abs(j - cy0))
            vals[j * nx + i] = math.exp(
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
    mc = build_morse_complex(build_gradient(fld))
    gap = oracles.spectral_gap(spectrum(mc))
    step = max(c0_distance(a, b) for a, b in zip(family, family[1:]))
    assert step < gap  # the family really is fine relative to its spectrum
    mcs = [MorseComplex.from_field(f) for f in family]
    for res in sweep(mcs, [point_class(cx), fundamental_class(cx)]):
        assert res.constant


# ------------------------------------------------------------ Künneth products


def assert_product_rhos(f, g):
    fld = oracles.product_field(f, g)
    mc = MorseComplex.from_field(fld)
    for Y, want in oracles.product_rhos(fld, f, g):
        assert rho(mc, Y).sigma == want, (Y.grade, min(Y.support))


def test_product_field_at_256():
    # Exact at a size where every other oracle stops: the four Künneth values
    # of a sum of two random dyadic factors on the 256x256 torus.
    rng = random.Random(31)
    f, g = ([k / DENOM for k in rng.sample(range(DENOM), 256)] for _ in range(2))
    assert_product_rhos(f, g)


def factor_values(n):
    """One factor's n values: dyadic, plateau or constant."""
    return st.one_of(
        st.lists(st.integers(0, DENOM - 1).map(lambda k: k / DENOM), min_size=n, max_size=n),
        st.lists(st.sampled_from((0.0, 1.0, 2.0)), min_size=n, max_size=n),
        st.integers(-8, 8).map(lambda k: [k / 4] * n),
    )


@settings(deadline=None)
@given(st.data())
def test_product_field_on_small_tori(data):
    nx, ny = data.draw(st.integers(2, 12)), data.draw(st.integers(2, 12))
    assert_product_rhos(data.draw(factor_values(nx)), data.draw(factor_values(ny)))
