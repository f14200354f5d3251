import random

import pytest

import morsespec.homology as fullh
from conftest import cycle_graph, dyadic_field, random_instance, tetra_boundary
from morsespec import (
    MorseComplex,
    build_gradient,
    build_morse_complex,
    build_torus_grid,
    check_order_decreasing,
    homology_basis,
    make_field,
    same_class,
    verify_d_squared,
)
from morsespec.errors import ChainError, GradientCycleError
from morsespec.homology import HomologyClass, boundary_support


def pipeline(cx, fld, tie_break="id"):
    g = build_gradient(cx, fld, tie_break)
    return g, build_morse_complex(cx, fld, g)


# ------------------------------------------------------------ gradient


def test_four_cycle_gradient_two_critical_cells():
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    g = build_gradient(cx, fld)
    g.validate()
    crit = sorted(g.critical)
    assert len(crit) == 2
    vmin, emax = crit
    assert cx.cells[vmin].dim == 0 and fld.cell_values[vmin] == 0.0
    assert cx.cells[emax].dim == 1 and fld.cell_values[emax] == 2.0


def test_constant_torus_field_critical_count():
    cx = build_torus_grid(3, 3)
    fld = make_field(cx, [0.0] * 9)
    g = build_gradient(cx, fld)
    g.validate()
    assert len(g.critical) >= 4  # at least the total Betti number of T^2


def test_pairs_and_critical_partition(corpus):
    for cx, fld in corpus:
        g = build_gradient(cx, fld)
        cells = set(g.pair_up) | set(g.pair_down) | set(g.critical)
        assert cells == set(range(len(cx)))
        assert not (set(g.pair_up) & set(g.pair_down))
        g.validate()


def test_gradient_deterministic():
    cx = build_torus_grid(4, 4)
    fld = dyadic_field(cx, random.Random(5))
    g1 = build_gradient(cx, fld)
    g2 = build_gradient(cx, fld)
    assert g1.pair_up == g2.pair_up and g1.critical == g2.critical


# ------------------------------------------------------------ morse boundary


def test_four_cycle_max_edge_boundary_vanishes():
    # Hand enumeration: with values (0,1,2,1) on the 4-cycle the two V-paths
    # from the faces of the critical top edge both end at the critical
    # minimum, so they cancel mod 2.
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    g, mc = pipeline(cx, fld)
    (emax,) = [c for c in g.critical if cx.cells[c].dim == 1]
    vmin = next(c for c in g.critical if cx.cells[c].dim == 0)

    def v_path_targets(start_vertex):
        # follow vertex -> paired edge -> other endpoint until critical
        seen = set()
        v = start_vertex
        while v not in g.critical:
            assert v not in seen
            seen.add(v)
            e = g.pair_up[v]
            (v,) = [u for u in cx.cells[e].vertices if u != v]
        return v

    ends = [v_path_targets(u) for u in cx.cells[emax].vertices]
    assert ends == [vmin, vmin]  # two paths, same target: parity 0
    col = mc.boundary[1][mc.position(emax)[1]]
    assert col == 0


def test_tetra_and_torus_ranks():
    tetra = tetra_boundary()
    fld = dyadic_field(tetra, random.Random(6))
    _, mc = pipeline(tetra, fld)
    assert mc.betti() == [1, 0, 1]
    torus = build_torus_grid(4, 4)
    fld = dyadic_field(torus, random.Random(7))
    _, mc = pipeline(torus, fld)
    assert mc.betti() == [1, 2, 1]


def test_d_squared_and_order_decreasing(corpus):
    for cx, fld in corpus:
        _, mc = pipeline(cx, fld)
        assert verify_d_squared(mc)
        assert check_order_decreasing(mc)
        for k, b in enumerate(mc.betti()):
            assert mc.rank(k) >= b


def test_d_squared_detects_mutation():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(8))
    _, mc = pipeline(cx, fld)
    # flip one boundary entry in the top grade; d^2 = 0 must break for some
    # flip position whenever grade-1 boundaries are nonzero
    assert any(col for col in mc.boundary.get(1, [])), "need a nonzero column"
    mutated = {k: list(cols) for k, cols in mc.boundary.items()}
    broke = False
    for i in range(mc.rank(2)):
        for bit in range(mc.rank(1)):
            cols = {k: list(v) for k, v in mutated.items()}
            cols[2][i] ^= 1 << bit
            mc2 = MorseComplex(cx, fld, mc.gradient, mc.grades, cols)
            if not verify_d_squared(mc2):
                broke = True
                break
        if broke:
            break
    assert broke


def test_d_squared_vacuous_on_empty():
    cx = cycle_graph(3)
    fld = make_field(cx, [0.0, 0.0, 0.0])
    empty = MorseComplex(cx, fld, None, {}, {})
    assert verify_d_squared(empty)


def test_cycle_detected_in_forged_matching():
    # hand-build a cyclic matching: triangle vertices each paired with the
    # next edge around, plus a pendant edge whose flow enters the loop
    cx = __import__("morsespec").build_from_simplicial(
        [[0, 1], [1, 2], [0, 2], [2, 3]]
    )
    fld = make_field(cx, [0.0, 0.0, 0.0, 0.0])
    edges = {tuple(c.vertices): c.id for c in cx.cells_of_dim(1)}
    pair_up = {0: edges[(0, 1)], 1: edges[(1, 2)], 2: edges[(0, 2)]}
    pair_down = {v: k for k, v in pair_up.items()}
    from morsespec.morse import DiscreteGradient

    critical = frozenset({3, edges[(2, 3)]})
    g = DiscreteGradient(cx, fld, pair_up, pair_down, critical)
    with pytest.raises(GradientCycleError):
        build_morse_complex(cx, fld, g)
    with pytest.raises(GradientCycleError):
        g.expand(frozenset({edges[(2, 3)]}))
    with pytest.raises(GradientCycleError):
        g._check_acyclic()


# ------------------------------------------------------------ homology


def test_homology_basis_examples():
    c4 = cycle_graph(4)
    _, mc = pipeline(c4, make_field(c4, [0.0, 1.0, 2.0, 1.0]))
    basis = homology_basis(mc)
    assert [len(basis[k]) for k in (0, 1)] == [1, 1]

    torus = build_torus_grid(3, 3)
    _, mc = pipeline(torus, dyadic_field(torus, random.Random(9)))
    basis = homology_basis(mc)
    assert [len(basis[k]) for k in (0, 1, 2)] == [1, 2, 1]

    two_circles = __import__("morsespec").build_from_simplicial(
        [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    )
    _, mc = pipeline(two_circles, dyadic_field(two_circles, random.Random(10)))
    assert len(homology_basis(mc)[0]) == 2


def test_morse_betti_equals_full_reduction(corpus):
    for cx, fld in corpus:
        _, mc = pipeline(cx, fld)
        assert mc.betti() == fullh.betti_numbers(cx)


def test_tie_break_variants_agree_on_betti(corpus):
    for cx, fld in corpus[:20]:
        _, mc1 = pipeline(cx, fld, "id")
        _, mc2 = pipeline(cx, fld, "reverse-id")
        assert mc1.betti() == mc2.betti()


# ------------------------------------------------------------ flow maps


def test_project_expand_identity_and_chain_maps(corpus):
    for cx, fld in corpus[:25]:
        g, mc = pipeline(cx, fld)
        basis = homology_basis(mc)
        for k, classes in basis.items():
            for X in classes:
                e = g.expand(X.support)
                assert g.flow_down(e) == X.support
                assert fullh.is_cycle(cx, e)
        # chain-map identities on random chains, every grade
        rng = random.Random(11)
        for d in range(cx.top_dim + 1):
            cells = [c.id for c in cx.cells_of_dim(d)]
            chain = frozenset(c for c in cells if rng.random() < 0.4)
            lhs = g.flow_down(boundary_support(cx, chain))
            rhs = mc.unmask(
                d - 1, mc.boundary_of(d, mc.mask(d, g.flow_down(chain)))
            ) if d - 1 in mc.grades else frozenset()
            projected = g.flow_down(chain)
            if d in mc.grades:
                assert lhs == (
                    mc.unmask(d - 1, mc.boundary_of(d, mc.mask(d, projected)))
                    if d - 1 in mc.grades
                    else frozenset()
                )
            else:
                assert projected == frozenset() and lhs == frozenset()


def test_expand_is_chain_map_on_critical_chains(corpus):
    for cx, fld in corpus[:20]:
        g, mc = pipeline(cx, fld)
        rng = random.Random(12)
        for k in list(mc.grades):
            cells = mc.grades[k]
            chain = frozenset(c for c in cells if rng.random() < 0.5)
            if not chain:
                continue
            e = g.expand(chain)
            bd_full = boundary_support(cx, e)
            bd_morse = (
                mc.unmask(k - 1, mc.boundary_of(k, mc.mask(k, chain)))
                if k - 1 in mc.grades
                else frozenset()
            )
            assert bd_full == g.expand(bd_morse) if bd_morse else bd_full == frozenset()


def test_expand_point_generator_is_single_vertex():
    cx = build_torus_grid(4, 4)
    fld = dyadic_field(cx, random.Random(13))
    g, mc = pipeline(cx, fld)
    (X,) = homology_basis(mc)[0]
    e = g.expand(X.support)
    assert len(e) == 1 and cx.cells[next(iter(e))].dim == 0


def test_expand_classes_generate_full_homology():
    # the expanded basis classes must be independent in the full complex and
    # E(P(c)) must stay homologous to c for full cycles c
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(14))
    g, mc = pipeline(cx, fld)
    basis = homology_basis(mc)
    full_basis = fullh.homology_basis(cx)
    for k, classes in basis.items():
        expanded = [g.expand(X.support) for X in classes]
        coords = [
            fullh.class_coordinates(cx, k, e, full_basis[k]) for e in expanded
        ]
        # coordinate vectors over GF(2) must be linearly independent
        from morsespec import gf2

        masks = [sum(b << i for i, b in enumerate(v)) for v in coords]
        assert gf2.rank(masks) == len(masks) == len(full_basis[k])
    for k, classes in full_basis.items():
        for Y in classes:
            back = g.expand(g.flow_down(Y.support))
            assert fullh.classes_equal(cx, k, back, Y.support)


def test_flow_expand_rejects_non_critical_support():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(15))
    g, _ = pipeline(cx, fld)
    non_crit = next(c for c in range(len(cx)) if c not in g.critical)
    with pytest.raises(ChainError):
        g.expand(frozenset({non_crit}))


def test_same_class_detects_boundaries():
    cx = build_torus_grid(3, 3)
    fld = dyadic_field(cx, random.Random(16))
    g, mc = pipeline(cx, fld)
    (X,) = homology_basis(mc)[2] if homology_basis(mc)[2] else (None,)
    if mc.rank(2) > 1:
        a = mc.grades[2][0]
        col = mc.boundary[2][0]
        bd = mc.unmask(1, col)
        (Z,) = homology_basis(mc)[1][:1]
        assert same_class(mc, Z.support, Z.support ^ bd)


def test_random_instances_pipeline_smoke():
    rng = random.Random(17)
    for _ in range(40):
        cx, fld = random_instance(rng)
        g, mc = pipeline(cx, fld)
        assert verify_d_squared(mc)
        assert mc.betti() == fullh.betti_numbers(cx)


def test_three_dimensional_complexes():
    import morsespec as m

    rng = random.Random(77)
    solid = m.build_from_simplicial([[0, 1, 2, 3]])
    solid.validate()
    assert solid.top_dim == 3 and solid.euler_characteristic() == 1
    sphere3 = m.build_from_simplicial(
        [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]
    )
    sphere3.validate()
    assert sphere3.euler_characteristic() == 0  # boundary of the 4-simplex
    for cx, betti in [(solid, [1, 0, 0, 0]), (sphere3, [1, 0, 0, 1])]:
        for _ in range(5):
            fld = dyadic_field(cx, rng)
            g, mc = pipeline(cx, fld)
            g.validate()
            assert verify_d_squared(mc)
            assert check_order_decreasing(mc)
            assert mc.betti() == betti == fullh.betti_numbers(cx)
    # spectral sanity on the closed one: point min, top class max
    from morsespec.spectral import rho

    fld = dyadic_field(sphere3, rng)
    mc = MorseComplex.from_field(sphere3, fld)
    point = HomologyClass(0, frozenset({0}), "full", owner=sphere3)
    top = HomologyClass(
        3, frozenset(c.id for c in sphere3.cells if c.dim == 3), "full", owner=sphere3
    )
    assert rho(mc, point).sigma == min(fld.vertex_values)
    assert rho(mc, top).sigma == max(fld.vertex_values)


def test_boundary_matches_literal_path_enumeration():
    # independent oracle: count alternating paths one by one, no memoization
    rng = random.Random(18)

    def paths_mod2(cx, g, cell, target):
        if cell in g.critical:
            return 1 if cell == target else 0
        if cell in g.pair_down:
            return 0
        king = g.pair_up[cell]
        total = 0
        for f in cx.cells[king].faces:
            if f != cell:
                total ^= paths_mod2(cx, g, f, target)
        return total

    for _ in range(12):
        cx, fld = random_instance(rng)
        if len(cx) > 60:
            continue
        g, mc = pipeline(cx, fld)
        for k, cols in mc.boundary.items():
            if k == 0 or k - 1 not in mc.grades:
                continue
            for i, a in enumerate(mc.grades[k]):
                for j, b in enumerate(mc.grades[k - 1]):
                    parity = 0
                    for f in cx.cells[a].faces:
                        parity ^= paths_mod2(cx, g, f, b)
                    assert parity == (cols[i] >> j) & 1


def test_expand_agrees_with_algebraic_flow_iteration():
    # independent route: iterate id + dV + Vd on the critical cell until the
    # chain stabilizes and compare with the cancellation-based expansion
    rng = random.Random(19)

    def flow_once(cx, g, chain):
        out = set(chain)
        bd = set()
        for c in chain:
            bd.symmetric_difference_update(cx.cells[c].faces)
        out.symmetric_difference_update(g.pair_up[q] for q in bd if q in g.pair_up)
        kings = {g.pair_up[q] for q in chain if q in g.pair_up}
        for kcell in kings:
            out.symmetric_difference_update(cx.cells[kcell].faces)
        return frozenset(out)

    for _ in range(10):
        cx, fld = random_instance(rng)
        g, mc = pipeline(cx, fld)
        for k, cells in mc.grades.items():
            for a in cells[:3]:
                chain = frozenset({a})
                for _ in range(len(cx) + 1):
                    nxt = flow_once(cx, g, chain)
                    if nxt == chain:
                        break
                    chain = nxt
                assert chain == g.expand({a})
