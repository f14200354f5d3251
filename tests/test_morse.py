import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec.homology as fullh
import oracles
from conftest import (
    DENOM,
    cubical_3torus,
    cycle_graph,
    dyadic_field,
    random_instance,
    tetra_boundary,
)
from morsespec import (
    MorseComplex,
    build_from_simplicial,
    build_gradient,
    build_morse_complex,
    build_torus_grid,
    homology_basis,
    make_field,
    verify_d_squared,
)
from morsespec.errors import ChainError, GradientCycleError
from morsespec.fields import expression_field
from morsespec.homology import HomologyClass, boundary_support
from morsespec.morse import DiscreteGradient


def pipeline(cx, fld):
    g = build_gradient(fld)
    return g, build_morse_complex(g)


# ------------------------------------------------------------ gradient


def test_four_cycle_gradient_two_critical_cells():
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    g = build_gradient(fld)
    oracles.validate_gradient(g)
    crit = sorted(g.critical)
    assert len(crit) == 2
    vmin, emax = crit
    assert cx.dim(vmin) == 0 and fld.cell_values[vmin] == 0.0
    assert cx.dim(emax) == 1 and fld.cell_values[emax] == 2.0


def test_constant_torus_field_critical_count():
    cx = build_torus_grid(3, 3)
    fld = make_field(cx, [0.0] * 9)
    g = build_gradient(fld)
    oracles.validate_gradient(g)
    assert len(g.critical) >= 4  # at least the total Betti number of T^2


def test_pairs_and_critical_partition(corpus):
    for cx, fld in corpus:
        g = build_gradient(fld)
        kings = set(g.pair_up.values())
        assert len(kings) == len(g.pair_up)
        cells = set(g.pair_up) | kings | set(g.critical)
        assert cells == set(range(len(cx)))
        assert not (set(g.pair_up) & kings)
        oracles.validate_gradient(g)


def test_gradient_deterministic():
    cx = build_torus_grid(4, 4)
    fld = dyadic_field(cx, random.Random(5))
    g1 = build_gradient(fld)
    g2 = build_gradient(fld)
    assert g1.pair_up == g2.pair_up and g1.critical == g2.critical


# ------------------------------------------------------------ morse boundary


def test_four_cycle_max_edge_boundary_vanishes():
    # Hand enumeration: with values (0,1,2,1) on the 4-cycle the two V-paths
    # from the faces of the critical top edge both end at the critical
    # minimum, so they cancel mod 2.
    cx = cycle_graph(4)
    fld = make_field(cx, [0.0, 1.0, 2.0, 1.0])
    g, mc = pipeline(cx, fld)
    (emax,) = [c for c in g.critical if cx.dim(c) == 1]
    vmin = next(c for c in g.critical if cx.dim(c) == 0)

    def v_path_targets(start_vertex):
        # follow vertex -> paired edge -> other endpoint until critical
        seen = set()
        v = start_vertex
        while v not in g.critical:
            assert v not in seen
            seen.add(v)
            e = g.pair_up[v]
            (v,) = [u for u in cx.vertices[e] if u != v]
        return v

    ends = [v_path_targets(u) for u in cx.vertices[emax]]
    assert ends == [vmin, vmin]  # two paths, same target: parity 0
    col = mc.boundary[1][mc.position(emax)[1]]
    assert col == ()


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
        assert oracles.check_order_decreasing(mc)
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
            cols[2][i] = tuple(sorted(set(cols[2][i]) ^ {bit}))
            mc2 = MorseComplex(mc.gradient, mc.grades, cols)
            if not verify_d_squared(mc2):
                broke = True
                break
        if broke:
            break
    assert broke


def test_columns_are_ascending_position_tuples(corpus):
    # The one stored column form: an ascending tuple of row positions in the
    # grade below, which is what the JSON report carries.
    rng = random.Random(25)
    cases = list(corpus) + [
        (cx, dyadic_field(cx, rng)) for cx in (cubical_3torus(3, 3, 3), cubical_3torus(4, 4, 3))
    ]
    for cx, fld in cases:
        _, mc = pipeline(cx, fld)
        dump = mc.to_json_dict()["boundary"]
        assert list(dump) == [str(k) for k in sorted(mc.boundary)]
        for k, cols in mc.boundary.items():
            assert len(cols) == mc.rank(k)
            for col in cols:
                assert type(col) is tuple and all(type(i) is int for i in col)
                assert all(a < b for a, b in zip(col, col[1:]))
                assert all(0 <= i < mc.rank(k - 1) for i in col)
            assert dump[str(k)] == cols


def test_d_squared_vacuous_on_empty():
    cx = cycle_graph(3)
    fld = make_field(cx, [0.0, 0.0, 0.0])
    empty = MorseComplex(DiscreteGradient(fld, {}, frozenset()), {}, {})
    assert verify_d_squared(empty)


def test_cycle_detected_in_forged_matching():
    # hand-build a cyclic matching: triangle vertices each paired with the
    # next edge around, plus a pendant edge whose flow enters the loop
    cx = build_from_simplicial([[0, 1], [1, 2], [0, 2], [2, 3]])
    fld = make_field(cx, [0.0, 0.0, 0.0, 0.0])
    edges = {cx.vertices[c]: c for c in cx.ids_of_dim(1)}
    pair_up = {0: edges[(0, 1)], 1: edges[(1, 2)], 2: edges[(0, 2)]}
    critical = frozenset({3, edges[(2, 3)]})
    g = DiscreteGradient(fld, pair_up, critical)
    with pytest.raises(GradientCycleError):
        build_morse_complex(g)
    with pytest.raises(GradientCycleError):
        g.expand(frozenset({edges[(2, 3)]}))


def test_validate_detects_a_closed_v_path():
    # A cone over a triangle, apex 3 on top.  Each apex edge is paired with
    # the next cone triangle, 03 -> 013 -> 13 -> 123 -> 23 -> 023 -> 03; every
    # pair lies on one level set and in the apex's lower star, and all other
    # cells are critical, so only the acyclicity check can fail.
    cx = build_from_simplicial([[0, 1, 3], [1, 2, 3], [0, 2, 3]])
    fld = make_field(cx, [0.0, 0.0, 0.0, 1.0])
    ids = {vs: c for c, vs in enumerate(cx.vertices)}
    pair_up = {ids[(0, 3)]: ids[(0, 1, 3)], ids[(1, 3)]: ids[(1, 2, 3)],
               ids[(2, 3)]: ids[(0, 2, 3)]}
    critical = frozenset(range(len(cx))) - set(pair_up) - set(pair_up.values())
    g = DiscreteGradient(fld, pair_up, critical)
    with pytest.raises(GradientCycleError):
        oracles.validate_gradient(g)


# ------------------------------------------------------------ the reference route


def assert_same_morse(g):
    """``build_morse_complex`` equals the one-walk-per-cell reference, grade
    order and boundary order included."""
    mc, ref = build_morse_complex(g), oracles.reference_morse_complex(g)
    assert list(mc.grades.items()) == list(ref.grades.items())
    assert list(mc.boundary.items()) == list(ref.boundary.items())


def test_morse_complex_equals_reference_on_the_corpus(corpus):
    for cx, fld in corpus:
        assert_same_morse(build_gradient(fld))
        assert_same_morse(oracles.reference_gradient(cx, fld, "reverse-id"))


def random_plateau_constant(cx, rng):
    yield dyadic_field(cx, rng)
    yield make_field(cx, [rng.randrange(3) / 2 for _ in range(cx.n_vertices)])
    yield make_field(cx, [0.0] * cx.n_vertices)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_morse_complex_equals_reference_on_tori(n):
    cx = build_torus_grid(n, n)
    for fld in [*random_plateau_constant(cx, random.Random(n)), expression_field(cx, "bump")]:
        assert_same_morse(build_gradient(fld))


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 3)])
def test_morse_complex_equals_reference_on_the_3_tori(shape):
    cx = cubical_3torus(*shape)
    for fld in random_plateau_constant(cx, random.Random(str(shape))):
        assert_same_morse(build_gradient(fld))


def test_morse_complex_equals_reference_on_the_empty_matching(corpus):
    # Every cell is critical: each edge's column is its two ends.
    for _, fld in corpus[:20]:
        assert_same_morse(oracles.empty_gradient(fld))


@st.composite
def simplicial_fields(draw):
    """A field on a closed simplicial complex of at most 8 vertices, with
    values in {0, 1/2, 1} (most cells tie) or dyadic."""
    n = draw(st.integers(2, 8))
    simplices = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    cx = build_from_simplicial(draw(st.lists(simplices, min_size=1, max_size=10)))
    values = draw(st.sampled_from([
        st.sampled_from((0.0, 0.5, 1.0)),
        st.integers(0, DENOM).map(lambda k: k / DENOM),
    ]))
    return make_field(cx, draw(st.lists(values, min_size=cx.n_vertices,
                                        max_size=cx.n_vertices)))


@settings(deadline=None)
@given(simplicial_fields(), st.sampled_from(("id", "reverse-id", "empty")))
def test_morse_complex_equals_reference_on_simplicial_complexes(fld, matching):
    if matching == "id":
        g = build_gradient(fld)
    elif matching == "reverse-id":
        g = oracles.reference_gradient(fld.complex, fld, "reverse-id")
    else:
        g = oracles.empty_gradient(fld)
    assert_same_morse(g)


def test_vertex_loop_reached_by_a_critical_edge_raises():
    # A square loop 0 -> 1 -> 2 -> 3 -> 0, each vertex paired with its next
    # edge, and a tail 4 -> 0 into it; only the critical edge 45 reaches the
    # tail, and both routes raise.
    cx = build_from_simplicial([[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [4, 5]])
    fld = make_field(cx, [0.0] * cx.n_vertices)
    edges = {cx.vertices[c]: c for c in cx.ids_of_dim(1)}
    pair_up = {0: edges[(0, 1)], 1: edges[(1, 2)], 2: edges[(2, 3)], 3: edges[(0, 3)],
               4: edges[(0, 4)]}
    g = DiscreteGradient(fld, pair_up, frozenset({5, edges[(4, 5)]}))
    for build in (build_morse_complex, oracles.reference_morse_complex):
        with pytest.raises(GradientCycleError):
            build(g)


def test_vertex_paired_with_a_square_is_a_chain_error():
    # Forged: vertex 0 of the 3x3 torus matched with a square, which has four
    # faces; the grade-1 root walk names the pair instead of failing to unpack.
    cx = build_torus_grid(3, 3)
    square = cx.ids_of_dim(2)[0]
    critical = frozenset(range(1, len(cx))) - {square}
    g = DiscreteGradient(make_field(cx, range(9)), {0: square}, critical)
    with pytest.raises(ChainError, match=f"^vertex 0 is paired with cell {square}, not an edge$"):
        build_morse_complex(g)


@pytest.mark.parametrize("past", ["below", "above"])
def test_critical_id_outside_the_complex_is_a_chain_error(past):
    # Forged: an id below 0 would be graded under dimension -1, and one past the
    # last cell would fail on the field's value list.
    cx = build_torus_grid(3, 3)
    bad = -1 if past == "below" else len(cx) + 5
    g = DiscreteGradient(make_field(cx, range(9)), {}, frozenset({bad, 0}))
    with pytest.raises(ChainError, match=rf"^critical id {bad} is not a cell of the complex \(0\.\.35\)"):
        build_morse_complex(g)


def test_edge_end_neither_matched_nor_critical_flows_nowhere():
    # Forged: a critical vertex dropped from the critical cells, or a matched
    # vertex dropped from the matching, ends every V-path that reaches it;
    # the roots give the columns the walk gives.
    cx = build_torus_grid(6, 5)
    g = build_gradient(dyadic_field(cx, random.Random(20)))
    vertices = range(cx.n_vertices)
    for v in [c for c in vertices if c in g.critical]:
        assert_same_morse(DiscreteGradient(g.field, g.pair_up, g.critical - {v}))
    for v in [c for c in vertices if c in g.pair_up][:10]:
        pair_up = {q: k for q, k in g.pair_up.items() if q != v}
        assert_same_morse(DiscreteGradient(g.field, pair_up, g.critical))


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
        assert mc.betti() == oracles.betti_numbers(cx)


def test_tie_break_variants_agree_on_betti(corpus):
    for cx, fld in corpus[:20]:
        _, mc1 = pipeline(cx, fld)
        mc2 = build_morse_complex(oracles.reference_gradient(cx, fld, "reverse-id"))
        mc3 = build_morse_complex(oracles.empty_gradient(fld))
        assert mc1.betti() == mc2.betti() == mc3.betti()


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
            cells = list(cx.ids_of_dim(d))
            chain = frozenset(c for c in cells if rng.random() < 0.4)
            lhs = g.flow_down(boundary_support(cx, chain))
            rhs = mc.cells_at(
                d - 1, mc.boundary_of(d, mc.positions(d, g.flow_down(chain)))
            ) if d - 1 in mc.grades else frozenset()
            projected = g.flow_down(chain)
            if d in mc.grades:
                assert lhs == (
                    mc.cells_at(d - 1, mc.boundary_of(d, mc.positions(d, projected)))
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
                mc.cells_at(k - 1, mc.boundary_of(k, mc.positions(k, chain)))
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
    assert len(e) == 1 and cx.dim(next(iter(e))) == 0


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
            oracles.class_coordinates(cx, k, e, full_basis[k]) for e in expanded
        ]
        # coordinate vectors over GF(2) must be linearly independent
        masks = [sum(b << i for i, b in enumerate(v)) for v in coords]
        assert len(oracles.echelonize(masks)) == len(masks) == len(full_basis[k])
    for k, classes in full_basis.items():
        for Y in classes:
            back = g.expand(g.flow_down(Y.support))
            assert oracles.classes_equal(cx, k, back, Y.support)


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
        bd = mc.cells_at(1, col)
        (Z,) = homology_basis(mc)[1][:1]
        assert oracles.same_class(mc, Z.support, Z.support ^ bd)


def test_non_critical_cell_is_a_chain_error():
    cx = build_torus_grid(3, 3)
    mc = MorseComplex.from_field(expression_field(cx, "random:1"))
    c = next(c for c in range(len(cx)) if c not in mc.gradient.critical)
    for query in (
        lambda: mc.position(c),
        lambda: mc.positions(cx.dim(c), {c}),
        lambda: oracles.same_class(mc, {c}, set()),
    ):
        with pytest.raises(ChainError, match=f"cell {c} is not critical here"):
            query()


def test_random_instances_pipeline_smoke():
    rng = random.Random(17)
    for _ in range(40):
        cx, fld = random_instance(rng)
        g, mc = pipeline(cx, fld)
        assert verify_d_squared(mc)
        assert mc.betti() == oracles.betti_numbers(cx)


def test_three_dimensional_complexes():
    import morsespec as m

    rng = random.Random(77)
    solid = m.build_from_simplicial([[0, 1, 2, 3]])
    oracles.validate_complex(solid)
    assert solid.top_dim == 3 and oracles.euler_characteristic(solid) == 1
    sphere3 = m.build_from_simplicial(
        [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]
    )
    oracles.validate_complex(sphere3)
    assert oracles.euler_characteristic(sphere3) == 0  # boundary of the 4-simplex
    for cx, betti in [(solid, [1, 0, 0, 0]), (sphere3, [1, 0, 0, 1])]:
        for _ in range(5):
            fld = dyadic_field(cx, rng)
            g, mc = pipeline(cx, fld)
            oracles.validate_gradient(g)
            assert verify_d_squared(mc)
            assert oracles.check_order_decreasing(mc)
            assert mc.betti() == betti == oracles.betti_numbers(cx)
    # spectral sanity on the closed one: point min, top class max
    from morsespec.spectral import rho

    fld = dyadic_field(sphere3, rng)
    mc = MorseComplex.from_field(fld)
    point = HomologyClass(0, frozenset({0}), "full", owner=sphere3)
    top = HomologyClass(
        3, frozenset(sphere3.ids_of_dim(3)), "full", owner=sphere3
    )
    assert rho(mc, point).sigma == min(fld.vertex_values)
    assert rho(mc, top).sigma == max(fld.vertex_values)


def test_boundary_matches_literal_path_enumeration():
    # independent oracle: count alternating paths one by one, no memoization
    rng = random.Random(18)

    def paths_mod2(cx, g, kings, cell, target):
        if cell in g.critical:
            return 1 if cell == target else 0
        if cell in kings:
            return 0
        king = g.pair_up[cell]
        total = 0
        for f in cx.faces[king]:
            if f != cell:
                total ^= paths_mod2(cx, g, kings, f, target)
        return total

    for _ in range(12):
        cx, fld = random_instance(rng)
        if len(cx) > 60:
            continue
        g, mc = pipeline(cx, fld)
        kings = set(g.pair_up.values())
        for k, cols in mc.boundary.items():
            if k == 0 or k - 1 not in mc.grades:
                continue
            for i, a in enumerate(mc.grades[k]):
                for j, b in enumerate(mc.grades[k - 1]):
                    parity = 0
                    for f in cx.faces[a]:
                        parity ^= paths_mod2(cx, g, kings, f, b)
                    assert parity == int(j in cols[i])


def test_expand_agrees_with_algebraic_flow_iteration():
    # independent route: iterate id + dV + Vd on the critical cell until the
    # chain stabilizes and compare with the cancellation-based expansion
    rng = random.Random(19)

    def flow_once(cx, g, chain):
        out = set(chain)
        bd = set()
        for c in chain:
            bd.symmetric_difference_update(cx.faces[c])
        out.symmetric_difference_update(g.pair_up[q] for q in bd if q in g.pair_up)
        kings = {g.pair_up[q] for q in chain if q in g.pair_up}
        for kcell in kings:
            out.symmetric_difference_update(cx.faces[kcell])
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
