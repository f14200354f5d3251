"""Fast GF(2) and flow kernels against the slow routes they replaced.

``oracles.to_bits`` strips the lowest set bit per step; the reference here is
the shift loop that visits every bit position up to the top bit.
``DiscreteGradient.flow_down`` and ``expand`` decide each matched cell once,
in a topological order of the V-paths.  The reference for ``flow_down``
replaces every matched lower cell of the chain by the other faces of its
coface, round by round; the reference for ``expand`` recomputes the boundary
of the whole chain and toggles every coface it asks for, until no matched
cell is left in the boundary.  All must agree with ``==``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec.homology as fullh
import oracles
from conftest import dyadic_field
from morsespec import build_from_simplicial, build_torus_grid, make_field
from morsespec.errors import GradientCycleError
from morsespec.fields import expression_field
from morsespec.morse import DiscreteGradient, build_gradient


def shift_loop_bits(v):
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out


def round_based_flow_down(g, support):
    """Replace matched lower cells round by round; keep the critical cells."""
    chain = set(support)
    for _ in range(len(g.complex) + 1):
        lower = [q for q in chain if q in g.pair_up]
        if not lower:
            return frozenset(chain & g.critical)
        for q in lower:
            chain.symmetric_difference_update(g.complex.faces[g.pair_up[q]])
    raise GradientCycleError("projection did not stabilize; matching has a cycle")


def round_based_expand(g, support):
    """Cancel matched boundary cells round by round until none is left."""
    chain = set(support)
    for _ in range(len(g.complex) + 1):
        bd = set()
        for cid in chain:
            bd.symmetric_difference_update(g.complex.faces[cid])
        kings = {g.pair_up[q] for q in bd if q in g.pair_up}
        if not kings:
            return frozenset(chain)
        chain.symmetric_difference_update(kings)
    raise GradientCycleError("expansion did not stabilize; matching has a cycle")


WIDE = 5000


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(0, (1 << WIDE) - 1),
        st.lists(st.integers(0, WIDE - 1), max_size=24).map(oracles.from_bits),
    )
)
def test_to_bits_matches_shift_loop(v):
    got = oracles.to_bits(v)
    assert got == shift_loop_bits(v)
    assert got == [i for i in range(v.bit_length()) if v >> i & 1]
    assert oracles.from_bits(got) == v


def check_expand(g, rng):
    """expand equals the round-based route on every critical cell and on
    random critical chains of mixed size and grade; returns the number of
    cofaces the expansions added."""
    crit = sorted(g.critical)
    chains = [{c} for c in crit]
    chains += [rng.sample(crit, rng.randint(0, len(crit))) for _ in range(6)]
    added = 0
    for chain in chains:
        got = g.expand(chain)
        assert got == round_based_expand(g, chain)
        added += len(got) - len(set(chain))
    return added


def check_flow_down(g, rng):
    """flow_down equals the round-based route on the faces of every critical
    cell, on every full homology basis class and on random subsets of one
    dimension's cells; returns the number of chains it moved."""
    cx = g.complex
    chains = [cx.faces[c] for c in sorted(g.critical)]
    chains += [Y.support for ys in fullh.homology_basis(cx).values() for Y in ys]
    for d in range(cx.top_dim + 1):
        cells = list(cx.ids_of_dim(d))
        chains += [rng.sample(cells, rng.randint(0, len(cells))) for _ in range(3)]
    moved = 0
    for chain in chains:
        got = g.flow_down(chain)
        assert got == round_based_flow_down(g, chain)
        moved += got != g.critical.intersection(chain)
    return moved


def plateau_field(cx, rng):
    """Three distinct values over all vertices: most cells tie."""
    return make_field(cx, [rng.randrange(3) / 4 for _ in range(cx.n_vertices)])


def torus_gradients(field, rng):
    """Gradients on tori 2² to 24² of a random, bump or plateau field."""
    for n in range(2, 25):
        cx = build_torus_grid(n, n)
        if field == "random":
            fld = dyadic_field(cx, rng)
        elif field == "bump":
            fld = expression_field(cx, "bump")
        else:
            fld = plateau_field(cx, rng)
        yield build_gradient(fld)


def corpus_gradients(corpus, field, rng):
    """Gradients of the corpus fields (or plateau fields) under both tie-breaks:
    the package's "id" matching and the reference's "reverse-id" one."""
    for cx, fld in corpus:
        if field == "plateau":
            fld = plateau_field(cx, rng)
        yield build_gradient(fld)
        yield oracles.reference_gradient(cx, fld, "reverse-id")


@pytest.mark.parametrize("field", ["random", "bump", "plateau"])
def test_expand_matches_round_based_on_tori(field):
    rng = random.Random(8)
    assert sum(check_expand(g, rng) for g in torus_gradients(field, rng)) > 0


@pytest.mark.parametrize("field", ["random", "plateau"])
def test_expand_matches_round_based_on_corpus(field, corpus):
    rng = random.Random(9)
    assert sum(check_expand(g, rng) for g in corpus_gradients(corpus, field, rng)) > 0


@pytest.mark.parametrize("field", ["random", "bump", "plateau"])
def test_flow_down_matches_round_based_on_tori(field):
    rng = random.Random(10)
    assert sum(check_flow_down(g, rng) for g in torus_gradients(field, rng)) > 0


@pytest.mark.parametrize("field", ["random", "plateau"])
def test_flow_down_matches_round_based_on_corpus(field, corpus):
    rng = random.Random(11)
    assert sum(check_flow_down(g, rng) for g in corpus_gradients(corpus, field, rng)) > 0


def test_cycle_reached_through_a_king_is_detected():
    # Vertices 0, 1, 2 are each paired with the next triangle edge, a closed
    # V-path.  The boundary of the critical edge (3,4) touches none of them:
    # the loop is reached only through vertex 3's coface (2,3), whose other
    # face is vertex 2.
    cx = build_from_simplicial([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]])
    fld = make_field(cx, [0.0] * 5)
    edges = {cx.vertices[c]: c for c in cx.ids_of_dim(1)}
    pair_up = {0: edges[(0, 1)], 1: edges[(1, 2)], 2: edges[(0, 2)], 3: edges[(2, 3)]}
    critical = frozenset({4, edges[(3, 4)]})
    g = DiscreteGradient(fld, pair_up, critical)
    chain = {edges[(3, 4)]}
    assert {f for f in cx.faces[edges[(3, 4)]] if f in pair_up} == {3}
    with pytest.raises(GradientCycleError):
        g.expand(chain)
    with pytest.raises(GradientCycleError):
        round_based_expand(g, chain)
    faces = cx.faces[edges[(3, 4)]]
    with pytest.raises(GradientCycleError):
        g.flow_down(faces)
    with pytest.raises(GradientCycleError):
        round_based_flow_down(g, faces)
    # The critical vertex alone reaches no matched cell.
    assert g.expand({4}) == frozenset({4})
    assert g.flow_down({4}) == frozenset({4})
