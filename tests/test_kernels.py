"""Fast GF(2) and flow kernels against the slow routes they replaced.

``gf2.to_bits`` strips the lowest set bit per step; the reference here is
the shift loop that visits every bit position up to the top bit.
``DiscreteGradient.expand`` decides each matched cell once, in a topological
order of the V-paths; the reference is the round-based loop that recomputes
the boundary of the whole chain and toggles every coface it asks for, until
no matched cell is left in the boundary.  Both must agree with ``==``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_field
from morsespec import build_from_simplicial, build_torus_grid, gf2, make_field
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


def round_based_expand(g, support):
    """Cancel matched boundary cells round by round until none is left."""
    chain = set(support)
    for _ in range(len(g.complex) + 1):
        bd = set()
        for cid in chain:
            bd.symmetric_difference_update(g.complex.cells[cid].faces)
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
        st.lists(st.integers(0, WIDE - 1), max_size=24).map(gf2.from_bits),
    )
)
def test_to_bits_matches_shift_loop(v):
    got = gf2.to_bits(v)
    assert got == shift_loop_bits(v)
    assert got == [i for i in range(v.bit_length()) if v >> i & 1]
    assert gf2.from_bits(got) == v


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


def plateau_field(cx, rng):
    """Three distinct values over all vertices: most cells tie."""
    return make_field(cx, [rng.randrange(3) / 4 for _ in range(cx.n_vertices)])


@pytest.mark.parametrize("field", ["random", "bump", "plateau"])
def test_expand_matches_round_based_on_tori(field):
    rng = random.Random(8)
    added = 0
    for n in range(2, 25):
        cx = build_torus_grid(n, n)
        if field == "random":
            fld = dyadic_field(cx, rng)
        elif field == "bump":
            fld = expression_field(cx, "bump")
        else:
            fld = plateau_field(cx, rng)
        added += check_expand(build_gradient(cx, fld), rng)
    assert added > 0


@pytest.mark.parametrize("field", ["random", "plateau"])
def test_expand_matches_round_based_on_corpus(field, corpus):
    rng = random.Random(9)
    added = 0
    for cx, fld in corpus:
        if field == "plateau":
            fld = plateau_field(cx, rng)
        for tie_break in ("id", "reverse-id"):
            added += check_expand(build_gradient(cx, fld, tie_break), rng)
    assert added > 0


def test_cycle_reached_through_a_king_is_detected():
    # Vertices 0, 1, 2 are each paired with the next triangle edge, a closed
    # V-path.  The boundary of the critical edge (3,4) touches none of them:
    # the loop is reached only through vertex 3's coface (2,3), whose other
    # face is vertex 2.
    cx = build_from_simplicial([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]])
    fld = make_field(cx, [0.0] * 5)
    edges = {tuple(c.vertices): c.id for c in cx.cells_of_dim(1)}
    pair_up = {0: edges[(0, 1)], 1: edges[(1, 2)], 2: edges[(0, 2)], 3: edges[(2, 3)]}
    pair_down = {k: q for q, k in pair_up.items()}
    critical = frozenset({4, edges[(3, 4)]})
    g = DiscreteGradient(cx, fld, pair_up, pair_down, critical)
    chain = {edges[(3, 4)]}
    assert {f for f in cx.cells[edges[(3, 4)]].faces if f in pair_up} == {3}
    with pytest.raises(GradientCycleError):
        g.expand(chain)
    with pytest.raises(GradientCycleError):
        round_based_expand(g, chain)
    # The critical vertex alone reaches no matched cell.
    assert g.expand({4}) == frozenset({4})
