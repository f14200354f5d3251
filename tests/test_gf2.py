import itertools
import random

import pytest

import oracles


def brute_span(columns):
    out = set()
    for combo in itertools.product([0, 1], repeat=len(columns)):
        v = 0
        for j, c in enumerate(combo):
            if c:
                v ^= columns[j]
        out.add(v)
    return out


def test_pivot():
    assert oracles.pivot(0b1) == 0
    assert oracles.pivot(0b1010) == 3


def test_echelon_distinct_pivots_and_span():
    rng = random.Random(0)
    for _ in range(30):
        cols = [rng.getrandbits(6) for _ in range(rng.randint(1, 6))]
        ech = oracles.echelonize(cols)
        assert len({oracles.pivot(c) for c in ech.values()}) == len(ech)
        for p, c in ech.items():
            assert oracles.pivot(c) == p
        span = brute_span(cols)
        assert len(span) == 1 << len(ech)
        for v in span:
            assert not oracles.reduce_vector(v, ech)


def test_kernel_basis_annihilates():
    rng = random.Random(1)
    for _ in range(30):
        cols = [rng.getrandbits(5) for _ in range(rng.randint(1, 7))]
        kers = oracles.reduce_boundary(cols)[0]
        assert len(kers) == len(cols) - len(oracles.echelonize(cols))
        for mask in kers:
            v = 0
            for j in oracles.to_bits(mask):
                v ^= cols[j]
            assert v == 0


def test_solve_roundtrip():
    rng = random.Random(2)
    for _ in range(40):
        cols = [rng.getrandbits(5) for _ in range(rng.randint(1, 6))]
        target = 0
        for j in range(len(cols)):
            if rng.random() < 0.5:
                target ^= cols[j]
        combo = oracles.solve(cols, target)
        assert combo is not None
        v = 0
        for j in oracles.to_bits(combo):
            v ^= cols[j]
        assert v == target
    assert oracles.solve([0b01], 0b10) is None


def test_bits_roundtrip():
    assert oracles.to_bits(oracles.from_bits([0, 3, 5])) == [0, 3, 5]
    assert oracles.to_bits(0) == []


def test_to_bits_rejects_negative():
    # A negative int has infinitely many set bits; the sign is checked
    # before any loop, so this cannot hang.
    with pytest.raises(ValueError, match="negative"):
        oracles.to_bits(-1)
    with pytest.raises(ValueError, match="negative"):
        oracles.to_bits(-(1 << 70))
