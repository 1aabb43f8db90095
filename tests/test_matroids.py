from itertools import combinations

import numpy as np
import pytest

from approxsub.functions import AdditiveFunction
from approxsub.matroids import PartitionMatroid
from approxsub.sets import Subset
from approxsub.solvers import brute_force, greedy_matroid


def test_uniform_membership():
    m = PartitionMatroid([0] * 6, [3])  # the uniform matroid of rank 3
    assert m.is_independent(Subset.from_elements([0, 1, 2], 6))
    assert not m.is_independent(Subset.from_elements([0, 1, 2, 3], 6))
    assert m.is_independent(Subset.empty(6))


def test_partition_membership():
    m = PartitionMatroid([0, 0, 1, 1], [1, 1])
    assert m.is_independent(Subset.from_elements([0, 2], 4))
    assert not m.is_independent(Subset.from_elements([0, 1], 4))
    assert m.is_independent(Subset.empty(4))


def test_ranks():
    assert PartitionMatroid([0] * 10, [4]).rank() == 4
    assert PartitionMatroid([0, 0, 1, 1], [1, 1]).rank() == 2
    # Capacity beyond the block size cannot be used.
    assert PartitionMatroid([0, 0, 1], [5, 1]).rank() == 3


def _all_matroids_n8():
    yield PartitionMatroid([0] * 8, [3])
    yield PartitionMatroid([0, 0, 0, 1, 1, 2, 2, 2], [2, 1, 2])
    yield PartitionMatroid([i % 4 for i in range(8)], [1, 1, 1, 1])


@pytest.mark.parametrize("m", list(_all_matroids_n8()))
def test_downward_closure_and_exchange(m):
    n = m.n
    independent = [mask for mask in range(1 << n)
                   if m.is_independent(Subset(n, mask))]
    ind = set(independent)
    for mask in independent:
        # Downward closure: drop any one element.
        sub = mask
        while sub:
            low = sub & -sub
            assert (mask ^ low) in ind
            sub ^= low
    for s in independent:
        for t in independent:
            if bin(t).count("1") <= bin(s).count("1"):
                continue
            # Exchange: some element of t - s extends s.
            extra = t & ~s
            assert any((s | bit) in ind for bit in _bits(extra)), (s, t)
    # Every maximal independent set has size rank.
    ranks = {bin(mask).count("1") for mask in independent
             if not any((mask | (1 << a)) in ind
                        for a in range(n) if not mask & (1 << a))}
    assert ranks == {m.rank()}


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def test_greedy_on_additive_is_optimal():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = 8
        blocks = [int(b) for b in rng.integers(0, 3, size=n)]
        caps = [int(c) for c in rng.integers(1, 3, size=3)]
        m = PartitionMatroid(blocks, caps)
        f = AdditiveFunction([int(w) for w in rng.integers(1, 20, size=n)])
        res = greedy_matroid(f, m)
        opt = brute_force(f, m)
        assert res.value == opt.value, trial


def test_validation():
    with pytest.raises(ValueError):
        PartitionMatroid([0, 2], [1, 1])
