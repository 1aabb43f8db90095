"""The argmax of ``_greedy`` compares int and Fraction values as integer
ratios.

``parent_greedy`` is a verbatim copy of the loop as it stood when every
candidate was compared with ``v > best_val``.
On seeded dict-backed oracles whose values mix int, bool, Fraction (also
``Fraction(k, 1)``), float, ``np.int64`` and ``np.float64``, negative and
infinite values, with many ties within and across those types, the solvers
must return the same chosen set, a value equal by ``==`` and of the same
type, the same trace and query count, and issue the same queries in the
same order.  The same holds on a seeded oracle that hashes each mask to a
value from those pools, at widths around one and two 64-bit words (n = 61 to
66, 127, 128, 130), where the pool of single-bit masks holds multi-word ints.
The trap of the ``greedy-scale`` benchmark is covered at every even n from 64
to 256.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from approxsub.adversarial import build_greedy_trap
from approxsub.matroids import Matroid, PartitionMatroid
from approxsub.sets import Subset, ValueOracle
from approxsub.solvers import SolveResult, greedy_cardinality, greedy_matroid


def parent_greedy(F: ValueOracle, rounds: int, matroid: Matroid | None) -> SolveResult:
    """The round loop of both greedy solvers.  Each round walks the pool
    mask's bits in increasing order and queries chosen + {a} for each; only a
    strictly larger value replaces the best, so ties go to the smallest id.
    The winner leaves the pool and joins the chosen set unless ``matroid``
    says the result is dependent.  Stops after ``rounds`` accepted elements
    or when the pool is empty."""
    n = F.n
    start = F.query_count
    pool = (1 << n) - 1
    mask = 0
    size = 1  # the size of every set this round queries
    trace: list[tuple[int, int]] = []
    best_value = 0
    while size <= rounds and pool:
        best = 0
        best_val = None
        rest = pool
        while rest:
            low = rest & -rest
            v = F.query(Subset._raw(n, mask | low, size))
            if best_val is None or v > best_val:
                best, best_val = low, v
            rest ^= low
        pool ^= best
        if matroid is None or matroid.is_independent(Subset._raw(n, mask | best, size)):
            mask |= best
            size += 1
            best_value = best_val
            trace.append((best.bit_length() - 1, F.query_count - start))
    return SolveResult(Subset._raw(n, mask, len(trace)), best_value, trace,
                       F.query_count - start)


class DictOracle(ValueOracle):
    """Counted oracle over a dict of values by mask; logs every query."""

    def __init__(self, n, values):
        super().__init__(n)
        self.values = values
        self.log: list[int] = []

    def value(self, s: Subset):
        self.log.append(s.mask)
        return self.values[s.mask]


class HashOracle(ValueOracle):
    """Counted oracle at any width: a set's value is drawn from ``pool`` by a
    seeded hash of its mask (int and tuple hashes are not salted per
    process); logs every query."""

    def __init__(self, n, seed, pool):
        super().__init__(n)
        self.seed, self.pool = seed, pool
        self.log: list[int] = []

    def value(self, s: Subset):
        self.log.append(s.mask)
        return self.pool[hash((self.seed, s.mask)) % len(self.pool)]


def _exact_pool(rng):
    """Ints and Fractions, negatives included, with Fraction(k, 1) and
    unreduced spellings of the same value so that ties are common."""
    pool = [0, 1, 2, 3, -1, -2, Fraction(3), Fraction(-2, 1), Fraction(6, 4), Fraction(3, 2),
            Fraction(-3, 2), Fraction(5, 7), Fraction(10, 14), Fraction(1, 3), Fraction(2, 6)]
    return rng.sample(pool, rng.randint(2, 6))


def _mixed_pool(rng):
    """The exact pool with bools, floats and numpy scalars, equal across types."""
    pool = [0, 1, 3, -2, True, False, Fraction(3, 1), Fraction(3, 2), Fraction(-2, 1),
            Fraction(1, 3), 1.5, 3.0, -2.0, 0.0, float("inf"), float("-inf"),
            np.int64(3), np.int64(-2), np.int64(1), np.float64(1.5), np.float64(3.0),
            np.float64(0.25), Fraction(1, 4)]
    return rng.sample(pool, rng.randint(2, 8))


POOLS = {"exact": _exact_pool, "mixed": _mixed_pool}


def _values(n, seed, pool_name):
    rng = random.Random(seed)
    pool = POOLS[pool_name](rng)
    return {m: rng.choice(pool) for m in range(1 << n)}


def _outcome(res: SolveResult, oracle: DictOracle):
    chosen = None if res.chosen is None else (res.chosen.n, res.chosen.mask, res.chosen.size)
    return chosen, res.trace, res.queries_used, oracle.query_count, oracle.log


def assert_same(solve, reference, n, values, constraint):
    assert_same_on(solve, reference, lambda: DictOracle(n, values), constraint)


def assert_same_on(solve, reference, make, constraint):
    """The two solvers on two fresh oracles from ``make``."""
    new, old = make(), make()
    got, want = solve(new, constraint), reference(old, constraint)
    assert _outcome(got, new) == _outcome(want, old)
    assert type(got.value) is type(want.value)
    assert got.value == want.value


def _matroids(n):
    blocks = [e % 3 for e in range(n)]
    yield PartitionMatroid([0] * n, [n // 2])
    yield PartitionMatroid(blocks, [1, 2, 0])
    yield PartitionMatroid(blocks, [n, 1, n])


CASES = [pytest.param(n, seed, pool, id=f"{pool}-n{n}-s{seed}")
         for pool in POOLS for n in range(1, 8) for seed in range(12)]


@pytest.mark.parametrize("n, seed, pool", CASES)
def test_greedy_cardinality_matches_parent(n, seed, pool):
    values = _values(n, seed, pool)
    for k in range(n + 1):
        assert_same(greedy_cardinality, lambda F, k: parent_greedy(F, k, None), n, values, k)


@pytest.mark.parametrize("n, seed, pool", CASES)
def test_greedy_matroid_matches_parent(n, seed, pool):
    values = _values(n, seed, pool)
    for matroid in _matroids(n):
        assert_same(greedy_matroid, lambda F, m: parent_greedy(F, n, m), n, values, matroid)


WIDE = [pytest.param(n, seed, pool, id=f"{pool}-n{n}-s{seed}")
        for pool in POOLS for n in (*range(61, 67), 127, 128, 130) for seed in range(4)]


@pytest.mark.parametrize("n, seed, pool", WIDE)
def test_greedy_cardinality_matches_parent_at_multi_word_widths(n, seed, pool):
    values = POOLS[pool](random.Random(seed))
    for k in range(6):
        assert_same_on(greedy_cardinality, lambda F, k: parent_greedy(F, k, None),
                       lambda: HashOracle(n, seed, values), k)


@pytest.mark.parametrize("n, seed, pool", [
    pytest.param(n, seed, pool, id=f"{pool}-n{n}-s{seed}")
    for pool in POOLS for n in (61, 64, 65, 70) for seed in range(3)])
def test_greedy_matroid_matches_parent_at_multi_word_widths(n, seed, pool):
    values = POOLS[pool](random.Random(seed))
    for matroid in _matroids(n):
        assert_same_on(greedy_matroid, lambda F, m: parent_greedy(F, n, m),
                       lambda: HashOracle(n, seed, values), matroid)


def test_exact_ties_go_to_the_first_candidate():
    """Equal values of both exact types, spelled apart: the smallest id wins,
    and the first value found is the one returned."""
    values = {0: 0, 1: Fraction(6, 4), 2: Fraction(3, 2), 3: 3, 4: Fraction(3, 2), 5: 3,
              6: Fraction(3), 7: Fraction(3, 1)}
    res = greedy_cardinality(DictOracle(3, values), 1)
    assert res.chosen.mask == 1 and res.value == Fraction(3, 2)
    res = greedy_cardinality(DictOracle(3, {0: 0, 1: 3, 2: Fraction(3), 4: Fraction(6, 2),
                                            3: 0, 5: 0, 6: 0, 7: 0}), 1)
    assert res.chosen.mask == 1 and res.value == 3 and type(res.value) is int


@pytest.mark.parametrize("n", range(64, 257, 2))
def test_trap_greedy_matches_parent(n):
    trap = build_greedy_trap(16, 0.5, n)
    got = greedy_cardinality(trap, 16)
    start = trap.query_count
    want = parent_greedy(trap, 16, None)
    assert (got.chosen.mask, got.trace, got.queries_used) == (
        want.chosen.mask, want.trace, want.queries_used)
    assert type(got.value) is type(want.value) and got.value == want.value
    assert trap.query_count - start == got.queries_used
