"""The enumeration loops of ``brute_force`` and ``greedy_cardinality``.

``reference_brute_force`` and ``reference_greedy_cardinality`` are verbatim
copies of the loops they replaced: brute force built every one of the 2^n
masks and filtered it through a ``feasible`` closure, and greedy scanned
``range(n)`` with ``contains`` and the checked ``Subset.add``.  Through a
recording oracle, both versions must issue the same queries in the same
order and return the same chosen mask, value (``==`` and type), query count
and trace, for every oracle kind, including the stateful sampling estimator.
"""

import itertools
import random
from fractions import Fraction

import pytest

from approxsub.experiments import instance_corpus
from approxsub.functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    CoverageFunction,
    SumFunction,
)
from approxsub.matroids import Matroid, PartitionMatroid
from approxsub.noise import ConsistentNoiseOracle, SamplingEstimator
from approxsub.sets import Subset, ValueOracle
from approxsub.solvers import SolveResult, brute_force, greedy_cardinality

from conftest import TableFunction, as_oracle


def reference_greedy_cardinality(F: ValueOracle, n: int, k: int) -> SolveResult:
    if n != F.n:
        raise ValueError(f"ground set mismatch: oracle n={F.n}, n={n}")
    if k > n:
        raise ValueError(f"budget k={k} exceeds n={n}")
    start = F.query_count
    chosen = Subset.empty(n)
    trace: list[tuple[int, int]] = []
    best_value = 0
    for _ in range(k):
        best = None
        best_val = None
        for a in range(n):
            if chosen.contains(a):
                continue
            v = F.query(chosen.add(a))
            if best_val is None or v > best_val:
                best, best_val = a, v
        chosen = chosen.add(best)
        best_value = best_val
        trace.append((best, F.query_count - start))
    return SolveResult(chosen, best_value, trace, F.query_count - start)


def reference_brute_force(F, n: int, constraint) -> SolveResult:
    if n > 24:
        raise ValueError(f"brute force guarded at n <= 24, got {n}")
    oracle = as_oracle(F)
    if oracle.n != n:
        raise ValueError(f"ground set mismatch: oracle n={oracle.n}, n={n}")
    if isinstance(constraint, Matroid):
        feasible = constraint.is_independent
    else:
        k = int(constraint)

        def feasible(s: Subset) -> bool:
            return s.size <= k

    start = oracle.query_count
    best = None
    best_val = None
    for mask in range(1 << n):
        s = Subset._raw(n, mask, mask.bit_count())
        if not feasible(s):
            continue
        v = oracle.query(s)
        if best_val is None or v > best_val:
            best, best_val = s, v
    return SolveResult(best, best_val, [], oracle.query_count - start)


class Recording(ValueOracle):
    """Counted oracle that logs the mask of every query it serves."""

    def __init__(self, base):
        super().__init__(base.n)
        self.base = base
        self.log: list[int] = []

    def value(self, s: Subset):
        self.log.append(s.mask)
        return self.base.value(s)


def _outcome(solve, oracle, n, constraint):
    try:
        res = solve(oracle, n, constraint)
    except ValueError as exc:
        return ("error", str(exc))
    chosen = None if res.chosen is None else (res.chosen.n, res.chosen.mask, res.chosen.size)
    return (chosen, res.value, type(res.value), res.trace, res.queries_used)


def assert_same_run(make, n, constraint, reference, solve):
    """Run both versions on fresh oracles from ``make``; return the new
    version's outcome and its recording oracle."""
    old, new = Recording(make()), Recording(make())
    expected = _outcome(reference, old, n, constraint)
    got = _outcome(solve, new, n, constraint)
    assert got == expected
    assert new.log == old.log
    assert new.query_count == old.query_count
    if isinstance(new.base, SamplingEstimator):
        assert new.base.cached_sets() == old.base.cached_sets()
        assert new.base.samples == old.base.samples
    return got, new


def _fraction_instance(n, rng):
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
    budget = Fraction(sum(weights), 2)
    concave = [Fraction(0)]
    for d in sorted((Fraction(rng.randint(1, 7), 3) for _ in range(n)), reverse=True):
        concave.append(concave[-1] + d)
    return SumFunction([BudgetAdditiveFunction(weights, budget),
                        ConcaveCardinalityFunction(concave)])


def _int_instance(n, rng):
    if n < 3:  # the corpus's coverage draws need a wider universe
        return AdditiveFunction([rng.randint(1, 4) for _ in range(n)])
    corpus = instance_corpus(n, sizes=(n,))
    return corpus[n % len(corpus)]


def _oracle_factories(n):
    rng = random.Random(n)
    exact_int = _int_instance(n, rng)
    exact_frac = _fraction_instance(n, rng)
    coverage = CoverageFunction(3, [[rng.randrange(3)] for _ in range(n)])
    zero_one = [rng.randint(0, 1) for _ in range(1 << n)]
    return {
        "int": lambda: exact_int,
        "fraction": lambda: exact_frac,
        "consistent-noise": lambda: ConsistentNoiseOracle(exact_int, 0.3, n),
        "tied-coverage": lambda: coverage,
        "constant": lambda: TableFunction(n, [5] * (1 << n)),
        "zero-one": lambda: TableFunction(n, zero_one),
        "estimator": lambda: SamplingEstimator(exact_frac, "uniform-relative", 0.5, n, 3),
    }


def _cases():
    for n in range(1, 11):
        for name in _oracle_factories(n):
            yield pytest.param(n, name, id=f"n{n}-{name}")


def _budgets(n):
    return sorted({-1, 0, 1, 2, n - 1, n, n + 2})


@pytest.mark.parametrize("n, name", _cases())
def test_brute_force_matches_full_enumeration(n, name):
    make = _oracle_factories(n)[name]
    for k in _budgets(n):
        got, rec = assert_same_run(make, n, k, reference_brute_force, brute_force)
        if k < 0:
            assert got == (None, None, type(None), [], 0)
        else:
            assert rec.log == [m for m in range(1 << n) if m.bit_count() <= k]
        if name == "constant" and k >= 0:
            assert got[0] == (n, 0, 0)  # the smallest mask wins a tie


@pytest.mark.parametrize("n, name", _cases())
def test_greedy_matches_range_scan(n, name):
    make = _oracle_factories(n)[name]
    for k in _budgets(n):
        got, _ = assert_same_run(make, n, k, reference_greedy_cardinality,
                                 greedy_cardinality)
        if k > n:
            assert got[0] == "error"
        if name == "constant" and 0 <= k <= n:
            assert got[0] == (n, (1 << k) - 1, k)  # ties go to the smallest ids


@pytest.mark.parametrize("seed", [0, 1])
def test_corpus_instances_match(seed):
    for inst in instance_corpus(seed, sizes=(8, 10)):
        n = inst.n
        for k in (2, 4, n - 2):
            for reference, solve in ((reference_brute_force, brute_force),
                                     (reference_greedy_cardinality, greedy_cardinality)):
                assert_same_run(lambda: inst, n, k, reference, solve)


class IndependentUpToTwo(Matroid):
    """A user matroid with no ``rank()``: brute force must not call it."""

    def __init__(self, n):
        self.n = n

    def is_independent(self, s: Subset) -> bool:
        return s.size <= 2


def _matroids(n):
    blocks = [e % 3 for e in range(n)]
    for k in (0, n // 2, n):  # uniform matroids: one block of capacity k
        yield PartitionMatroid([0] * n, [k])
    yield PartitionMatroid(blocks, [1, 2, 0])
    yield PartitionMatroid(blocks, [n, 1, n + 3])  # capacities above block sizes
    yield IndependentUpToTwo(n)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_brute_force_matroids_match(n):
    factories = _oracle_factories(n)
    for matroid in _matroids(n):
        for name in ("int", "fraction", "constant", "estimator"):
            _, rec = assert_same_run(factories[name], n, matroid,
                                     reference_brute_force, brute_force)
            if name == "int":
                assert rec.log == [m for m in range(1 << n)
                                   if matroid.is_independent(Subset._raw(n, m, m.bit_count()))]


def test_brute_force_n24_small_budget():
    """The old loop is too slow at n = 24; check against combinations."""
    n, k = 24, 2
    weights = [(7 * i) % 5 for i in range(n)]  # ties: the smallest mask must win
    rec = Recording(AdditiveFunction(weights))
    res = brute_force(rec, n, k)
    masks = sorted(sum(1 << e for e in combo)
                   for size in range(k + 1) for combo in itertools.combinations(range(n), size))
    assert rec.log == masks and res.queries_used == len(masks) == 301
    values = [sum(weights[e] for e in range(n) if m >> e & 1) for m in masks]
    best = max(values)
    assert res.value == best and type(res.value) is int
    assert res.chosen.mask == masks[values.index(best)]
