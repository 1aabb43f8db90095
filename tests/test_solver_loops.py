"""The enumeration loops of ``brute_force``, ``greedy_cardinality`` and
``greedy_matroid``.

``reference_brute_force`` and ``reference_greedy_cardinality`` are verbatim
copies of the loops they replaced: brute force built every one of the 2^n
masks and filtered it through a ``feasible`` closure, and greedy scanned
``range(n)`` with ``contains`` and the checked ``Subset.add``.  Both greedy
solvers now run one round loop, ``solvers._greedy``.  It replaced
``reference_mask_walk_greedy`` (the cardinality greedy's own walk over the
bits of the unchosen mask) and ``reference_greedy_matroid`` (a list pool
popped by index, queried through the checked ``Subset.add``), both kept
verbatim.  Through a recording oracle, each pair must issue the same queries
in the same order and return the same chosen mask, value (``==`` and type),
query count and trace, for every oracle kind, including the stateful
sampling estimator.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from approxsub.solvers import (
    SolveResult,
    brute_force,
    curvature_topk,
    greedy_cardinality,
    greedy_matroid,
)

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


def reference_mask_walk_greedy(F: ValueOracle, k: int) -> SolveResult:
    n = F.n
    if k > n:
        raise ValueError(f"budget k={k} exceeds n={n}")
    start = F.query_count
    full = (1 << n) - 1
    mask = 0
    trace: list[tuple[int, int]] = []
    best_value = 0
    for size in range(1, k + 1):
        best = 0
        best_val = None
        rest = full ^ mask
        while rest:
            low = rest & -rest
            v = F.query(Subset._raw(n, mask | low, size))
            if best_val is None or v > best_val:
                best, best_val = low, v
            rest ^= low
        mask |= best
        best_value = best_val
        trace.append((best.bit_length() - 1, F.query_count - start))
    return SolveResult(Subset._raw(n, mask, len(trace)), best_value, trace,
                       F.query_count - start)


def reference_greedy_matroid(F: ValueOracle, matroid: Matroid) -> SolveResult:
    n = F.n
    if matroid.n != n:
        raise ValueError(f"ground set mismatch: oracle n={n}, matroid n={matroid.n}")
    start = F.query_count
    chosen = Subset.empty(n)
    pool = list(range(n))
    trace: list[tuple[int, int]] = []
    current = 0
    while pool:
        best_i = 0
        best_val = None
        for i, x in enumerate(pool):
            v = F.query(chosen.add(x))
            if best_val is None or v > best_val:
                best_i, best_val = i, v
        x = pool.pop(best_i)
        candidate = chosen.add(x)
        if matroid.is_independent(candidate):
            chosen = candidate
            current = best_val
            trace.append((x, F.query_count - start))
    return SolveResult(chosen, current, trace, F.query_count - start)


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


def _outcome(solve, oracle, constraint):
    try:
        res = solve(oracle, constraint)
    except ValueError as exc:
        return ("error", str(exc))
    chosen = None if res.chosen is None else (res.chosen.n, res.chosen.mask, res.chosen.size)
    return (chosen, res.value, type(res.value), res.trace, res.queries_used)


def assert_same_run(make, n, constraint, reference, solve):
    """Run both versions on fresh oracles from ``make``; return the new
    version's outcome and its recording oracle."""
    old, new = Recording(make()), Recording(make())
    expected = _outcome(lambda F, c: reference(F, n, c), old, constraint)
    got = _outcome(solve, new, constraint)
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
    return sorted({0, 1, 2, n - 1, n, n + 2})


@pytest.mark.parametrize("n, name", _cases())
def test_brute_force_matches_full_enumeration(n, name):
    make = _oracle_factories(n)[name]
    for k in _budgets(n):
        got, rec = assert_same_run(make, n, k, reference_brute_force, brute_force)
        assert rec.log == [m for m in range(1 << n) if m.bit_count() <= k]
        if name == "constant":
            assert got[0] == (n, 0, 0)  # the smallest mask wins a tie


@pytest.mark.parametrize("n, name", _cases())
def test_greedy_matches_range_scan(n, name):
    make = _oracle_factories(n)[name]
    for k in _budgets(n):
        got, _ = assert_same_run(make, n, k, reference_greedy_cardinality,
                                 greedy_cardinality)
        if k > n:
            assert got[0] == "error"
        if name == "constant" and k <= n:
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
    """The old loop is too slow at n = 24; check against combinations.  k = 0
    queries the empty set alone (its mask has no low bit to jump by)."""
    n = 24
    weights = [(7 * i) % 5 for i in range(n)]  # ties: the smallest mask must win
    for k, count in ((0, 1), (1, 25), (2, 301), (3, 2325)):
        rec = Recording(AdditiveFunction(weights))
        res = brute_force(rec, k)
        masks = sorted(sum(1 << e for e in combo)
                       for size in range(k + 1) for combo in itertools.combinations(range(n), size))
        assert rec.log == masks and res.queries_used == len(masks) == count
        values = [sum(weights[e] for e in range(n) if m >> e & 1) for m in masks]
        best = max(values)
        assert res.value == best and type(res.value) is int
        assert res.chosen.mask == masks[values.index(best)]


def _without_n(reference):
    """A reference with the ``(F, constraint)`` signature, for assert_same_run."""
    return lambda F, n, constraint: reference(F, constraint)


@pytest.mark.parametrize("n, name", _cases())
def test_greedy_matches_mask_walk(n, name):
    make = _oracle_factories(n)[name]
    for k in _budgets(n):
        assert_same_run(make, n, k, _without_n(reference_mask_walk_greedy), greedy_cardinality)


@pytest.mark.parametrize("name", sorted(_oracle_factories(1)))
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_greedy_matroid_matches_list_pool(n, name):
    make = _oracle_factories(n)[name]
    for matroid in _matroids(n):
        got, rec = assert_same_run(make, n, matroid, _without_n(reference_greedy_matroid),
                                   greedy_matroid)
        assert len(rec.log) == got[4] == n * (n + 1) // 2  # the pool shrinks every round
        chosen = Subset._raw(*got[0])
        assert matroid.is_independent(chosen)
        assert not any(matroid.is_independent(chosen.add(e))
                       for e in range(n) if not chosen.contains(e))


def test_greedy_matroid_keeps_its_ground_check():
    F, matroid = Recording(AdditiveFunction([1, 2, 3])), PartitionMatroid([0] * 4, [2])
    expected = _outcome(reference_greedy_matroid, Recording(F.base), matroid)
    assert _outcome(greedy_matroid, F, matroid) == expected == (
        "error", "ground set mismatch: oracle n=3, matroid n=4")
    assert F.log == []


@pytest.mark.parametrize("k", [0, -1, -5])
def test_greedy_empty_budget(k):
    """No round runs: at k = 0 the empty set, the int 0 and no query, and a
    negative k is refused before any query."""
    if k < 0:
        rec = Recording(AdditiveFunction([3, 1, 2]))
        assert _outcome(greedy_cardinality, rec, k) == ("error", f"budget k={k} is negative")
        assert rec.log == []
        return
    got, rec = assert_same_run(lambda: AdditiveFunction([3, 1, 2]), 3, k,
                               _without_n(reference_mask_walk_greedy), greedy_cardinality)
    assert got == ((3, 0, 0), 0, int, [], 0)
    assert rec.log == []


def test_greedy_budget_errors():
    F = Recording(AdditiveFunction([3, 1, 2]))
    with pytest.raises(ValueError, match=r"^budget k=4 exceeds n=3$"):
        greedy_cardinality(F, 4)
    for k in (2.5, 2.0, "2"):  # a budget is never rounded to a number of rounds
        with pytest.raises(TypeError) as new:
            greedy_cardinality(F, k)
        with pytest.raises(TypeError) as old:
            reference_mask_walk_greedy(Recording(F.base), k)
        assert str(new.value) == str(old.value)
    assert F.log == []


@pytest.mark.parametrize("solve", [greedy_cardinality, curvature_topk, brute_force],
                         ids=["greedy", "topk", "brute"])
def test_cardinality_solvers_read_a_budget_alike(solve):
    """Each cardinality solver reads its budget with operator.index (no
    number is truncated to a count) and refuses a negative one by name,
    before any query."""
    for n in range(1, 11):
        for make in _oracle_factories(n).values():
            for k in (-1, -5):
                rec = Recording(make())
                assert _outcome(solve, rec, k) == ("error", f"budget k={k} is negative")
                assert rec.log == []
    rec = Recording(AdditiveFunction([3, 1, 4, 1, 5]))
    for k in (2.5, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match=r"cannot be interpreted as an integer$"):
            solve(rec, k)
    assert rec.log == []
    assert _outcome(solve, rec, 2)[1] == 9  # the same budget as an int: {2, 4}


@st.composite
def _matroid_cases(draw):
    n = draw(st.integers(1, 7))
    values = st.one_of(st.integers(0, 3),
                       st.fractions(Fraction(0), Fraction(4), max_denominator=3))
    table = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    noise = draw(st.sampled_from([None, 0.3, 0.9]))
    if draw(st.booleans()):
        matroid = IndependentUpToTwo(n)
    else:
        blocks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        matroid = PartitionMatroid(blocks, draw(st.lists(st.integers(0, n), min_size=3,
                                                         max_size=3)))
    seed = draw(st.integers(-2 ** 70, 2 ** 70))

    def make():
        f = TableFunction(n, table)
        return f if noise is None else ConsistentNoiseOracle(f, noise, seed)
    return n, make, matroid


@settings(max_examples=300, deadline=None)
@given(_matroid_cases())
def test_greedy_matroid_fuzz(case):
    n, make, matroid = case
    assert_same_run(make, n, matroid, _without_n(reference_greedy_matroid), greedy_matroid)
    for k in range(n + 1):
        assert_same_run(make, n, k, _without_n(reference_mask_walk_greedy), greedy_cardinality)
