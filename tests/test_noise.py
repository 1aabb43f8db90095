import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from approxsub.functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    CoverageFunction,
    SumFunction,
)
from approxsub.noise import (
    ConsistentNoiseOracle,
    InconsistentNoiseOracle,
    SamplingEstimator,
    noise_from_dict,
    required_samples,
)
from approxsub.sets import Subset
from approxsub.verify import check_sandwich


def _random_subsets(n, count, seed):
    rng = random.Random(seed)
    return [Subset(n, rng.getrandbits(n)) for _ in range(count)]


def test_zero_epsilon_is_exact_identity():
    f = AdditiveFunction([Fraction(1, 3), 2, Fraction(5, 7)])
    F = ConsistentNoiseOracle(f, 0.0, 99)
    for mask in range(8):
        s = Subset(3, mask)
        assert F.value(s) == f.value(s)
        assert type(F.value(s)) is type(f.value(s))


def test_same_seed_agrees_everywhere():
    f = AdditiveFunction(list(range(1, 31)))
    a = ConsistentNoiseOracle(f, 0.3, 1234)
    b = ConsistentNoiseOracle(f, 0.3, 1234)
    for s in _random_subsets(30, 10_000, 7):
        assert a.value(s) == b.value(s)


def test_different_seed_differs_somewhere():
    f = AdditiveFunction(list(range(1, 31)))
    a = ConsistentNoiseOracle(f, 0.3, 1)
    b = ConsistentNoiseOracle(f, 0.3, 2)
    assert any(a.value(s) != b.value(s) for s in _random_subsets(30, 100, 8))


nonnegative = st.one_of(st.integers(0, 20),
                        st.fractions(min_value=0, max_value=20, max_denominator=12))


@st.composite
def exact_instances(draw, n=None, depth=1):
    """Nonnegative exact instances of every kind on at most 8 elements."""
    n = draw(st.integers(1, 8)) if n is None else n
    kind = draw(st.sampled_from(["additive", "budget_additive", "coverage", "concave"]
                                + ["sum"] * depth))
    if kind == "sum":
        return SumFunction(draw(st.lists(exact_instances(n, depth - 1), min_size=1, max_size=3)))
    if kind == "coverage":
        covers = st.lists(st.integers(0, 9), max_size=4)
        return CoverageFunction(10, draw(st.lists(covers, min_size=n, max_size=n)))
    if kind == "concave":
        table = [draw(nonnegative)]
        for d in sorted(draw(st.lists(nonnegative, min_size=n, max_size=n)), reverse=True):
            table.append(table[-1] + d)
        return ConcaveCardinalityFunction(table)
    weights = draw(st.lists(nonnegative, min_size=n, max_size=n))
    if kind == "additive":
        return AdditiveFunction(weights)
    return BudgetAdditiveFunction(weights, draw(nonnegative))


seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=150, deadline=None)
@given(exact_instances(), st.floats(0, 0.9), seeds)
def test_consistent_noise_stays_in_band(f, eps, seed):
    report = check_sandwich(ConsistentNoiseOracle(f, eps, seed), f, eps, f.n)
    assert report.passed, report


@settings(max_examples=100, deadline=None)
@given(exact_instances(), st.floats(0, 0.9), seeds)
def test_consistent_noise_is_reproducible(f, eps, seed):
    a, b = ConsistentNoiseOracle(f, eps, seed), ConsistentNoiseOracle(f, eps, seed)
    for mask in range(1 << f.n):
        s = Subset(f.n, mask)
        first = a.query(s)
        assert a.query(s) == first == b.query(s)
    assert a.query_count == 2 << f.n


@settings(max_examples=100, deadline=None)
@given(exact_instances(), st.floats(0.01, 0.9), seeds, seeds)
def test_consistent_noise_depends_on_seed(f, eps, seed, other):
    assume(seed != other)
    sets = [Subset(f.n, mask) for mask in range(1 << f.n)]
    assume(any(f.value(s) != 0 for s in sets))
    a, b = ConsistentNoiseOracle(f, eps, seed), ConsistentNoiseOracle(f, eps, other)
    assert any(a.value(s) != b.value(s) for s in sets)


def test_ratio_range_and_mean():
    f = AdditiveFunction([1] * 30)
    F = ConsistentNoiseOracle(f, 0.2, 42)
    total = 0.0
    count = 0
    for s in _random_subsets(30, 100_000, 3):
        if s.size == 0:
            continue
        ratio = F.value(s) / f.value(s)
        assert 0.8 <= ratio <= 1.2
        total += ratio
        count += 1
    assert abs(total / count - 1.0) < 0.01


def test_noise_preserves_normalization():
    F = ConsistentNoiseOracle(AdditiveFunction([4, 5]), 0.5, 0)
    assert F.value(Subset.empty(2)) == 0


def test_repeated_query_consistency_and_counting():
    F = ConsistentNoiseOracle(AdditiveFunction([1, 2, 3]), 0.25, 5)
    s = Subset.from_elements([0, 2], 3)
    v1 = F.query(s)
    v2 = F.query(s)
    assert v1 == v2
    assert F.query_count == 2


def test_epsilon_validation():
    with pytest.raises(ValueError):
        ConsistentNoiseOracle(AdditiveFunction([1]), 1.0, 0)


def test_required_samples_plugin():
    assert required_samples(1, 1, math.e, 0.1, 3) == 300


def test_required_samples_quadruples_when_epsilon_halves():
    m1 = required_samples(1, 1, math.e, 0.1, 3)
    m2 = required_samples(1, 1, math.e, 0.05, 3)
    assert m2 == 4 * m1


def test_required_samples_degenerate_log_guard():
    assert required_samples(1, 1, 1, 0.1, 3) == 1


def test_required_samples_rejects_zero_floor():
    with pytest.raises(ValueError, match="additive"):
        required_samples(1, 0, 10, 0.1)


def test_estimator_zero_variance_recovers_exactly():
    f = AdditiveFunction([2, 3, 4])
    src = InconsistentNoiseOracle(f, "uniform-relative", 0.0, 7)
    est = SamplingEstimator(src, 5)
    s = Subset.from_elements([1, 2], 3)
    assert est.value(s) == 7.0


def test_estimator_caches_and_counts():
    f = AdditiveFunction([2, 3, 4])
    src = InconsistentNoiseOracle(f, "uniform-relative", 0.5, 7)
    est = SamplingEstimator(src, 10)
    s = Subset.from_elements([0], 3)
    v1 = est.value(s)
    assert src.query_count == 10
    v2 = est.value(s)
    assert v2 == v1
    assert src.query_count == 10  # cache hit costs no source queries
    est.value(Subset.from_elements([1], 3))
    assert src.query_count == 20
    est.value(Subset.empty(3))
    est.value(s)
    assert est.cached_sets() == [0b001, 0b010, 0b000]  # masks, in first-query order


def test_estimators_with_different_seeds_differ():
    f = AdditiveFunction([2, 3, 4])
    s = Subset.from_elements([0, 1], 3)
    e1 = SamplingEstimator(InconsistentNoiseOracle(f, "uniform-relative", 0.5, 1), 4)
    e2 = SamplingEstimator(InconsistentNoiseOracle(f, "uniform-relative", 0.5, 2), 4)
    assert e1.value(s) != e2.value(s)


def test_additive_bounded_family_mean():
    f = AdditiveFunction([10])
    src = InconsistentNoiseOracle(f, "additive-bounded", 2.0, 11)
    s = Subset.from_elements([0], 1)
    draws = src.sample_batch(s, 20_000)
    assert draws.min() >= 8.0 and draws.max() <= 12.0
    assert abs(draws.mean() - 10.0) < 0.05


def test_estimator_concentration_under_chernoff_budget():
    # Constant-valued base: the value range over nonempty sets is one point.
    n = 16
    f = CoverageFunction(5, [list(range(5))] * n)
    m = required_samples(5, 5, n, 0.05, 3)
    src = InconsistentNoiseOracle(f, "uniform-relative", 0.5, 21)
    est = SamplingEstimator(src, m)
    failures = 0
    for s in _random_subsets(n, 1000, 13):
        if s.size == 0:
            continue
        ratio = est.value(s) / 5.0
        if not 0.95 <= ratio <= 1.05:
            failures += 1
    # Exponential tail at this m makes any failure astronomically unlikely.
    assert failures == 0


def test_noise_from_dict_consistent():
    f = AdditiveFunction([1, 2])
    F = noise_from_dict(f, {"kind": "consistent", "epsilon": 0.1, "seed": 3})
    assert isinstance(F, ConsistentNoiseOracle)
    assert F.epsilon == 0.1


def test_noise_from_dict_estimator_with_range():
    f = AdditiveFunction([1, 2])
    est = noise_from_dict(f, {
        "kind": "inconsistent", "family": "uniform-relative", "width": 0.5,
        "seed": 3, "B": 3, "b": 1, "epsilon": 0.2, "confidence_constant": 3,
    })
    assert isinstance(est, SamplingEstimator)
    assert est.m == required_samples(3, 1, 2, 0.2, 3)


def test_noise_from_dict_needs_a_sampled_estimator():
    """A bare inconsistent source is no consistent oracle: the block is
    rejected once the source is built, so a bad width keeps its own error."""
    block = {"kind": "inconsistent", "width": 0.5, "epsilon": 0.3, "seed": 1}
    with pytest.raises(ValueError, match="needs 'm' or 'B'"):
        noise_from_dict(AdditiveFunction([1, 2]), block)
    with pytest.raises(ValueError, match="width must be"):
        noise_from_dict(AdditiveFunction([1, 2]), {**block, "width": -1})


def test_noise_from_dict_unknown_kind():
    with pytest.raises(ValueError):
        noise_from_dict(AdditiveFunction([1]), {"kind": "laplace"})
