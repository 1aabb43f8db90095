import math
import random
import warnings
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
from approxsub.experiments import instance_corpus
from approxsub.noise import (
    ConsistentNoiseOracle,
    SamplingEstimator,
    noise_from_dict,
    required_samples,
    subset_unit,
)
from approxsub.sets import Subset
from approxsub.verify import check_sandwich
from conftest import (
    InconsistentNoiseOracle,
    ParentConsistentNoiseOracle,
    ReferenceSamplingEstimator,
    mix64,
    parent_subset_unit,
    subset_key,
)


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


@pytest.mark.parametrize("b, epsilon", [(1, 1e-320), (1e-300, 1e-20)])
def test_required_samples_rejects_underflowing_denominator(b, epsilon):
    """b * eps^2 rounds to 0 and once raised ZeroDivisionError."""
    with pytest.raises(ValueError, match="underflows"):
        required_samples(1, b, 10, epsilon)


def test_estimator_zero_variance_recovers_exactly():
    f = AdditiveFunction([2, 3, 4])
    est = SamplingEstimator(f, "uniform-relative", 0.0, 7, 5)
    s = Subset.from_elements([1, 2], 3)
    assert est.value(s) == 7.0


def test_estimator_caches_and_counts():
    f = AdditiveFunction([2, 3, 4])
    est = SamplingEstimator(f, "uniform-relative", 0.5, 7, 10)
    s = Subset.from_elements([0], 3)
    v1 = est.value(s)
    assert est.samples == 10
    v2 = est.value(s)
    assert v2 == v1
    assert est.samples == 10  # a cache hit draws no samples
    est.value(Subset.from_elements([1], 3))
    assert est.samples == 20
    est.value(Subset.empty(3))
    est.value(s)
    assert est.cached_sets() == [0b001, 0b010, 0b000]  # masks, in first-query order


def test_estimators_with_different_seeds_differ():
    f = AdditiveFunction([2, 3, 4])
    s = Subset.from_elements([0, 1], 3)
    e1 = SamplingEstimator(f, "uniform-relative", 0.5, 1, 4)
    e2 = SamplingEstimator(f, "uniform-relative", 0.5, 2, 4)
    assert e1.value(s) != e2.value(s)


def test_additive_bounded_family_mean():
    # Every nonempty set is worth 10, and one draw per set is its estimate.
    n = 15
    est = SamplingEstimator(CoverageFunction(10, [list(range(10))] * n),
                            "additive-bounded", 2.0, 11, 1)
    draws = [est.value(Subset._raw(n, m, m.bit_count())) for m in range(1, 1 << n)]
    assert min(draws) >= 8.0 and max(draws) <= 12.0
    assert abs(sum(draws) / len(draws) - 10.0) < 0.05
    one_set = SamplingEstimator(AdditiveFunction([10]), "additive-bounded", 2.0, 11, 20_000)
    assert abs(one_set.value(Subset.full(1)) - 10.0) < 0.05


def test_estimator_concentration_under_chernoff_budget():
    # Constant-valued base: the value range over nonempty sets is one point.
    n = 16
    f = CoverageFunction(5, [list(range(5))] * n)
    m = required_samples(5, 5, n, 0.05, 3)
    est = SamplingEstimator(f, "uniform-relative", 0.5, 21, m)
    failures = 0
    for s in _random_subsets(n, 1000, 13):
        if s.size == 0:
            continue
        ratio = est.value(s) / 5.0
        if not 0.95 <= ratio <= 1.05:
            failures += 1
    # Exponential tail at this m makes any failure astronomically unlikely.
    assert failures == 0


def _reference_estimator(f, family, width, seed, m):
    return ReferenceSamplingEstimator(InconsistentNoiseOracle(f, family, width, seed), m)


@pytest.mark.parametrize("family, width", [("uniform-relative", 0.5), ("uniform-relative", 0.0),
                                           ("additive-bounded", 1.0), ("additive-bounded", 3.0)])
@pytest.mark.parametrize("m", [1, 7, 300])
def test_estimator_equals_source_and_estimator_pair(family, width, m):
    """The estimator that draws its own samples against the source and
    estimator pair it replaced (verbatim in conftest): equal values, the
    same sets cached in the same order, and ``samples`` equal to the
    source's query count after every query."""
    rng = random.Random(m)
    for seed, f in enumerate(instance_corpus(0, sizes=(6,))):
        new = SamplingEstimator(f, family, width, seed, m)
        old = _reference_estimator(f, family, width, seed, m)
        for _ in range(40):  # repeats included: the cache must answer them
            s = Subset(6, rng.getrandbits(6))
            got, want = new.query(s), old.query(s)
            assert got == want and type(got) is type(want) is float
            assert new.samples == old.source.query_count
        assert new.cached_sets() == old.cached_sets()
        assert new.query_count == old.query_count == 40


@pytest.mark.parametrize("family", ["uniform-relative", "additive-bounded"])
def test_estimator_rejects_non_finite_estimates(family):
    """Draws that overflow a float once gave nan estimates and numpy
    warnings; now they raise before anything is cached."""
    est = SamplingEstimator(AdditiveFunction([1e308]), family, 1e308, 0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            est.value(Subset.full(1))
    assert est.cached_sets() == []


def test_estimator_value_checks_the_ground_set_before_its_cache():
    """The cache is keyed by mask alone, so a cached mask over another ground
    set was once answered with the cached estimate."""
    est = SamplingEstimator(AdditiveFunction([1, 2, 3, 4]), "uniform-relative", 0.5, 0, 5)
    cached = est.query(Subset(4, 3))
    for n in (9, 3, 2):
        with pytest.raises(ValueError, match="ground set mismatch"):
            est.value(Subset(n, 3))
        with pytest.raises(ValueError, match="ground set mismatch"):
            est.query(Subset(n, 3))
    assert est.value(Subset(4, 3)) == cached
    assert est.cached_sets() == [3] and est.samples == 5 and est.query_count == 1


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


@pytest.mark.parametrize("block, message", [
    ({"kind": "consistent", "seed": 3}, "a consistent noise block needs the key 'epsilon'"),
    ({"kind": "inconsistent", "width": 0.5, "B": 3, "b": 1},
     "an inconsistent noise block with 'B' needs the key 'epsilon'"),
], ids=["consistent", "inconsistent-B"])
def test_noise_from_dict_missing_epsilon_names_kind_and_key(block, message):
    """Each block once raised a bare KeyError('epsilon')."""
    with pytest.raises(ValueError) as info:
        noise_from_dict(AdditiveFunction([1, 2]), block)
    assert str(info.value) == message


def test_noise_from_dict_unknown_kind():
    with pytest.raises(ValueError):
        noise_from_dict(AdditiveFunction([1]), {"kind": "laplace"})


# ---------------------------------------------------------------------------
# The hash folds the mask's 64-bit words into the oracle's mixed seed: the
# same noise, bit for bit, as the parent's fold over ``Subset.key()`` blocks
# from a seed mixed on every query (verbatim in conftest).
# ---------------------------------------------------------------------------

HASH_WIDTHS = (1, 14, 63, 64, 65, 128, 200, 1 << 14)
HASH_SEEDS = (0, -1, 2**64 + 5, 2**70)
HASH_EPSILONS = (0.0, 1e-9, 0.5, 1 - 1e-9)
_M64_WORD = (1 << 64) - 1


def _fold(state: int, words) -> float:
    for word in words:
        state = mix64(state ^ word)
    return (state >> 11) * 2.0 ** -53


def _hash_masks(n: int) -> list[int]:
    """The empty and full masks, the lowest and highest element alone and
    together, every other word set, and random masks with word 1 cleared:
    past 128 bits every kind but empty, full and lone-low has interior zero
    words."""
    full = (1 << n) - 1
    rng = random.Random(n)
    every_other = sum(_M64_WORD << (64 * w) for w in range(0, (n + 63) // 64, 2)) & full
    masks = [0, full, 1, 1 << (n - 1), 1 | 1 << (n - 1), every_other]
    masks += [rng.getrandbits(n) & ~(_M64_WORD << 64) for _ in range(3)]
    return masks


def _bases(n: int):
    """One int, one Fraction and one float base on n elements."""
    return (AdditiveFunction([i % 7 + 1 for i in range(n)]),
            AdditiveFunction([Fraction(i % 5 + 1, 3) for i in range(n)]),
            AdditiveFunction([(i % 3 + 1) * 0.1 for i in range(n)]))


def _assert_same_noise(bases, epsilon, seed, mask):
    n = bases[0].n
    s = Subset(n, mask)
    state = ConsistentNoiseOracle(bases[0], epsilon, seed)._state
    got, want = subset_unit(state, mask), parent_subset_unit(seed, s)
    assert got == want and type(got) is float, (n, seed, mask)
    for base in bases:
        got = ConsistentNoiseOracle(base, epsilon, seed).value(s)
        want = ParentConsistentNoiseOracle(base, epsilon, seed).value(s)
        assert got == want and type(got) is type(want), (n, epsilon, seed, mask)


@pytest.mark.parametrize("n", HASH_WIDTHS)
def test_hash_and_value_equal_the_parent_bit_for_bit(n):
    bases = _bases(n)
    for mask in _hash_masks(n):
        for seed in HASH_SEEDS:
            for epsilon in HASH_EPSILONS:
                _assert_same_noise(bases, epsilon, seed, mask)


@st.composite
def wide_masks(draw):
    """A width from the list above or any up to 2^14, and a mask built word by
    word with zero words likely, so interior and trailing zeros both occur."""
    n = draw(st.one_of(st.sampled_from(HASH_WIDTHS), st.integers(1, 1 << 14)))
    words = draw(st.lists(st.one_of(st.just(0), st.just(_M64_WORD), st.integers(0, _M64_WORD)),
                          max_size=(n + 63) // 64))
    return n, sum(w << (64 * i) for i, w in enumerate(words)) & ((1 << n) - 1)


@settings(max_examples=200, deadline=None)
@given(wide_masks(),
       st.one_of(st.sampled_from(HASH_SEEDS), st.integers(-2**80, 2**80)),
       st.one_of(st.sampled_from(HASH_EPSILONS), st.floats(0, 1, exclude_max=True)))
def test_hash_and_value_equal_the_parent_fuzzed(n_mask, seed, epsilon):
    n, mask = n_mask
    _assert_same_noise(_bases(n), epsilon, seed, mask)


def test_hash_folds_trimmed_words_low_first():
    """The words folded are the parent's key blocks: least significant first,
    trailing zero words never folded, and an element only in the low word
    folds one word."""
    state = mix64(7)
    assert subset_unit(state, 0) == _fold(state, ()) == _fold(state, subset_key(Subset(200, 0)))
    assert subset_unit(state, 8) == _fold(state, (8,))
    wide = Subset.from_elements([0, 70, 130], 200)
    assert subset_key(wide) == (1, 1 << 6, 1 << 2)
    assert subset_unit(state, wide.mask) == _fold(state, (1, 1 << 6, 1 << 2))
    assert subset_unit(state, wide.mask) != _fold(state, (1, 1 << 6, 1 << 2, 0))
    assert subset_unit(state, wide.mask) != _fold(state, (1 << 2, 1 << 6, 1))
    assert subset_unit(state, 1 << 63) == _fold(state, (1 << 63,))
    assert subset_unit(state, 1 << 64) == _fold(state, (0, 1))


def test_hash_folds_every_word_of_a_wide_mask():
    n = 1 << 16
    s = Subset.from_elements([0, 1000, n - 1], n)
    words = [(s.mask >> (64 * i)) & _M64_WORD for i in range(n // 64)]
    assert words == list(subset_key(s)) and sum(map(bool, words)) == 3
    assert subset_unit(mix64(3), s.mask) == _fold(mix64(3), words) == parent_subset_unit(3, s)


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
@pytest.mark.parametrize("seed", [1.5, None, "1"])
def test_non_integer_seed_fails_when_the_oracle_is_built(seed, epsilon):
    """The seed is mixed once, when the oracle is built, so a seed that is not
    an integer fails there.  The parent mixed it on each noisy query: at
    eps = 0 it never hashed and answered f, and at eps > 0 it failed at the
    first query."""
    f = AdditiveFunction([1, 2])
    with pytest.raises(TypeError):
        ConsistentNoiseOracle(f, epsilon, seed)
    parent = ParentConsistentNoiseOracle(f, epsilon, seed)
    if epsilon == 0.0:
        assert parent.value(Subset.full(2)) == 3
    else:
        with pytest.raises(TypeError):
            parent.value(Subset.full(2))
