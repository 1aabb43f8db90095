import math
from fractions import Fraction

import pytest

from approxsub.adversarial import build_greedy_trap
from approxsub.functions import AdditiveFunction, CoverageFunction, curvature
from approxsub.matroids import PartitionMatroid
from approxsub.noise import ConsistentNoiseOracle
from approxsub.sets import Subset, ValueOracle
from approxsub.solvers import (
    brute_force,
    curvature_bound,
    curvature_topk,
    expected_greedy_queries,
    greedy_bound,
    greedy_cardinality,
    greedy_matroid,
    matroid_bound,
)
from approxsub.experiments import instance_corpus


def test_greedy_additive_topk():
    F = AdditiveFunction([5, 4, 3, 2, 1])
    res = greedy_cardinality(F, 2)
    assert res.chosen == Subset.from_elements([0, 1], 5)
    assert res.value == 9
    assert res.queries_used == 5 + 4 == expected_greedy_queries(5, 2)
    assert [e for e, _ in res.trace] == [0, 1]


def test_greedy_rejects_oversized_budget():
    with pytest.raises(ValueError):
        greedy_cardinality(AdditiveFunction([1, 2]), 3)


def test_greedy_fills_budget_on_zero_marginals():
    F = AdditiveFunction([0, 0, 0, 0])
    res = greedy_cardinality(F, 3)
    assert res.chosen.size == 3
    assert res.chosen == Subset.from_elements([0, 1, 2], 4)  # ties toward small ids


def test_greedy_determinism():
    f = instance_corpus(3)[5]
    F1 = ConsistentNoiseOracle(f, 0.2, 7)
    F2 = ConsistentNoiseOracle(f, 0.2, 7)
    r1 = greedy_cardinality(F1, 4)
    r2 = greedy_cardinality(F2, 4)
    assert r1.chosen == r2.chosen and r1.trace == r2.trace and r1.value == r2.value


def test_greedy_classical_ratio_exact_oracle():
    # Exact submodular input: value >= (1 - (1 - 1/k)^k) * optimum.
    for f in instance_corpus(11)[:6]:
        k = 3
        res = greedy_cardinality(f, k)
        opt = brute_force(f, k)
        floor = (1 - (1 - 1 / k) ** k) * float(opt.value)
        assert float(res.value) >= floor - 1e-12


def test_greedy_trap_measured_value():
    trap = build_greedy_trap(16, 0.5, 64)
    res = greedy_cardinality(trap, 16)
    # After both A elements, one filler pick reveals C, and greedy escapes:
    # value = 4 + 1/64 + 13 (13 more elements of C).
    assert res.value == Fraction(4) + Fraction(1, 64) + 13
    assert res.value != trap.claimed_greedy_value()
    first_three = [e for e, _ in res.trace[:3]]
    assert first_three[:2] == trap.a_elements
    assert first_three[2] == trap.b_elements[0]


def test_matroid_greedy_uniform_matches_cardinality():
    f = instance_corpus(13)[2]
    res_m = greedy_matroid(f, PartitionMatroid([0] * f.n, [3]))
    res_c = greedy_cardinality(f, 3)
    assert res_m.chosen == res_c.chosen
    assert res_m.value == res_c.value


def test_matroid_greedy_hand_trace():
    m = PartitionMatroid([0, 0, 1, 1], [1, 1])
    F = AdditiveFunction([5, 4, 3, 2])
    res = greedy_matroid(F, m)
    assert res.chosen == Subset.from_elements([0, 2], 4)
    assert res.value == 8
    # Pool shrinks by one per round: n + (n-1) + ... + 1 queries.
    assert res.queries_used == 4 + 3 + 2 + 1


def test_matroid_greedy_half_ratio_exact_oracle():
    m = PartitionMatroid([0, 0, 0, 1, 1, 2, 2, 2], [1, 2, 1])
    for f in instance_corpus(17)[:4]:
        if f.n != 8:
            continue
        res = greedy_matroid(f, m)
        opt = brute_force(f, m)
        assert float(res.value) >= 0.5 * float(opt.value) - 1e-12


def test_curvature_topk_additive_matches_greedy():
    f = AdditiveFunction([3, 9, 1, 7, 5])
    a = curvature_topk(f, 2)
    b = greedy_cardinality(f, 2)
    assert a.chosen == b.chosen
    assert a.queries_used == 5 + 1


def test_curvature_topk_coverage_example():
    # covers {1,2}, {2,3}, {5} over a 4-point universe (relabeled)
    f = CoverageFunction(4, [[0, 1], [1, 2], [3]])
    res = curvature_topk(f, 2)
    assert res.chosen == Subset.from_elements([0, 1], 3)
    assert res.value == 3
    assert res.queries_used == 3 + 1


def test_curvature_topk_ties_go_to_smaller_ids():
    # Equal singleton values of different types (3, Fraction(3), 3.0) tie;
    # the sort keeps them in id order, so the budget cuts the larger id 6.
    f = AdditiveFunction([1, 3, Fraction(3), 3.0, 2, Fraction(5, 2), 3, 0.5])
    res = curvature_topk(f, 3)
    assert res.chosen == Subset.from_elements([1, 2, 3], 8)
    assert res.trace == [(1, 9), (2, 9), (3, 9)]
    assert res.value == 9.0 and type(res.value) is float
    assert res.queries_used == 9

    g = AdditiveFunction([Fraction(1, 2), 2, Fraction(4, 2), 1, 2, True])
    res = curvature_topk(g, 2)
    assert res.chosen == Subset.from_elements([1, 2], 6)
    assert res.trace == [(1, 7), (2, 7)]
    assert res.value == 4 and type(res.value) is Fraction

    # An all-tied ground set keeps the k smallest ids.
    h = AdditiveFunction([Fraction(1, 3)] * 5)
    res = curvature_topk(h, 2)
    assert res.chosen == Subset.from_elements([0, 1], 5)
    assert res.trace == [(0, 6), (1, 6)]


def test_brute_force_full_budget_additive():
    f = AdditiveFunction([1, 2, 3])
    res = brute_force(f, 3)
    assert res.chosen == Subset.full(3)
    assert res.value == 6


def test_brute_force_on_planted_pair():
    from approxsub.adversarial import HardPairParams, build_monotone_pair, draw_hidden_set

    params = HardPairParams(n=12, h=6, alpha=3, k=4, epsilon=0.25)
    hidden = draw_hidden_set(12, 6, 1)
    pair = build_monotone_pair(params, hidden)
    res = brute_force(pair.fh, 4)
    assert res.value == 4
    # Any budget-sized subset of the hidden set attains the maximum.
    assert pair.fh.value(Subset.from_elements(hidden.elements()[:4], 12)) == 4
    # Tie break: smallest mask among all maximizers.
    smallest = min(
        m for m in range(1 << 12)
        if bin(m).count("1") <= 4 and pair.fh.value(Subset(12, m)) == 4
    )
    assert res.chosen.mask == smallest


def test_brute_force_matroid_constraint():
    f = AdditiveFunction([5, 4, 3, 2])
    m = PartitionMatroid([0, 0, 1, 1], [1, 1])
    res = brute_force(f, m)
    assert res.chosen == Subset.from_elements([0, 2], 4)
    assert res.value == 8


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force(AdditiveFunction([1] * 25), 2)


class BandAdversary(ValueOracle):
    """Exact worst-case member of the band around f: deflate every set that
    meets f's optimum O by (1 - eps) and inflate every other set by (1 + eps),
    so greedy is steered away from O."""

    kind = "band_adversary"

    def __init__(self, f, epsilon: Fraction, optimum_mask: int):
        self.f = f
        self.n = f.n
        self.lo, self.hi = 1 - epsilon, 1 + epsilon
        self.optimum_mask = optimum_mask

    def value(self, s: Subset):
        return (self.lo if s.mask & self.optimum_mask else self.hi) * self.f.value(s)


def band_adversary_ratios(k):
    """(greedy / F's optimum, greedy_bound) for every corpus instance and
    eps in {0, 1/(2k), 1/k} against the band adversary."""
    out = []
    for f in instance_corpus(0, sizes=(8, 10)):
        optimum = brute_force(f, k).chosen.mask
        for eps in (Fraction(0), Fraction(1, 2 * k), Fraction(1, k)):
            F = BandAdversary(f, eps, optimum)
            res = greedy_cardinality(F, k)
            best = brute_force(F, k).value
            assert type(res.value) is type(best) is Fraction
            out.append((float(res.value) / float(best), greedy_bound(k, float(eps))))
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_greedy_guarantee_under_band_adversary(k):
    """Criterion 05's comparison, against an exact in-band adversary rather
    than random noise."""
    for ratio, bound in band_adversary_ratios(k):
        assert ratio >= bound - 1e-12, (ratio, bound)


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

def test_greedy_bound_exact_cases():
    assert greedy_bound(2, 0.0) == 0.75
    assert math.isclose(greedy_bound(10, 0.01), 0.5441837959729957, rel_tol=1e-15)


def test_greedy_bound_delta_grid_floor():
    for k in (2, 3, 4, 6, 10, 16, 64):
        for i in range(50):
            delta = i / 50
            ratio = greedy_bound(k, delta / k)
            assert ratio >= 1 - 1 / math.e - 16 * delta


def test_greedy_bound_nonincreasing_in_epsilon():
    for k in (1, 2, 5, 10):
        grid = [greedy_bound(k, e / 200) for e in range(0, 180)]
        assert all(a >= b - 1e-15 for a, b in zip(grid, grid[1:]))


def test_matroid_bound_exact_cases():
    assert matroid_bound(4, 0.0) == 0.5
    assert math.isclose(matroid_bound(8, 1 / 16), 0.2877237851662404, rel_tol=1e-15)


def test_matroid_bound_delta_grid_floor():
    for k in (2, 4, 8, 64):
        for i in range(50):
            delta = i / 50
            assert matroid_bound(k, delta / k) >= 0.5 - 2 * delta


def test_curvature_bound_cases():
    assert curvature_bound(0.0, 0.0) == 1.0
    assert curvature_bound(1.0, 0.3) == 0.0
    assert math.isclose(curvature_bound(0.2, 0.1), 0.8 * (0.9 / 1.1) ** 2,
                        rel_tol=1e-15)


def test_bound_validation():
    with pytest.raises(ValueError):
        greedy_bound(0, 0.1)
    with pytest.raises(ValueError):
        matroid_bound(2, 1.0)
    with pytest.raises(ValueError):
        curvature_bound(1.5, 0.1)


# ---------------------------------------------------------------------------
# Additive surrogate sandwich
# ---------------------------------------------------------------------------

def test_surrogate_sandwich_two_sided():
    n = 8
    f = CoverageFunction(2 * n, [[i, n + i, (i + 1) % n] for i in range(n)])
    c = float(curvature(f))
    assert c < 1
    eps = 0.25
    F = ConsistentNoiseOracle(f, eps, 3)
    singles = [F.value(Subset(n, 1 << e)) for e in range(n)]
    lo = (1 - eps) / (1 + eps)
    hi = (1 / (1 - c)) * (1 + eps) / (1 - eps)
    for mask in range(1, 1 << n):
        s = Subset(n, mask)
        Fv = F.value(s)
        Fa = sum(singles[e] for e in s.elements())
        assert lo * Fv <= Fa + 1e-12
        assert Fa <= hi * Fv + 1e-12
