import math
from fractions import Fraction

import numpy as np
import pytest

import approxsub.cli as cli
from approxsub.adversarial import (
    HardPairParams,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
    gap_bound,
    power_law_params,
)
from approxsub.functions import CoverageFunction
from approxsub.sets import Subset
from approxsub.verify import (
    check_monotone,
    check_sandwich,
    check_submodular,
    pair_band_probability,
    pair_band_reference,
)
from conftest import max_over_budget, override_sets


# ---------------------------------------------------------------------------
# Parameter scaling
# ---------------------------------------------------------------------------

def test_power_law_params_canonical_point():
    p = power_law_params(4096, 0.25)
    # ceil(4096^0.875) = ceil(1448.15...) = 1449; ceil(4096^0.75) = 512
    assert (p.h, p.k, p.alpha) == (1449, 1449, 512)
    assert p.epsilon == 0.125
    # alpha/k + h/n tracks 2 n^(-beta/2) up to rounding
    assert math.isclose(float(gap_bound(p)), 2 * 4096 ** -0.125, rel_tol=1e-3)


def test_power_law_params_rejects_beta_half():
    # beta = 1/2 would give epsilon = 1
    with pytest.raises(ValueError):
        power_law_params(256, 0.5)


def test_power_law_params_rejects_small_n():
    # n below ~2^(2/beta) leaves h > n/2 after rounding
    with pytest.raises(ValueError, match="n/2"):
        power_law_params(100, 0.25)


@pytest.mark.parametrize("n, beta, exponent", [(100, 0.25, "8"), (100, 0.3, "6.667"),
                                                (4096, 0.001, "2000"), (4096, 1e-300, "2e+300")])
def test_power_law_params_small_n_hint_prints_the_exponent(n, beta, exponent):
    """The hint once computed 2 ** (2 / beta) as a float, which overflows for
    any beta < 2/1024 and replaced the message with "Numerical result out of
    range"."""
    with pytest.raises(ValueError, match="^rounded parameters violate h <= n/2") as err:
        power_law_params(n, beta)
    assert str(err.value).endswith(f", n={n} (need roughly n >= 2^(2/beta) = 2^{exponent})")


def test_power_law_params_alpha_never_exceeds_k():
    """alpha = ceil(n^(1 - beta)) <= ceil(n^(1 - beta/2)) = k, since ceil is
    monotone, n^(1 - beta) <= n^(1 - beta/2) for n >= 1, and the snap to an
    int keeps that order; so no guard of ``power_law_params`` tests it."""
    accepted = 0
    for n in sorted({*range(2, 16385, 7), *(1 << e for e in range(1, 15))}):
        for beta in (i / 64 for i in range(1, 32)):
            try:
                p = power_law_params(n, beta)
            except ValueError as exc:
                assert "alpha" not in str(exc), (n, beta)
                continue
            accepted += 1
            assert p.alpha <= p.k, (n, beta)
    assert accepted > 40_000


def test_cli_distinguish_tiny_beta_names_the_bound(capsys):
    assert cli.main(["distinguish", "--n", "4096", "--beta", "0.001", "--trials", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: rounded parameters violate h <= n/2: h=4080, n=4096 "
        "(need roughly n >= 2^(2/beta) = 2^2000)\n")


def test_float_dust_snaps_to_the_exact_power(capsys):
    """1024^0.9 evaluates to 512.0000000000001 and 27^(2/3) to
    8.999999999999998.  Unsnapped, h = 513 breaks h <= n/2, so ``distinguish``
    exits 2, and the trap's eps misses 1/9."""
    assert power_law_params(1024, 0.2).h == 512
    assert cli.main(["distinguish", "--n", "1024", "--beta", "0.2", "--trials", "1"]) == 0
    assert '"h": 512' in capsys.readouterr().out
    assert build_greedy_trap(27, 1 / 3, 64).epsilon == Fraction(1, 9)


def test_params_invariants():
    with pytest.raises(ValueError):
        HardPairParams(n=20, h=10, alpha=5, k=4, epsilon=0.2)  # alpha > k
    with pytest.raises(ValueError):
        HardPairParams(n=20, h=4, alpha=2, k=5, epsilon=0.2)  # k > h
    with pytest.raises(ValueError):
        HardPairParams(n=20, h=11, alpha=2, k=5, epsilon=0.2)  # h > n/2
    with pytest.raises(ValueError):
        HardPairParams(n=20, h=10, alpha=2, k=5, epsilon=1.0)  # eps out of range


# ---------------------------------------------------------------------------
# Hidden-set sampling
# ---------------------------------------------------------------------------

def test_hidden_set_full_and_deterministic():
    assert draw_hidden_set(7, 7, 123) == Subset.full(7)
    a = draw_hidden_set(40, 11, 5)
    b = draw_hidden_set(40, 11, 5)
    assert a == b
    assert a.size == 11


def test_hidden_set_uniform_inclusion_frequency():
    n, h, trials = 20, 5, 100_000
    counts = np.zeros(n)
    for seed in range(trials):
        mask = draw_hidden_set(n, h, seed).mask
        for e in range(n):
            if mask >> e & 1:
                counts[e] += 1
    p = h / n
    sigma = math.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(counts / trials - p) < 3 * sigma)


def test_hidden_set_validation():
    with pytest.raises(ValueError):
        draw_hidden_set(5, 0, 1)
    with pytest.raises(ValueError):
        draw_hidden_set(5, 6, 1)


# ---------------------------------------------------------------------------
# Monotone hard pair
# ---------------------------------------------------------------------------

def _pair100():
    params = HardPairParams(n=100, h=25, alpha=5, k=25, epsilon=0.25)
    hidden = draw_hidden_set(100, 25, 0)
    return params, hidden, build_monotone_pair(params, hidden)


def test_monotone_pair_small_set_regime():
    params, hidden, pair = _pair100()
    inside = hidden.elements()[:5]
    s = Subset.from_elements(inside, 100)
    assert pair.fh.value(s) == 5
    assert pair.g.value(s) == 5


def test_monotone_pair_mixed_set():
    params, hidden, pair = _pair100()
    inside = hidden.elements()[:2]
    outside = hidden.complement().elements()[:10]
    s = Subset.from_elements(inside + outside, 100)
    assert pair.fh.value(s) == 2 + Fraction(15, 4)  # 2 + min(10, 3.75)
    assert pair.g.value(s) == Fraction(27, 4)  # min(12, 6.75)


def test_monotone_pair_normalized():
    _, _, pair = _pair100()
    empty = Subset.empty(100)
    assert pair.fh.value(empty) == 0
    assert pair.g.value(empty) == 0


def test_pair_size_mismatch_rejected():
    params = HardPairParams(n=12, h=5, alpha=2, k=4, epsilon=0.25)
    with pytest.raises(ValueError):
        build_monotone_pair(params, draw_hidden_set(12, 4, 0))


@pytest.mark.parametrize("n,h,alpha,k", [(10, 5, 3, 4), (12, 6, 2, 5), (12, 5, 3, 3)])
def test_pair_functions_are_monotone_submodular(n, h, alpha, k):
    params = HardPairParams(n=n, h=h, alpha=alpha, k=k, epsilon=0.3)
    pair = build_monotone_pair(params, draw_hidden_set(n, h, 1))
    for fn in (pair.fh, pair.g):
        assert check_submodular(fn, n).passed
        assert check_monotone(fn, n).passed


# ---------------------------------------------------------------------------
# Gap bound
# ---------------------------------------------------------------------------

def test_gap_bound_value():
    params = HardPairParams(n=100, h=25, alpha=5, k=25, epsilon=0.25)
    assert gap_bound(params) == Fraction(9, 20)  # 5/25 + 25/100
    # Closed-form maxima at these parameters: max g = 10, max fh = k = 25.
    g_max = min(25, Fraction(25 * 25, 100) + params.cap)
    assert g_max == 10
    assert g_max <= gap_bound(params) * 25


def test_gap_bound_can_exceed_one():
    params = HardPairParams(n=20, h=10, alpha=5, k=5, epsilon=0.25)
    assert gap_bound(params) == Fraction(3, 2)


def test_gap_bound_brute_force_small():
    params = HardPairParams(n=12, h=6, alpha=3, k=4, epsilon=0.25)
    pair = build_monotone_pair(params, draw_hidden_set(12, 6, 3))
    max_g = max_over_budget(pair.g, 12, 4)
    max_fh = max_over_budget(pair.fh, 12, 4)
    assert max_fh == 4
    assert max_g <= gap_bound(params) * max_fh


# ---------------------------------------------------------------------------
# Coverage pair
# ---------------------------------------------------------------------------

def test_coverage_pair_closed_forms():
    params = HardPairParams(n=100, h=25, alpha=5, k=25, epsilon=0.25)
    hidden = draw_hidden_set(100, 25, 0)
    pair = build_coverage_pair(params, hidden)
    inside = hidden.elements()[:3]
    outside = hidden.complement().elements()[:7]
    assert pair.fh.value(Subset.from_elements(inside, 100)) == 8
    s10 = Subset.from_elements(inside + outside, 100)
    assert pair.g.value(s10) == Fraction(15, 2)  # 10 * 25/100 + 5
    empty = Subset.empty(100)
    assert pair.fh.value(empty) == 0
    assert pair.g.value(empty) == 0


def realize_coverage_pair(pair):
    """The coverage pair as two coverage functions scaled by n, so every
    universe cardinality is an integer (n <= 20): every ground element covers
    one shared block of n alpha universe elements (the +alpha step), members
    of H add n private elements each to fh, and every element adds h private
    elements to g.  Returns (fh_cov, g_cov)."""
    n, h, alpha = pair.params.n, pair.params.h, pair.params.alpha
    if n > 20:
        raise ValueError(f"explicit realization supported only for n <= 20, got {n}")
    shared = (1 << (n * alpha)) - 1
    covers_fh, covers_g = [], []
    offset_fh = offset_g = n * alpha
    for e in range(n):
        mask = shared
        if e in pair.hidden:
            mask |= ((1 << n) - 1) << offset_fh
            offset_fh += n
        covers_fh.append(mask)
        covers_g.append(shared | (((1 << h) - 1) << offset_g))
        offset_g += h
    universe = n * alpha + n * h
    return CoverageFunction(universe, covers_fh), CoverageFunction(universe, covers_g)


def test_coverage_pair_explicit_realization_matches_scaled():
    params = HardPairParams(n=12, h=4, alpha=3, k=4, epsilon=0.25)
    hidden = draw_hidden_set(12, 4, 9)
    pair = build_coverage_pair(params, hidden)
    fh_cov, g_cov = realize_coverage_pair(pair)
    for mask in range(1 << 12):
        s = Subset(12, mask)
        assert fh_cov.value(s) == 12 * pair.fh.value(s)
        assert g_cov.value(s) == 12 * pair.g.value(s)


def test_coverage_pair_unscaled_equality_at_divisible_sizes():
    # With n=12, h=4, the decoy is integral exactly when 3 divides |S|.
    params = HardPairParams(n=12, h=4, alpha=3, k=4, epsilon=0.25)
    hidden = draw_hidden_set(12, 4, 9)
    pair = build_coverage_pair(params, hidden)
    _, g_cov = realize_coverage_pair(pair)
    s = Subset.from_elements([0, 1, 2], 12)
    assert pair.g.value(s) == 4
    assert g_cov.value(s) == 12 * 4


def test_coverage_pair_realization_guard():
    params = HardPairParams(n=50, h=20, alpha=4, k=10, epsilon=0.25)
    with pytest.raises(ValueError):
        realize_coverage_pair(build_coverage_pair(params, draw_hidden_set(50, 20, 0)))


def test_coverage_pair_gap_brute_force():
    params = HardPairParams(n=12, h=5, alpha=2, k=4, epsilon=0.25)
    pair = build_coverage_pair(params, draw_hidden_set(12, 5, 2))
    max_g = max_over_budget(pair.g, 12, 4)
    max_fh = max_over_budget(pair.fh, 12, 4)
    assert max_g <= gap_bound(params) * max_fh


def test_coverage_pair_functions_are_monotone_submodular():
    params = HardPairParams(n=10, h=4, alpha=2, k=3, epsilon=0.3)
    pair = build_coverage_pair(params, draw_hidden_set(10, 4, 4))
    for fn in (pair.fh, pair.g):
        assert check_submodular(fn, 10).passed
        assert check_monotone(fn, 10).passed


# ---------------------------------------------------------------------------
# Sandwich oracle
# ---------------------------------------------------------------------------

def test_sandwich_returns_decoy_when_equal():
    params, hidden, pair = _pair100()
    sw = build_sandwich(pair)
    inside = hidden.elements()[:4]
    s = Subset.from_elements(inside, 100)
    assert pair.fh.value(s) == pair.g.value(s)
    assert sw.value(s) == pair.g.value(s)
    assert sw.value(Subset.empty(100)) == 0


def test_sandwich_reveals_planted_outside_band():
    params = HardPairParams(n=64, h=16, alpha=2, k=16, epsilon=0.3)
    hidden = draw_hidden_set(64, 16, 6)
    pair = build_monotone_pair(params, hidden)
    sw = build_sandwich(pair)
    planted = Subset.from_elements(hidden.elements()[:16], 64)
    # decoy value 5.5 sits below (1 - eps) * 16, so the oracle reveals 16
    assert pair.g.value(planted) == Fraction(11, 2)
    assert sw.value(planted) == 16


def test_sandwich_is_always_in_band_of_planted():
    params = HardPairParams(n=12, h=5, alpha=2, k=5, epsilon=0.3)
    pair = build_monotone_pair(params, draw_hidden_set(12, 5, 8))
    sw = build_sandwich(pair)
    assert check_sandwich(sw, pair.fh, 0.3, 12).passed


def test_sandwich_generally_violates_band_of_decoy():
    params = HardPairParams(n=12, h=5, alpha=2, k=5, epsilon=0.3)
    pair = build_monotone_pair(params, draw_hidden_set(12, 5, 8))
    sw = build_sandwich(pair)
    report = check_sandwich(sw, pair.g, 0.3, 12)
    assert not report.passed


def test_band_probability_exact_beats_reference_and_mc():
    params = HardPairParams(n=100, h=50, alpha=4, k=30, epsilon=0.5)
    for set_size in (40, 60, 80):
        exact = pair_band_probability(params, set_size)
        ref = pair_band_reference(params, set_size)
        assert ref > 0, "fixture should be in the informative regime"
        assert exact >= ref
        # Monte Carlo over planted draws agrees within 3 standard errors.
        trials = 100_000
        rng = np.random.default_rng(18)
        overlaps = rng.hypergeometric(params.h, params.n - params.h, set_size, trials)
        lo = 1 - Fraction(params.epsilon)
        hi = 1 + Fraction(params.epsilon)
        cap = params.cap
        g_val = min(set_size, Fraction(set_size * params.h, params.n) + cap)
        hits = 0
        for j in np.unique(overlaps):
            fh_val = int(j) + min(set_size - int(j), cap)
            if lo * fh_val <= g_val <= hi * fh_val:
                hits += int((overlaps == j).sum())
        mc = hits / trials
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(mc - exact) <= 3 * se + 1e-9


# ---------------------------------------------------------------------------
# Greedy trap
# ---------------------------------------------------------------------------

def test_trap_canonical_blocks():
    trap = build_greedy_trap(16, 0.5, 64)
    assert trap.epsilon == Fraction(1, 4)
    assert len(trap.a_elements) == 2
    assert len(trap.b_elements) == len(trap.c_elements) == 31
    a = Subset.from_elements(trap.a_elements, 64)
    assert trap.f.value(a) == 4  # == 1/eps
    assert trap.claimed_greedy_value() == Fraction(135, 32)  # 4 + 14/64


def test_trap_override_band_exact():
    trap = build_greedy_trap(16, 0.5, 64)
    count = 0
    for s in override_sets(trap):
        count += 1
        Fv = trap.value(s)
        fv = trap.f.value(s)
        assert Fv == 4 and fv == 5
        assert Fv <= fv
        assert Fv >= (1 - trap.epsilon) * fv  # 4 >= 3.75, exact rationals
    assert count == len(trap.c_elements)


def test_trap_differs_only_on_override_family():
    trap = build_greedy_trap(16, 0.5, 64)
    a = Subset.from_elements(trap.a_elements, 64)
    b0, c0, c1 = trap.b_elements[0], trap.c_elements[0], trap.c_elements[1]
    assert trap.value(a) == trap.f.value(a)
    assert trap.value(a.add(b0)) == trap.f.value(a.add(b0))
    assert trap.value(a.add(c0)) == 4 != trap.f.value(a.add(c0))
    assert trap.value(a.add(c0).add(c1)) == trap.f.value(a.add(c0).add(c1))
    assert trap.value(Subset.from_elements([c0], 64)) == 1
    assert trap.value(a.add(b0).add(c0)) == trap.f.value(a.add(b0).add(c0))


def test_trap_band_via_sampled_checker():
    trap = build_greedy_trap(16, 0.5, 64)
    report = check_sandwich(trap, trap.f, float(trap.epsilon), 64,
                            mode="sampled", trials=5000, seed=1)
    assert report.passed


def test_trap_parameter_gates():
    with pytest.raises(ValueError, match="eps"):
        build_greedy_trap(4, 0.5, 64)  # eps = 1/2 not allowed
    with pytest.raises(ValueError):
        build_greedy_trap(16, 0.5, 32)  # too few non-A elements for the budget
    with pytest.raises(ValueError, match="tile"):
        build_greedy_trap(16, 0.5, 63)  # blocks cannot tile an odd ground set
