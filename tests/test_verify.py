import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import approxsub
from approxsub import verify
from approxsub.adversarial import HardPairParams, build_monotone_pair, build_sandwich, draw_hidden_set
from approxsub.experiments import sampling_union_bound
from approxsub.functions import AdditiveFunction, CoverageFunction
from approxsub.noise import ConsistentNoiseOracle
from approxsub.sets import Subset, ValueOracle
from approxsub.verify import (
    _hypergeom_mass,
    check_concentration,
    check_monotone,
    check_sandwich,
    check_submodular,
    exact_band_probability,
    mc_band_probability,
    pair_band_reference,
    tail_reference,
)
from conftest import TableFunction, coverage_table, modular_table, naive_monotone, naive_submodular


class SpikeFunction(ValueOracle):
    """1 on one fixed set, 0 elsewhere: far from submodular."""

    kind = "spike"

    def __init__(self, n, target_mask):
        super().__init__(n)
        self.target = target_mask

    def value(self, s):
        return 1 if s.mask == self.target else 0


def test_submodular_pass_additive():
    assert check_submodular(AdditiveFunction([1, 5, 2, 4]), 4).passed


def test_submodular_pass_planted_pair():
    params = HardPairParams(n=10, h=5, alpha=3, k=4, epsilon=0.25)
    pair = build_monotone_pair(params, draw_hidden_set(10, 5, 0))
    assert check_submodular(pair.fh, 10).passed
    assert check_submodular(pair.g, 10).passed


def test_submodular_fails_on_spike_with_witness():
    fn = SpikeFunction(6, 0b010110)
    report = check_submodular(fn, 6)
    assert not report.passed
    s, t = report.counterexample
    assert fn.value(s.union(t)) + fn.value(s.intersection(t)) > fn.value(s) + fn.value(t)


def test_monotone_pass_and_fail():
    assert check_monotone(CoverageFunction(3, [[0], [0, 1], [2]]), 3).passed
    params = HardPairParams(n=10, h=5, alpha=3, k=4, epsilon=0.25)
    pair = build_monotone_pair(params, draw_hidden_set(10, 5, 0))
    assert check_monotone(pair.g, 10).passed
    bad = AdditiveFunction([1, -2, 3])
    report = check_monotone(bad, 3)
    assert not report.passed
    s, a = report.counterexample
    assert bad.value(s.add(a)) < bad.value(s)


def test_checkers_match_naive_reference():
    rng = np.random.default_rng(123)
    for trial in range(50):
        n = int(rng.integers(3, 8))
        kind = trial % 3
        if kind == 0:
            table = [int(v) for v in rng.integers(0, 12, size=1 << n)]
            table[0] = 0
        elif kind == 1:
            # Concave-of-cardinality tables are genuinely submodular.
            incs = sorted((int(d) for d in rng.integers(0, 6, size=n)), reverse=True)
            sizes = [0]
            for d in incs:
                sizes.append(sizes[-1] + d)
            table = [sizes[bin(m).count('1')] for m in range(1 << n)]
        else:
            table = [float(v) for v in rng.random(1 << n) * 5]
            table[0] = 0.0
        fn = TableFunction(n, table)
        tol = 0.0 if kind != 2 else 1e-9 * max(1.0, max(map(abs, table)))
        ok_ref, _ = naive_submodular(fn, n, tol)
        assert check_submodular(fn, n).passed == ok_ref, (trial, n)
        ok_ref, _ = naive_monotone(fn, n, tol)
        assert check_monotone(fn, n).passed == ok_ref, (trial, n)


@st.composite
def set_function_tables(draw):
    """(n, table): unstructured tables, or weighted coverage plus a signed
    modular part (submodular) with at most one entry nudged; values are
    int, Fraction or float."""
    n = draw(st.integers(1, 5))
    size = 1 << n
    if draw(st.booleans()):
        table = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
    else:
        covers = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
        weights = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
        shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        table = [c + s for c, s in zip(coverage_table(n, covers, weights), modular_table(n, shift))]
        table[draw(st.integers(0, size - 1))] += draw(st.sampled_from([0, 0, 1, -1]))
    kind = draw(st.sampled_from(["int", "fraction", "float"]))
    if kind == "fraction":
        den = draw(st.integers(2, 9))
        table = [Fraction(v, den) for v in table]
    elif kind == "float":
        table = [v / 3 for v in table]
    return n, table


@settings(max_examples=300, deadline=None)
@given(set_function_tables())
def test_checkers_agree_with_naive_on_random_tables(case):
    n, table = case
    fn = TableFunction(n, table)
    tol = 0  # an int: a float zero would turn Fraction comparisons into float ones
    if isinstance(table[0], float):
        tol = 1e-9 * max(1.0, max(abs(v) for v in table))

    ok, witness = naive_submodular(fn, n, tol)
    report = check_submodular(fn, n)
    assert report.passed == ok
    if not ok:
        s, t = (x.mask for x in report.counterexample)
        assert table[s | t] + table[s & t] > table[s] + table[t] + tol
        # Both scans report the smallest S first, then the smallest T.
        assert (s, t) == witness

    ok, _ = naive_monotone(fn, n, tol)
    report = check_monotone(fn, n)
    assert report.passed == ok
    if not ok:
        s, a = report.counterexample
        assert not s.mask >> a & 1
        assert table[s.mask | 1 << a] < table[s.mask] - tol


def test_check_guards():
    with pytest.raises(ValueError):
        check_submodular(AdditiveFunction([1] * 15), 15)
    with pytest.raises(ValueError):
        check_sandwich(AdditiveFunction([1] * 21), AdditiveFunction([1] * 21),
                       0.1, 21, mode="exhaustive")
    with pytest.raises(ValueError):
        check_monotone(AdditiveFunction([1] * 21), 21)
    # The wider guards admit sizes the pair check rejects.
    assert check_monotone(AdditiveFunction([1] * 15), 15).passed


def test_sandwich_consistent_noise_passes():
    f = AdditiveFunction([2, 3, 1, 5, 4, 2, 7, 1, 3, 2])
    F = ConsistentNoiseOracle(f, 0.25, 9)
    assert check_sandwich(F, f, 0.25, 10).passed


def test_sandwich_narrower_band_fails():
    f = AdditiveFunction([2, 3, 1, 5, 4, 2, 7, 1, 3, 2])
    F = ConsistentNoiseOracle(f, 0.25, 9)
    report = check_sandwich(F, f, 0.01, 10)
    assert not report.passed


def test_sandwich_sampled_mode_deterministic():
    params = HardPairParams(n=60, h=20, alpha=3, k=10, epsilon=0.3)
    pair = build_monotone_pair(params, draw_hidden_set(60, 20, 2))
    sw = build_sandwich(pair)
    a = check_sandwich(sw, pair.fh, 0.3, 60, mode="sampled", trials=2000, seed=4)
    b = check_sandwich(sw, pair.fh, 0.3, 60, mode="sampled", trials=2000, seed=4)
    assert a.passed and b.passed
    assert a.examined == b.examined == 2000


def test_sandwich_mode_validation():
    f = AdditiveFunction([1, 2])
    with pytest.raises(ValueError):
        check_sandwich(f, f, 0.1, 2, mode="sampled")
    with pytest.raises(ValueError):
        check_sandwich(f, f, 0.1, 2, mode="grid")


def test_concentration_exact_example():
    report = check_concentration(100, 50, 40, 0.5, method="exact")
    assert report.mu == 20
    assert report.band == (10, 30)
    assert math.isclose(report.measured, 0.9999873507957097, rel_tol=1e-9)
    assert math.isclose(report.reference, 1 - math.exp(-5 / 3) - math.exp(-5 / 2),
                        rel_tol=1e-12)
    assert report.passed


def test_concentration_degenerate_full_overlap():
    report = check_concentration(30, 30, 10, 0.4, method="exact")
    assert report.measured == pytest.approx(1.0)


def test_concentration_large_epsilon_lower_tail_vacuous():
    # (1 - eps) mu below the support floor clamps the band at 0.
    report = check_concentration(40, 20, 20, 1.2, method="exact")
    assert report.band[0] == 0
    assert report.measured > 0.99


def test_concentration_rejects_weak_regime():
    with pytest.raises(ValueError, match="eps"):
        check_concentration(100, 10, 10, 0.5, method="exact")  # eps^2 mu = 0.25


def test_concentration_mc_matches_exact():
    exact = check_concentration(100, 50, 40, 0.5, method="exact").measured
    mc = check_concentration(100, 50, 40, 0.5, method="mc", trials=1_000_000,
                             seed=12).measured
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / 1_000_000)
    assert abs(mc - exact) <= 3 * se


@pytest.mark.parametrize("kwargs", [{"trials": 5}, {"seed": 3}, {"trials": 5, "seed": 3}])
def test_concentration_exact_refuses_trials_and_seed(kwargs):
    with pytest.raises(ValueError, match=re.escape(f"does not read {list(kwargs)}")):
        check_concentration(100, 50, 40, 0.5, method="exact", **kwargs)


def test_concentration_mc_defaults_to_a_million_trials_at_seed_zero(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "mc_band_probability",
                        lambda n, h, size, eps, trials, seed: calls.append((trials, seed)) or 0.5)
    assert check_concentration(100, 50, 40, 0.5, method="mc").trials == 1_000_000
    check_concentration(100, 50, 40, 0.5, method="mc", trials=7, seed=2)
    assert calls == [(1_000_000, 0), (7, 2)]


def test_band_probability_helpers_agree():
    exact = exact_band_probability(100, 50, 40, 0.5)
    mc = mc_band_probability(100, 50, 40, 0.5, trials=500_000, seed=3)
    assert abs(exact - mc) < 5e-4
    assert tail_reference(5.0) == pytest.approx(0.7290393985385394)


# The three exponential references as they stood before they shared
# verify.chernoff_tails, code verbatim.  Each hard-coded its upper-tail rate:
# x/3 in the first two, x / max(3, 2 + eps) in the third.

def previous_sampling_union_bound(n_sets: int, m: int, epsilon: float, width: float,
                                  b: float = 1.0) -> float:
    delta = epsilon * b / width if width > 0 else float("inf")
    mu = m / 2.0
    per_set = math.exp(-(delta ** 2) * mu / 3.0) + math.exp(-(delta ** 2) * mu / 2.0)
    return min(1.0, n_sets * per_set)


def previous_pair_band_reference(params, set_size: int) -> float:
    eps2 = float(params.epsilon) ** 2
    mu = set_size * params.h / params.n
    mu_bar = set_size * (params.n - params.h) / params.n
    loss = (
        math.exp(-eps2 * mu / 3.0) + math.exp(-eps2 * mu / 2.0)
        + math.exp(-eps2 * mu_bar / 3.0) + math.exp(-eps2 * mu_bar / 2.0)
    )
    return max(0.0, 1.0 - loss)


def previous_tail_reference(e2mu: float, epsilon: float = 1.0) -> float:
    return 1.0 - math.exp(-e2mu / max(3.0, 2.0 + epsilon)) - math.exp(-e2mu / 2.0)


_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(1, n), st.integers(0, n))),
       _unit, st.integers(1, 10 ** 4), st.integers(1, 10 ** 9),
       st.floats(0.0, 1e3), st.floats(0.0, 1e3, exclude_min=True),
       st.floats(0.0, math.inf), st.floats(0.0, 1e308, exclude_min=True))
def test_chernoff_references_keep_their_bits(sizes, eps, n_sets, m, width, b, e2mu, epsilon):
    """The shared rate is x/3 wherever delta <= 1, so the pair and sampling
    references give the bits they gave with x/3 hard-coded; the
    concentration reference is unchanged for every eps."""
    n, h, set_size = sizes
    params = SimpleNamespace(n=n, h=h, epsilon=eps)
    assert pair_band_reference(params, set_size) == previous_pair_band_reference(params,
                                                                                set_size)
    assert tail_reference(e2mu, epsilon) == previous_tail_reference(e2mu, epsilon)
    assume(not width > 0 or eps * b / width <= 1)
    assert sampling_union_bound(n_sets, m, eps, width, b) == previous_sampling_union_bound(
        n_sets, m, eps, width, b)


def test_sampling_union_bound_rate_past_delta_one():
    """delta = 0.5 / 0.25 = 2 and mu = 50, so x = 200: the upper tail is
    exp(-x / (2 + delta)), where x/3 understated it."""
    got = sampling_union_bound(1, 100, 0.5, 0.25)
    assert got == math.exp(-200 / 4) + math.exp(-200 / 2)
    assert previous_sampling_union_bound(1, 100, 0.5, 0.25) < got


def _direct_mass(n, h, s, lo, hi, keep):
    """sum C(h, j) C(n-h, s-j) / C(n, s) over kept j in [lo, hi], term by term."""
    return Fraction(sum(math.comb(h, j) * math.comb(n - h, s - j)
                        for j in range(max(lo, 0), min(hi, s) + 1)
                        if keep is None or keep(j)),
                    math.comb(n, s))


def test_hypergeom_mass_equals_direct_comb_sums():
    rng = random.Random(20)
    keeps = [None, lambda j: j % 2 == 1, lambda j: j % 3 == 0]
    cases = [(n, h, s) for n in (0, 1, 2, 9, 300) for h in {0, n // 3, n}
             for s in {0, n // 2, n}]
    for _ in range(150):
        n = rng.randint(1, 300)
        cases.append((n, rng.randint(0, n), rng.randint(0, n)))
    for n, h, s in cases:
        a, b = sorted(rng.randint(-2, n + 2) for _ in range(2))
        for lo, hi in [(0, n), (-3, n + 3), (n, 0), (a, b)]:
            for i, keep in enumerate(keeps):
                got = _hypergeom_mass(n, h, s, lo, hi, keep)
                want = _direct_mass(n, h, s, lo, hi, keep)
                assert type(got) is Fraction
                assert got == want, (n, h, s, lo, hi, i)
        assert _hypergeom_mass(n, h, s, -1, n + 1) == 1


def test_exact_band_probability_stays_a_probability_at_scale():
    # The float pmf sum gave 1.0000000000000036 here.
    assert exact_band_probability(10**5, 50000, 40000, 0.05) <= 1


def parent_band_indices(n: int, h: int, set_size: int, epsilon) -> tuple[int, int]:
    """``verify._band_indices`` before it read its edges from ``Band``, verbatim."""
    mu = Fraction(set_size * h, n)
    eps = Fraction(float(epsilon))
    lo = math.ceil((1 - eps) * mu)
    hi = math.floor((1 + eps) * mu)
    support_lo = max(0, set_size + h - n)
    support_hi = min(set_size, h)
    return max(lo, support_lo), min(hi, support_hi)


# Zero, dyadic epsilons, decimal floats taken at their binary value (0.3 is
# p / 2^54), bands past 1, and a Fraction that float() rounds.
@pytest.mark.parametrize("epsilon", [0, 0.5, 0.25, 0.125, 0.3, 0.1, 0.05, 0.9, 1.5, 3.0,
                                     Fraction(1, 3)])
def test_band_indices_read_the_band_edges(epsilon):
    for n in (1, 2, 7, 10, 100, 1000, 4096):
        for h in sorted({1, max(1, n // 3), max(1, n // 2), n}):
            for s in sorted({1, max(1, n // 4), max(1, n // 2), max(1, n - 1), n}):
                assert verify._band_indices(n, h, s, epsilon) == \
                    parent_band_indices(n, h, s, epsilon), (n, h, s)


# (h, n - h, |S|, eps) cases for the chunked Monte-Carlo draws.
_MC_CASES = [(50, 50, 40, 0.5), (3, 97, 60, 0.9), (200, 800, 500, 0.1), (1, 9, 9, 0.5)]


def _one_shot_mc(n, h, set_size, epsilon, trials, seed):
    """The estimate as one draw of all ``trials`` variates, as it was first written."""
    rng = np.random.default_rng(seed)
    draws = rng.hypergeometric(h, n - h, set_size, size=trials)
    lo, hi = verify._band_indices(n, h, set_size, epsilon)
    return float(np.mean((draws >= lo) & (draws <= hi)))


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_mc_band_probability_chunks_keep_the_stream(monkeypatch, chunk):
    monkeypatch.setattr(verify, "_MC_CHUNK", chunk)
    for h, rest, size, eps in _MC_CASES:
        n = h + rest
        for trials in (1, chunk, chunk + 1, 3 * chunk - 1, 1001):
            got = mc_band_probability(n, h, size, eps, trials, seed=trials)
            assert type(got) is float
            assert got == _one_shot_mc(n, h, size, eps, trials, seed=trials)


def test_mc_band_probability_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(verify, "_MC_CHUNK", 1 << 10)
    peaks = []
    for trials in (1 << 12, 1 << 16):
        tracemalloc.start()
        mc_band_probability(100, 50, 40, 0.5, trials, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # a one-shot draw of 2^16 variates holds at least 512 KiB of int64
    assert max(peaks) < 64 << 10, peaks


def test_mc_band_probability_rejects_no_trials():
    with pytest.raises(ValueError):
        mc_band_probability(100, 50, 40, 0.5, trials=0, seed=3)


def test_scipy_never_loads():
    code = textwrap.dedent("""
        import runpy
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import approxsub
        import approxsub.cli
        code = approxsub.cli.main([
            "verify", "--property", "concentration", "--n", "100", "--h", "50",
            "--set-size", "40", "--epsilon", "0.5", "--mode", "exact",
        ])
        assert code == 0, code
        runpy.run_path(sys.argv[1], run_name="__main__")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(approxsub.__file__)))
    demo = os.path.join(os.path.dirname(src), "demos", "02_hard_pair_and_sandwich.py")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, demo], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "measured=0.999987" in proc.stdout
    assert "sandwich oracle follows the decoy" in proc.stdout
