import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import approxsub
from approxsub.adversarial import HardPairParams, build_monotone_pair, build_sandwich, draw_hidden_set
from approxsub.functions import AdditiveFunction, CoverageFunction
from approxsub.noise import consistent_noise
from approxsub.sets import Subset
from approxsub.verify import (
    check_concentration,
    check_monotone,
    check_sandwich,
    check_submodular,
    exact_band_probability,
    mc_band_probability,
    tail_reference,
)
from conftest import TableFunction, coverage_table, modular_table, naive_monotone, naive_submodular


class SpikeFunction:
    """1 on one fixed set, 0 elsewhere: far from submodular."""

    kind = "spike"

    def __init__(self, n, target_mask):
        self.n = n
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
    F = consistent_noise(f, 0.25, 9)
    assert check_sandwich(F, f, 0.25, 10).passed


def test_sandwich_narrower_band_fails():
    f = AdditiveFunction([2, 3, 1, 5, 4, 2, 7, 1, 3, 2])
    F = consistent_noise(f, 0.25, 9)
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


def test_band_probability_helpers_agree():
    exact = exact_band_probability(100, 50, 40, 0.5)
    mc = mc_band_probability(100, 50, 40, 0.5, trials=500_000, seed=3)
    assert abs(exact - mc) < 5e-4
    assert tail_reference(5.0) == pytest.approx(0.7290393985385394)


def test_mc_band_probability_rejects_no_trials():
    with pytest.raises(ValueError):
        mc_band_probability(100, 50, 40, 0.5, trials=0, seed=3)


def test_scipy_stats_loads_only_when_a_probability_needs_it():
    code = textwrap.dedent("""
        import sys
        import approxsub
        import approxsub.cli
        assert "scipy.stats" not in sys.modules, "scipy.stats imported eagerly"
        code = approxsub.cli.main([
            "verify", "--property", "concentration", "--n", "100", "--h", "50",
            "--set-size", "40", "--epsilon", "0.5", "--mode", "exact",
        ])
        assert code == 0, code
        assert "scipy.stats" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(approxsub.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "measured=0.999987" in proc.stdout
