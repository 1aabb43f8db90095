"""The exact-integer pair-band kernel against the rational code it replaced.

Each reference below is the earlier implementation, kept verbatim: the
collapsed sandwich greedy with a per-trial ``Fraction`` g-table, the scalar
Fisher-Yates draw, and the ``Fraction`` band test of the planted optimum.  The
pair band probability is checked against an exact ``Fraction`` sum of
``math.comb`` ratios over the overlaps, with the earlier per-overlap band test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from approxsub.adversarial import (
    HardPairParams,
    PairBand,
    draw_hidden_set,
    power_law_params,
)
from approxsub.experiments import _sandwich_greedy_fast, planted_optimum_escapes
from approxsub.sets import Subset
from approxsub.solvers import expected_greedy_queries
from approxsub.verify import pair_band_probability


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _sandwich_band_state(params: HardPairParams):
    n, h, k = params.n, params.h, params.k
    cap = params.cap
    lo = 1 - Fraction(float(params.epsilon))
    hi = 1 + Fraction(float(params.epsilon))
    g_table = [min(sz, Fraction(sz * h, n) + cap) for sz in range(k + 1)]
    return cap, lo, hi, g_table


def reference_sandwich_greedy(params: HardPairParams, hidden) -> tuple[int, Fraction, int, int]:
    n, h, k = params.n, params.h, params.k
    cap, lo, hi, g_table = _sandwich_band_state(params)
    in_ids = hidden.elements()
    out_ids = hidden.complement().elements()
    p_in = p_out = 0
    s1 = s0 = 0
    escapes = 0
    chosen_mask = 0
    value = Fraction(0)
    for _ in range(k):
        gv = g_table[s1 + s0 + 1]
        r1 = h - s1
        r0 = (n - h) - s0
        fh_in = (s1 + 1) + min(s0, cap)
        fh_out = s1 + min(s0 + 1, cap)
        band_in = lo * fh_in <= gv <= hi * fh_in
        band_out = lo * fh_out <= gv <= hi * fh_out
        v_in = gv if band_in else fh_in
        v_out = gv if band_out else fh_out
        if not band_in:
            escapes += r1
        if not band_out:
            escapes += r0
        if r1 == 0:
            take_in = False
        elif r0 == 0:
            take_in = True
        elif v_in != v_out:
            take_in = v_in > v_out
        else:
            take_in = in_ids[p_in] < out_ids[p_out]
        if take_in:
            chosen_mask |= 1 << in_ids[p_in]
            p_in += 1
            s1 += 1
            value = v_in
        else:
            chosen_mask |= 1 << out_ids[p_out]
            p_out += 1
            s0 += 1
            value = v_out
    return chosen_mask, value, escapes, expected_greedy_queries(n, k)


def reference_draw_hidden_set(n: int, h: int, seed: int) -> Subset:
    rng = np.random.default_rng(seed)
    arr = np.arange(n)
    for i in range(h):
        j = int(rng.integers(i, n))
        arr[i], arr[j] = arr[j], arr[i]
    mask = 0
    for e in arr[:h]:
        mask |= 1 << int(e)
    return Subset._raw(n, mask, h)


def reference_planted_optimum_escapes(params: HardPairParams) -> bool:
    _, lo, hi, g_table = _sandwich_band_state(params)
    return not (lo * params.k <= g_table[params.k] <= hi * params.k)


def reference_pair_band(params, set_size: int) -> tuple[Fraction, list[bool]]:
    """Exact probability, as a sum of ``math.comb`` ratios, and the per-overlap
    band outcomes it sums over."""
    n, h, eps = params.n, params.h, params.epsilon
    cap = params.cap
    lo = 1 - Fraction(float(eps))
    hi = 1 + Fraction(float(eps))
    total = 0
    outcomes = []
    g_val = min(set_size, Fraction(set_size * h, n) + cap)
    for j in range(max(0, set_size + h - n), min(set_size, h) + 1):
        fh_val = j + min(set_size - j, cap)
        inside = lo * fh_val <= g_val <= hi * fh_val
        outcomes.append(inside)
        if inside:
            total += math.comb(h, j) * math.comb(n - h, set_size - j)
    return Fraction(total, math.comb(n, set_size)), outcomes


# ---------------------------------------------------------------------------
# Collapsed greedy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [256, 1024, 4096, 16384])
@pytest.mark.parametrize("beta", [0.25, 0.35, 0.45])
def test_integer_greedy_matches_fraction_greedy(n, beta):
    params = power_law_params(n, beta)
    for seed in range(10):
        hidden = draw_hidden_set(n, params.h, 1000 * seed + n)
        mask, value, escapes, queries = _sandwich_greedy_fast(params, hidden)
        assert type(value) is Fraction
        assert (mask, value, escapes, queries) == reference_sandwich_greedy(params, hidden)


# ---------------------------------------------------------------------------
# Hidden-set draw
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,h", [(20, 5), (4096, 1449), (64, 64), (101, 37)])
def test_vectorised_draw_matches_scalar_draw(n, h):
    for seed in range(200):
        assert draw_hidden_set(n, h, seed) == reference_draw_hidden_set(n, h, seed)


# ---------------------------------------------------------------------------
# Planted optimum and pair band probability
# ---------------------------------------------------------------------------

def _param_grid():
    for n in (256, 1024, 4096, 16384):
        for beta in (0.25, 0.3, 0.35, 0.4, 0.45, 0.49):
            yield power_law_params(n, beta)
    for n in (12, 20, 33, 64, 100):
        for h in sorted({n // 4, n // 3, n // 2}):
            for alpha in sorted({1, h // 3, h // 2, h}):
                for k in sorted({alpha, (alpha + h) // 2, h}):
                    for eps in (0.05, 0.125, 0.3, 0.5, 0.9):
                        yield HardPairParams(n=n, h=h, alpha=alpha, k=k, epsilon=eps)


def test_planted_optimum_escapes_matches_fraction_form():
    seen = set()
    for params in _param_grid():
        got = planted_optimum_escapes(params)
        assert got == reference_planted_optimum_escapes(params), params
        seen.add(got)
    assert seen == {True, False}


def test_pair_band_probability_matches_fraction_form():
    seen = set()
    done = set()
    for params in _param_grid():
        key = (params.n, params.h, params.alpha, params.epsilon)
        if params.n > 100 or key in done:  # the budget k does not enter
            continue
        done.add(key)
        band = PairBand(params)
        for set_size in sorted({1, params.alpha, params.h, params.n // 2, params.n}):
            expected, outcomes = reference_pair_band(params, set_size)
            lo_j = max(0, set_size + params.h - params.n)
            got = [band.sandwich(j, set_size - j)[1]
                   for j in range(lo_j, min(set_size, params.h) + 1)]
            assert got == outcomes, (params, set_size)
            assert pair_band_probability(params, set_size) == float(expected)
            seen.update(outcomes)
    assert seen == {True, False}


def test_pair_band_value_is_n_times_sandwich_value():
    params = HardPairParams(n=24, h=12, alpha=3, k=8, epsilon=0.45)
    band = PairBand(params)
    cap = params.cap
    for s1 in range(params.h + 1):
        for s0 in range(params.n - params.h + 1):
            fh = s1 + min(s0, cap)
            g = min(s1 + s0, Fraction((s1 + s0) * params.h, params.n) + cap)
            inside = (1 - Fraction(params.epsilon)) * fh <= g <= (1 + Fraction(params.epsilon)) * fh
            assert band.sandwich(s1, s0) == (params.n * (g if inside else fh), inside)
