"""Both hard-pair families are built from zoo kinds into one HardPair.

The coverage pair's planted function and decoy were once two closed-form
classes.  Verbatim copies of them are kept here as references: the zoo-built
pair must give the same value, of the same type, on every set.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from approxsub.adversarial import (
    HardPair,
    HardPairParams,
    build_coverage_pair,
    build_monotone_pair,
    draw_hidden_set,
)
from approxsub.sets import Subset, ValueOracle


class _CoverageFormPlanted(ValueOracle):
    """Closed form |S inter H| + alpha for nonempty S, 0 at the empty set."""

    kind = "coverage_pair_planted"

    def __init__(self, hidden: Subset, alpha: int):
        self.n = hidden.n
        self._hidden = hidden
        self._alpha = alpha

    def value(self, s: Subset) -> int:
        self._check_ground(s)
        if s.size == 0:
            return 0
        return s.intersection(self._hidden).size + self._alpha


class _CoverageFormDecoy(ValueOracle):
    """Closed form |S| h/n + alpha for nonempty S, 0 at the empty set."""

    kind = "coverage_pair_decoy"

    def __init__(self, n: int, h: int, alpha: int):
        self.n = n
        self._h = h
        self._alpha = alpha

    def value(self, s: Subset):
        self._check_ground(s)
        if s.size == 0:
            return 0
        return Fraction(s.size * self._h, self.n) + self._alpha


# (n, h, alpha, seed) with alpha <= k = h <= n/2.
FIXTURES = [(2, 1, 1, 0), (8, 3, 1, 1), (9, 4, 2, 2), (10, 5, 5, 3), (12, 6, 2, 4),
            (13, 4, 3, 5), (14, 7, 4, 6), (14, 3, 1, 7)]


def _pair(n, h, alpha, seed):
    params = HardPairParams(n=n, h=h, alpha=alpha, k=h, epsilon=0.25)
    hidden = draw_hidden_set(n, h, seed)
    refs = (_CoverageFormPlanted(hidden, alpha), _CoverageFormDecoy(n, h, alpha))
    return build_coverage_pair(params, hidden), refs


def _assert_same(fn, ref, s):
    got, want = fn.value(s), ref.value(s)
    assert got == want and type(got) is type(want), (s, got, want)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_coverage_pair_matches_closed_forms_on_every_set(fixture):
    n = fixture[0]
    pair, (fh_ref, g_ref) = _pair(*fixture)
    for m in range(1 << n):
        s = Subset._raw(n, m, m.bit_count())
        _assert_same(pair.fh, fh_ref, s)
        _assert_same(pair.g, g_ref, s)


@pytest.mark.parametrize("seed", [0, 1])
def test_coverage_pair_matches_closed_forms_at_scale(seed):
    n = 100
    pair, (fh_ref, g_ref) = _pair(n, 25 + seed, 5 + seed, seed)
    rng = random.Random(seed)
    sets = [Subset.empty(n), Subset.full(n), pair.hidden]
    sets += [Subset.from_elements(rng.sample(range(n), rng.randrange(n + 1)), n)
             for _ in range(1000)]
    for s in sets:
        _assert_same(pair.fh, fh_ref, s)
        _assert_same(pair.g, g_ref, s)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_coverage_pair_has_exact_tables(fixture):
    n = fixture[0]
    pair, refs = _pair(*fixture)
    for fn, ref in zip((pair.fh, pair.g), refs):
        T = fn.exact_table()
        assert T is not None
        assert [Fraction(int(t), fn.den) for t in T] == [
            ref.value(Subset._raw(n, m, m.bit_count())) for m in range(1 << n)]


@pytest.mark.parametrize("build", [build_monotone_pair, build_coverage_pair])
def test_both_builders_return_one_pair_model(build):
    params = HardPairParams(n=12, h=5, alpha=2, k=4, epsilon=0.25)
    hidden = draw_hidden_set(12, 5, 3)
    pair = build(params, hidden)
    assert type(pair) is HardPair
    assert pair.params is params and pair.hidden is hidden
    assert [f.name for f in dataclasses.fields(pair)] == ["fh", "g", "params", "hidden"]
    assert pair.fh.n == pair.g.n == 12


@pytest.mark.parametrize("build", [build_monotone_pair, build_coverage_pair])
@pytest.mark.parametrize("n, h", [(14, 5), (12, 4)])
def test_both_builders_reject_a_mismatched_hidden_set(build, n, h):
    params = HardPairParams(n=12, h=5, alpha=2, k=4, epsilon=0.25)
    with pytest.raises(ValueError):
        build(params, draw_hidden_set(n, h, 0))
