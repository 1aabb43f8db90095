"""Sums of exact kinds added in integers, the sandwich's band test, and the
``den`` every exact kind carries.

``ReferenceSum`` and ``ReferenceSandwich`` keep the earlier ``value`` bodies
verbatim: a running sum from 0 over the terms, and the band choice through
``Band.contains``.  Over fuzzed sums (nested, with int, bool, Fraction and
integral-Fraction data, and with inexact terms for the generic loop) every
value must match in value and in type on every mask, and so must solver
query counts and traces and ``check_sandwich`` / ``check_submodular``
reports, witnesses included.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from approxsub.adversarial import (
    Band,
    HardPairParams,
    SandwichFunction,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
)
from approxsub.experiments import instance_corpus
from approxsub.functions import (
    MEMO_LIMIT,
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    CoverageFunction,
    SumFunction,
)
from approxsub.noise import ConsistentNoiseOracle
from approxsub.sets import Subset, ValueOracle
from approxsub.solvers import brute_force, greedy_cardinality
from approxsub.verify import check_sandwich, check_submodular


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class ReferenceSum(ValueOracle):
    kind = "sum"

    def __init__(self, terms):
        self.terms = list(terms)
        self.n = self.terms[0].n

    def value(self, s: Subset):
        if s.n != self.n:
            self._check_ground(s)
        total = 0
        for t in self.terms:
            total += t.value(s)
        return total


class ReferenceSandwich(ValueOracle):
    kind = "sandwich"

    def __init__(self, fh, g, epsilon):
        self.n = fh.n
        self.fh = fh
        self.g = g
        self.band = Band(float(epsilon))

    def value(self, s: Subset):
        fv = self.fh.value(s)
        gv = self.g.value(s)
        if self.band.contains(gv, fv):
            return gv
        return fv


def assert_same(new, old):
    assert new == old
    assert type(new) is type(old)


def _subsets(n):
    return (Subset._raw(n, m, m.bit_count()) for m in range(1 << n))


def assert_values_match(new, ref, n):
    for s in _subsets(n):
        assert_same(new.value(s), ref.value(s))


def _report(rep):
    """A report's fields, with each witness value's type beside it."""
    cx = rep.counterexample
    if cx is not None:
        cx = tuple((x.mask, x.n) if isinstance(x, Subset) else (x, type(x)) for x in cx)
    return rep.property_name, rep.passed, cx, rep.examined


def _solved(res):
    return res.chosen.mask, res.value, type(res.value), res.queries_used, res.trace


# ---------------------------------------------------------------------------
# Fuzzed sums: a spec tree built twice, once with SumFunction and once with
# ReferenceSum at every sum node.  Leaves are shared: their kinds are
# unchanged.
# ---------------------------------------------------------------------------

_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_integral = st.builds(Fraction, st.integers(-6, 6))  # Fraction(k, 1)
_exact = st.one_of(st.integers(-9, 9), st.booleans(), _fractions, _integral)
_budgets = st.one_of(st.integers(0, 9), st.booleans(),
                     st.builds(Fraction, st.integers(0, 30), st.integers(1, 6)), _integral.map(abs))


@st.composite
def _concave_table(draw, n, exact=True):
    """Nonincreasing steps from 0; an inexact table is all floats, on int
    steps so that its differences are exact and it stays concave."""
    step = st.one_of(st.integers(0, 5), _fractions.map(abs)) if exact else st.integers(0, 5)
    steps = sorted(draw(st.lists(step, min_size=n, max_size=n)), reverse=True)
    table = [draw(st.sampled_from([0, Fraction(0)]))]
    for d in steps:
        v = table[-1] + d
        if v.denominator == 1 and draw(st.booleans()):  # an int entry beside Fractions
            v = int(v)
        table.append(v)
    return table if exact else [float(v) for v in table]


@st.composite
def _leaf(draw, n, exact=True):
    kind = draw(st.sampled_from(["additive", "budget", "concave", "coverage"]))
    if kind == "coverage":
        covers = draw(st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=n, max_size=n))
        return CoverageFunction(6, covers)
    if kind == "concave":
        return ConcaveCardinalityFunction(draw(_concave_table(n, exact)))
    weights = draw(st.lists(_exact, min_size=n, max_size=n))
    if not exact:
        weights[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [0.5, -1.25, np.int64(3), np.int64(-2)]))
    if kind == "additive":
        return AdditiveFunction(weights)
    return BudgetAdditiveFunction(weights, draw(_budgets))


@st.composite
def sum_specs(draw, n, depth=2, inexact=False):
    """A list of leaves and nested specs; ``inexact`` puts one inexact leaf
    somewhere in the tree."""
    size = draw(st.integers(1, 4))
    spec = []
    for i in range(size):
        if depth and draw(st.integers(0, 3)) == 0:
            spec.append(draw(sum_specs(n, depth - 1, inexact and i == 0)))
        else:
            spec.append(draw(_leaf(n, not (inexact and i == 0))))
    return spec


def build(spec, cls):
    return cls([build(t, cls) if isinstance(t, list) else t for t in spec])


def exact(values) -> bool:
    return all(type(v) in (int, bool, Fraction) for v in values)


def exact_data(fn) -> bool:
    """Whether every datum of fn is exactly an int, bool or Fraction."""
    if isinstance(fn, AdditiveFunction):
        return exact(fn.weights)
    if isinstance(fn, BudgetAdditiveFunction):
        return exact(fn.weights + [fn.budget])
    if isinstance(fn, CoverageFunction):
        return True
    if isinstance(fn, ConcaveCardinalityFunction):
        return exact(fn.table)
    if isinstance(fn, SumFunction):
        return all(exact_data(t) for t in fn.terms)
    if isinstance(fn, SandwichFunction):
        return exact_data(fn.fh) and exact_data(fn.g)
    return False


def assert_den_contract(fn, n):
    """den is None exactly when some datum is inexact, and then there is no
    table; otherwise it scales every value to an int, and a table is over
    it: T == den * value on every mask."""
    assert (fn.den is None) == (not exact_data(fn))
    table = fn.exact_table()
    if fn.den is None:
        assert table is None
    else:
        for s in _subsets(n):
            v = fn.value(s)
            assert type(v) in (int, bool, Fraction)
            assert (fn.den * v).denominator == 1
            assert table is None or int(table[s.mask]) == fn.den * v


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_sums_match_the_reference_loop(data):
    n = data.draw(st.integers(1, 10))
    spec = data.draw(sum_specs(n, inexact=data.draw(st.booleans())))
    new, ref = build(spec, SumFunction), build(spec, ReferenceSum)
    assert_values_match(new, ref, n)
    assert_den_contract(new, n)
    k = data.draw(st.integers(1, n))
    assert _solved(greedy_cardinality(new, k)) == _solved(greedy_cardinality(ref, k))


@pytest.mark.parametrize("inexact", [0.5, np.int64(2)], ids=["float", "numpy"])
def test_one_inexact_term_takes_the_generic_loop(inexact):
    n = 6
    exact = [AdditiveFunction([Fraction(1, 3), 2, True, Fraction(4, 1), 0, Fraction(-1, 2)]),
             BudgetAdditiveFunction([1, 2, 3, 1, 2, 3], Fraction(7, 2))]
    odd = AdditiveFunction([inexact, 1, 2, 3, 4, Fraction(1, 5)])
    for terms in (exact + [odd], [odd] + exact, [SumFunction(exact), odd]):
        new, ref = SumFunction(terms), ReferenceSum(terms)
        assert new.den is None and new.exact_table() is None
        assert_values_match(new, ref, n)


def test_value_types_follow_the_fold():
    """Only a Fraction value makes a Fraction sum, an integral one included;
    bool values add as ints."""
    n = 3
    ints = AdditiveFunction([1, True, 2])
    halves = AdditiveFunction([Fraction(1, 2), 0, Fraction(3, 2)])
    whole = ConcaveCardinalityFunction([Fraction(0), Fraction(2), Fraction(3), Fraction(3)])
    bools = ConcaveCardinalityFunction([False, True, True, True])
    fn = SumFunction([ints, halves])
    assert fn.den == 2
    assert_same(fn.value(Subset.from_elements([1], n)), 1)
    assert_same(fn.value(Subset.from_elements([0], n)), Fraction(3, 2))
    assert_same(fn.value(Subset.from_elements([0, 2], n)), Fraction(5))
    assert_same(SumFunction([ints, whole]).value(Subset.from_elements([1], n)), Fraction(3))
    assert_same(SumFunction([bools]).value(Subset.from_elements([1], n)), 1)
    assert_same(SumFunction([bools, bools]).value(Subset.empty(n)), 0)


def test_repeated_totals_share_one_fraction():
    n = 8
    fn = SumFunction([AdditiveFunction([Fraction(1, 3)] * n), ConcaveCardinalityFunction(
        [min(i, Fraction(5, 2)) for i in range(n + 1)])])
    ref = ReferenceSum(fn.terms)
    seen = {}
    for _ in range(2):
        for s in _subsets(n):
            v = fn.value(s)
            assert_same(v, ref.value(s))
            if type(v) is Fraction:
                assert seen.setdefault(v, v) is v
    assert 0 < len(fn._memo) <= MEMO_LIMIT


def test_memo_past_its_bound_matches_reference():
    """Every set its own Fraction total: the memo is cleared and refilled."""
    n = 12
    fn = SumFunction([AdditiveFunction([Fraction(1 << e, 3) for e in range(n)]),
                      AdditiveFunction(list(range(n)))])
    ref = ReferenceSum(fn.terms)
    for s in _subsets(n):
        assert_same(fn.value(s), ref.value(s))
        assert len(fn._memo) <= MEMO_LIMIT
    got, want = brute_force(fn, n), brute_force(ref, n)
    assert _solved(got) == _solved(want)


# ---------------------------------------------------------------------------
# The sandwich: hard pairs at n = 12 and fuzzed sandwiches
# ---------------------------------------------------------------------------

def reference_pair(pair, eps):
    ref_fh = ReferenceSum(pair.fh.terms)
    return ReferenceSandwich(ref_fh, pair.g, eps), ref_fh


@pytest.mark.parametrize("build_pair", [build_monotone_pair, build_coverage_pair],
                         ids=["monotone", "coverage"])
@pytest.mark.parametrize("seed", [0, 1])
def test_hard_pair_sandwich_matches_reference(build_pair, seed):
    n = 12
    params = HardPairParams(n, 6, 2, 3, 0.3)
    pair = build_pair(params, draw_hidden_set(n, params.h, seed))
    new = build_sandwich(pair)
    ref, ref_fh = reference_pair(pair, params.epsilon)
    assert new.den is not None and new._in_band == new.band.holds
    assert_values_match(new, ref, n)
    assert_values_match(pair.fh, ref_fh, n)
    for fn in (new, pair.fh, pair.g):
        assert fn.exact_table() is not None
        assert_den_contract(fn, n)
    for against in (0.3, 0.05):
        assert _report(check_sandwich(new, pair.fh, against, n)) == \
            _report(check_sandwich(ref, ref_fh, against, n))
    assert _report(check_submodular(new, n)) == _report(check_submodular(ref, n))
    assert _solved(greedy_cardinality(new, 3)) == _solved(greedy_cardinality(ref, 3))


_epsilons = st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_sandwich_matches_reference(data):
    """fh a fuzzed sum and g a fuzzed leaf; either side may be inexact, and
    then the band test is Band.contains in both."""
    n = data.draw(st.integers(1, 8))
    spec = data.draw(sum_specs(n, inexact=data.draw(st.booleans())))
    g = data.draw(_leaf(n, exact=data.draw(st.booleans())))
    eps = data.draw(_epsilons)
    new_fh, ref_fh = build(spec, SumFunction), build(spec, ReferenceSum)
    new, ref = SandwichFunction(new_fh, g, eps), ReferenceSandwich(ref_fh, g, eps)
    assert (new._in_band == new.band.holds) == (new_fh.den is not None and g.den is not None)
    assert_values_match(new, ref, n)
    assert_den_contract(new, n)
    against = data.draw(_epsilons)
    assert _report(check_sandwich(new, new_fh, against, n)) == \
        _report(check_sandwich(ref, ref_fh, against, n))


def test_noisy_side_keeps_contains():
    n = 6
    f = AdditiveFunction([1, 2, Fraction(1, 2), 3, 1, 2])
    noisy = ConsistentNoiseOracle(f, 0.2, 3)
    new = SandwichFunction(noisy, f, 0.1)
    assert new.den is None and new._in_band == new.band.contains
    assert_values_match(new, ReferenceSandwich(noisy, f, 0.1), n)


# ---------------------------------------------------------------------------
# The den contract over the corpus and the other oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_corpus_den_matches_table(seed):
    for fn in instance_corpus(seed, sizes=(8, 10, 12)):
        assert fn.den is not None
        assert fn.exact_table() is not None
        assert_den_contract(fn, fn.n)


def test_den_without_a_table():
    """Coverage past 63 universe elements has no table but is exact; a float
    budget, the trap and noise have no den."""
    assert CoverageFunction(64, [[63], [0]]).den == 1
    assert CoverageFunction(64, [[63], [0]]).exact_table() is None
    assert BudgetAdditiveFunction([1, 2], 1.5).den is None
    assert BudgetAdditiveFunction([1, 2], np.int64(1)).den is None
    assert BudgetAdditiveFunction([Fraction(1, 4), 2], Fraction(1, 6)).den == 12
    assert build_greedy_trap(16, 0.5, 64).den is None
    assert ConsistentNoiseOracle(AdditiveFunction([1]), 0.1, 0).den is None
