"""The integer weight-sum kernel of the additive and budget-additive functions
against the loops it replaced.

The two reference classes below keep the earlier ``value`` bodies verbatim:
a running sum from 0 over the set's elements in increasing order.  Every
result must match in value and in type (int, Fraction, float or numpy).
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from approxsub import experiments
from approxsub.adversarial import build_greedy_trap
from approxsub.experiments import run_trap, run_trap_curve
from approxsub.functions import AdditiveFunction, BudgetAdditiveFunction, FunctionInstance
from approxsub.sets import Subset, iter_bits


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class ReferenceAdditive(FunctionInstance):
    kind = "additive"

    def __init__(self, weights):
        self.weights = list(weights)
        self.n = len(self.weights)

    def value(self, s: Subset):
        self._check_ground(s)
        w = self.weights
        total = 0
        for e in iter_bits(s.mask):
            total += w[e]
        return total


class ReferenceBudgetAdditive(FunctionInstance):
    kind = "budget_additive"

    def __init__(self, weights, budget):
        self.weights = list(weights)
        self.n = len(self.weights)
        self.budget = budget

    def value(self, s: Subset):
        self._check_ground(s)
        w = self.weights
        total = 0
        for e in iter_bits(s.mask):
            total += w[e]
        return min(total, self.budget)


# ---------------------------------------------------------------------------
# Seeded weight lists
# ---------------------------------------------------------------------------

def _int(rng):
    return rng.choice([rng.randint(-20, 20), 10**15, -(10**15), 0])


def _fraction(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-5, 5), 1)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _bool(rng):
    return rng.random() < 0.5


def _float(rng):
    return rng.choice([rng.uniform(-3, 3), 0.1, 1e15, 0.5])


def _numpy_int(rng):
    return np.int64(rng.randint(-20, 20))


# The exact profiles take the integer kernel; the others must keep the
# ordered running sum, including its float rounding.
PROFILES = {
    "int": [_int],
    "int-bool": [_int, _bool],
    "fraction": [_fraction],
    "exact": [_int, _bool, _fraction],
    "float": [_float],
    "int-float": [_int, _float],
    "exact-float": [_int, _bool, _fraction, _float],
    "numpy": [_numpy_int, _int, _bool],
    "all": [_int, _bool, _fraction, _float, _numpy_int],
}


def weights_for(profile, n, seed):
    rng = random.Random(f"{profile}-{n}-{seed}")
    makers = PROFILES[profile]
    return [rng.choice(makers)(rng) for _ in range(n)]


BUDGETS = [0, 7, 10**15, Fraction(13, 4), Fraction(3, 1), 2.5, 1e16]


def assert_same(new, old):
    assert new == old
    assert type(new) is type(old)


def masks_for(n, seed):
    if n <= 10:
        return range(1 << n)
    rng = random.Random(seed)
    masks = [0, (1 << n) - 1, 1, 1 << (n - 1)]
    masks += [rng.getrandbits(n) for _ in range(150)]
    masks += [sum(1 << e for e in rng.sample(range(n), rng.randint(1, 20))) for _ in range(150)]
    return masks


# (n, seed): every mask at n <= 10, random masks at n = 256.
SIZES = [(n, 0) for n in (1, 2, 3, 5, 8, 10)] + [(256, seed) for seed in range(3)]


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_additive_matches_reference(profile):
    for n, seed in SIZES:
        w = weights_for(profile, n, seed)
        new = AdditiveFunction(w)
        old = ReferenceAdditive(w)
        for mask in masks_for(n, seed):
            s = Subset._raw(n, mask, mask.bit_count())
            assert_same(new.value(s), old.value(s))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_budget_additive_matches_reference(profile):
    for n, seed in SIZES:
        w = weights_for(profile, n, seed)
        for budget in BUDGETS:
            new = BudgetAdditiveFunction(w, budget)
            old = ReferenceBudgetAdditive(w, budget)
            for mask in masks_for(n, seed):
                s = Subset._raw(n, mask, mask.bit_count())
                assert_same(new.value(s), old.value(s))


def test_weight_types_pick_the_result_type():
    f = AdditiveFunction([Fraction(3, 1), 2, True, Fraction(1, 6), 0.25])
    assert_same(f.value(Subset.from_elements([1, 2], 5)), 3)
    assert_same(f.value(Subset.from_elements([0], 5)), Fraction(3))
    assert_same(f.value(Subset.from_elements([0, 3, 4], 5)), 3.4166666666666665)
    g = AdditiveFunction([Fraction(1, 6), Fraction(5, 6), 4, True])
    assert_same(g.value(Subset.from_elements([0, 1], 4)), Fraction(1))
    assert_same(g.value(Subset.from_elements([2, 3], 4)), 5)
    assert_same(g.value(Subset.empty(4)), 0)
    h = BudgetAdditiveFunction([Fraction(1, 2), 1, 1], 2)
    assert_same(h.value(Subset.from_elements([1, 2], 3)), 2)
    assert_same(h.value(Subset.full(3)), 2)
    assert_same(h.value(Subset.from_elements([0, 1], 3)), Fraction(3, 2))


# ---------------------------------------------------------------------------
# The trap experiment, end to end
# ---------------------------------------------------------------------------

def traced_run(monkeypatch, fn, *args, reference=False):
    """Run ``fn`` and record every greedy run's chosen set, trace and query
    count; with ``reference``, the trap evaluates through the old loop."""
    greedy = experiments.greedy_cardinality
    runs = []

    def build(k, beta, n):
        trap = build_greedy_trap(k, beta, n)
        if reference:
            trap.f = ReferenceAdditive(trap.f.weights)
        return trap

    def record(F, n, k):
        assert isinstance(F.fn.f, ReferenceAdditive) == reference
        res = greedy(F, n, k)
        runs.append((res.chosen.mask, res.trace, res.queries_used, res.value, type(res.value)))
        return res

    with monkeypatch.context() as m:
        m.setattr(experiments, "build_greedy_trap", build)
        m.setattr(experiments, "greedy_cardinality", record)
        return fn(*args), runs


def test_run_trap_matches_reference(monkeypatch):
    for n in range(64, 257, 2):
        (rows, summary), runs = traced_run(monkeypatch, run_trap, 16, 0.5, n)
        ref, ref_runs = traced_run(monkeypatch, run_trap, 16, 0.5, n, reference=True)
        assert (rows, summary) == ref
        assert runs == ref_runs


def test_run_trap_curve_matches_reference(monkeypatch):
    rows, runs = traced_run(monkeypatch, run_trap_curve, [16, 64])
    ref_rows, ref_runs = traced_run(monkeypatch, run_trap_curve, [16, 64], reference=True)
    assert rows == ref_rows
    assert runs == ref_runs
    assert [r["queries"] for r in rows] == [run[2] for run in runs]
