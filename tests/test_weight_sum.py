"""The integer weight-sum kernel of the additive and budget-additive functions
against the loops it replaced.

The two reference classes below keep the earlier ``value`` bodies verbatim:
a running sum from 0 over the set's elements in increasing order.  Every
result must match in value and in type (int, Fraction, float or numpy), on
both of the kernel's branches: the walk over a set's bits and the sum over
weight classes.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from approxsub import experiments
from approxsub.adversarial import (
    HardPairParams, SandwichFunction, build_greedy_trap, build_monotone_pair, draw_hidden_set,
)
from approxsub.experiments import run_trap, run_trap_curve
from approxsub.functions import (
    AdditiveFunction, BudgetAdditiveFunction, SumFunction, _mask_of, _WeightSum,
)
from approxsub.sets import Subset, ValueOracle, iter_bits
from approxsub.verify import check_sandwich, check_submodular


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class ReferenceAdditive(ValueOracle):
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


class ReferenceBudgetAdditive(ValueOracle):
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


# ---------------------------------------------------------------------------
# Few distinct weights: the class branch
# ---------------------------------------------------------------------------

def _membership(n, seed):
    params = HardPairParams(n, n // 2, 1, 1, 0.3)
    return build_monotone_pair(params, draw_hidden_set(n, n // 2, seed)).fh.terms[0].weights


def _trap_weights(n):
    b = (n - 2) // 2
    return [2] * (n - 2 * b) + [Fraction(1, n)] * b + [1] * b


FEW_CLASSES = {
    "membership": _membership,
    "off-membership": lambda n, seed: [1 - m for m in _membership(n, seed)],
    "trap": lambda n, seed: _trap_weights(n),
    "zeros": lambda n, seed: [0] * n,
    "fraction-zeros": lambda n, seed: [Fraction(0)] * (n - 1) + [Fraction(1, 3)],
}


def few_class_masks(n, seed):
    """Every mask at n <= 10; else the random masks plus masks of 0 to 5
    elements, so popcounts fall on both sides of the class count."""
    masks = list(masks_for(n, seed))
    if n > 10:
        rng = random.Random(seed)
        masks += [_mask_of(rng.sample(range(n), size), n) for size in range(6) for _ in range(20)]
    return masks


def walk_only(weights):
    """The same kernel with its classes removed: it always walks the bits."""
    ws = _WeightSum(weights)
    ws.classes = None
    return ws


@pytest.mark.parametrize("profile", sorted(FEW_CLASSES))
def test_few_classes_match_reference(profile):
    for n, seed in SIZES[1:]:
        w = FEW_CLASSES[profile](n, seed)
        new, old = AdditiveFunction(w), ReferenceAdditive(w)
        budgets = [BudgetAdditiveFunction(w, b) for b in (1, Fraction(7, 2))]
        ref_budgets = [ReferenceBudgetAdditive(w, b) for b in (1, Fraction(7, 2))]
        classes, walk = new._sum, walk_only(w)
        assert classes.classes is not None and len(classes.classes) <= 3
        sides = set()
        for mask in few_class_masks(n, seed):
            s = Subset._raw(n, mask, mask.bit_count())
            assert_same(new.value(s), old.value(s))
            assert_same(walk(mask), old.value(s))
            for f, ref in zip(budgets, ref_budgets):
                assert_same(f.value(s), ref.value(s))
            class_total = sum(t * (mask & c).bit_count() for t, c in classes.classes)
            assert class_total == sum(classes.terms[e] for e in iter_bits(mask))
            sides.add(mask.bit_count() > len(classes.classes))
        assert sides == {True, False}


def test_class_masks_match_the_sum_expression():
    for profile in sorted(PROFILES) + sorted(FEW_CLASSES):
        for n, seed in SIZES[1:] if profile in FEW_CLASSES else SIZES:
            w = (FEW_CLASSES[profile](n, seed) if profile in FEW_CLASSES
                 else weights_for(profile, n, seed))
            ws = _WeightSum(w)
            if ws.den is None:
                assert ws.classes is None
                continue
            assert ws.frac_mask == sum(1 << e for e, x in enumerate(w) if type(x) is Fraction)
            values = {t for t in ws.terms if t}
            if len(values) > 64:
                assert ws.classes is None
                continue
            assert sorted(t for t, _ in ws.classes) == sorted(values)
            for t, c in ws.classes:
                assert c == sum(1 << e for e, x in enumerate(ws.terms) if x == t)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 1000])
def test_mask_of_matches_the_sum_expression(n):
    rng = random.Random(n)
    for size in sorted({0, min(1, n), n // 2, n}):
        elements = sorted(rng.sample(range(n), size))
        assert _mask_of(elements, n) == sum(1 << e for e in elements)
        assert _mask_of(iter(elements), n) == sum(1 << e for e in elements)


def test_many_classes_walk_the_bits():
    w = list(range(-40, 40))
    f = AdditiveFunction(w)
    assert f._sum.classes is None
    for mask in masks_for(len(w), 0):
        s = Subset._raw(len(w), mask, mask.bit_count())
        assert_same(f.value(s), ReferenceAdditive(w).value(s))


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
        assert isinstance(F.f, ReferenceAdditive) == reference
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


# ---------------------------------------------------------------------------
# The exhaustive checkers on the monotone hard-pair sandwich
# ---------------------------------------------------------------------------

def _report(rep):
    """A report's fields, with each witness value's type beside it."""
    cx = rep.counterexample
    if cx is not None:
        cx = tuple((x.mask, x.n) if isinstance(x, Subset) else (x, type(x)) for x in cx)
    return rep.property_name, rep.instance, rep.passed, cx, rep.examined


@pytest.mark.parametrize("n", [4, 8, 10, 12])
def test_sandwich_checks_match_reference(n):
    params = HardPairParams(n, n // 2, 2, 2 if n < 8 else 3, 0.3)
    for seed in range(3):
        pair = build_monotone_pair(params, draw_hidden_set(n, params.h, seed))
        add, budget = pair.fh.terms
        assert isinstance(add, AdditiveFunction) and isinstance(budget, BudgetAdditiveFunction)
        ref_fh = SumFunction([ReferenceAdditive(add.weights),
                              ReferenceBudgetAdditive(budget.weights, budget.budget)])
        for eps in (0.3, 0.05):
            new = SandwichFunction(pair.fh, pair.g, eps)
            old = SandwichFunction(ref_fh, pair.g, eps)
            for fn, ref in ((new, old), (pair.fh, ref_fh)):
                for against in (0.3, 0.01):
                    assert _report(check_sandwich(fn, pair.fh, against, n)) == \
                        _report(check_sandwich(ref, ref_fh, against, n))
                assert _report(check_submodular(fn, n)) == _report(check_submodular(ref, n))
