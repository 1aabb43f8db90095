from fractions import Fraction

import pytest

from approxsub.functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    CoverageFunction,
    SumFunction,
    curvature,
    instance_from_dict,
    instance_to_dict,
    marginal,
)
from approxsub.sets import Subset
from approxsub.verify import check_monotone, check_submodular


def test_coverage_union_is_universe():
    # covers {1,2} and {2,3} over universe {1,2,3}, relabeled to 0-based
    f = CoverageFunction(3, [[0, 1], [1, 2]])
    assert f.value(Subset.from_elements([0, 1], 2)) == 3
    assert f.value(Subset.from_elements([0], 2)) == 2
    assert f.value(Subset.empty(2)) == 0


def test_budget_additive_cap_binds():
    f = BudgetAdditiveFunction([1, 1, 1, 1], 2.5)
    assert f.value(Subset.from_elements([0, 1, 2], 4)) == 2.5
    assert f.value(Subset.from_elements([0, 1], 4)) == 2


def test_concave_cardinality_formula():
    # G(x) = min(x, x h/n + alpha (1 - h/n)) with n=100, h=25, alpha=5
    n, h, alpha = 100, 25, 5
    cap = Fraction(alpha * (n - h), n)
    table = [min(i, Fraction(i * h, n) + cap) for i in range(n + 1)]
    g = ConcaveCardinalityFunction(table)
    s = Subset.from_elements(range(12), n)
    assert g.value(s) == Fraction(27, 4)  # min(12, 6.75)


def test_concave_table_validation():
    with pytest.raises(ValueError):
        ConcaveCardinalityFunction([0, 2, 1])  # decreasing
    with pytest.raises(ValueError):
        ConcaveCardinalityFunction([0, 1, 3])  # convex corner


def test_sum_function():
    f = SumFunction([AdditiveFunction([1, 2]), BudgetAdditiveFunction([1, 1], 1)])
    assert f.value(Subset.from_elements([0, 1], 2)) == 4
    with pytest.raises(ValueError):
        SumFunction([AdditiveFunction([1]), AdditiveFunction([1, 2])])


def test_marginal_additive():
    f = AdditiveFunction([1, 2, 3])
    assert marginal(f, Subset.empty(3), 1) == 2


def test_marginal_coverage():
    f = CoverageFunction(3, [[0, 1], [1, 2]])
    assert marginal(f, Subset.from_elements([0], 2), 1) == 1


def test_marginal_saturated_budget():
    f = BudgetAdditiveFunction([2, 2, 2], 2)
    assert marginal(f, Subset.from_elements([0], 3), 1) == 0


def test_marginal_rejects_member():
    f = AdditiveFunction([1, 2])
    with pytest.raises(ValueError):
        marginal(f, Subset.from_elements([1], 2), 1)


def test_curvature_additive_is_zero():
    assert curvature(AdditiveFunction([3, 1, 4, 1, 5])) == 0


def test_curvature_identical_covers_is_one():
    f = CoverageFunction(2, [[0, 1]] * 3)
    assert curvature(f) == 1


def test_curvature_half():
    f = CoverageFunction(3, [[0, 1], [1, 2]])
    assert curvature(f) == Fraction(1, 2)


def test_curvature_undefined_on_zero_singleton():
    with pytest.raises(ValueError):
        curvature(AdditiveFunction([0, 1]))


def _zoo(n):
    cap = Fraction(3 * n, 4)
    table = [min(i, Fraction(i, 2) + 2) for i in range(n + 1)]
    return [
        AdditiveFunction(list(range(1, n + 1))),
        BudgetAdditiveFunction([2] * n, cap),
        CoverageFunction(2 * n, [[i, (2 * i + 1) % (2 * n), (3 * i + 2) % (2 * n)] for i in range(n)]),
        ConcaveCardinalityFunction(table),
        SumFunction([AdditiveFunction([1] * n), BudgetAdditiveFunction(list(range(1, n + 1)), 7)]),
    ]


@pytest.mark.parametrize("n", [6, 9, 12])
def test_zoo_is_monotone_submodular(n):
    for inst in _zoo(n):
        assert check_submodular(inst, n).passed, inst.kind
        assert check_monotone(inst, n).passed, inst.kind


def test_marginal_dominates_curvature_floor():
    # For submodular f and any S, a not in S: marginal >= (1 - c) f({a}).
    n = 8
    f = CoverageFunction(2 * n, [[i, (2 * i + 1) % (2 * n), (3 * i + 2) % (2 * n)] for i in range(n)])
    c = curvature(f)
    for mask in range(1 << n):
        s = Subset(n, mask)
        for a in range(n):
            if s.contains(a):
                continue
            single = f.value(Subset(n, 1 << a))
            assert marginal(f, s, a) >= (1 - c) * single


@pytest.mark.parametrize("inst", _zoo(5))
def test_serialization_round_trip(inst):
    d = instance_to_dict(inst)
    back = instance_from_dict(d)
    for mask in range(1 << 5):
        s = Subset(5, mask)
        assert back.value(s) == inst.value(s)
    assert instance_to_dict(back) == d


def test_serialization_integer_weights_lossless():
    f = AdditiveFunction([10**15, 3, 7])
    back = instance_from_dict(instance_to_dict(f))
    assert back.weights == f.weights


def test_serialization_fraction_weights():
    f = AdditiveFunction([Fraction(1, 64), 2])
    back = instance_from_dict(instance_to_dict(f))
    assert back.weights == [Fraction(1, 64), 2]
    assert isinstance(back.weights[0], Fraction)


def test_serialization_unknown_kind():
    with pytest.raises(ValueError):
        instance_from_dict({"kind": "mystery"})
    for kind in (None, ["additive"], {"a": 1}):
        with pytest.raises(ValueError, match="unknown instance kind"):
            instance_from_dict({"kind": kind, "weights": [1]})


_ADDITIVE = {"kind": "additive", "weights": [1, 2]}


@pytest.mark.parametrize("d", [
    {**_ADDITIVE, "budget": 3},  # once built an additive function and dropped the budget
    {**_ADDITIVE, "weigths": [1]},
    {"kind": "budget_additive", "weights": [1, 2], "budget": 2, "cap": 1},
    {"kind": "coverage", "universe_size": 2, "covers": [[0], [1]], "weights": [1, 2]},
    {"kind": "concave_cardinality", "table": [0, 1, 1], "n": 2},
    {"kind": "sum", "terms": [_ADDITIVE], "weights": [1, 2]},
    {"kind": "sum", "terms": [_ADDITIVE, {"kind": "coverage", "universe_size": 2,
                                          "covers": [[0], [1]], "weights": [1, 2]}]},
])
def test_instance_rejects_stray_keys(d):
    with pytest.raises(ValueError, match="unknown keys in an instance"):
        instance_from_dict(d)


@pytest.mark.parametrize("d", [
    # the stray key was once ignored and the weight read as 1/2
    {"kind": "additive", "weights": [{"num": 1, "den": 2, "dne": 7}, 1]},
    {"kind": "additive", "weights": [{"num": 1}]},
    {"kind": "budget_additive", "weights": [1], "budget": {"num": 1, "den": 2, "n": 1}},
    {"kind": "concave_cardinality", "table": [0, {"den": 1}]},
])
def test_number_objects_need_exactly_num_and_den(d):
    with pytest.raises(ValueError, match="exactly the keys 'num' and 'den'"):
        instance_from_dict(d)

