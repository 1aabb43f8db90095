"""Whole exact tables (``ValueOracle.exact_table``) and the checkers that
read them.

A table must equal ``value()`` on every mask, and the kinds that cannot give
one exactly must return None.  The checkers are compared with verbatim
copies of the per-mask code they replaced (``reference_*`` below): reports
must be equal, witnesses included, and ``run_sampling_validation`` must give
equal rows and summary.  ``check_monotone``'s strided views are also compared
with ``previous_check_monotone``, the gather loop over exact tables they
replaced.  The checkers are also compared with their ``parent_*`` copies from
before ``exact_table`` lost its ground-set argument, and ``check_sandwich``
with ``subset_check_sandwich``, its loop before the integer band test; the deleted helpers the
references read (``_tables``, ``_exact_int_table``, ``Band.scaled``, the
inconsistent-noise source and its estimator) are kept verbatim in ``conftest``,
and the deleted ``Band.float_holds`` inline in the sampling reference.
"""

import copy
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import approxsub.cli as cli
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
from approxsub.experiments import (
    instance_corpus,
    run_sampling_validation,
    run_trap,
    sampling_union_bound,
)
from approxsub.functions import (
    TABLE_LIMIT,
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    CoverageFunction,
    SumFunction,
    instance_from_dict,
    config_int,
    instance_to_dict,
    int_table,
)
from approxsub.noise import ConsistentNoiseOracle, SamplingEstimator, required_samples
from approxsub.sets import Subset, ValueOracle
from approxsub.solvers import expected_greedy_queries, greedy_cardinality
from approxsub.verify import (
    CheckReport,
    _check_ground,
    _describe,
    _marginal_rises,
    _table_of,
    check_monotone,
    check_sandwich,
    check_submodular,
    tabulate,
)
from conftest import (
    EDGE_TABLES,
    TOP,
    InconsistentNoiseOracle,
    ReferenceSamplingEstimator,
    TableFunction,
    _exact_int_table,
    _tables,
    band_scaled,
    coverage_table,
    value_tables,
)

# ---------------------------------------------------------------------------
# The generic per-mask checkers, verbatim as they stood before the tables.
# ---------------------------------------------------------------------------


def reference_check_submodular(fn, n: int) -> CheckReport:
    if n > 14:
        raise ValueError(f"exhaustive pair check guarded at n <= 14, got {n}")
    tab, tol = _tables(tabulate(fn, n))
    size = 1 << n
    if tol == 0:  # second differences of values below 2^61 fit in int64
        cube = tab.reshape((2,) * n)
        if all((np.diff(np.diff(cube, axis=i), axis=j) <= 0).all()
               for i in range(n) for j in range(i + 1, n)):
            return CheckReport("submodular", _describe(fn), True, None, size * (size + 1) // 2)
    all_masks = np.arange(size, dtype=np.int64)
    examined = 0
    for s in range(size):
        ts = all_masks[s:]
        lhs = tab[s | ts] + tab[s & ts]
        rhs = tab[s] + tab[ts]
        bad = np.nonzero(lhs > rhs + tol)[0]
        examined += ts.size
        if bad.size:
            t = s + int(bad[0])
            cx = (Subset(n, s), Subset(n, t))
            return CheckReport("submodular", _describe(fn), False, cx, examined)
    return CheckReport("submodular", _describe(fn), True, None, examined)


def reference_check_monotone(fn, n: int) -> CheckReport:
    if n > 20:
        raise ValueError(f"exhaustive extension check guarded at n <= 20, got {n}")
    tab, tol = _tables(tabulate(fn, n))
    all_masks = np.arange(1 << n, dtype=np.int64)
    examined = 0
    for a in range(n):
        bit = 1 << a
        without = all_masks[(all_masks & bit) == 0]
        drops = np.nonzero(tab[without | bit] < tab[without] - tol)[0]
        examined += without.size
        if drops.size:
            s = int(without[drops[0]])
            cx = (Subset(n, s), a)
            return CheckReport("monotone", _describe(fn), False, cx, examined)
    return CheckReport("monotone", _describe(fn), True, None, examined)


def previous_check_monotone(fn, n: int) -> CheckReport:
    """Verbatim as it stood before the strided views: a gather per element."""
    if n > 20:
        raise ValueError(f"exhaustive extension check guarded at n <= 20, got {n}")
    tab, tol = _table_of(fn, n)
    all_masks = np.arange(1 << n, dtype=np.int64)
    examined = 0
    for a in range(n):
        bit = 1 << a
        without = all_masks[(all_masks & bit) == 0]
        drops = np.nonzero(tab[without | bit] < tab[without] - tol)[0]
        examined += without.size
        if drops.size:
            s = int(without[drops[0]])
            cx = (Subset(n, s), a)
            return CheckReport("monotone", _describe(fn), False, cx, examined)
    return CheckReport("monotone", _describe(fn), True, None, examined)


def reference_check_sandwich(
    F, f, epsilon: float, n: int, mode: str = "exhaustive",
    trials: int | None = None, seed: int | None = None,
) -> CheckReport:
    name = "sandwich"
    desc = f"{_describe(F)} vs {_describe(f)} @ eps={epsilon}"
    band = Band(float(epsilon))
    if mode == "exhaustive":
        if n > 20:
            raise ValueError(f"exhaustive sandwich check guarded at n <= 20, got {n}")
        masks = range(1 << n)
        total = 1 << n
    elif mode == "sampled":
        if not trials or seed is None:
            raise ValueError("sampled mode needs trials and seed")
        rng = random.Random(seed)
        masks = (rng.getrandbits(n) for _ in range(trials))
        total = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    examined = 0
    for m in masks:
        s = Subset._raw(n, m, m.bit_count())
        Fv = F.value(s)
        fv = f.value(s)
        exact = isinstance(Fv, (int, Fraction)) and isinstance(fv, (int, Fraction))
        examined += 1
        if not (band.holds(Fv, fv) if exact else band.near(Fv, fv)):
            return CheckReport(name, desc, False, (s, Fv, fv), examined)
    assert examined == total
    return CheckReport(name, desc, True, None, examined)


def reference_run_sampling_validation(
    f, epsilon: float, confidence_constant: float, trials: int,
    seed: int = 0, k: int = 4, width: float = 0.5,
    family: str = "uniform-relative",
) -> tuple[list[dict], dict]:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    n = f.n
    vals = [f.value(Subset._raw(n, m_, m_.bit_count())) for m_ in range(1, 1 << n)]
    b, B = float(min(vals)), float(max(vals))
    m = required_samples(B, b, n, epsilon, confidence_constant)
    band = Band(float(epsilon))
    rows = []
    trials_violating = 0
    n_sets = expected_greedy_queries(n, k)
    rel_b = 1.0 if family == "uniform-relative" else b
    prediction = sampling_union_bound(n_sets, m, epsilon, width, rel_b)
    for t in range(trials):
        source = InconsistentNoiseOracle(f, family, width, seed + t)
        est = ReferenceSamplingEstimator(source, m)
        greedy_cardinality(est, k)
        violations = 0
        for mk in est.cached_sets():
            s = Subset._raw(n, mk, mk.bit_count())
            F, fv = est.value(s), f.value(s)
            if not float(band.lo * fv) <= F <= float(band.hi * fv):  # Band.float_holds, verbatim
                violations += 1
        if violations:
            trials_violating += 1
        rows.append({
            "experiment": "sample", "n": n, "k": k, "h": "", "alpha": "",
            "beta": "", "epsilon": epsilon, "seed": seed + t,
            "solver": f"estimator(m={m},{family},w={width})",
            "value": violations, "baseline": n_sets,
            "ratio": violations / n_sets, "bound": prediction,
            "queries": source.query_count, "band_escapes": violations,
        })
    summary = {
        "m": m, "trials": trials, "queried_sets_per_trial": n_sets,
        "violating_trials": trials_violating,
        "violating_fraction": trials_violating / trials if trials else 0.0,
        "prediction": prediction,
        "confidence_constant": confidence_constant,
    }
    return rows, summary


def assert_same_report(got: CheckReport, ref: CheckReport):
    assert got == ref
    if got.property_name == "sandwich" and got.counterexample is not None:
        # The witness values keep the types their own value() gives.
        assert [type(v) for v in got.counterexample] == [type(v) for v in ref.counterexample]


# ---------------------------------------------------------------------------
# The checkers as they stood when each function kind had its own
# ``exact_table(n)``, verbatim but for the ``parent_`` names.  The helper they
# called read ``fn.exact_table(n)``, None for any n but fn's own ground set;
# ``parent_exact_table`` keeps that rule over the argument-free method.  Both
# it and ``subset_check_sandwich`` below read the pair ``(T, D)`` that
# ``exact_table()`` returned then, which ``table_pair`` rebuilds from the
# table and ``den``.
# ---------------------------------------------------------------------------

def table_pair(fn):
    T = fn.exact_table()
    return None if T is None else (T, fn.den)


def parent_exact_table(fn, n: int):
    table = getattr(fn, "exact_table", None)
    return None if table is None or n != fn.n else table_pair(fn)


def parent_table_of(fn, n: int):
    """(table, tolerance) for the exhaustive checkers: fn's exact table with
    zero tolerance when it has one, else :func:`_tables` of its values."""
    exact = parent_exact_table(fn, n)
    if exact is not None:
        return exact[0], 0
    return _tables(tabulate(fn, n))


def parent_check_submodular(fn, n: int) -> CheckReport:
    """Exhaustively test value(S|T) + value(S&T) <= value(S) + value(T) over
    all mask pairs S <= T; reports the lexicographically smallest violation.
    ``examined`` is all 2^n (2^n + 1) / 2 pairs on a pass, else the pairs the
    scan compared through the witness's row.

    An exact table passes on the local certificate: n - 1 first-difference
    arrays of 2^(n-1) int64 values, one alive at a time, and n (n - 1) / 2
    strided comparisons of their halves."""
    if n > 14:
        raise ValueError(f"exhaustive pair check guarded at n <= 14, got {n}")
    tab, tol = parent_table_of(fn, n)
    size = 1 << n
    if tol == 0 and not any(_marginal_rises(tab, n, b) for b in range(n - 1)):
        return CheckReport("submodular", _describe(fn), True, None, size * (size + 1) // 2)
    all_masks = np.arange(size, dtype=np.int64)
    examined = 0
    for s in range(size):
        ts = all_masks[s:]
        lhs = tab[s | ts] + tab[s & ts]
        rhs = tab[s] + tab[ts]
        bad = np.nonzero(lhs > rhs + tol)[0]
        examined += ts.size
        if bad.size:
            t = s + int(bad[0])
            cx = (Subset(n, s), Subset(n, t))
            return CheckReport("submodular", _describe(fn), False, cx, examined)
    return CheckReport("submodular", _describe(fn), True, None, examined)


def parent_check_monotone(fn, n: int) -> CheckReport:
    """Test value(S + a) >= value(S) for every set and missing element;
    sufficient for monotonicity by transitivity.  For each element a one
    strided view of the table pairs every mask without a, in increasing
    order, with its extension; the pass holds one array of 2^(n-1) values at
    a time, and the first drop is the smallest such mask.  ``examined``
    counts 2^(n-1) sets per element tested."""
    if n > 20:
        raise ValueError(f"exhaustive extension check guarded at n <= 20, got {n}")
    tab, tol = parent_table_of(fn, n)
    for a in range(n):
        v = tab.reshape(-1, 2, 1 << a)
        drops = v[:, 1] < v[:, 0] - tol
        if drops.any():
            i = int(drops.argmax())  # row-major: the smallest mask without a
            s = (i >> a) << (a + 1) | i & ((1 << a) - 1)
            cx = (Subset(n, s), a)
            return CheckReport("monotone", _describe(fn), False, cx, (a + 1) << (n - 1))
    return CheckReport("monotone", _describe(fn), True, None, n * (1 << n) // 2)


def parent_check_sandwich(
    F, f, epsilon: float, n: int, mode: str = "exhaustive",
    trials: int | None = None, seed: int | None = None,
) -> CheckReport:
    """Test (1 - eps) f(S) <= F(S) <= (1 + eps) f(S).

    ``mode='exhaustive'`` visits all subsets (n <= 20) and reads each side
    from its exact table when it has one; ``mode='sampled'`` draws ``trials``
    uniform subsets with the given seed.  Comparisons are exact whenever both
    functions return rationals, otherwise float with a 1e-12 relative slack
    for noise paths.  A witness carries both sides' own ``value()``.
    """
    name = "sandwich"
    desc = f"{_describe(F)} vs {_describe(f)} @ eps={epsilon}"
    band = Band(float(epsilon))
    F_tab = f_tab = None
    if mode == "exhaustive":
        if n > 20:
            raise ValueError(f"exhaustive sandwich check guarded at n <= 20, got {n}")
        masks = range(1 << n)
        total = 1 << n
        F_tab, f_tab = parent_exact_table(F, n), parent_exact_table(f, n)
    elif mode == "sampled":
        if trials is None or not trials >= 1 or seed is None:
            raise ValueError(f"sampled mode needs trials >= 1 and a seed, got trials={trials}")
        rng = random.Random(seed)
        masks = (rng.getrandbits(n) for _ in range(trials))
        total = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # A side read from its table is the Python int D * value; the band's ints
    # absorb each side's D (see band_scaled), so the test stays exact.
    F_den, f_den = F_tab[1] if F_tab else 1, f_tab[1] if f_tab else 1
    exact_band = band_scaled(band, F_den, f_den)
    F_ints = F_tab[0].tolist() if F_tab else None
    f_ints = f_tab[0].tolist() if f_tab else None
    examined = 0
    for m in masks:
        s = Subset._raw(n, m, m.bit_count())
        Fv = F.value(s) if F_ints is None else F_ints[m]
        fv = f.value(s) if f_ints is None else f_ints[m]
        examined += 1
        if isinstance(Fv, (int, Fraction)) and isinstance(fv, (int, Fraction)):
            if exact_band.holds(Fv, fv):
                continue
        elif band.near(Fv if F_ints is None else Fraction(Fv, F_den),
                       fv if f_ints is None else Fraction(fv, f_den)):
            continue
        # The witness carries each side's own value(), types included.
        if F_ints is not None:
            Fv = F.value(s)
        if f_ints is not None:
            fv = f.value(s)
        return CheckReport(name, desc, False, (s, Fv, fv), examined)
    assert examined == total
    return CheckReport(name, desc, True, None, examined)


# ---------------------------------------------------------------------------
# The sandwich checker as it stood when its loop built a Subset per set and
# read F's tabulated values through a second isinstance, verbatim but for the
# name and ``table_pair``.
# ---------------------------------------------------------------------------

def subset_check_sandwich(
    F: ValueOracle, f: ValueOracle, epsilon: float, n: int, mode: str = "exhaustive",
    trials: int | None = None, seed: int | None = None,
) -> CheckReport:
    """Test (1 - eps) f(S) <= F(S) <= (1 + eps) f(S).

    ``mode='exhaustive'`` visits all subsets (n <= 20), reading F through
    :func:`tabulate` (a sandwich's own table would make the band choice
    under test) and f from its exact table when it has one; a failing check
    has evaluated F on every set.  ``mode='sampled'`` draws ``trials``
    uniform subsets with the given seed.  Comparisons are exact whenever both
    functions return rationals, otherwise float with a 1e-12 relative slack
    for noise paths.  A witness carries both sides' own ``value()``.
    """
    _check_ground(n, F, f)
    name = "sandwich"
    desc = f"{_describe(F)} vs {_describe(f)} @ eps={epsilon}"
    band = Band(float(epsilon))
    F_vals = f_tab = None
    if mode == "exhaustive":
        if n > 20:
            raise ValueError(f"exhaustive sandwich check guarded at n <= 20, got {n}")
        masks = range(1 << n)
        total = 1 << n
        F_vals, f_tab = tabulate(F, n), table_pair(f)
    elif mode == "sampled":
        if trials is None or not config_int(trials, "trials") >= 1 or seed is None:
            raise ValueError(f"sampled mode needs trials >= 1 and a seed, got trials={trials}")
        rng = random.Random(config_int(seed, "seed"))
        masks = (rng.getrandbits(n) for _ in range(trials))
        total = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # f read from its table is the Python int D * value; the band's ints
    # absorb D (see band_scaled), so the test stays exact.
    f_den = f_tab[1] if f_tab else 1
    exact_band = band_scaled(band, 1, f_den)
    f_ints = f_tab[0].tolist() if f_tab else None
    examined = 0
    for m in masks:
        s = Subset._raw(n, m, m.bit_count())
        Fv = F.value(s) if F_vals is None else F_vals[m]
        fv = f.value(s) if f_ints is None else f_ints[m]
        examined += 1
        if isinstance(Fv, (int, Fraction)) and isinstance(fv, (int, Fraction)):
            if exact_band.holds(Fv, fv):
                continue
        elif band.near(Fv, fv if f_ints is None else Fraction(fv, f_den)):
            continue
        # The witness carries f's own value(), types included.
        if f_ints is not None:
            fv = f.value(s)
        return CheckReport(name, desc, False, (s, Fv, fv), examined)
    assert examined == total
    return CheckReport(name, desc, True, None, examined)


# ---------------------------------------------------------------------------
# One strategy for random exact instances of all five kinds
# ---------------------------------------------------------------------------

EXACT_TYPES = (int, bool, Fraction)


def numbers(lo, inexact):
    """int, bool, Fraction (integral ones too), with one draw in 16 taken
    from ``inexact`` instead when it is not empty."""
    fractions = st.fractions(min_value=lo, max_value=20, max_denominator=12)
    exact = st.one_of(st.integers(lo, 20), st.booleans(), st.integers(lo, 20).map(Fraction),
                      fractions, fractions)
    if not inexact:
        return exact
    return st.integers(0, 15).flatmap(lambda r: st.sampled_from(inexact) if r == 0 else exact)


@st.composite
def instances(draw, n, inexact=(0.5, 2.0, np.int64(3)), depth=2):
    """(instance, whether it must have an exact table) over n elements.
    Budgets are drawn nonnegative: the constructor rejects negative ones."""
    kinds = ["additive", "budget_additive", "coverage", "concave_cardinality"]
    kind = draw(st.sampled_from(kinds + ["sum"] * (depth > 0)))
    if kind == "sum":
        parts = draw(st.lists(instances(n, inexact, depth - 1), min_size=1, max_size=3))
        return SumFunction([p for p, _ in parts]), all(ok for _, ok in parts)
    if kind == "coverage":
        universe = draw(st.sampled_from([1, 5, 63, 64, 70]))
        covers = draw(st.lists(st.lists(st.integers(0, universe - 1), max_size=4),
                               min_size=n, max_size=n))
        return CoverageFunction(universe, covers), universe <= 63
    if kind == "concave_cardinality":
        # An inexact table is an int table converted whole: float rounding of
        # mixed entries could break the concavity the constructor checks.
        convert = draw(st.sampled_from([None] * 7 + [type(v) for v in inexact]))
        start = draw(numbers(-20, ()) if convert is None else st.integers(-20, 20))
        steps = draw(st.lists(numbers(0, ()) if convert is None else st.integers(0, 20),
                              min_size=n, max_size=n))
        table = [start]
        for d in sorted(steps, reverse=True):
            table.append(table[-1] + d)
        if convert is not None:
            table = [convert(v) for v in table]
        return ConcaveCardinalityFunction(table), convert is None
    weights = draw(st.lists(numbers(-20, inexact), min_size=n, max_size=n))
    ok = all(type(w) in EXACT_TYPES for w in weights)
    if kind == "additive":
        return AdditiveFunction(weights), ok
    budget = draw(numbers(0, inexact))
    return BudgetAdditiveFunction(weights, budget), ok and type(budget) in EXACT_TYPES


def sized_instances(inexact=(0.5, 2.0, np.int64(3))):
    return st.integers(1, 6).flatmap(lambda n: instances(n, inexact))


def assert_table_matches(fn, n):
    T, D = fn.exact_table(), fn.den
    assert T.dtype == np.int64 and T.shape == (1 << n,)
    assert type(D) is int and D > 0
    for m in range(1 << n):
        assert fn.value(Subset(n, m)) == Fraction(int(T[m]), D), m


@settings(max_examples=300, deadline=None)
@given(sized_instances())
def test_exact_table_equals_value_on_every_mask(drawn):
    fn, has_table = drawn
    if has_table:
        assert_table_matches(fn, fn.n)
    else:
        assert fn.exact_table() is None


@settings(max_examples=200, deadline=None)
@given(sized_instances(inexact=(0.5, 2.0)))
def test_instance_dict_round_trip(drawn):
    fn, _ = drawn
    d = instance_to_dict(fn)
    back = instance_from_dict(json.loads(json.dumps(d)))
    assert instance_to_dict(back) == d
    for m in range(1 << fn.n):
        s = Subset(fn.n, m)
        v, w = fn.value(s), back.value(s)
        assert v == w and type(v) is type(w)


@pytest.mark.parametrize("node", [5, [1], "additive", None])
def test_from_dict_rejects_non_object_nodes(node):
    with pytest.raises(ValueError, match="JSON object"):
        instance_from_dict({"kind": "sum", "terms": [node]})


# ---------------------------------------------------------------------------
# The 2^61 edge: a table exists exactly while every |entry| stays below it
# ---------------------------------------------------------------------------

EDGE = TABLE_LIMIT


@pytest.mark.parametrize("fn, has_table", [
    # Additive: the extreme entries are the positive and the negative weight sums.
    (AdditiveFunction([EDGE // 2, EDGE // 2 - 1]), True),
    (AdditiveFunction([EDGE // 2, EDGE // 2]), False),
    (AdditiveFunction([-(EDGE // 2), -(EDGE // 2 - 1), EDGE - 1]), True),
    (AdditiveFunction([-(EDGE // 2), -(EDGE // 2), 5]), False),
    # Scaled by D = 3: 3 * (EDGE - 1) / 3 is below, 3 * EDGE / 3 is not.
    (AdditiveFunction([Fraction(EDGE - 1, 3), 0]), True),
    (AdditiveFunction([Fraction(EDGE, 3), 0]), False),
    (ConcaveCardinalityFunction([0, EDGE - 1]), True),
    (ConcaveCardinalityFunction([-EDGE, 0]), False),
    (ConcaveCardinalityFunction([Fraction(-(EDGE - 1), 7), 0, Fraction(1, 7)]), True),
    # Budget-additive: the weight sum is an intermediate, so it bounds too.
    (BudgetAdditiveFunction([EDGE - 1, 0], 5), True),
    (BudgetAdditiveFunction([EDGE // 2, EDGE // 2], 5), False),
    (BudgetAdditiveFunction([1, 2], EDGE - 1), True),
    (BudgetAdditiveFunction([1, 2], EDGE), False),
    # Sum: the terms' bounds add, each scaled to the common denominator.
    (SumFunction([AdditiveFunction([EDGE // 2, 0]), AdditiveFunction([0, EDGE // 2 - 1])]), True),
    (SumFunction([AdditiveFunction([EDGE // 2, 0]), AdditiveFunction([0, EDGE // 2])]), False),
    (SumFunction([AdditiveFunction([Fraction(EDGE // 4, 2), 0]),
                  ConcaveCardinalityFunction([0, Fraction(EDGE // 4 - 1, 3), Fraction(EDGE // 4 - 1, 3)])]), True),
    # An all-zero term at a huge common denominator adds nothing.
    (SumFunction([AdditiveFunction([Fraction(1, 2 ** 70)] * 2), AdditiveFunction([0, 0])]), True),
])
def test_table_falls_back_at_the_edge(fn, has_table):
    n = fn.n
    if has_table:
        assert_table_matches(fn, n)
    else:
        assert fn.exact_table() is None
    # For one-term kinds the generic rescaling draws the line at the same place.
    if not isinstance(fn, (SumFunction, BudgetAdditiveFunction)):
        assert (int_table(tabulate(fn, n)) is not None) == has_table
        assert (_exact_int_table(tabulate(fn, n)) is not None) == has_table
    for check, ref in ((check_submodular, reference_check_submodular),
                       (check_monotone, reference_check_monotone)):
        assert_same_report(check(fn, n), ref(fn, n))


def test_sum_table_is_over_the_lcm_of_its_terms():
    """Terms over the coprime denominators 2, 3, 5 and 7 (nested too)."""
    fn = SumFunction([
        AdditiveFunction([Fraction(1, 2), 1, Fraction(-3, 2)]),
        ConcaveCardinalityFunction([0, Fraction(2, 3), Fraction(4, 3), Fraction(5, 3)]),
        SumFunction([BudgetAdditiveFunction([Fraction(1, 5), 2, True], Fraction(16, 7)),
                     CoverageFunction(4, [[0], [1, 2], [2, 3]])]),
    ])
    assert fn.den == 2 * 3 * 5 * 7
    assert_table_matches(fn, 3)


def test_coverage_universe_edge():
    covers = [[62], [0, 62], [30]]
    assert_table_matches(CoverageFunction(63, covers), 3)
    assert CoverageFunction(64, covers).exact_table() is None


# ---------------------------------------------------------------------------
# Checkers against the generic per-mask code
# ---------------------------------------------------------------------------

def _corpus_cases():
    """Each corpus instance with the next one of the same size (11 per size)."""
    for seed in (0, 1):
        corpus = instance_corpus(seed, sizes=(8, 12))
        for j, fn in enumerate(corpus):
            other = corpus[j - j % 11 + (j + 1) % 11]
            yield pytest.param(seed, fn, other, id=f"{seed}-{j}-{fn.kind}")


@pytest.mark.parametrize("seed, fn, other", _corpus_cases())
def test_corpus_reports_equal_generic(seed, fn, other):
    n = fn.n
    assert fn.exact_table() is not None and other.n == n
    assert_same_report(check_submodular(fn, n), reference_check_submodular(fn, n))
    assert_same_report(check_monotone(fn, n), reference_check_monotone(fn, n))
    # Both sides tabulated (a pass), another instance as F (usually an early
    # failure), and, at n = 8 to keep the hash cost down, a float-valued noisy F.
    cases = [(fn, 0.3), (other, 0.5)] + [(ConsistentNoiseOracle(fn, 0.25, seed), 0.25)] * (n == 8)
    for F, eps in cases:
        assert_same_report(check_sandwich(F, fn, eps, n), reference_check_sandwich(F, fn, eps, n))


@pytest.mark.parametrize("seed", range(6))
def test_hard_pair_sandwiches_equal_generic(seed):
    params = HardPairParams(12, 6, 2, 5, 0.3)
    pair = build_monotone_pair(params, draw_hidden_set(12, params.h, seed))
    sw = build_sandwich(pair)
    eps = params.epsilon
    passed = check_sandwich(sw, pair.fh, eps, 12)
    assert passed.passed
    assert_same_report(passed, reference_check_sandwich(sw, pair.fh, eps, 12))
    failed = check_sandwich(sw, pair.g, eps, 12)
    assert not failed.passed
    assert_same_report(failed, reference_check_sandwich(sw, pair.g, eps, 12))
    # The table on the F side instead, against the untabulated sandwich.
    for F in (pair.fh, pair.g):
        assert_same_report(check_sandwich(F, sw, eps, 12), reference_check_sandwich(F, sw, eps, 12))
    # A float F against g's table, whose denominator is 2: a pass and a failure.
    assert pair.g.den == 2 and pair.g.exact_table() is not None
    for band_eps in (0.25, 0.1):
        noisy = ConsistentNoiseOracle(pair.g, 0.25, seed)
        assert_same_report(check_sandwich(noisy, pair.g, band_eps, 12),
                           reference_check_sandwich(noisy, pair.g, band_eps, 12))
    for fn in (pair.fh, pair.g):
        assert_same_report(check_submodular(fn, 12), reference_check_submodular(fn, 12))
        assert_same_report(check_monotone(fn, 12), reference_check_monotone(fn, 12))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(instances(n), instances(n))),
       st.sampled_from([0.1, 0.5, Fraction(1, 3)]))
def test_random_instances_report_equal_generic(pair, eps):
    (F, _), (f, _) = pair
    n = f.n
    assert_same_report(check_submodular(f, n), reference_check_submodular(f, n))
    assert_same_report(check_monotone(f, n), reference_check_monotone(f, n))
    assert_same_report(check_sandwich(F, f, eps, n), reference_check_sandwich(F, f, eps, n))


@pytest.mark.parametrize("f", [
    CoverageFunction(5, [list(range(5))] * 12),
    instance_corpus(0, sizes=(8,))[2],
    instance_corpus(1, sizes=(8,))[10],
], ids=["default-fixture", "budget-additive", "sum"])
def test_sampling_validation_equals_generic(f):
    for family, width in (("uniform-relative", 0.5), ("additive-bounded", 1.0)):
        kwargs = dict(epsilon=0.1, confidence_constant=3.0, trials=4, seed=7,
                      k=3, width=width, family=family)
        assert run_sampling_validation(f, **kwargs) == reference_run_sampling_validation(f, **kwargs)


# ---------------------------------------------------------------------------
# Checkers against their parent copies
# ---------------------------------------------------------------------------

def assert_checks_equal_parent(F, f, eps, n, sandwich_only=False):
    """Every checker's report on f (and F against f) equals the parent's:
    verdict, ``examined``, witness masks and witness value types."""
    if not sandwich_only:
        if n <= 14:
            assert_same_report(check_submodular(f, n), parent_check_submodular(f, n))
        assert_same_report(check_monotone(f, n), parent_check_monotone(f, n))
    assert_same_report(check_sandwich(F, f, eps, n), parent_check_sandwich(F, f, eps, n))


def _estimator(f, seed):
    return SamplingEstimator(f, "uniform-relative", 0.5, seed, 4)


@pytest.mark.parametrize("j", range(len(instance_corpus(0))))
def test_corpus_checks_equal_parent(j):
    corpus = instance_corpus(0)
    f = corpus[j]
    n = f.n
    other = next(g for g in corpus[j + 1:] + corpus[:j] if g.n == n)
    assert_checks_equal_parent(f, f, 0.3, n)
    assert_checks_equal_parent(other, f, 0.5, n, sandwich_only=True)
    assert_checks_equal_parent(ConsistentNoiseOracle(f, 0.25, j), f, 0.25, n, sandwich_only=True)
    # The estimator is stateful: each side gets a fresh one on the same seed.
    for eps, mode in ((0.3, "exhaustive"), (0.05, "exhaustive"), (0.3, "sampled")):
        kwargs = dict(mode=mode, trials=50, seed=j) if mode == "sampled" else {}
        assert_same_report(check_sandwich(_estimator(f, j), f, eps, n, **kwargs),
                           parent_check_sandwich(_estimator(f, j), f, eps, n, **kwargs))
    if n == 8:  # float tables: the tolerant pair scan
        for F in (ConsistentNoiseOracle(f, 0.25, j), _estimator(f, j)):
            assert_checks_equal_parent(f, F, 0.25, n)


@st.composite
def large_value_tables(draw):
    """value_tables() with exact entries scaled towards 2^61, so that some
    tables reach it and fall back to floats."""
    n, table = draw(value_tables(max_n=8))
    scale = draw(st.sampled_from([1, 2 ** 55, 2 ** 58, 2 ** 60]))
    if scale > 1 and all(isinstance(v, (int, Fraction)) for v in table):
        table = [v * scale for v in table]
    return n, table


@settings(max_examples=150, deadline=None)
@given(st.one_of(value_tables(max_n=8), large_value_tables()),
       st.sampled_from([1, Fraction(13, 10), Fraction(7, 10), 0.9]))
def test_random_tables_check_equal_parent(drawn, factor):
    n, table = drawn
    f = TableFunction(n, table)
    F = TableFunction(n, [v * factor for v in table])
    assert_checks_equal_parent(F, f, 0.25, n)
    assert_checks_equal_parent(f, F, 0.25, n, sandwich_only=True)


@pytest.mark.parametrize("values", [
    [TOP, TOP - 1, 0, TOP],
    [TOP + 1, 0, 1, 2],
    [-(TOP + 1), 0, 0, 0],
    [2 ** 62, 2 ** 61, 2 ** 61, 0],
    [Fraction(TOP, 3), Fraction(1, 3), 0, 0],
    [Fraction(2 ** 61, 3), 0, 0, 1],
])
def test_tables_at_the_limit_check_equal_parent(values):
    f = TableFunction(2, values)
    assert_checks_equal_parent(f, f, 0.25, 2)
    assert_checks_equal_parent(TableFunction(2, [v + 1 for v in values]), f, 0.25, 2,
                               sandwich_only=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", [build_monotone_pair, build_coverage_pair])
def test_hard_pair_sandwiches_check_equal_parent(build, seed):
    params = HardPairParams(12, 5, 2, 5, 0.3)
    pair = build(params, draw_hidden_set(12, params.h, seed))
    sw = build_sandwich(pair)
    eps = params.epsilon
    assert_checks_equal_parent(sw, pair.fh, eps, 12)
    assert_checks_equal_parent(sw, pair.g, eps, 12)
    assert_checks_equal_parent(pair.fh, sw, eps, 12)
    assert_same_report(check_sandwich(sw, pair.fh, eps, 12, mode="sampled", trials=300, seed=seed),
                       parent_check_sandwich(sw, pair.fh, eps, 12, mode="sampled", trials=300,
                                             seed=seed))


@pytest.mark.parametrize("delta", [-1, 1])
def test_checkers_reject_another_ground_set(delta):
    f = instance_corpus(0, sizes=(8,))[0]
    n = f.n + delta
    other = TableFunction(n, [0] * (1 << n))
    for call in (lambda: check_submodular(f, n), lambda: check_monotone(f, n),
                 lambda: check_sandwich(f, f, 0.3, n),
                 lambda: check_sandwich(f, f, 0.3, n, mode="sampled", trials=5, seed=0),
                 lambda: check_sandwich(ConsistentNoiseOracle(f, 0.1, 0), other, 0.3, n)):
        with pytest.raises(ValueError, match="ground set mismatch"):
            call()


def assert_monotone_same(fn, n):
    got = check_monotone(fn, n)
    assert_same_report(got, previous_check_monotone(fn, n))
    return got


@settings(max_examples=100, deadline=None)
@given(value_tables())
def test_monotone_random_tables_equal_previous(drawn):
    n, table = drawn
    assert_monotone_same(TableFunction(n, table), n)


@pytest.mark.parametrize("name,n,table", EDGE_TABLES, ids=[t[0] for t in EDGE_TABLES])
def test_monotone_nudged_tables_equal_previous(name, n, table):
    """Each entry moved by +1 and by -1; flat steps make both verdicts occur."""
    outcomes = {assert_monotone_same(TableFunction(n, table), n).passed}
    for m in range(1 << n):
        for step in (1, -1):
            nudged = list(table)
            nudged[m] += step
            outcomes.add(assert_monotone_same(TableFunction(n, nudged), n).passed)
    assert False in outcomes


@pytest.mark.parametrize("n", [12, 13, 14])
def test_monotone_corpus_equal_previous(n):
    """Every corpus member from its exact table, alone (a pass) and plus a
    negative additive term (failing at various elements)."""
    rng = np.random.default_rng(n)
    verdicts = set()
    for fn in instance_corpus(0, sizes=(n,)):
        weights = [int(w) for w in rng.integers(-12, 1, size=n)]
        for f in (fn, SumFunction([fn, AdditiveFunction(weights)])):
            assert f.exact_table() is not None
            verdicts.add(assert_monotone_same(f, n).passed)
    assert verdicts == {True, False}


def test_monotone_full_magnitude_tables_equal_previous():
    n = 6
    base = coverage_table(n, [0b0011, 0b0110, 0b1100, 0b1001, 0b0101, 0b1111], [1, 2, 1, 3])
    # A monotone table from near -TOP up to exactly TOP, then spoiled.
    table = [TOP - (7 - v) * (2 * TOP // 7) for v in base]
    assert max(base) == 7 and max(table) == TOP and -TOP <= min(table) < 7 - TOP
    assert _table_of(TableFunction(n, table), n)[1] == 0
    assert assert_monotone_same(TableFunction(n, table), n).passed
    for m, v in ((1, TOP), (2, TOP), ((1 << n) - 1, -TOP)):
        nudged = list(table)
        nudged[m] = v
        assert not assert_monotone_same(TableFunction(n, nudged), n).passed
    for seed in range(20):
        signs = np.random.default_rng(seed).choice([-1, 1], size=1 << n)
        assert_monotone_same(TableFunction(n, [int(s) * TOP for s in signs]), n)


class _PrebuiltTable(ValueOracle):
    """Serves a table built beforehand, so a checker's traced memory is only
    its own working memory."""

    kind = "prebuilt"

    def __init__(self, fn, n):
        super().__init__(n)
        self._table, self.den = fn.exact_table(), fn.den

    def exact_table(self):
        return self._table


@pytest.mark.parametrize("check", [check_submodular, check_monotone])
def test_checker_memory_at_n14(check):
    """A pass over an exact n = 14 table (128 KiB) allocates under two tables'
    worth: one 2^13 difference array at a time, plus numpy's fixed 8192-element
    ufunc buffers on strided views.  The gather loop peaked at about 390 KB;
    a stacked (14, 2^13) marginal array alone is 896 KiB."""
    n = 14
    fn = _PrebuiltTable(next(f for f in instance_corpus(0, sizes=(n,))
                             if f.kind == "budget_additive"), n)
    assert check(fn, n).passed
    tracemalloc.start()
    try:
        check(fn, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (1 << n)


# ---------------------------------------------------------------------------
# The trap's band check
# ---------------------------------------------------------------------------

def test_trap_band_check_rejects_rounded_blocks(capsys):
    with pytest.raises(ValueError, match="leaves the band"):
        build_greedy_trap(12, 0.5, 48)  # |A| = 2 rounds 1/(2 eps) = 1.73
    with pytest.raises(ValueError, match="leaves the band"):
        run_trap(12, 0.5, 48)
    build_greedy_trap(16, 0.5, 64)
    for argv in (["trap", "--k", "12", "--n", "48"], ["trap", "--curve", "12"],
                 ["generate", "--construction", "trap", "--k", "12", "--n", "48",
                  "--beta", "0.5"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_rejects_non_object_instance_node(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"kind": "sum", "terms": [5]}))
    assert cli.main(["verify", "--property", "submodular", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: an instance must be a JSON object, got int\n"


# ---------------------------------------------------------------------------
# The sandwich oracle's table, and the sandwich check's F read by value()
# ---------------------------------------------------------------------------

def _pairs(sizes=((8, 4, 2, 3), (10, 5, 2, 4), (12, 6, 2, 5))):
    """One hard pair of each family per (n, h, alpha, k)."""
    for build in (build_monotone_pair, build_coverage_pair):
        for n, h, alpha, k in sizes:
            yield build(HardPairParams(n, h, alpha, k, 0.3), draw_hidden_set(n, h, n))


# Float epsilons, whose q is a large power of two (2^54 at 0.3), and dyadic ones.
SANDWICH_EPS = (0.3, 0.5, 0.125, 0.9, 0.01)


def test_sandwich_table_equals_value_on_every_mask():
    assert Band(0.3).q == 2 ** 54 and Band(0.125).q == 8
    mixed = 0
    for pair in _pairs():
        for eps in SANDWICH_EPS:
            sw = SandwichFunction(pair.fh, pair.g, eps)
            assert_table_matches(sw, sw.n)
            answers = {sw.band.contains(g, fh) for g, fh in zip(tabulate(pair.g, sw.n),
                                                                  tabulate(pair.fh, sw.n))}
            mixed += answers == {True, False}
    assert mixed >= 10  # both answers occur, so the table makes real choices


@pytest.mark.parametrize("fh, g, has_table", [
    # A float weight: fh has no table, so neither has the sandwich; g likewise.
    (AdditiveFunction([0.5, 1]), ConcaveCardinalityFunction([0, 1, 2]), False),
    (AdditiveFunction([1, 1]), ConcaveCardinalityFunction([0, 0.5, 1.0]), False),
    # The pair key fh * span + (g - min g) fits while (max |fh| + 1) * span
    # stays at most 2^63: g's entries 0, 2, 3 span 4, and 0, 2, 4 span 5.
    (AdditiveFunction([EDGE - 1, 0]), ConcaveCardinalityFunction([0, 2, 3]), True),
    (AdditiveFunction([EDGE - 1, 0]), ConcaveCardinalityFunction([0, 2, 4]), False),
    # fh answers on {0}, scaled by g's denominator 2: 2^61 - 2 is below the
    # limit, 2^61 is not.
    (AdditiveFunction([EDGE // 2 - 1, 0]),
     ConcaveCardinalityFunction([0, Fraction(1, 2), Fraction(1, 2)]), True),
    (AdditiveFunction([EDGE // 2, 0]),
     ConcaveCardinalityFunction([0, Fraction(1, 2), Fraction(1, 2)]), False),
    # g answers on every set, scaled by fh's denominator 3: 3 (c + 1) is
    # 2^61 - 2 or 2^61 + 1.
    *[(ConcaveCardinalityFunction([c, c + Fraction(1, 3), c + Fraction(1, 3)]),
       ConcaveCardinalityFunction([c, c + 1, c + 1]), has)
      for c, has in (((EDGE - 5) // 3, True), ((EDGE - 2) // 3, False))],
])
def test_sandwich_table_falls_back_at_the_edge(fh, g, has_table):
    sw = SandwichFunction(fh, g, 0.3)
    if has_table:
        assert_table_matches(sw, 2)
    else:
        assert sw.exact_table() is None
    for check, ref in ((check_submodular, reference_check_submodular),
                       (check_monotone, reference_check_monotone)):
        assert_same_report(check(sw, 2), ref(sw, 2))


@pytest.mark.parametrize("pair", list(_pairs(((12, 6, 2, 5),))), ids=["monotone", "coverage"])
@pytest.mark.parametrize("eps", SANDWICH_EPS)
def test_sandwich_checks_equal_generic(pair, eps):
    """The checkers read the sandwich's table; the references tabulate it."""
    sw = SandwichFunction(pair.fh, pair.g, eps)
    assert sw.exact_table() is not None
    assert_same_report(check_submodular(sw, 12), reference_check_submodular(sw, 12))
    assert_same_report(check_monotone(sw, 12), reference_check_monotone(sw, 12))


@pytest.mark.parametrize("pair", list(_pairs(((12, 6, 2, 5),))), ids=["monotone", "coverage"])
@pytest.mark.parametrize("eps", SANDWICH_EPS)
def test_sandwich_table_decides_on_ints(monkeypatch, pair, eps):
    """Each distinct key's band choice is Band.holds on g's and fh's table
    ints scaled to den: no Fraction reaches the test."""
    seen = []
    holds = Band.holds
    monkeypatch.setattr(Band, "holds",
                        lambda self, F, f: seen.append((type(F), type(f))) or holds(self, F, f))
    sw = SandwichFunction(pair.fh, pair.g, eps)  # built after the spy, so value() calls it too
    assert sw.exact_table() is not None
    assert seen and set(seen) == {(int, int)}


def _count_values(fn) -> list:
    """Masks of the sets fn's ``value()`` is called on from now on."""
    calls = []
    value = fn.value
    fn.value = lambda s: calls.append(s.mask) or value(s)
    return calls


def test_check_sandwich_reads_F_by_value_on_every_set():
    """Once per set in exhaustive mode, on a pass and on a failure, whether
    or not F has a table; f is read from its own table."""
    n = 10
    pair = next(_pairs(((n, 5, 2, 4),)))
    eps = pair.params.epsilon
    sw = build_sandwich(pair)
    noisy = ConsistentNoiseOracle(pair.fh, 0.25, 1)
    cases = [(sw, pair.fh, eps, True), (sw, pair.g, eps, False), (pair.g, sw, eps, False),
             (noisy, pair.fh, 0.25, True), (noisy, pair.fh, 0.1, False)]
    for F, f, e, passed in cases:
        F, f = copy.copy(F), copy.copy(f)  # so that F and f count only the check's calls
        calls, f_calls = _count_values(F), _count_values(f)
        assert check_sandwich(F, f, e, n).passed == passed
        assert calls == list(range(1 << n))
        assert len(f_calls) == (not passed)  # the witness's own f value


@pytest.mark.parametrize("pair", list(_pairs(((10, 5, 2, 4),))), ids=["monotone", "coverage"])
def test_check_sandwich_equals_parent(pair, monkeypatch):
    """Each report equals the parent checkers': the one that built a Subset
    per set, and the one that read F's table when it had one, both with the
    sandwich's table and without it (as before the sandwich had one)."""
    n = 10
    eps = pair.params.epsilon
    sw = build_sandwich(pair)
    noisy = ConsistentNoiseOracle(pair.fh, 0.25, 3)
    cases = [(sw, pair.fh, eps, {}), (sw, pair.g, eps, {}), (pair.fh, sw, eps, {}),
             (pair.g, sw, eps, {}), (noisy, pair.fh, 0.25, {}), (noisy, pair.fh, 0.1, {}),
             (noisy, sw, 0.3, {})]
    cases += [(F, f, e, {}) for F, f, e in _typed_sandwich_cases(pair)]
    # f without a table whose value() gives Fractions: the loop's exact test
    # runs in Fraction arithmetic, passing and failing.
    frac_fh, frac_g = _mapped(pair.fh, Fraction), _mapped(pair.g, Fraction)
    assert {type(v) for g in (frac_fh, frac_g) for v in tabulate(g, n)} == {Fraction}
    cases += [(F, f, e, {}) for F, f, e in ((sw, frac_fh, eps), (pair.g, frac_fh, 0.01),
                                             (pair.fh, frac_g, eps), (pair.fh, frac_g, 0.01))]
    cases += [(F, f, e, dict(mode="sampled", trials=300, seed=5)) for F, f, e, _ in cases]
    verdicts, witness_types, fraction_verdicts = set(), set(), set()
    for F, f, e, kwargs in cases:
        got = check_sandwich(F, f, e, n, **kwargs)
        verdicts.add(got.passed)
        if f in (frac_fh, frac_g):
            fraction_verdicts.add((got.passed, kwargs.get("mode")))
        if got.counterexample:
            witness_types.update(type(v) for v in got.counterexample[1:])
        assert_same_report(got, subset_check_sandwich(F, f, e, n, **kwargs))
        assert_same_report(got, parent_check_sandwich(F, f, e, n, **kwargs))
        with monkeypatch.context() as m:
            m.setattr(SandwichFunction, "exact_table", ValueOracle.exact_table)
            assert_same_report(got, parent_check_sandwich(F, f, e, n, **kwargs))
    assert verdicts == {True, False}
    assert fraction_verdicts == {(p, mode) for p in (True, False) for mode in (None, "sampled")}
    assert {bool, np.int64, float, Fraction, int} <= witness_types


def _mapped(fn, convert):
    """fn's values on every mask, each passed through ``convert``, as a
    function with no exact table."""
    return TableFunction(fn.n, [convert(v) for v in tabulate(fn, fn.n)])


def _typed_sandwich_cases(pair):
    """(F, f, eps) whose values take each branch of the band loop: bool and
    numpy F, float F on a band edge, f without a table, and failures whose
    witness sides keep their own types."""
    n = pair.fh.n
    count = AdditiveFunction([1] * n)  # |S|, with a table
    nonempty = ConcaveCardinalityFunction([0] + [1] * n)
    bool_f = ConcaveCardinalityFunction([False] + [True] * n)  # value() gives bools
    halves = AdditiveFunction([0.5] * n)  # float weights: no table
    return [
        # bool F: False and True where f is 0 and 1, which passes; True
        # everywhere fails at the empty set.
        (_mapped(nonempty, bool), nonempty, 0.3),
        (_mapped(nonempty, bool), bool_f, 0.1),
        (_mapped(nonempty, lambda v: True), nonempty, 0.3),
        (_mapped(nonempty, lambda v: True), bool_f, 0.3),
        # numpy F takes the float branch, over f's table at D = 1 and D = 2;
        # it passes there and fails once shifted.
        (_mapped(count, np.int64), count, 0.25),
        (_mapped(count, lambda v: np.int64(3 * v // 2)), AdditiveFunction([Fraction(3, 2)] * n),
         0.5),
        (_mapped(count, lambda v: np.int64(v + 1)), count, 0.25),
        # float F exactly on the upper edge (eps = 1/4, products exact) and
        # rounded to either side of the lower edge at eps = 0.3.
        (_mapped(count, lambda v: 1.25 * v), count, 0.25),
        (_mapped(count, lambda v: 0.75 * v), count, 0.25),
        (_mapped(count, lambda v: 0.7 * v), count, 0.3),
        (_mapped(count, lambda v: 0.7 * v * (1 - 1e-11)), count, 0.3),
        (_mapped(count, lambda v: 1.3 * v), count, 0.3),
        # f without a table: the loop builds a Subset per set.
        (halves, halves, 0.1),
        (_mapped(halves, lambda v: 2 * v), halves, 0.5),
        (count, halves, 0.9),
        # Failures: F's Fraction or int against f's Fraction or bool value().
        (pair.g, pair.fh, 0.01),
        (_mapped(pair.fh, lambda v: v + Fraction(1, 3)), pair.g, 0.01),
        (count, bool_f, 0.5),
        (_mapped(count, lambda v: v + 1), count, 0.5),
    ]


@pytest.mark.parametrize("eps, passed", [(0.6, True), (0.3, False), (0.05, False)])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_check_sandwich_estimator_draws_equal_parent(mode, eps, passed):
    """A sampling estimator F draws in query order; the check draws the same
    samples for every set up to the witness, and reports the same."""
    n = 8
    f = instance_corpus(0, sizes=(n,))[3]
    kwargs = dict(mode=mode, trials=200, seed=2) if mode == "sampled" else {}
    new, old = _estimator(f, 9), _estimator(f, 9)
    got = check_sandwich(new, f, eps, n, **kwargs)
    assert got.passed == passed
    assert_same_report(got, parent_check_sandwich(old, f, eps, n, **kwargs))
    drawn = list(old._cache.items())
    assert list(new._cache.items())[:len(drawn)] == drawn
    assert len(new._cache) == (1 << n if mode == "exhaustive" else len(drawn))
