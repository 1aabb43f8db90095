"""check_submodular's strided certificate against the code it replaced.

Two references are kept verbatim.  ``reference_check_submodular`` is the pair
scan exactly as it stood before the local form f(S+a) + f(S+b) >=
f(S+a+b) + f(S) was added.  ``previous_check_submodular`` is the local form
as it stood before the strided passes: one second difference per pair of
axes of the value cube.  On every table below, check_submodular must give the
same pass/fail, the same witness masks, the same ``examined`` count, property
name and instance as both (at n >= 13 as the second only: the pair scan over
a passing table takes seconds there).  ``_tables``, the table/tolerance
pair the references read, is kept verbatim in ``conftest``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from approxsub.adversarial import HardPairParams, build_monotone_pair, build_sandwich, draw_hidden_set
from approxsub.experiments import instance_corpus
from approxsub.sets import Subset
from approxsub.verify import CheckReport, _describe, _table_of, check_submodular, tabulate
from conftest import (
    EDGE_TABLES,
    TOP,
    TableFunction,
    _tables,
    coverage_table,
    modular_table,
    popcount_table,
    value_tables,
)


def reference_check_submodular(fn, n: int) -> CheckReport:
    """Exhaustively test value(S|T) + value(S&T) <= value(S) + value(T) over
    all unordered pairs; reports the lexicographically smallest violation."""
    if n > 14:
        raise ValueError(f"exhaustive pair check guarded at n <= 14, got {n}")
    tab, tol = _tables(tabulate(fn, n))
    size = 1 << n
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


def previous_check_submodular(fn, n: int) -> CheckReport:
    if n > 14:
        raise ValueError(f"exhaustive pair check guarded at n <= 14, got {n}")
    tab, tol = _table_of(fn, n)
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


def _witness(report):
    if report.counterexample is None:
        return None
    return tuple(s.mask for s in report.counterexample)


def _same(got, ref):
    assert (got.passed, _witness(got), got.examined) == (ref.passed, _witness(ref), ref.examined)
    assert (got.property_name, got.instance) == (ref.property_name, ref.instance)


def assert_same(fn, n, pair_scan=True):
    got = check_submodular(fn, n)
    _same(got, previous_check_submodular(fn, n))
    if pair_scan:
        _same(got, reference_check_submodular(fn, n))
    return got


def _submodular_table(rng, n):
    """Coverage plus a signed modular part (submodular, often not monotone)."""
    covers = [int(c) for c in rng.integers(0, 64, size=n)]
    weights = [int(w) for w in rng.integers(0, 6, size=6)]
    shift = modular_table(n, [int(w) for w in rng.integers(-6, 7, size=n)])
    return [c + s for c, s in zip(coverage_table(n, covers, weights), shift)]


@pytest.mark.parametrize("seed", range(60))
def test_random_exact_tables(seed):
    """Random int and Fraction tables, negative values included, n <= 8:
    unstructured tables, submodular ones, and submodular ones with one
    entry moved by a random amount."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 9))
    size = 1 << n
    family = seed % 3
    if family == 0:
        table = [int(v) for v in rng.integers(-50, 51, size=size)]
    else:
        table = _submodular_table(rng, n)
        if family == 2:
            table[int(rng.integers(0, size))] += int(rng.integers(-3, 4))
    if seed % 2:
        den = int(rng.integers(2, 12))
        table = [Fraction(v, den) + Fraction(1, 7) for v in table]
    assert_same(TableFunction(n, table), n)


@pytest.mark.parametrize("name,n,table", EDGE_TABLES, ids=[t[0] for t in EDGE_TABLES])
def test_tables_nudged_across_the_edge(name, n, table):
    """Each entry of a submodular table moved by +1 and by -1: both outcomes
    occur, and every table matches both references."""
    outcomes = set()
    assert assert_same(TableFunction(n, table), n).passed
    for m in range(1 << n):
        for step in (1, -1):
            nudged = list(table)
            nudged[m] += step
            outcomes.add(assert_same(TableFunction(n, nudged), n).passed)
    assert outcomes == {True, False}


def test_convex_and_supermodular_tables_fail():
    """Tables whose second differences are all >= 0 (one strictly) are not
    submodular; the certificate's inequality must point the right way."""
    for n in range(2, 7):
        report = assert_same(TableFunction(n, popcount_table(n, [k * k for k in range(n + 1)])), n)
        assert not report.passed
        # Supermodular on one pair only, modular elsewhere.
        table = modular_table(n, list(range(n)))
        table[0b11] += 1
        assert not assert_same(TableFunction(n, table), n).passed


def test_large_int_tables_below_the_guard():
    rng = np.random.default_rng(7)
    n = 6
    base = coverage_table(n, [int(c) for c in rng.integers(0, 16, size=n)], [1, 2, 3, 4])
    top = max(base)
    scale = TOP // (top + 1)
    # Affine image of a submodular table reaching exactly TOP.
    table = [TOP - (top - v) * scale for v in base]
    assert max(map(abs, table)) == TOP
    assert _table_of(TableFunction(n, table), n)[1] == 0
    assert assert_same(TableFunction(n, table), n).passed
    for m in (0, 5, (1 << n) - 1):
        nudged = list(table)
        nudged[m] -= 1
        assert_same(TableFunction(n, nudged), n)
    # Signs chosen at random at full magnitude: second differences reach
    # 4 * TOP, which must not wrap.
    for seed in range(20):
        signs = np.random.default_rng(seed).choice([-1, 1], size=1 << n)
        assert_same(TableFunction(n, [int(s) * TOP for s in signs]), n)
    # A pure spike at full magnitude, submodular-violating and -satisfying.
    for sign in (1, -1):
        table = [0] * (1 << n)
        table[0b101] = sign * TOP
        assert_same(TableFunction(n, table), n)


def test_tables_above_the_guard_and_float_tables_take_the_pair_scan():
    n = 5
    over = popcount_table(n, [0, 2 ** 61, 2 ** 61 + 1, 2 ** 61 + 1, 2 ** 61 + 1, 2 ** 61 + 1])
    assert _table_of(TableFunction(n, over), n)[1] > 0
    assert_same(TableFunction(n, over), n)
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        if trial % 2:
            table = [float(v) for v in rng.random(1 << n) * 5]
        else:
            table = [float(np.sqrt(bin(m).count("1"))) for m in range(1 << n)]
        assert_same(TableFunction(n, table), n)


def test_corpus_n12_instances():
    corpus = instance_corpus(0, sizes=(12,))
    assert corpus
    for fn in corpus:
        assert assert_same(fn, 12).passed


@pytest.mark.parametrize("n", [13, 14])
def test_corpus_n13_n14_instances(n):
    """Every corpus member, read from its exact table, and a table that is
    supermodular on one pair only."""
    corpus = instance_corpus(0, sizes=(n,))
    assert corpus
    for fn in corpus:
        assert fn.exact_table() is not None
        assert assert_same(fn, n, pair_scan=False).passed
    table = modular_table(n, list(range(n)))
    table[0b1100] += 1
    assert not assert_same(TableFunction(n, table), n, pair_scan=False).passed


@settings(max_examples=100, deadline=None)
@given(value_tables())
def test_random_tables_equal_both_references(drawn):
    n, table = drawn
    assert_same(TableFunction(n, table), n)


def test_hard_pair_sandwiches_n12():
    params = HardPairParams(12, 6, 2, 5, 0.3)
    for seed in range(6):
        pair = build_monotone_pair(params, draw_hidden_set(params.n, params.h, seed))
        assert not assert_same(build_sandwich(pair), 12).passed
