"""Shared test helpers: table-backed functions, naive reference checkers, and
verbatim copies of deleted code that equivalence tests compare against."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from approxsub.functions import TABLE_LIMIT
from approxsub.noise import MAX_SAMPLES
from approxsub.sets import Subset, ValueOracle


# ---------------------------------------------------------------------------
# The wrapper layer every function went through before each function became
# its own counted oracle, verbatim: the reference for solver runs.
# ---------------------------------------------------------------------------

class FunctionOracle(ValueOracle):
    """Counting wrapper around an exact function instance."""

    def __init__(self, fn):
        super().__init__(fn.n)
        self.fn = fn

    def value(self, s: Subset):
        return self.fn.value(s)


def as_oracle(obj) -> ValueOracle:
    """Wrap a function instance in a counting oracle; pass oracles through."""
    if isinstance(obj, ValueOracle):
        return obj
    return FunctionOracle(obj)


# ---------------------------------------------------------------------------
# Deleted code, verbatim: the references for equivalence tests.  The int-table
# rescaler and the table/tolerance pair the checkers once built from a
# function's values (``verify._exact_int_table``, ``verify._tables``), and the
# inconsistent-noise source with the estimator that read it
# (``noise.InconsistentNoiseOracle``, ``noise.SamplingEstimator``).
# ---------------------------------------------------------------------------

_SUBMODULAR_TOL = 1e-9


def _exact_int_table(values) -> np.ndarray | None:
    """Rescale rational values to a common-denominator int64 table, or None
    if any value is not rational or the scale would overflow."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    scale = math.lcm(*{v.denominator for v in values})
    # Each denominator divides scale: v * scale, with no Fraction built.
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    if max(map(abs, scaled), default=0) >= TABLE_LIMIT:
        return None
    return np.array(scaled, dtype=np.int64)


def _tables(values):
    """(table, tolerance) pair: exact int64 with zero tolerance when possible,
    else float64 with a relative tolerance."""
    exact = _exact_int_table(values)
    if exact is not None:
        return exact, 0
    tab = np.array([float(v) for v in values], dtype=np.float64)
    tol = _SUBMODULAR_TOL * max(1.0, float(np.max(np.abs(tab))))
    return tab, tol


class InconsistentNoiseOracle:
    """Unbiased noisy oracle: each query is a fresh draw with mean f(S).

    Families:

    * ``uniform-relative``: F(S) = f(S) * U[1-width, 1+width]
    * ``additive-bounded``: F(S) = f(S) + U[-width, +width]

    Not a consistent oracle; use :class:`SamplingEstimator` to feed solvers.
    """

    FAMILIES = ("uniform-relative", "additive-bounded")

    def __init__(self, base, family: str, width: float, seed: int):
        if family not in self.FAMILIES:
            raise ValueError(f"unknown noise family {family!r}")
        if not 0 <= width < math.inf:
            raise ValueError(f"width must be nonnegative and finite, got {width}")
        self.base = base
        self.n = base.n
        self.family = family
        self.width = float(width)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._queries = 0

    @property
    def query_count(self) -> int:
        return self._queries

    def sample_batch(self, s: Subset, m: int) -> np.ndarray:
        """m independent draws for the same set; counts m queries."""
        if m < 1:
            raise ValueError("need at least one sample")
        v = float(self.base.value(s))
        self._queries += m
        u = self._rng.random(m)
        shift = self.width * (2.0 * u - 1.0)
        if self.family == "uniform-relative":
            return v * (1.0 + shift)
        return v + shift


class ReferenceSamplingEstimator(ValueOracle):
    """Consistent face over an inconsistent source: mean of m draws per set,
    computed once and cached under the subset's mask."""

    def __init__(self, source: InconsistentNoiseOracle, m: int):
        if not 1 <= m <= MAX_SAMPLES:
            raise ValueError(f"need 1 <= m <= {MAX_SAMPLES} samples per set, got {m}")
        super().__init__(source.n)
        self.source = source
        self.m = m
        self._cache: dict[int, float] = {}

    def value(self, s: Subset) -> float:
        cached = self._cache.get(s.mask)
        if cached is not None:
            return cached
        est = float(np.mean(self.source.sample_batch(s, self.m)))
        self._cache[s.mask] = est
        return est

    def cached_sets(self) -> list[int]:
        """Masks of the sets estimated so far, in first-query order."""
        return list(self._cache)


class TableFunction(ValueOracle):
    """Arbitrary set function given by a value table indexed by mask."""

    kind = "table"

    def __init__(self, n, table):
        assert len(table) == 1 << n
        super().__init__(n)
        self.table = list(table)

    def value(self, s: Subset):
        assert s.n == self.n
        return self.table[s.mask]


def coverage_table(n, covers, weights):
    """Weighted coverage by mask: element i covers the points set in
    covers[i], and point p weighs weights[p].  Submodular for weights >= 0."""
    table = []
    for m in range(1 << n):
        union = 0
        for i in range(n):
            if m >> i & 1:
                union |= covers[i]
        table.append(sum(w for p, w in enumerate(weights) if union >> p & 1))
    return table


def modular_table(n, weights):
    return [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1 << n)]


def popcount_table(n, g):
    return [g[bin(m).count("1")] for m in range(1 << n)]


TOP = 2 ** 61 - 1  # largest magnitude the exact int64 table accepts

# Submodular tables with many tight local inequalities (linear stretches of a
# concave profile, overlapping covers) and flat steps, as (name, n, table).
EDGE_TABLES = [
    ("concave", 5, popcount_table(5, [0, 4, 8, 11, 13, 13])),
    ("concave-neg", 4, popcount_table(4, [-3, 1, 3, 5, 5])),
    ("coverage", 5, coverage_table(5, [0b0011, 0b0110, 0b1100, 0b1001, 0b0101], [1, 2, 1, 3])),
    ("modular", 4, modular_table(4, [3, -1, 0, 2])),
]


@st.composite
def value_tables(draw, max_n=10):
    """(n, table) over n <= max_n elements, with int, Fraction or float
    values.  Two in three are weighted coverage plus a modular part (signed,
    or nonnegative so the table is also monotone), with up to three entries
    nudged by at most 3, so both verdicts of both checks occur; the rest are
    unstructured."""
    n = draw(st.integers(0, max_n))
    size = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["submodular", "monotone", "unstructured"]))
    if family == "unstructured":
        table = [int(v) for v in rng.integers(-50, 51, size=size)]
    else:
        covers = [int(c) for c in rng.integers(0, 64, size=n)]
        weights = [int(w) for w in rng.integers(0, 6, size=6)]
        lo = 0 if family == "monotone" else -6
        shift = modular_table(n, [int(w) for w in rng.integers(lo, 7, size=n)])
        table = [c + s for c, s in zip(coverage_table(n, covers, weights), shift)]
        for m in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            table[m] += draw(st.integers(-3, 3))
    number = draw(st.sampled_from(["int", "Fraction", "float"]))
    if number == "Fraction":
        den = draw(st.integers(2, 12))
        table = [Fraction(v, den) + Fraction(1, 7) for v in table]
    elif number == "float":
        scale = draw(st.sampled_from([1.0, 0.1, 1e-3]))
        table = [v * scale for v in table]
    return n, table


def naive_submodular(fn, n, tol=0):
    """Reference double loop over all ordered pairs."""
    vals = [fn.value(Subset(n, m)) for m in range(1 << n)]
    for s in range(1 << n):
        for t in range(1 << n):
            if vals[s | t] + vals[s & t] > vals[s] + vals[t] + tol:
                return False, (s, t)
    return True, None


def naive_monotone(fn, n, tol=0):
    vals = [fn.value(Subset(n, m)) for m in range(1 << n)]
    for s in range(1 << n):
        for a in range(n):
            if s & (1 << a):
                continue
            if vals[s | (1 << a)] < vals[s] - tol:
                return False, (s, a)
    return True, None


def max_over_budget(fn, n, k):
    """Exact max of fn.value over subsets of size <= k (direct evaluation)."""
    best = fn.value(Subset.empty(n))
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            v = fn.value(Subset.from_elements(combo, n))
            if v > best:
                best = v
    return best
