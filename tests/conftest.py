"""Shared test helpers: table-backed functions and naive reference checkers."""

from __future__ import annotations

from itertools import combinations

from approxsub.sets import Subset


class TableFunction:
    """Arbitrary set function given by a value table indexed by mask."""

    kind = "table"

    def __init__(self, n, table):
        assert len(table) == 1 << n
        self.n = n
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
