"""Maximization algorithms over counted value oracles, their worst-case ratio
formulas, and a brute-force reference solver.

Both greedy solvers run one round loop, ``_greedy``; a matroid only decides
which winners are kept.  All solvers are deterministic: ties in every argmax
break toward the smallest element id, and brute force breaks toward the
smallest canonical mask.

The argmax of ``_greedy`` keeps the incumbent's integer ratio (bn, bd) from
``as_integer_ratio()`` while its type is exactly int or Fraction.  A
candidate of one of those two types then wins iff vn * bd > bn * vd, with
(vn, vd) = (v, 1) for an int.  Both denominators are positive, so this is the
test ``Fraction``'s own comparison makes, without its operator dispatch, its
``numbers.Rational`` check and its property reads.  Any other pair (a float,
a bool, a numpy scalar, a float against an exact value) is compared with
``>``.  Each query, and the value each solver returns, are those of comparing
every pair with ``>``, which ``brute_force`` does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .matroids import Matroid
from .sets import Subset, ValueOracle


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``trace`` lists (element added, oracle query count right after that
    selection) for incremental solvers; brute force leaves it empty.
    """

    chosen: Subset
    value: object
    trace: list[tuple[int, int]] = field(default_factory=list)
    queries_used: int = 0


def _greedy(F: ValueOracle, rounds: int, matroid: Matroid | None) -> SolveResult:
    """The round loop of both greedy solvers.  ``pool`` lists the remaining
    elements' single-bit masks in increasing id order, so a candidate costs no
    n-bit ``rest & -rest`` and ``rest ^= low``; it holds about n^2/15 bytes
    of ints (1.1 MB at n = 4096).  Each round queries chosen + {a} for each
    a in the pool; only a strictly larger value replaces the best, so ties
    go to the smallest id.  The winner leaves the pool and joins the chosen
    set unless ``matroid`` says the result is dependent.  Stops after
    ``rounds`` accepted elements or when the pool is empty."""
    n = F.n
    start = F.query_count
    pool = [1 << a for a in range(n)]
    mask = 0
    size = 1  # the size of every set this round queries
    trace: list[tuple[int, int]] = []
    best_value = 0
    while size <= rounds and pool:
        best_val = bn = bd = None  # (bn, bd): best_val's ratio while it is exact
        for low in pool:
            v = F.query(Subset._raw(n, mask | low, size))
            if bn is None:  # no exact incumbent
                if best_val is None or v > best_val:
                    best, best_val = low, v
                    if type(v) in (int, Fraction):
                        bn, bd = v.as_integer_ratio()
            elif type(v) is int:
                if v * bd > bn:
                    best, best_val, bn, bd = low, v, v, 1
            elif type(v) is Fraction:
                vn, vd = v.as_integer_ratio()
                if vn * bd > bn * vd:
                    best, best_val, bn, bd = low, v, vn, vd
            elif v > best_val:
                best, best_val, bn = low, v, None
        pool.remove(best)
        if matroid is None or matroid.is_independent(Subset._raw(n, mask | best, size)):
            mask |= best
            size += 1
            best_value = best_val
            trace.append((best.bit_length() - 1, F.query_count - start))
    return SolveResult(Subset._raw(n, mask, len(trace)), best_value, trace,
                       F.query_count - start)


def _budget(k, n: int | None = None) -> int:
    """k as ``operator.index`` reads it; a negative k, or one past n, is refused."""
    if n is not None and k > n:
        raise ValueError(f"budget k={k} exceeds n={n}")
    if (k := operator.index(k)) < 0:
        raise ValueError(f"budget k={k} is negative")
    return k


def greedy_cardinality(F: ValueOracle, k: int) -> SolveResult:
    """Plain greedy under a cardinality budget: exactly k rounds (monotone
    oracles never lose by filling the budget), so queries_used is
    :func:`expected_greedy_queries`."""
    return _greedy(F, _budget(k, F.n), None)


def greedy_matroid(F: ValueOracle, matroid: Matroid) -> SolveResult:
    """Matroid greedy: each round's argmax leaves the pool and is kept only
    if independence is preserved, until the pool is empty.  Returns a basis."""
    n = F.n
    if matroid.n != n:
        raise ValueError(f"ground set mismatch: oracle n={n}, matroid n={matroid.n}")
    return _greedy(F, n, matroid)


def curvature_topk(F: ValueOracle, k: int) -> SolveResult:
    """Additive-surrogate solver: query the n singletons, keep the k largest
    (ties toward smaller ids), and issue one final query for the chosen set.

    Queries exactly n + 1 times.
    """
    n = F.n
    k = _budget(k, n)
    start = F.query_count
    singles = [F.query(Subset._raw(n, 1 << a, 1)) for a in range(n)]
    order = sorted(range(n), key=singles.__getitem__, reverse=True)
    chosen = Subset.from_elements(order[:k], n)
    val = F.query(chosen)
    trace = [(a, F.query_count - start) for a in sorted(order[:k])]
    return SolveResult(chosen, val, trace, F.query_count - start)


def brute_force(F: ValueOracle, constraint) -> SolveResult:
    """Exact maximizer by enumeration; the reference oracle for every ratio
    claim.

    ``constraint`` is either an integer budget k or a matroid.  Masks are
    visited in increasing order and ties break toward the smallest mask.
    Under a budget only feasible masks are visited: after a mask with exactly
    k elements the walk jumps to mask + lowbit(mask), as every mask in between
    adds a bit below lowbit, and after a smaller one it steps to mask + 1.  A
    matroid never jumps before the full mask (its ``rank()`` is not trusted);
    ``is_independent`` filters every mask.  Guarded at n <= 24.
    """
    n = F.n
    if n > 24:
        raise ValueError(f"brute force guarded at n <= 24, got {n}")
    matroid = constraint if isinstance(constraint, Matroid) else None
    limit = n if matroid is not None else _budget(constraint)
    start = F.query_count
    best = None
    best_val = None
    end = 1 << n
    mask = 0
    while mask < end:
        size = mask.bit_count()
        s = Subset._raw(n, mask, size)
        if matroid is None or matroid.is_independent(s):
            v = F.query(s)
            if best_val is None or v > best_val:
                best, best_val = s, v
        # At k = 0 the empty set has no low bit and is the only feasible mask.
        mask += 1 if size < limit else (mask & -mask) or end
    return SolveResult(best, best_val, [], F.query_count - start)


def greedy_bound(k: int, epsilon: float) -> float:
    """Worst-case ratio of greedy under a cardinality budget at error level
    epsilon: 1/(1 + 4 k e/(1-e)^2) * (1 - ((1-e)/(1+e))^(2k) (1 - 1/k)^k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    r = (1 - epsilon) / (1 + epsilon)
    return (
        1.0
        / (1.0 + 4.0 * k * epsilon / (1.0 - epsilon) ** 2)
        * (1.0 - r ** (2 * k) * (1.0 - 1.0 / k) ** k)
    )


def matroid_bound(k: int, epsilon: float) -> float:
    """Worst-case ratio of matroid greedy at error level epsilon, measured
    against the representative's optimum over independent sets:
    (1/2) ((1-e)/(1+e)) / (1 + k e/(1-e))."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    return 0.5 * (1 - epsilon) / (1 + epsilon) / (1.0 + k * epsilon / (1.0 - epsilon))


def curvature_bound(c: float, epsilon: float) -> float:
    """Worst-case ratio of the singleton-surrogate solver for a representative
    with curvature c: (1 - c) ((1-e)/(1+e))^2."""
    if not 0 <= c <= 1:
        raise ValueError(f"curvature must be in [0, 1], got {c}")
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    return (1.0 - c) * ((1.0 - epsilon) / (1.0 + epsilon)) ** 2


def expected_greedy_queries(n: int, k: int) -> int:
    """Query count of greedy_cardinality: sum_{i=0}^{k-1} (n - i)."""
    return k * n - (k * (k - 1)) // 2
