"""Maximization algorithms over counted value oracles, their worst-case ratio
formulas, and a brute-force reference solver.

All solvers are deterministic: ties in every argmax break toward the smallest
element id, and brute force breaks toward the smallest canonical mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def greedy_cardinality(F: ValueOracle, n: int, k: int) -> SolveResult:
    """Plain greedy under a cardinality budget: k rounds, each adding the
    element maximizing the queried value of the augmented set.

    Each round walks the bits of the complement of the chosen mask in
    increasing order and queries chosen + {a} for each; only a strictly
    larger value replaces the best, so ties go to the smallest id.  Exactly k
    elements are selected (monotone oracles never lose by filling the
    budget); queries_used = sum over rounds of the remaining pool size.
    """
    if n != F.n:
        raise ValueError(f"ground set mismatch: oracle n={F.n}, n={n}")
    if k > n:
        raise ValueError(f"budget k={k} exceeds n={n}")
    start = F.query_count
    full = (1 << n) - 1
    mask = 0
    trace: list[tuple[int, int]] = []
    best_value = 0
    for size in range(1, k + 1):
        best = 0
        best_val = None
        rest = full ^ mask
        while rest:
            low = rest & -rest
            v = F.query(Subset._raw(n, mask | low, size))
            if best_val is None or v > best_val:
                best, best_val = low, v
            rest ^= low
        mask |= best
        best_value = best_val
        trace.append((best.bit_length() - 1, F.query_count - start))
    return SolveResult(Subset._raw(n, mask, len(trace)), best_value, trace,
                       F.query_count - start)


def greedy_matroid(F: ValueOracle, matroid: Matroid) -> SolveResult:
    """Matroid greedy: repeatedly query the augmented value of every element
    still in the pool, take the argmax, keep it only if independence is
    preserved, and drop it from the pool either way.  Returns a basis."""
    n = F.n
    if matroid.n != n:
        raise ValueError(f"ground set mismatch: oracle n={n}, matroid n={matroid.n}")
    start = F.query_count
    chosen = Subset.empty(n)
    pool = list(range(n))
    trace: list[tuple[int, int]] = []
    current = 0
    while pool:
        best_i = 0
        best_val = None
        for i, x in enumerate(pool):
            v = F.query(chosen.add(x))
            if best_val is None or v > best_val:
                best_i, best_val = i, v
        x = pool.pop(best_i)
        candidate = chosen.add(x)
        if matroid.is_independent(candidate):
            chosen = candidate
            current = best_val
            trace.append((x, F.query_count - start))
    return SolveResult(chosen, current, trace, F.query_count - start)


def curvature_topk(F: ValueOracle, n: int, k: int) -> SolveResult:
    """Additive-surrogate solver: query the n singletons, keep the k largest
    (ties toward smaller ids), and issue one final query for the chosen set.

    Queries exactly n + 1 times.
    """
    if n != F.n:
        raise ValueError(f"ground set mismatch: oracle n={F.n}, n={n}")
    if k > n:
        raise ValueError(f"budget k={k} exceeds n={n}")
    start = F.query_count
    singles = [F.query(Subset._raw(n, 1 << a, 1)) for a in range(n)]
    order = sorted(range(n), key=singles.__getitem__, reverse=True)
    chosen = Subset.from_elements(order[:k], n)
    val = F.query(chosen)
    trace = [(a, F.query_count - start) for a in sorted(order[:k])]
    return SolveResult(chosen, val, trace, F.query_count - start)


def brute_force(F: ValueOracle, n: int, constraint) -> SolveResult:
    """Exact maximizer by enumeration; the reference oracle for every ratio
    claim.

    ``constraint`` is either an integer budget k or a matroid.  Masks are
    visited in increasing order and ties break toward the smallest mask.
    Under a budget, a mask with more than k elements jumps to
    mask + lowbit(mask): every mask in between keeps all of mask's bits from
    lowbit up, so none of them is feasible, and exactly the masks with at
    most k elements are queried.  A matroid never jumps (its ``rank()`` is
    not trusted); ``is_independent`` filters every mask.  Guarded at n <= 24.
    """
    if n > 24:
        raise ValueError(f"brute force guarded at n <= 24, got {n}")
    if F.n != n:
        raise ValueError(f"ground set mismatch: oracle n={F.n}, n={n}")
    matroid = constraint if isinstance(constraint, Matroid) else None
    limit = n if matroid is not None else int(constraint)
    if limit < 0:  # no feasible set; the jump would stall at mask 0
        return SolveResult(None, None, [], 0)
    start = F.query_count
    best = None
    best_val = None
    end = 1 << n
    mask = 0
    while mask < end:
        size = mask.bit_count()
        if size > limit:
            mask += mask & -mask
            continue
        s = Subset._raw(n, mask, size)
        if matroid is None or matroid.is_independent(s):
            v = F.query(s)
            if best_val is None or v > best_val:
                best, best_val = s, v
        mask += 1
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
