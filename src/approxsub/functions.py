"""Exact set-function zoo: additive, budget-additive, coverage,
concave-of-cardinality, and sums thereof, plus exact curvature.

Values stay in whatever number type the construction uses (int, Fraction,
float), so integral and rational instances evaluate exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .sets import Subset, iter_bits

# Every exact table keeps |entry| below this, so the checkers' int64 second
# differences (four entries) cannot overflow.
TABLE_LIMIT = 1 << 61
_EXACT_TYPES = (int, bool, Fraction)


class FunctionInstance:
    """Base for exact evaluable set functions over {0..n-1}."""

    kind = "abstract"
    n: int

    def value(self, s: Subset):
        raise NotImplementedError

    def exact_table(self, n: int):
        """``(T, D)``, an int64 array over all 2^n masks and a positive int
        with ``value(S) == Fraction(T[S.mask], D)`` on every set, or None.

        None means the caller evaluates ``value()`` set by set: the kind has
        no table form, n is not the instance's ground set, some datum is not
        exactly an int, bool or Fraction, or an entry could reach 2^61.
        """
        return None

    def _check_ground(self, s: Subset):
        if s.n != self.n:
            raise ValueError(f"ground set mismatch: instance n={self.n}, subset n={s.n}")


def _scaled(values, den: int) -> list[int]:
    """den * v for exact values v whose denominators divide den."""
    return [v.numerator * (den // v.denominator) for v in values]


class _WeightSum:
    """Sum of weights over a mask's set bits, equal in value and type to
    adding them to 0 one by one in increasing element order.

    If every weight is exactly an int, bool or Fraction, each is scaled once by
    D = lcm of the denominators to an int, so a set's int total T is exactly D
    times its weight sum.  Python's arithmetic gives a Fraction once a Fraction
    is added and an int otherwise: a set holding a Fraction weight returns
    Fraction(T, D), and any other set holds only ints, so D divides T and
    T // D is exact.  Other weights (float, numpy scalars, subclasses that may
    redefine +) are summed unscaled in element order, as float rounding
    depends on the order.
    """

    __slots__ = ("terms", "den", "frac_mask")

    def __init__(self, weights):
        self.terms = weights
        self.den = None
        if all(type(w) in (int, bool, Fraction) for w in weights):
            self.den = math.lcm(*(w.denominator for w in weights))
            self.terms = _scaled(weights, self.den)
            self.frac_mask = sum(1 << e for e, w in enumerate(weights) if type(w) is Fraction)

    def __call__(self, mask: int):
        terms = self.terms
        total = 0
        m = mask
        while m:
            low = m & -m
            total += terms[low.bit_length() - 1]
            m ^= low
        if self.den is None:
            return total
        return Fraction(total, self.den) if mask & self.frac_mask else total // self.den


def _doubling(n: int, dtype, step) -> np.ndarray:
    """Whole table by t[m | 1 << i] = step(t[m], i) for m < 2^i, from t[0] = 0."""
    t = np.zeros(1 << n, dtype=dtype)
    for i in range(n):
        t[1 << i:2 << i] = step(t[:1 << i], i)
    return t


def _weight_table(weights, n: int):
    """int64 table of the int weights' sum over all masks, or None if an
    entry could reach the limit."""
    if max(sum(w for w in weights if w > 0), -sum(w for w in weights if w < 0)) >= TABLE_LIMIT:
        return None
    return _doubling(n, np.int64, lambda t, i: t + weights[i])


class AdditiveFunction(FunctionInstance):
    """value(S) = sum of per-element weights over S."""

    kind = "additive"

    def __init__(self, weights):
        self.weights = list(weights)
        self.n = len(self.weights)
        if self.n < 1:
            raise ValueError("need at least one element")
        self._sum = _WeightSum(self.weights)

    def value(self, s: Subset):
        self._check_ground(s)
        return self._sum(s.mask)

    def exact_table(self, n: int):
        if n != self.n or self._sum.den is None:
            return None
        t = _weight_table(self._sum.terms, n)
        return None if t is None else (t, self._sum.den)


class BudgetAdditiveFunction(FunctionInstance):
    """value(S) = min(sum of weights over S, budget)."""

    kind = "budget_additive"

    def __init__(self, weights, budget):
        self.weights = list(weights)
        self.n = len(self.weights)
        if self.n < 1:
            raise ValueError("need at least one element")
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        self.budget = budget
        self._sum = _WeightSum(self.weights)

    def value(self, s: Subset):
        self._check_ground(s)
        return min(self._sum(s.mask), self.budget)

    def exact_table(self, n: int):
        if n != self.n or self._sum.den is None or type(self.budget) not in _EXACT_TYPES:
            return None
        den = math.lcm(self._sum.den, self.budget.denominator)
        budget, = _scaled([self.budget], den)
        t = _weight_table(_scaled(self.weights, den), n)
        if t is None or budget >= TABLE_LIMIT:
            return None
        return np.minimum(t, budget), den


class CoverageFunction(FunctionInstance):
    """value(S) = size of the union of the universe sets covered by S.

    The universe is a dense integer range; per-element covers are stored as
    bitmasks so evaluation is OR + popcount.
    """

    kind = "coverage"

    def __init__(self, universe_size: int, covers):
        if universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        self.universe_size = universe_size
        self.covers = []
        for c in covers:
            if isinstance(c, int):
                mask = c
            else:
                mask = 0
                for u in c:
                    if not 0 <= u < universe_size:
                        raise ValueError(f"universe element {u} out of range")
                    mask |= 1 << u
            if mask < 0 or (universe_size < mask.bit_length()):
                raise ValueError("cover extends past the universe")
            self.covers.append(mask)
        self.n = len(self.covers)
        if self.n < 1:
            raise ValueError("need at least one element")

    def value(self, s: Subset) -> int:
        self._check_ground(s)
        covered = 0
        for e in iter_bits(s.mask):
            covered |= self.covers[e]
        return covered.bit_count()

    def exact_table(self, n: int):
        if n != self.n or self.universe_size > 63:
            return None
        covers = np.array(self.covers, dtype=np.uint64)
        covered = _doubling(n, np.uint64, lambda t, i: t | covers[i])
        return np.bitwise_count(covered).astype(np.int64), 1


class ConcaveCardinalityFunction(FunctionInstance):
    """value(S) = G(|S|) for a tabulated nondecreasing concave G on {0..n}.

    The table is validated at construction: entries nondecreasing and the
    forward differences nonincreasing (discrete concavity).
    """

    kind = "concave_cardinality"

    def __init__(self, table):
        self.table = list(table)
        if len(self.table) < 2:
            raise ValueError("table needs entries for sizes 0..n with n >= 1")
        self.n = len(self.table) - 1
        for i in range(self.n):
            if self.table[i + 1] < self.table[i]:
                raise ValueError(f"table decreases between sizes {i} and {i + 1}")
        for i in range(self.n - 1):
            d0 = self.table[i + 1] - self.table[i]
            d1 = self.table[i + 2] - self.table[i + 1]
            if d1 > d0:
                raise ValueError(f"table is not concave at size {i + 1}")

    def value(self, s: Subset):
        self._check_ground(s)
        return self.table[s.size]

    def exact_table(self, n: int):
        if n != self.n or any(type(v) not in _EXACT_TYPES for v in self.table):
            return None
        den = math.lcm(*(v.denominator for v in self.table))
        scaled = _scaled(self.table, den)
        if max(map(abs, scaled)) >= TABLE_LIMIT:
            return None
        sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
        return np.array(scaled, dtype=np.int64)[sizes], den


class SumFunction(FunctionInstance):
    """Pointwise sum of function instances over a common ground set."""

    kind = "sum"

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise ValueError("sum needs at least one term")
        self.n = self.terms[0].n
        for t in self.terms:
            if t.n != self.n:
                raise ValueError("sum terms disagree on ground set size")

    def value(self, s: Subset):
        self._check_ground(s)
        total = 0
        for t in self.terms:
            total += t.value(s)
        return total

    def exact_table(self, n: int):
        if n != self.n:
            return None
        tables = [exact_table(t, n) for t in self.terms]
        if None in tables:
            return None
        den = math.lcm(*(d for _, d in tables))
        # Triangle bound over the terms; it also bounds every partial sum below.
        if sum(int(np.abs(t).max()) * (den // d) for t, d in tables) >= TABLE_LIMIT:
            return None
        total = np.zeros(1 << n, dtype=np.int64)
        for t, d in tables:
            if t.any():  # an all-zero term's factor den // d may not fit int64
                total += t * (den // d)
        return total, den


def evaluate_instance(inst: FunctionInstance, s: Subset):
    """Evaluate an instance at a subset (exact per the instance's formula)."""
    return inst.value(s)


def exact_table(fn, n: int):
    """``fn.exact_table(n)`` for an object that has one, else None."""
    table = getattr(fn, "exact_table", None)
    return None if table is None else table(n)


def marginal(inst: FunctionInstance, s: Subset, a: int):
    """Marginal value of adding element ``a`` to ``s``; requires a not in s."""
    if s.contains(a):
        raise ValueError(f"element {a} already in the set")
    return inst.value(s.add(a)) - inst.value(s)


def curvature(inst: FunctionInstance):
    """Exact curvature: 1 - min over elements of (last marginal / singleton value).

    Computed from 2n + 1 evaluations; raises if some singleton has value 0,
    in which case the ratio is undefined.
    """
    n = inst.n
    full = Subset.full(n)
    f_full = inst.value(full)
    worst = None
    for a in range(n):
        single = inst.value(Subset._raw(n, 1 << a, 1))
        if single == 0:
            raise ValueError(f"singleton {{{a}}} has value 0; curvature undefined")
        last = f_full - inst.value(full.remove(a))
        ratio = Fraction(last, single) if _is_rational(last) and _is_rational(single) \
            else last / single
        if worst is None or ratio < worst:
            worst = ratio
    return 1 - worst


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


# ---------------------------------------------------------------------------
# Serialization: JSON-compatible dicts with a "kind" tag.  Integer weights
# round-trip losslessly; Fractions are encoded as {"num": p, "den": q}.
# ---------------------------------------------------------------------------

def _num_to_obj(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, (int, float)):
        return x
    raise TypeError(f"cannot serialize value of type {type(x).__name__}")


def _num_from_obj(o):
    if isinstance(o, dict):
        if o["den"] == 0:
            raise ValueError(f"zero denominator in {o}")
        return Fraction(o["num"], o["den"])
    if isinstance(o, float) and not math.isfinite(o):
        raise ValueError(f"non-finite number {o}")
    return o


def instance_to_dict(inst: FunctionInstance) -> dict:
    if isinstance(inst, AdditiveFunction):
        return {"kind": inst.kind, "weights": [_num_to_obj(w) for w in inst.weights]}
    if isinstance(inst, BudgetAdditiveFunction):
        return {
            "kind": inst.kind,
            "weights": [_num_to_obj(w) for w in inst.weights],
            "budget": _num_to_obj(inst.budget),
        }
    if isinstance(inst, CoverageFunction):
        return {
            "kind": inst.kind,
            "universe_size": inst.universe_size,
            "covers": [sorted(iter_bits(c)) for c in inst.covers],
        }
    if isinstance(inst, ConcaveCardinalityFunction):
        return {"kind": inst.kind, "table": [_num_to_obj(v) for v in inst.table]}
    if isinstance(inst, SumFunction):
        return {"kind": inst.kind, "terms": [instance_to_dict(t) for t in inst.terms]}
    raise TypeError(f"cannot serialize instance of kind {inst.kind!r}")


def instance_from_dict(d: dict) -> FunctionInstance:
    if not isinstance(d, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "additive":
        return AdditiveFunction([_num_from_obj(w) for w in d["weights"]])
    if kind == "budget_additive":
        return BudgetAdditiveFunction(
            [_num_from_obj(w) for w in d["weights"]], _num_from_obj(d["budget"])
        )
    if kind == "coverage":
        return CoverageFunction(d["universe_size"], d["covers"])
    if kind == "concave_cardinality":
        return ConcaveCardinalityFunction([_num_from_obj(v) for v in d["table"]])
    if kind == "sum":
        return SumFunction([instance_from_dict(t) for t in d["terms"]])
    raise ValueError(f"unknown instance kind {kind!r}")
