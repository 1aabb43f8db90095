"""Exact set-function zoo: additive, budget-additive, coverage,
concave-of-cardinality, and sums thereof, plus exact curvature.

Values stay in whatever number type the construction uses (int, Fraction,
float), so integral and rational instances evaluate exactly.  Each kind is a
counted ``ValueOracle`` whose ``exact_table()`` builds its whole value table
in numpy, as ints over ``den``, where its data allow; :func:`int_table` is
the one rescaler of exact values to such a table.

A kind whose data are all exactly int, bool or Fraction keeps its table's D as
``den`` (see ``ValueOracle``).  A sum of such kinds adds its terms' values as
ints over the lcm of their ``den``, and like the weight kernel it returns each
Fraction through a bounded :class:`_FractionMemo`, shared when a total repeats.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction

import numpy as np

from .sets import Subset, ValueOracle, iter_bits

# Every exact table keeps |entry| below this, so the checkers' int64 second
# differences (four entries) cannot overflow.
TABLE_LIMIT = 1 << 61
# Fraction totals a memo keeps; it is cleared when full.
MEMO_LIMIT = 256
_EXACT_TYPES = (int, bool, Fraction)


def _den_of(values):
    """The lcm of the values' denominators, or None if some value is not
    exactly an int, bool or Fraction."""
    if all(type(v) in _EXACT_TYPES for v in values):
        return math.lcm(*(v.denominator for v in values))
    return None


class _FractionMemo(dict):
    """Fraction(T, den) keyed by the scaled int total T, built on the first
    lookup of T and shared (Fractions are immutable) by every later one.  It
    holds at most ``MEMO_LIMIT`` totals and is cleared when full."""

    __slots__ = ("den",)

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, total):
        if len(self) >= MEMO_LIMIT:
            self.clear()
        value = self[total] = Fraction(total, self.den)
        return value


def _scaled(values, den: int) -> list[int]:
    """den * v for exact values v whose denominators divide den."""
    return [v.numerator * (den // v.denominator) for v in values]


def int_table(values):
    """The int64 array of D * v, D the least common denominator of the
    values, or None if some value is not exactly an int, bool or Fraction, or
    some |D * v| reaches the limit."""
    den = _den_of(values)
    if den is None:
        return None
    scaled = _scaled(values, den)
    if max(map(abs, scaled), default=0) >= TABLE_LIMIT:
        return None
    return np.array(scaled, dtype=np.int64)


def _mask_of(elements, n: int) -> int:
    """Bit mask of elements in range(n), set byte by byte in linear time."""
    bits = bytearray((n + 7) >> 3)
    for e in elements:
        bits[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(bits, "little")


class _WeightSum:
    """:meth:`total` sums the weights over a mask's set bits, equal in value
    and type to adding them to 0 one by one in increasing element order.  It
    is a plain method, as ``__call__`` would cost a slot dispatch on each call.

    If every weight is exactly an int, bool or Fraction, each is scaled once by
    D = lcm of the denominators to an int, so a set's int total T is exactly D
    times its weight sum.  Python's arithmetic gives a Fraction once a Fraction
    is added and an int otherwise: a set holding a Fraction weight returns
    Fraction(T, D), and any other set holds only ints, so D divides T and
    T // D is exact.  Other weights (float, numpy scalars, subclasses that may
    redefine +) are summed unscaled in element order, as float rounding
    depends on the order.

    Exact weights are also grouped by scaled value into ``classes``, pairs
    (t, mask of the elements weighing t) with zero weights dropped, so that
    T = sum of t * popcount(mask & class mask).  A call walks whichever is
    shorter, the set's bits or the classes.  At most 64 classes are kept, as
    64 n-bit masks already weigh as much as the term list's n pointers.

    A call with an int ``limit`` (exact weights only) returns ``cap`` for a
    set whose T exceeds it, before any typed sum is built: with limit =
    floor(D cap), T > limit exactly when cap < T / D, so the call equals
    ``min(sum, cap)``, ties included.

    Each kernel returns its Fractions through ``memo``, a
    :class:`_FractionMemo` keyed by T, so a repeated total returns the one
    Fraction(T, D) built the first time.
    """

    __slots__ = ("terms", "den", "frac_mask", "classes", "memo")

    def __init__(self, weights):
        self.terms = weights
        self.classes = None
        self.den = _den_of(weights)
        self.memo = _FractionMemo(self.den)
        if self.den is not None:
            n = len(weights)
            self.terms = _scaled(weights, self.den)
            self.frac_mask = _mask_of((e for e, w in enumerate(weights) if type(w) is Fraction), n)
            groups = {}
            for e, t in enumerate(self.terms):
                if t:
                    groups.setdefault(t, []).append(e)
            if len(groups) <= 64:
                self.classes = [(t, _mask_of(es, n)) for t, es in groups.items()]

    def total(self, mask: int, limit=None, cap=None):
        classes = self.classes
        if classes is not None and mask.bit_count() > len(classes):
            total = 0
            for t, c in classes:
                total += t * (mask & c).bit_count()
        else:
            terms = self.terms
            total = 0
            m = mask
            while m:
                low = m & -m
                total += terms[low.bit_length() - 1]
                m ^= low
            if self.den is None:
                return total
        if limit is not None and total > limit:
            return cap
        if not mask & self.frac_mask:
            return total // self.den
        return self.memo[total]


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


class AdditiveFunction(ValueOracle):
    """value(S) = sum of per-element weights over S."""

    kind = "additive"

    def __init__(self, weights):
        self.weights = list(weights)
        self.n = len(self.weights)
        if self.n < 1:
            raise ValueError("need at least one element")
        self._sum = _WeightSum(self.weights)
        self.den = self._sum.den

    def value(self, s: Subset):
        if s.n != self.n:
            self._check_ground(s)
        return self._sum.total(s.mask)

    def exact_table(self):
        if self.den is None:
            return None
        return _weight_table(self._sum.terms, self.n)


class BudgetAdditiveFunction(ValueOracle):
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
        # The cap scaled to the weights' denominator D and floored: an exact
        # budget is decided on the weight walk's int total T (see _WeightSum).
        self._limit = None
        if self._sum.den is not None and type(budget) in _EXACT_TYPES:
            self._limit = budget.numerator * self._sum.den // budget.denominator
            self.den = math.lcm(self._sum.den, budget.denominator)

    def value(self, s: Subset):
        if s.n != self.n:
            self._check_ground(s)
        if self._limit is None:
            return min(self._sum.total(s.mask), self.budget)
        return self._sum.total(s.mask, self._limit, self.budget)

    def exact_table(self):
        den = self.den
        if den is None:
            return None
        budget, = _scaled([self.budget], den)
        t = _weight_table(_scaled(self.weights, den), self.n)
        if t is None or budget >= TABLE_LIMIT:
            return None
        return np.minimum(t, budget)


class CoverageFunction(ValueOracle):
    """value(S) = size of the union of the universe sets covered by S.

    The universe is a dense integer range; per-element covers are stored as
    bitmasks so evaluation is OR + popcount.
    """

    kind = "coverage"
    den = 1

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
        if s.n != self.n:
            self._check_ground(s)
        covers, covered, m = self.covers, 0, s.mask
        while m:
            low = m & -m
            covered |= covers[low.bit_length() - 1]
            m ^= low
        return covered.bit_count()

    def exact_table(self):
        if self.universe_size > 63:
            return None
        covers = np.array(self.covers, dtype=np.uint64)
        covered = _doubling(self.n, np.uint64, lambda t, i: t | covers[i])
        return np.bitwise_count(covered).astype(np.int64)


class ConcaveCardinalityFunction(ValueOracle):
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
        self.den = _den_of(self.table)

    def value(self, s: Subset):
        if s.n != self.n:
            self._check_ground(s)
        return self.table[s.size]

    def exact_table(self):
        table = int_table(self.table)
        if table is None:
            return None
        sizes = np.bitwise_count(np.arange(1 << self.n, dtype=np.uint64))
        return table[sizes]


class SumFunction(ValueOracle):
    """Pointwise sum of set functions over a common ground set.

    ``value`` calls each term's ``value`` once and returns the value and type
    of adding them to 0 in term order.  When every term has a ``den``, ints
    and bools are added as they are and each Fraction v as the int D v, D =
    ``den`` the lcm of the terms' ``den``: a set with a Fraction value returns
    Fraction(T, D) of the total T through a :class:`_FractionMemo`, so no
    Fraction is built on the way and a repeated T shares one.
    """

    kind = "sum"

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise ValueError("sum needs at least one term")
        self.n = self.terms[0].n
        for t in self.terms:
            if t.n != self.n:
                raise ValueError("sum terms disagree on ground set size")
        dens = [t.den for t in self.terms]
        if None not in dens:
            self.den = math.lcm(*dens)
            self._memo = _FractionMemo(self.den)

    def value(self, s: Subset):
        if s.n != self.n:
            self._check_ground(s)
        den = self.den
        if den is None:
            total = 0
            for t in self.terms:
                total += t.value(s)
            return total
        ints = scaled = 0
        has_fraction = False
        for t in self.terms:
            v = t.value(s)
            if type(v) is Fraction:
                num, d = v.as_integer_ratio()
                scaled += num * (den // d)
                has_fraction = True
            else:
                ints += v
        if has_fraction:
            return self._memo[ints * den + scaled]
        return ints

    def exact_table(self):
        den = self.den
        if den is None:
            return None
        tables = [(t.exact_table(), den // t.den) for t in self.terms]
        if any(t is None for t, _ in tables):
            return None
        # Triangle bound over the terms; it also bounds every partial sum below.
        if sum(int(np.abs(t).max()) * scale for t, scale in tables) >= TABLE_LIMIT:
            return None
        total = np.zeros(1 << self.n, dtype=np.int64)
        for t, scale in tables:
            if t.any():  # an all-zero term's scale den // term.den may not fit int64
                total += t * scale
        return total


def marginal(inst: ValueOracle, s: Subset, a: int):
    """Marginal value of adding element ``a`` to ``s``; requires a not in s."""
    if s.contains(a):
        raise ValueError(f"element {a} already in the set")
    return inst.value(s.add(a)) - inst.value(s)


def curvature(inst: ValueOracle):
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
        exact = isinstance(last, (int, Fraction)) and isinstance(single, (int, Fraction))
        ratio = Fraction(last, single) if exact else last / single
        if worst is None or ratio < worst:
            worst = ratio
    return 1 - worst


# ---------------------------------------------------------------------------
# Serialization: JSON-compatible dicts with a "kind" tag.  Integer weights
# round-trip losslessly; Fractions are encoded as {"num": p, "den": q}.
# ---------------------------------------------------------------------------

def config_int(value, name: str) -> int:
    """A config's count, size, budget or seed as an int, or a ValueError that
    names it.  ``operator.index`` takes a bool as 0 or 1, but JSON ``true``
    counts nothing; instance weights stay free to be bool (``_EXACT_TYPES``)."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def config_seed(value, name: str = "seed") -> int:
    """A seed for ``np.random.default_rng`` as a nonnegative int, or a
    ValueError that names it: numpy's own refusal names nothing."""
    seed = config_int(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {seed}")
    return seed


def config_number(value, name: str):
    """A config's real-valued key (an error level, width, bound or constant)
    unchanged, or a ValueError that names it; JSON ``true`` is not 1."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        return value
    raise ValueError(f"{name} must be a number, got {value!r}")


def require_keys(d: dict, keys, owner: str) -> None:
    """Raise a ValueError that names the first of ``keys`` missing from the
    config block ``d`` and ``owner``, the block that needs it."""
    for key in keys:
        if key not in d:
            raise ValueError(f"{owner} needs the key {key!r}")


def _num_to_obj(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, (int, float)):
        return x
    raise TypeError(f"cannot serialize value of type {type(x).__name__}")


def _num_from_obj(o, name: str):
    """An instance's weight, table entry or budget: an int, a bool, a finite
    float, or a {"num", "den"} object read as a Fraction.  ``name`` is the
    key the message names."""
    if isinstance(o, dict):
        if o.keys() != {"num", "den"}:
            raise ValueError(f"{name} given as an object needs exactly the keys 'num' and "
                             f"'den', got {o}")
        if not (isinstance(o["num"], int) and isinstance(o["den"], int)) or o["den"] == 0:
            raise ValueError(f"{name} given as an object needs an integer 'num' and a nonzero "
                             f"integer 'den', got {o}")
        return Fraction(o["num"], o["den"])
    if isinstance(o, float) and not math.isfinite(o):
        raise ValueError(f"{name} must be finite, got {o}")
    if not isinstance(o, (int, float)):
        raise ValueError(f"{name} must be a number or a {{'num', 'den'}} object, got {o!r}")
    return o


def _listed(d: dict, key: str) -> list:
    """The JSON list under ``key``, or a ValueError that names it."""
    values = d[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list, got {values!r}")
    return values


def _nums_from_list(d: dict, key: str) -> list:
    return [_num_from_obj(v, f"each entry of {key}") for v in _listed(d, key)]


def instance_to_dict(inst: ValueOracle) -> dict:
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
    raise TypeError(f"cannot serialize a {type(inst).__name__}")


_INSTANCE_KEYS = {
    "additive": {"kind", "weights"},
    "budget_additive": {"kind", "weights", "budget"},
    "coverage": {"kind", "universe_size", "covers"},
    "concave_cardinality": {"kind", "table"},
    "sum": {"kind", "terms"},
}


def instance_from_dict(d: dict) -> ValueOracle:
    """Build an instance from its tagged object; any key its kind does not
    read is rejected."""
    if not isinstance(d, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _INSTANCE_KEYS:
        raise ValueError(f"unknown instance kind {kind!r}")
    stray = d.keys() - _INSTANCE_KEYS[kind]
    if stray:
        raise ValueError(f"unknown keys in an instance of kind {kind!r}: {sorted(stray)}")
    require_keys(d, sorted(_INSTANCE_KEYS[kind] - {"kind"}), f"an instance of kind {kind!r}")
    if kind == "additive":
        return AdditiveFunction(_nums_from_list(d, "weights"))
    if kind == "budget_additive":
        return BudgetAdditiveFunction(_nums_from_list(d, "weights"),
                                      _num_from_obj(d["budget"], "budget"))
    if kind == "coverage":
        universe_size = config_int(d["universe_size"], "universe_size")
        covers = _listed(d, "covers")
        for c in covers:  # a JSON cover lists its elements; an int mask is for Python callers
            if not (isinstance(c, list) and all(type(u) is int for u in c)):
                raise ValueError(
                    f"each entry of covers must be a list of integer elements, got {c!r}")
        return CoverageFunction(universe_size, covers)
    if kind == "concave_cardinality":
        return ConcaveCardinalityFunction(_nums_from_list(d, "table"))
    return SumFunction([instance_from_dict(t) for t in _listed(d, "terms")])
