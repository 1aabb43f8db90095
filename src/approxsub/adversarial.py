"""Adversarial instance generators.

Two constructions:

* a hard pair (:class:`HardPair`): a planted function fh and its
  cardinality-only decoy g whose maxima are separated by a provable gap while
  the two agree on most query paths.  It comes in two families, monotone and
  coverage-realizable; in both, fh is a sum of zoo kinds (additive on the
  planted set plus a budget-additive or concave-of-cardinality term) and g is
  concave of cardinality;
* a greedy trap built from an additive function with a deflation override on
  a thin family of sets.

All constructions evaluate exactly (int/Fraction arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .functions import (
    TABLE_LIMIT,
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    SumFunction,
    config_int,
    config_number,
    config_seed,
    _mask_of,
)
from .sets import Subset, ValueOracle

MAX_N = 1 << 14  # the planted-set draw and the trap build O(n) lists


def check_ground_size(n: int) -> None:
    """Refuse a ground set above :data:`MAX_N` before anything is built."""
    if n > MAX_N:
        raise ValueError(f"ground set guarded at n <= {MAX_N}, got n={n}")


@dataclass(frozen=True)
class HardPairParams:
    """Parameters of a planted hard pair.

    Requires alpha <= k <= h <= n/2 and epsilon in (0, 1); the first chain is
    what makes the gap inequality between the pair's maxima valid, the second
    is what the concentration argument needs.
    """

    n: int
    h: int
    alpha: int
    k: int
    epsilon: float

    def __post_init__(self):
        for name in ("n", "h", "alpha", "k"):
            config_int(getattr(self, name), name)
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 1 <= self.alpha <= self.k:
            raise ValueError(f"need 1 <= alpha <= k, got alpha={self.alpha}, k={self.k}")
        if not self.k <= self.h:
            raise ValueError(f"need k <= h, got k={self.k}, h={self.h}")
        if 2 * self.h > self.n:
            raise ValueError(f"need h <= n/2, got h={self.h}, n={self.n}")
        if not 0 < config_number(self.epsilon, "epsilon") < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    @property
    def cap(self) -> Fraction:
        """Budget alpha * (1 - h/n) shared by both pair constructions."""
        return Fraction(self.alpha * (self.n - self.h), self.n)


def _exact_or_float_pow(base: int, exponent: float):
    """base ** exponent, snapped to an int when float dust is all that
    separates it from one."""
    v = base ** exponent
    r = round(v)
    if abs(v - r) < 1e-9 * max(1.0, abs(r)):
        return int(r)
    return v


def power_law_params(n: int, beta: float) -> HardPairParams:
    """Standard hard-regime scaling: h = k = ceil(n^(1-beta/2)),
    alpha = ceil(n^(1-beta)), epsilon = n^(beta-1/2).

    Requires 0 < beta < 1/2 and n large enough (roughly n >= 2^(2/beta))
    for the rounded values to satisfy the pair invariants, and n <= MAX_N:
    every use draws a planted set over the ground set.
    """
    check_ground_size(n)
    if n < 2:  # n^(beta - 1/2) divides by zero at n = 0
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0 < beta < 0.5:
        raise ValueError(f"beta must be in (0, 1/2), got {beta}")
    h = math.ceil(_exact_or_float_pow(n, 1 - beta / 2))
    alpha = math.ceil(_exact_or_float_pow(n, 1 - beta))
    epsilon = n ** (beta - 0.5)
    if not epsilon < 1:
        raise ValueError(f"epsilon = {epsilon} must be < 1; increase n")
    if 2 * h > n:
        raise ValueError(
            f"rounded parameters violate h <= n/2: h={h}, n={n} "
            f"(need roughly n >= 2^(2/beta) = 2^{2 / beta:.4g})"
        )
    return HardPairParams(n=n, h=h, alpha=alpha, k=h, epsilon=epsilon)


def draw_hidden_set(n: int, h: int, seed: int) -> Subset:
    """Uniform size-h subset of {0..n-1} via a seeded partial Fisher-Yates
    shuffle (first h positions of the permutation)."""
    check_ground_size(n)
    if not 0 < h <= n:
        raise ValueError(f"need 0 < h <= n, got h={h}, n={n}")
    rng = np.random.default_rng(config_seed(seed))
    # One vectorised draw yields the same stream as h scalar rng.integers(i, n)
    # calls; the swaps stay sequential because later ones read earlier ones.
    targets = rng.integers(np.arange(h), n).tolist()
    arr = list(range(n))
    for i, j in enumerate(targets):
        arr[i], arr[j] = arr[j], arr[i]
    return Subset._raw(n, _mask_of(arr[:h], n), h)


@dataclass(frozen=True)
class HardPair:
    """A planted function fh, its cardinality-only decoy g, and the planted
    set H they were built from."""

    fh: SumFunction
    g: ConcaveCardinalityFunction
    params: HardPairParams
    hidden: Subset


def _membership(params: HardPairParams, hidden: Subset) -> list[int]:
    """0/1 indicator of the hidden set, after checking it fits the params."""
    if hidden.n != params.n:
        raise ValueError("hidden set drawn over a different ground set")
    if hidden.size != params.h:
        raise ValueError(f"hidden set size {hidden.size} != h = {params.h}")
    mask = hidden.mask
    return [mask >> e & 1 for e in range(params.n)]


def build_monotone_pair(params: HardPairParams, hidden: Subset) -> HardPair:
    """fh(S) = |S inter H| + min(|S minus H|, cap), g(S) = min(|S|, |S| h/n + cap).

    fh is additive on H plus budget-additive off H (budget cap); g is concave
    of cardinality.  Both are monotone submodular; they coincide on all sets
    with |S| <= alpha and |S minus H| <= cap.
    """
    member = _membership(params, hidden)
    n, h, cap = params.n, params.h, params.cap
    fh = SumFunction([AdditiveFunction(member),
                      BudgetAdditiveFunction([1 - m for m in member], cap)])
    g = ConcaveCardinalityFunction([min(i, Fraction(i * h, n) + cap) for i in range(n + 1)])
    return HardPair(fh=fh, g=g, params=params, hidden=hidden)


def build_coverage_pair(params: HardPairParams, hidden: Subset) -> HardPair:
    """fh(S) = |S inter H| + alpha and g(S) = |S| h/n + alpha on nonempty S,
    both 0 at the empty set: additive on H plus a step of height alpha, and
    concave of cardinality.  Scaled by n, both are coverage functions (a
    shared block of n alpha universe elements for the step, n private
    elements per member of H in fh, h private elements per element in g).
    """
    member = _membership(params, hidden)
    n, h, alpha = params.n, params.h, params.alpha
    fh = SumFunction([AdditiveFunction(member),
                      ConcaveCardinalityFunction([0] + [alpha] * n)])
    g = ConcaveCardinalityFunction([0] + [Fraction(i * h, n) + alpha for i in range(1, n + 1)])
    return HardPair(fh=fh, g=g, params=params, hidden=hidden)


class Band:
    """The band (1 - eps) f <= F <= (1 + eps) f, with eps held exactly.

    The only holder of eps's exact form: eps = p/q is ``Fraction(eps)``, a
    float's exact binary value, kept as the ints q - p, q, q + p and the
    edges lo = 1 - eps, hi = 1 + eps.  For int and Fraction values, clearing
    the positive denominators makes the test (q - p) f.num F.den <= q F.num
    f.den <= (q + p) f.num F.den: :meth:`holds` compares ints, no Fraction.
    Readers: ``SandwichFunction.value`` and ``.exact_table`` call
    :meth:`holds` when both sides have a ``den``, else :meth:`contains`,
    and ``sample`` counts its estimates' escapes with :meth:`contains`; the
    subclass :class:`PairBand` and ``verify.check_sandwich``'s band loop,
    two measured fast paths, inline it on these ints;
    ``verify._band_indices`` reads ``lo`` and ``hi``.  :meth:`near` is the
    one float form, with a slack for values built to lie in the band.
    """

    __slots__ = ("q", "q_lo", "q_hi", "lo", "hi")

    def __init__(self, epsilon):
        if not 0 <= epsilon < math.inf:
            raise ValueError(f"band epsilon must be nonnegative and finite, got {epsilon}")
        eps = Fraction(epsilon)
        p, self.q = eps.numerator, eps.denominator
        self.q_lo, self.q_hi = self.q - p, self.q + p
        self.lo, self.hi = 1 - eps, 1 + eps

    def holds(self, F, f) -> bool:
        """Exact band test for int or Fraction F and f."""
        Fn, Fd = F.as_integer_ratio()
        fn, fd = f.as_integer_ratio()
        y = fn * Fd
        return self.q_lo * y <= self.q * Fn * fd <= self.q_hi * y

    def contains(self, F, f) -> bool:
        """:meth:`holds` when both values are int or Fraction, otherwise the band
        test in the values' own arithmetic (a float F meets an exact f's edges exactly)."""
        if isinstance(F, (int, Fraction)) and isinstance(f, (int, Fraction)):
            return self.holds(F, f)
        return self.lo * f <= F <= self.hi * f

    def near(self, F, f) -> bool:
        """Float band test with a 1e-12 relative slack at each edge.

        ``check_sandwich`` uses it on a float F built to lie in the band,
        such as consistent noise xi * f with xi in [1 - eps, 1 + eps]: the
        product is rounded, so a value the construction puts on an edge can
        land just past it, and that is no counterexample; the slack goes once
        noisy values are exact rationals.  A side or an edge that is not
        finite raises ValueError: it has no band test."""
        low, high, F = float(self.lo * f), float(self.hi * f), float(F)
        if not (math.isfinite(low) and math.isfinite(high) and math.isfinite(F)):
            raise ValueError(f"band test with a value or edge that is not finite: "
                             f"F = {F}, f = {f}")
        return low - 1e-12 * max(1.0, abs(low)) <= F <= high + 1e-12 * max(1.0, abs(high))


class PairBand(Band):
    """The :class:`Band` of ``float(eps)``, tested in integers on the monotone pair.

    Both pair functions see a set only through s1 = |S inter H| and
    s0 = |S minus H|.  Scaled by n they are integers,

        F = n fh = n s1 + min(n s0, alpha (n - h)),
        G = n g  = min(n s, s h + alpha (n - h)),     s = s1 + s0,

    and with the band's ints q - p, q, q + p the test
    (1 - eps) fh <= g <= (1 + eps) fh is (q - p) F <= q G <= (q + p) F.
    Nothing is rounded, so every outcome equals the rational test.  The
    comparison is inlined: the collapsed greedy runs it twice per round.
    """

    __slots__ = ("n", "h", "cap_n")

    def __init__(self, params: HardPairParams):
        Band.__init__(self, float(params.epsilon))
        self.n = params.n
        self.h = params.h
        self.cap_n = params.alpha * (params.n - params.h)

    def sandwich(self, s1: int, s0: int) -> tuple[int, bool]:
        """(n times the sandwich oracle's value, whether g is inside the band)
        at a set with s1 planted and s0 other elements."""
        n = self.n
        s = s1 + s0
        F = n * s1 + min(n * s0, self.cap_n)
        G = min(n * s, s * self.h + self.cap_n)
        if self.q_lo * F <= self.q * G <= self.q_hi * F:
            return G, True
        return F, False


def gap_bound(params: HardPairParams) -> Fraction:
    """Ratio alpha/k + h/n separating the decoy's constrained maximum from the
    planted function's.  Exact rational; may exceed 1 (vacuously valid)."""
    return Fraction(params.alpha, params.k) + Fraction(params.h, params.n)


class SandwichFunction(ValueOracle):
    """Adversarial oracle: returns the decoy g(S) whenever g(S) lies within
    the multiplicative (1 +- eps) band around the planted fh(S), and fh(S)
    otherwise.  By construction the result is always within the band around
    fh, so fh is a representative.

    eps is taken at its exact binary-float value.  When fh and g both have
    a ``den``, the oracle's ``den`` is their lcm and each set's band test is
    one :meth:`Band.holds` call, exact integer cross-multiplication; on other
    value types it is :meth:`Band.contains`, which still takes ``holds`` on
    int and Fraction values and rational arithmetic on the rest.
    :meth:`exact_table` makes the same choice from fh's and g's tables.
    """

    kind = "sandwich"

    def __init__(self, fh, g, epsilon: float):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if fh.n != g.n:
            raise ValueError("pair functions disagree on ground set size")
        self.n = fh.n
        self.fh = fh
        self.g = g
        self.epsilon = float(epsilon)
        self.band = Band(self.epsilon)
        self._in_band = self.band.contains
        if fh.den is not None and g.den is not None:
            self.den = math.lcm(fh.den, g.den)
            self._in_band = self.band.holds

    def value(self, s: Subset):
        fv = self.fh.value(s)
        gv = self.g.value(s)
        if self._in_band(gv, fv):
            return gv
        return fv

    def exact_table(self):
        """The table over ``den``, or None when a side has no ``den`` or
        no table, the pair key fh * span + (g - min g) could overflow int64,
        or an entry reaches ``TABLE_LIMIT``.  Each distinct key keeps what
        :meth:`Band.holds` picks on g's and fh's table ints scaled to ``den``:
        :meth:`value`'s choice, as ``holds`` does not depend on the scale."""
        if self.den is None:
            return None
        T_fh, T_g = self.fh.exact_table(), self.g.exact_table()
        if T_fh is None or T_g is None:
            return None
        low = int(T_g.min())
        span = int(T_g.max()) - low + 1
        if (int(np.abs(T_fh).max()) + 1) * span > 1 << 63:
            return None
        keys, inverse = np.unique(T_fh * span + (T_g - low), return_inverse=True)
        holds, s_fh, s_g = self.band.holds, self.den // self.fh.den, self.den // self.g.den
        chosen = []
        for t_fh, t_g in (divmod(key, span) for key in keys.tolist()):
            G, F = (t_g + low) * s_g, t_fh * s_fh
            chosen.append(G if holds(G, F) else F)
        if max(map(abs, chosen)) >= TABLE_LIMIT:
            return None
        return np.array(chosen, dtype=np.int64)[inverse]


def build_sandwich(pair) -> SandwichFunction:
    """Sandwich oracle for a hard pair at the pair's own eps."""
    return SandwichFunction(pair.fh, pair.g, pair.params.epsilon)


class GreedyTrapInstance(ValueOracle):
    """Additive function with a deflation override on a thin set family.

    The ground set splits into blocks A (1/(2 eps) elements of value 2),
    B (n/2 - 1/(4 eps) elements of value 1/n) and C (same count, value 1).
    F(S) = 1/eps exactly when S = A + one element of C, otherwise F = f.
    Every override set has f = 2|A| + 1, so one exact comparison decides
    whether F stays within the (1 +- eps) band around f, and
    :func:`build_greedy_trap` refuses a trap that would leave it; the
    additive f is then a representative.  Values are exact rationals
    throughout.
    """

    kind = "greedy_trap"

    def __init__(self, n, k, beta, epsilon: Fraction, a_size, bc_size):
        self.n = n
        self.k = k
        self.beta = beta
        self.epsilon = epsilon
        self.a_elements = list(range(a_size))
        self.b_elements = list(range(a_size, a_size + bc_size))
        self.c_elements = list(range(a_size + bc_size, n))
        weights = [2] * a_size + [Fraction(1, n)] * bc_size + [1] * bc_size
        self.f = AdditiveFunction(weights)
        self._a_mask = (1 << a_size) - 1
        self._c_mask = ((1 << bc_size) - 1) << (a_size + bc_size)
        self.override_value = 1 / epsilon

    def value(self, s: Subset):
        v = self.f.value(s)  # checks the ground set
        extra = s.mask ^ self._a_mask
        if extra.bit_count() == 1 and extra & self._c_mask:
            return self.override_value
        return v

    def claimed_greedy_value(self) -> Fraction:
        """Predicted greedy outcome 1/eps + (k - k^(1-beta)/2)/n under the
        intended trap dynamics (all of A, remaining budget spent on B).
        Exact when k^(1-beta) is; see the measured value for what the
        implemented override actually yields."""
        drift = Fraction(_exact_or_float_pow(self.k, 1 - self.beta))
        return self.override_value + (self.k - drift / 2) * Fraction(1, self.n)


def build_greedy_trap(k: int, beta: float, n: int) -> GreedyTrapInstance:
    """Trap instance at error level eps = k^(beta-1); requires 0 < beta < 1
    (beta >= 1 gives eps >= 1, or 0 once k^(1-beta) underflows), eps < 1/2,
    integral block sizes, enough non-A elements to fill the budget, and an
    override inside the band (a rounded |A| can break it)."""
    check_ground_size(n)
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    eps_pow = _exact_or_float_pow(k, 1 - beta)
    epsilon = Fraction(1, eps_pow) if isinstance(eps_pow, int) else Fraction(1 / eps_pow)
    if not epsilon < Fraction(1, 2):
        raise ValueError(f"trap needs eps < 1/2, got eps = {float(epsilon)}")
    a_exact = 1 / (2 * epsilon)
    bc_exact = Fraction(n, 2) - 1 / (4 * epsilon)
    a_size = round(a_exact)
    bc_size = round(bc_exact)
    if a_size < 1 or bc_size < 1:
        raise ValueError(f"block sizes must be positive, got |A|={a_size}, |B|=|C|={bc_size}")
    if a_size + 2 * bc_size != n:
        raise ValueError(
            f"rounded blocks do not tile the ground set: {a_size} + 2*{bc_size} != {n}"
        )
    if bc_size < k:
        raise ValueError(f"need n/2 - 1/(4 eps) >= k, got {bc_size} < {k}")
    # Every override set A + c has F = 1/eps and f = 2|A| + 1.
    if not Band(epsilon).holds(1 / epsilon, 2 * a_size + 1):
        raise ValueError(
            f"trap at eps = {float(epsilon):.6g} leaves the band on override "
            f"set {[*range(a_size), a_size + bc_size]}: |A| = {a_size} rounds "
            f"1/(2 eps) = {float(1 / (2 * epsilon)):.6g}")
    return GreedyTrapInstance(n, k, beta, epsilon, a_size, bc_size)
