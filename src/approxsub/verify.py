"""Exhaustive and statistical property checkers.

Exhaustive checks (submodularity, monotonicity, multiplicative sandwich) work
on a full table of values indexed by subset mask.  A function whose
``exact_table(n)`` gives an int64 table T over a denominator D (the five exact
kinds in ``functions``) is read from it: T / D is every value, so comparisons
on T are exact.  Any other function, or one whose ``exact_table`` returns None
(floats, numpy scalars, entries that could reach 2^61), is evaluated set by
set; when every value is an int or Fraction the table is rescaled to integers
and compared exactly, otherwise comparisons are float with the stated
tolerances.

Submodularity of an exact table is certified by the local form
f(S+a) + f(S+b) >= f(S+a+b) + f(S), equivalent to the pair form in exact
arithmetic (Schrijver, Combinatorial Optimization, Thm 44.1); the pair scan
runs only to find the smallest witness when it fails, and on float tables,
where tolerance slack can build up across local steps.

Concentration checks compare the exact hypergeometric probability of the
relative band around the mean overlap with a planted set against the standard
exponential tail reference, and against Monte Carlo.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .adversarial import Band, PairBand
from .functions import TABLE_LIMIT, exact_table
from .sets import Subset

_SUBMODULAR_TOL = 1e-9


@dataclass
class CheckReport:
    """Outcome of one property check; a pass carries no counterexample."""

    property_name: str
    instance: str
    passed: bool
    counterexample: tuple | None
    examined: int

    def __bool__(self):
        return self.passed


@dataclass
class ConcentrationReport:
    """Measured probability that the overlap with a random planted set stays
    in the relative band around its mean, versus the exponential reference
    1 - exp(-e^2 mu / 3) - exp(-e^2 mu / 2)."""

    n: int
    h: int
    set_size: int
    epsilon: float
    mu: Fraction
    method: str
    trials: int
    band: tuple[int, int]
    measured: float
    reference: float

    @property
    def passed(self) -> bool:
        return self.measured >= self.reference


def _describe(fn) -> str:
    kind = getattr(fn, "kind", None)
    if kind:
        return f"{kind}(n={fn.n})"
    return f"{type(fn).__name__}(n={fn.n})"


def tabulate(fn, n: int) -> list:
    """Values of fn on all 2^n subsets, indexed by mask."""
    return [fn.value(Subset._raw(n, m, m.bit_count())) for m in range(1 << n)]


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


def _table_of(fn, n: int):
    """(table, tolerance) for the exhaustive checkers: fn's exact table with
    zero tolerance when it has one, else :func:`_tables` of its values."""
    exact = exact_table(fn, n)
    if exact is not None:
        return exact[0], 0
    return _tables(tabulate(fn, n))


def _tables(values):
    """(table, tolerance) pair: exact int64 with zero tolerance when possible,
    else float64 with a relative tolerance."""
    exact = _exact_int_table(values)
    if exact is not None:
        return exact, 0
    tab = np.array([float(v) for v in values], dtype=np.float64)
    tol = _SUBMODULAR_TOL * max(1.0, float(np.max(np.abs(tab))))
    return tab, tol


def check_submodular(fn, n: int) -> CheckReport:
    """Exhaustively test value(S|T) + value(S&T) <= value(S) + value(T) over
    all mask pairs S <= T; reports the lexicographically smallest violation.
    ``examined`` is all 2^n (2^n + 1) / 2 pairs on a pass, else the pairs the
    scan compared through the witness's row."""
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


def check_monotone(fn, n: int) -> CheckReport:
    """Test value(S + a) >= value(S) for every set and missing element;
    sufficient for monotonicity by transitivity."""
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


def check_sandwich(
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
        F_tab, f_tab = exact_table(F, n), exact_table(f, n)
    elif mode == "sampled":
        if trials is None or not trials >= 1 or seed is None:
            raise ValueError(f"sampled mode needs trials >= 1 and a seed, got trials={trials}")
        rng = random.Random(seed)
        masks = (rng.getrandbits(n) for _ in range(trials))
        total = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # A side read from its table is the Python int D * value; the band's ints
    # absorb each side's D (see Band.scaled), so the test stays exact.
    F_den, f_den = F_tab[1] if F_tab else 1, f_tab[1] if f_tab else 1
    exact_band = band.scaled(F_den, f_den)
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
# Hypergeometric band concentration
# ---------------------------------------------------------------------------

def tail_reference(e2mu: float) -> float:
    """Exponential two-sided reference 1 - exp(-x/3) - exp(-x/2) for
    x = eps^2 * mu; may be negative (vacuous) for small x."""
    return 1.0 - math.exp(-e2mu / 3.0) - math.exp(-e2mu / 2.0)


def _band_indices(n: int, h: int, set_size: int, epsilon) -> tuple[int, int]:
    mu = Fraction(set_size * h, n)
    eps = Fraction(float(epsilon))
    lo = math.ceil((1 - eps) * mu)
    hi = math.floor((1 + eps) * mu)
    support_lo = max(0, set_size + h - n)
    support_hi = min(set_size, h)
    return max(lo, support_lo), min(hi, support_hi)


def exact_band_probability(n: int, h: int, set_size: int, epsilon: float) -> float:
    """P[(1-eps) mu <= |S inter H| <= (1+eps) mu] for a uniform size-h planted
    set, by summing the hypergeometric pmf (log-gamma based) over the band."""
    from scipy.stats import hypergeom  # deferred: scipy.stats dominates import time and memory

    lo, hi = _band_indices(n, h, set_size, epsilon)
    if lo > hi:
        return 0.0
    rv = hypergeom(n, h, set_size)
    return float(rv.pmf(np.arange(lo, hi + 1)).sum())


def mc_band_probability(
    n: int, h: int, set_size: int, epsilon: float, trials: int, seed: int
) -> float:
    """Monte-Carlo estimate of the same band probability."""
    if trials < 1:
        raise ValueError(f"Monte-Carlo estimate needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    draws = rng.hypergeometric(h, n - h, set_size, size=trials)
    lo, hi = _band_indices(n, h, set_size, epsilon)
    return float(np.mean((draws >= lo) & (draws <= hi)))


def check_concentration(
    n: int, h: int, set_size: int, epsilon: float,
    method: str = "exact", trials: int = 1_000_000, seed: int = 0,
) -> ConcentrationReport:
    """Concentration of |S inter H| around mu = |S| h / n for random H.

    Requires eps^2 mu > 1 (the regime where the exponential reference says
    anything); rejects otherwise.  ``method`` is 'exact' (hypergeometric
    summation) or 'mc' (seeded sampling).
    """
    if not (0 < h <= n and 0 < set_size <= n):
        raise ValueError("need 0 < h <= n and 0 < |S| <= n")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    mu = Fraction(set_size * h, n)
    if Fraction(float(epsilon)) ** 2 * mu <= 1:
        raise ValueError(
            f"precondition eps^2 * mu > 1 violated: eps^2 * mu = {float(epsilon) ** 2 * float(mu):.6g}"
        )
    band = _band_indices(n, h, set_size, epsilon)
    if method == "exact":
        measured = exact_band_probability(n, h, set_size, epsilon)
        used_trials = 0
    elif method == "mc":
        measured = mc_band_probability(n, h, set_size, epsilon, trials, seed)
        used_trials = trials
    else:
        raise ValueError(f"unknown method {method!r}")
    reference = tail_reference(float(epsilon) ** 2 * float(mu))
    return ConcentrationReport(
        n=n, h=h, set_size=set_size, epsilon=float(epsilon), mu=mu,
        method=method, trials=used_trials, band=band,
        measured=measured, reference=reference,
    )


def pair_band_probability(params, set_size: int) -> float:
    """Exact probability (over the random planted set) that the decoy stays in
    the (1 +- eps) band around the planted function at a fixed set of the
    given size.

    Both pair functions depend on the set only through its overlap with the
    planted set, so one hypergeometric sum is exact.
    """
    from scipy.stats import hypergeom

    n, h = params.n, params.h
    band = PairBand(params)
    rv = hypergeom(n, h, set_size)
    total = 0.0
    for j in range(max(0, set_size + h - n), min(set_size, h) + 1):
        if band.sandwich(j, set_size - j)[1]:
            total += float(rv.pmf(j))
    return total


def pair_band_reference(params, set_size: int) -> float:
    """Conservative exponential reference for :func:`pair_band_probability`:
    the two-sided rates for the overlap count and for the complement count,
    union-bounded (the piecewise pair depends on at most those two counts)."""
    eps2 = float(params.epsilon) ** 2
    mu = set_size * params.h / params.n
    mu_bar = set_size * (params.n - params.h) / params.n
    loss = (
        math.exp(-eps2 * mu / 3.0) + math.exp(-eps2 * mu / 2.0)
        + math.exp(-eps2 * mu_bar / 3.0) + math.exp(-eps2 * mu_bar / 2.0)
    )
    return max(0.0, 1.0 - loss)
