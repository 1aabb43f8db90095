"""Exhaustive and statistical property checkers.

Exhaustive checks (submodularity, monotonicity, multiplicative sandwich) take
``ValueOracle``s over the checked ground set and work on a full table of
values indexed by subset mask.  A function whose ``exact_table()`` gives an
int64 table T (the five exact kinds in ``functions`` and the sandwich oracle)
is read from it: T / ``den`` is every value, so comparisons on T are exact.
Any other function (floats, numpy scalars, entries that could reach 2^61) is
evaluated set by set; ``functions.int_table`` rescales the values to integers
when all are exact, otherwise comparisons are float with the stated
tolerances.  The sandwich check reads its F by ``value()`` alone, once per set
through :func:`tabulate` in exhaustive mode, and tests every set in one band
loop: beside the Python ints of f's table when f has one, else beside f's
``value()``, and in sampled mode beside both sides' ``value()`` on each drawn
set.  A ``Subset`` is built only for a witness or a ``value()`` call.

Submodularity of an exact table is certified by the local form
f(S+a) + f(S+b) >= f(S+a+b) + f(S), equivalent to the pair form in exact
arithmetic (Schrijver, Combinatorial Optimization, Thm 44.1).  The certificate
runs in strided passes: for each element b, the first difference
f(S+b) - f(S) over the masks without b is one array of 2^(n-1) values, and
for each higher element a a reshaped view compares its halves with and
without a.  No second difference is formed, and one difference array is held
at a time, beside numpy's fixed-size ufunc buffers.  The pair scan runs only
to find the smallest witness when the certificate fails, and on float tables,
where tolerance slack can build up across local steps.  Monotonicity compares
the same strided halves of the table itself.

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
from .functions import config_int, config_seed, int_table
from .sets import Subset, ValueOracle

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
    1 - exp(-e^2 mu / max(3, 2 + e)) - exp(-e^2 mu / 2)."""

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


def _check_ground(n: int, *fns: ValueOracle) -> None:
    for fn in fns:
        if fn.n != n:
            raise ValueError(f"ground set mismatch: function n={fn.n}, checked n={n}")


def _table_of(fn: ValueOracle, n: int):
    """(table, tolerance) for the exhaustive checkers: int64 with zero
    tolerance from fn's exact table or its rescaled values, else float64 with
    a relative tolerance.  A float table must keep the sum of two values and
    the tolerance finite: a larger, infinite or nan value raises ValueError."""
    exact = fn.exact_table()
    if exact is None:
        values = tabulate(fn, n)
        exact = int_table(values)
        if exact is None:
            tab = np.array([float(v) for v in values], dtype=np.float64)
            top = float(np.max(np.abs(tab)))
            if not math.isfinite(4 * top):  # nan fails too
                raise ValueError(f"{_describe(fn)} reaches |value| = {top:.6g}, too large "
                                 f"for the float checks (sums of two values must stay finite)")
            return tab, _SUBMODULAR_TOL * max(1.0, top)
    return exact, 0


def _marginal_rises(tab: np.ndarray, n: int, b: int) -> bool:
    """Whether f(S+b) - f(S) rises when some element a > b joins S, on an
    int64 table of values below 2^61 in magnitude (the differences fit)."""
    v = tab.reshape(-1, 2, 1 << b)
    # d[i] is b's marginal at the i-th mask without b.  Each bit a > b sits
    # at place a - 1 of i, so a's two halves lie a stride of 2^(a-1) apart:
    # the wider stride of the pair, which numpy compares faster.
    d = (v[:, 1] - v[:, 0]).reshape(-1)
    for a in range(b + 1, n):
        w = d.reshape(-1, 2, 1 << (a - 1))
        if (w[:, 1] > w[:, 0]).any():
            return True
    return False


def check_submodular(fn: ValueOracle, n: int) -> CheckReport:
    """Exhaustively test value(S|T) + value(S&T) <= value(S) + value(T) over
    all mask pairs S <= T; reports the lexicographically smallest violation.
    ``examined`` is all 2^n (2^n + 1) / 2 pairs on a pass, else the pairs the
    scan compared through the witness's row.

    An exact table passes on the local certificate: n - 1 first-difference
    arrays of 2^(n-1) int64 values, one alive at a time, and n (n - 1) / 2
    strided comparisons of their halves."""
    if n > 14:
        raise ValueError(f"exhaustive pair check guarded at n <= 14, got {n}")
    _check_ground(n, fn)
    tab, tol = _table_of(fn, n)
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


def check_monotone(fn: ValueOracle, n: int) -> CheckReport:
    """Test value(S + a) >= value(S) for every set and missing element;
    sufficient for monotonicity by transitivity.  For each element a one
    strided view of the table pairs every mask without a, in increasing
    order, with its extension; the pass holds one array of 2^(n-1) values at
    a time, and the first drop is the smallest such mask.  ``examined``
    counts 2^(n-1) sets per element tested."""
    if n > 20:
        raise ValueError(f"exhaustive extension check guarded at n <= 20, got {n}")
    _check_ground(n, fn)
    tab, tol = _table_of(fn, n)
    for a in range(n):
        v = tab.reshape(-1, 2, 1 << a)
        drops = v[:, 1] < v[:, 0] - tol
        if drops.any():
            i = int(drops.argmax())  # row-major: the smallest mask without a
            s = (i >> a) << (a + 1) | i & ((1 << a) - 1)
            cx = (Subset(n, s), a)
            return CheckReport("monotone", _describe(fn), False, cx, (a + 1) << (n - 1))
    return CheckReport("monotone", _describe(fn), True, None, n * (1 << n) // 2)


def check_sandwich(
    F: ValueOracle, f: ValueOracle, epsilon: float, n: int, mode: str = "exhaustive",
    trials: int | None = None, seed: int | None = None,
) -> CheckReport:
    """Test (1 - eps) f(S) <= F(S) <= (1 + eps) f(S).

    ``mode='exhaustive'`` visits all subsets (n <= 20), reading F through
    :func:`tabulate` (a sandwich's own table would make the band choice
    under test), so a failing check has evaluated F on every set.  f is read
    as the Python ints of its exact table (over ``f.den``) when it has one,
    else by ``value()`` set by set up to the first escape.  ``mode='sampled'``
    draws ``trials`` uniform subsets with the given seed and reads F, then f,
    by ``value()`` on each.  One loop tests every set: exactly whenever both
    values are rational, otherwise float with a 1e-12 relative slack for
    noise paths (:meth:`Band.near`).  A ``Subset`` is built only for a
    ``value()`` call or a witness, which carries both sides' own ``value()``.
    """
    _check_ground(n, F, f)
    name = "sandwich"
    desc = f"{_describe(F)} vs {_describe(f)} @ eps={epsilon}"
    band = Band(float(epsilon))
    D, f_ints = 1, False
    if mode == "exhaustive":
        if n > 20:
            raise ValueError(f"exhaustive sandwich check guarded at n <= 20, got {n}")
        total = 1 << n
        F_vals, T = tabulate(F, n), f.exact_table()
        if T is None:
            rows = ((m, Fv, f.value(Subset._raw(n, m, m.bit_count())))
                    for m, Fv in enumerate(F_vals))
        else:
            D, f_ints = f.den, True
            rows = zip(range(total), F_vals, T.tolist())
    elif mode == "sampled":
        if trials is None or not (total := config_int(trials, "trials")) >= 1 or seed is None:
            raise ValueError(f"sampled mode needs trials >= 1 and a seed, got trials={trials}")
        rng = random.Random(config_seed(seed))
        sets = (Subset._raw(n, m, m.bit_count())
                for m in (rng.getrandbits(n) for _ in range(total)))
        rows = ((s.mask, F.value(s), f.value(s)) for s in sets)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # fv is f's value, or on the table path the int D f(S): q absorbs D, and
    # with F's denominator cleared the test is Band.holds's.  A Fraction fv
    # keeps the test exact in Fraction arithmetic.
    q, q_lo, q_hi = band.q * D, band.q_lo, band.q_hi
    exact = (int, Fraction)
    for i, (m, Fv, fv) in enumerate(rows):
        if isinstance(Fv, exact) and (f_ints or isinstance(fv, exact)):
            Fn, Fd = Fv.as_integer_ratio()
            y = fv * Fd
            if q_lo * y <= q * Fn <= q_hi * y:
                continue
        elif band.near(Fv, Fraction(fv, D) if f_ints else fv):
            continue
        s = Subset._raw(n, m, m.bit_count())
        return CheckReport(name, desc, False, (s, Fv, f.value(s) if f_ints else fv), i + 1)
    return CheckReport(name, desc, True, None, total)


# ---------------------------------------------------------------------------
# Hypergeometric band concentration
# ---------------------------------------------------------------------------

def chernoff_tails(x: float, delta: float) -> tuple[float, float]:
    """Upper and lower Chernoff tails exp(-x/c), exp(-x/2) of a relative deviation
    delta, x = delta^2 mu.  c = max(3, 2 + delta): past delta = 1, x/3 overstates the
    rate (at n = 2000, h = 20, |S| = 100, delta = 10 the exact upper tail is 1.1e-11,
    3,400 times exp(-x/3))."""
    return math.exp(-x / max(3.0, 2.0 + delta)), math.exp(-x / 2.0)


def tail_reference(e2mu: float, epsilon: float = 1.0) -> float:
    """Two-sided reference 1 - upper - lower from :func:`chernoff_tails` of
    x = eps^2 * mu.  May be negative (vacuous) for small x; x = inf gives 1."""
    upper, lower = chernoff_tails(e2mu, epsilon)
    return 1.0 - upper - lower


def _band_indices(n: int, h: int, set_size: int, epsilon) -> tuple[int, int]:
    mu = Fraction(set_size * h, n)
    band = Band(float(epsilon))
    lo, hi = math.ceil(band.lo * mu), math.floor(band.hi * mu)
    support_lo = max(0, set_size + h - n)
    support_hi = min(set_size, h)
    return max(lo, support_lo), min(hi, support_hi)


def _hypergeom_mass(n: int, h: int, s: int, lo: int, hi: int, keep=None) -> Fraction:
    """Exact sum of C(h, j) C(n-h, s-j) / C(n, s) over the overlaps j in
    [lo, hi] and the support that ``keep`` accepts (all by default).  Walks
    term(j+1) = term(j) (h-j)(s-j) / ((j+1)(n-h-s+j+1)) from math.comb at the
    lower end; every term is an integer, so each division is exact."""
    lo, hi = max(lo, 0, s + h - n), min(hi, s, h)
    if lo > hi:
        return Fraction(0)
    term, total = math.comb(h, lo) * math.comb(n - h, s - lo), 0
    for j in range(lo, hi + 1):
        if keep is None or keep(j):
            total += term
        term = term * (h - j) * (s - j) // ((j + 1) * (n - h - s + j + 1))
    return Fraction(total, math.comb(n, s))


def exact_band_probability(n: int, h: int, set_size: int, epsilon: float) -> float:
    """Exact P[(1-eps) mu <= |S inter H| <= (1+eps) mu] for a uniform size-h
    planted set, rounded once to float; cost grows with n (~25 s at n = 10^6)."""
    return float(_hypergeom_mass(n, h, set_size, *_band_indices(n, h, set_size, epsilon)))


_MC_CHUNK = 1 << 20


def mc_band_probability(
    n: int, h: int, set_size: int, epsilon: float, trials: int, seed: int
) -> float:
    """Monte-Carlo estimate of the same band probability.  The variates come
    from one seeded stream in chunks of at most ``_MC_CHUNK``, so memory does
    not grow with ``trials``; the in-band count is an exact int."""
    if trials < 1:
        raise ValueError(f"Monte-Carlo estimate needs trials >= 1, got {trials}")
    rng = np.random.default_rng(config_seed(seed))
    lo, hi = _band_indices(n, h, set_size, epsilon)
    hits = 0
    for start in range(0, trials, _MC_CHUNK):
        draws = rng.hypergeometric(h, n - h, set_size, size=min(_MC_CHUNK, trials - start))
        hits += int(np.count_nonzero((draws >= lo) & (draws <= hi)))
    return hits / trials


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
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    mu = Fraction(set_size * h, n)
    # In floats e * e * mu overflows to inf (reference 1) where e ** 2 raises.
    e = float(epsilon)
    e2mu = e * e * float(mu)
    if Fraction(e) ** 2 * mu <= 1:
        raise ValueError(f"precondition eps^2 * mu > 1 violated: eps^2 * mu = {e2mu:.6g}")
    band = _band_indices(n, h, set_size, epsilon)
    if method == "exact":
        measured = exact_band_probability(n, h, set_size, epsilon)
        used_trials = 0
    elif method == "mc":
        measured = mc_band_probability(n, h, set_size, epsilon, trials, seed)
        used_trials = trials
    else:
        raise ValueError(f"unknown method {method!r}")
    reference = tail_reference(e2mu, e)
    return ConcentrationReport(
        n=n, h=h, set_size=set_size, epsilon=e, mu=mu,
        method=method, trials=used_trials, band=band,
        measured=measured, reference=reference,
    )


def pair_band_probability(params, set_size: int) -> float:
    """Exact probability (over the random planted set), rounded once to float,
    that the decoy stays in the (1 +- eps) band around the planted function at
    a fixed set of the given size.  Both functions see the set only through
    its overlap with the planted set, so one hypergeometric sum is exact."""
    band = PairBand(params)
    return float(_hypergeom_mass(params.n, params.h, set_size, 0, set_size,
                                 lambda j: band.sandwich(j, set_size - j)[1]))


def pair_band_reference(params, set_size: int) -> float:
    """Conservative exponential reference for :func:`pair_band_probability`:
    the two-sided rates for the overlap count and for the complement count,
    union-bounded (the piecewise pair depends on at most those two counts)."""
    eps = float(params.epsilon)
    mu = set_size * params.h / params.n
    mu_bar = set_size * (params.n - params.h) / params.n
    loss = sum(chernoff_tails(eps ** 2 * mu, eps) + chernoff_tails(eps ** 2 * mu_bar, eps))
    return max(0.0, 1.0 - loss)
