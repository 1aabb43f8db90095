"""The one ε-band predicate against the band tests it replaced.

Each reference below is the earlier implementation, kept verbatim: the
rational test in ``SandwichFunction.value``, ``verify._band_holds`` with the
``check_sandwich`` loop around it, the override check in ``run_trap``, the
``PairBand`` constructor, and the ``Fraction`` scaling in
``verify._exact_int_table``.  ``functions.int_table``, which replaced
``verify._exact_int_table`` as the checkers' one rescaler, is tested against
both that scaling and ``_exact_int_table`` itself (verbatim in ``conftest``).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from approxsub.adversarial import (
    Band,
    GreedyTrapInstance,
    HardPairParams,
    PairBand,
    SandwichFunction,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
    power_law_params,
)
from approxsub.experiments import run_sampling_validation
from approxsub.functions import AdditiveFunction, CoverageFunction, int_table
from approxsub.noise import SamplingEstimator
from approxsub.sets import Subset
from approxsub.solvers import greedy_cardinality
from approxsub.verify import CheckReport, _describe, check_sandwich
from conftest import TableFunction, _exact_int_table, override_sets


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class ReferenceSandwich:
    """``SandwichFunction``'s band state and ``value``, verbatim."""

    def __init__(self, fh, g, epsilon: float):
        self.n = fh.n
        self.fh = fh
        self.g = g
        self.epsilon = float(epsilon)
        self._lo = 1 - Fraction(self.epsilon)
        self._hi = 1 + Fraction(self.epsilon)

    def value(self, s: Subset):
        fv = self.fh.value(s)
        gv = self.g.value(s)
        if self._lo * fv <= gv <= self._hi * fv:
            return gv
        return fv


_SANDWICH_TOL = 1e-12


def _band_holds(Fv, fv, lo, hi, exact: bool) -> bool:
    low = lo * fv
    high = hi * fv
    if exact:
        return low <= Fv <= high
    low = float(low)
    high = float(high)
    Fv = float(Fv)
    return (
        Fv >= low - _SANDWICH_TOL * max(1.0, abs(low))
        and Fv <= high + _SANDWICH_TOL * max(1.0, abs(high))
    )


def reference_check_sandwich(F, f, epsilon: float, n: int) -> CheckReport:
    """``check_sandwich`` in exhaustive mode, verbatim."""
    name = "sandwich"
    desc = f"{_describe(F)} vs {_describe(f)} @ eps={epsilon}"
    lo = 1 - Fraction(float(epsilon))
    hi = 1 + Fraction(float(epsilon))
    masks = range(1 << n)
    total = 1 << n
    examined = 0
    for m in masks:
        s = Subset._raw(n, m, m.bit_count())
        Fv = F.value(s)
        fv = f.value(s)
        exact = isinstance(Fv, (int, Fraction)) and isinstance(fv, (int, Fraction))
        examined += 1
        if not _band_holds(Fv, fv, lo, hi, exact):
            return CheckReport(name, desc, False, (s, Fv, fv), examined)
    assert examined == total
    return CheckReport(name, desc, True, None, examined)


def reference_trap_holds(trap, Fv, fv) -> bool:
    """``run_trap``'s override check, verbatim."""
    lo = 1 - trap.epsilon
    hi = 1 + trap.epsilon
    return lo * fv <= Fv <= hi * fv


def reference_pair_band_ints(params) -> tuple[int, int, int]:
    """(q, q_lo, q_hi) as ``PairBand.__init__`` computed them."""
    p, q = float(params.epsilon).as_integer_ratio()
    return q, q - p, q + p


def reference_exact_int_table(values) -> np.ndarray | None:
    """``verify._exact_int_table`` with the ``Fraction`` product, verbatim."""
    denoms = set()
    for v in values:
        if isinstance(v, Fraction):
            denoms.add(v.denominator)
        elif not isinstance(v, int):
            return None
    scale = math.lcm(*denoms) if denoms else 1
    scaled = []
    top = 0
    for v in values:
        x = v * scale
        if isinstance(x, Fraction):
            x = x.numerator  # denominator is 1 by construction of scale
        scaled.append(x)
        top = max(top, abs(x))
    if 2 * top >= 2 ** 62:
        return None
    return np.array(scaled, dtype=np.int64)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

# The traps' exact eps: 1/4, 1/5, and 1/sqrt(12) at its binary value.  The
# last one's rounded block A puts the override outside the band, so there the
# override check must fail as it did before; the build refuses that trap, so
# it is constructed with the blocks the build rounds to.
TRAPS = [build_greedy_trap(16, 0.5, 64), build_greedy_trap(25, 0.5, 52),
         GreedyTrapInstance(48, 12, 0.5, Fraction(1 / 12 ** 0.5), 2, 23)]

EPSILONS = [0.3, 0.25, 0.1, 0.5, 0.9, 1e-9, 0.0625,
            Fraction(1, 3), Fraction(2, 7)] + [trap.epsilon for trap in TRAPS]

EXACT_VALUES = [0, 1, -1, 2, -3, 7, True, False, 10 ** 20,
                Fraction(1, 3), Fraction(-5, 7), Fraction(7, 10), Fraction(13, 10),
                Fraction(2, 3), Fraction(10 ** 18 + 1, 10 ** 18)]


def _edges(eps, f):
    """Values exactly on both band edges around f, and just outside them."""
    e = Fraction(eps)
    lo, hi = (1 - e) * f, (1 + e) * f
    tiny = Fraction(1, 10 ** 30)
    return [lo, hi, lo - tiny, lo + tiny, hi - tiny, hi + tiny]


def _exact_pairs(eps):
    for f in EXACT_VALUES:
        for F in EXACT_VALUES + _edges(eps, f):
            yield F, f


# ---------------------------------------------------------------------------
# Band against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", EPSILONS)
def test_holds_matches_fraction_forms(eps):
    band = Band(eps)
    exact_eps = Fraction(eps)
    outcomes = set()
    for F, f in _exact_pairs(eps):
        got = band.holds(F, f)
        assert got == _band_holds(F, f, 1 - exact_eps, 1 + exact_eps, True), (F, f)
        assert got == band.contains(F, f)
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("eps", EPSILONS)
def test_band_edges(eps):
    band = Band(eps)
    for f in EXACT_VALUES:
        lo, hi, below, above_lo, below_hi, above = _edges(eps, f)
        if f >= 0:
            assert band.holds(lo, f) and band.holds(hi, f)
        if f > 0:
            assert band.holds(above_lo, f) and band.holds(below_hi, f)
            assert not band.holds(below, f) and not band.holds(above, f)
        if f < 0:  # (1 - eps) f > (1 + eps) f: the band is empty
            assert not any(band.holds(F, f) for F in (lo, hi, below, above))


@pytest.mark.parametrize("trap", TRAPS, ids=lambda t: f"k={t.k}")
def test_trap_override_check_matches(trap):
    band = Band(trap.epsilon)
    assert (band.q, band.q_hi - band.q) == (trap.epsilon.denominator, trap.epsilon.numerator)
    sets = list(override_sets(trap))
    assert sets
    for s in sets:
        Fv, fv = trap.value(s), trap.f.value(s)
        assert band.holds(Fv, fv) == reference_trap_holds(trap, Fv, fv) == (trap.k != 12)
        for F in _edges(trap.epsilon, fv) + [Fv + 1, -Fv, 0]:
            assert band.holds(F, fv) == reference_trap_holds(trap, F, fv)


def test_fraction_eps_is_not_rounded_to_a_float():
    # float(1/3) is just below 1/3, so its band excludes the exact edge 4 = (1 + 1/3) 3.
    assert Band(Fraction(1, 3)).holds(4, 3)
    assert not Band(1 / 3).holds(4, 3)


@pytest.mark.parametrize("eps", [0.3, 0.25, 0.1, 0.5, 0.9])
def test_sandwich_value_matches_on_mixed_values(eps):
    for f in EXACT_VALUES:
        for F in EXACT_VALUES + _edges(eps, f):
            fh = TableFunction(1, [f, f])
            g = TableFunction(1, [F, F])
            s = Subset(1, 1)
            got = SandwichFunction(fh, g, eps).value(s)
            want = ReferenceSandwich(fh, g, eps).value(s)
            assert got == want and type(got) is type(want), (F, f)


GENERIC_VALUES = [0.0, 1.0, -1.5, 0.7, 1.3, 2.6, 1e300,
                  np.int64(0), np.int64(3), np.int64(-2), np.float64(0.9), np.float64(2.0)]


@pytest.mark.parametrize("eps", [0.3, 0.25, 0.5])
def test_float_and_numpy_values_take_the_generic_path(eps, monkeypatch):
    def refuse(self, F, f):
        raise AssertionError("exact path taken for a non-rational value")

    monkeypatch.setattr(Band, "holds", refuse)
    s = Subset(1, 1)
    mixed = GENERIC_VALUES + [1, Fraction(3, 2)]
    for f in mixed:
        for F in mixed:
            if isinstance(F, (int, Fraction)) and isinstance(f, (int, Fraction)):
                continue
            fh, g = TableFunction(1, [f, f]), TableFunction(1, [F, F])
            got = SandwichFunction(fh, g, eps).value(s)
            want = ReferenceSandwich(fh, g, eps).value(s)
            assert got == want and type(got) is type(want), (F, f)
            lo, hi = 1 - Fraction(eps), 1 + Fraction(eps)
            assert Band(eps).near(F, f) == _band_holds(F, f, lo, hi, False), (F, f)


@pytest.mark.parametrize("F, f", [(math.inf, math.inf), (1.0, math.nan), (math.inf, 1.0),
                                  (1.7e308, 1.7e308), (-1.7e308, -1.7e308)])
def test_near_refuses_values_and_edges_that_are_not_finite(F, f):
    """The last two have finite sides but an edge (1 + eps) f that overflows."""
    with pytest.raises(ValueError, match="not finite"):
        Band(0.5).near(F, f)
    assert Band(0.5).near(1e308, 1e308)

@pytest.mark.parametrize("past, passed", [(1e-10, False), (1e-13, True)])
@pytest.mark.parametrize("edge", ["hi", "lo"])
@pytest.mark.parametrize("table", [True, False], ids=["f-exact-table", "f-float"])
def test_check_sandwich_float_slack_is_one_part_in_1e12(past, passed, edge, table):
    """A float F past an edge (1 +- eps) f by a relative 1e-10 is an escape,
    found on that set; past it by 1e-13 it is rounding, inside
    :meth:`Band.near`'s 1e-12 slack.  Every other F is float(f), in the band.
    f is read from its exact int table or as floats by ``value()``."""
    n, eps, witness = 3, 0.3, 0b110
    f = AdditiveFunction([3, 5, 7])
    if not table:
        f = TableFunction(n, [float(f.value(Subset(n, m))) for m in range(1 << n)])
    F_tab = [float(f.value(Subset(n, m))) for m in range(1 << n)]
    band = Band(eps)
    side = band.hi if edge == "hi" else band.lo
    F_tab[witness] = float(side * f.value(Subset(n, witness))) * (
        1 + past if edge == "hi" else 1 - past)
    report = check_sandwich(TableFunction(n, F_tab), f, eps, n)
    assert report.passed is passed
    if passed:
        assert report.examined == 1 << n
    else:
        assert report.examined == witness + 1
        assert report.counterexample == (Subset(n, witness), F_tab[witness], 12)


def test_exact_values_take_the_exact_path(monkeypatch):
    calls = []
    original = Band.holds

    def spy(self, F, f):
        calls.append((F, f))
        return original(self, F, f)

    monkeypatch.setattr(Band, "holds", spy)
    fh, g = TableFunction(1, [3, Fraction(7, 2)]), TableFunction(1, [True, Fraction(4)])
    sw = SandwichFunction(fh, g, 0.3)
    assert [sw.value(Subset(1, m)) for m in (0, 1)] == [3, Fraction(4)]
    assert calls == [(True, 3), (Fraction(4), Fraction(7, 2))]


def test_contains_on_float_estimates():
    """``sample``'s escape test: a float estimate against an exact f meets
    the exact edges, so it equals the float-edge predicate of the deleted
    ``Band.float_holds`` off the rounded edges, and is exact on them; against
    a float f it is that predicate everywhere."""
    rng = random.Random(5)
    for eps in (0.1, 0.3, 0.05):
        band = Band(eps)
        lo = 1 - Fraction(float(eps))
        hi = 1 + Fraction(float(eps))
        for fv in [5, 0, Fraction(7, 3), -2, 12, 7]:
            edges = (float(lo * fv), float(hi * fv))
            for ev in [*edges, float(fv)] + [
                    float(fv) * (1 + rng.uniform(-2 * eps, 2 * eps)) for _ in range(50)]:
                assert band.contains(ev, fv) == (lo * fv <= Fraction(ev) <= hi * fv)
                if ev not in edges:
                    assert band.contains(ev, fv) == (edges[0] <= ev <= edges[1])
                assert band.contains(ev, float(fv)) == (
                    float(lo * float(fv)) <= ev <= float(hi * float(fv)))
    # 6.3 is float((1 - 0.1) * 7), rounded up past the exact edge 6.3 - 0.9 * 2^-54:
    # the float-edge predicate counted it inside, the exact test an escape.
    assert Fraction(6.3) < Band(0.1).lo * 7
    assert not Band(0.1).contains(6.3, 7) and Band(0.1).contains(6.3, 7.0)


def test_sample_counts_escapes_with_contains(monkeypatch):
    """Every (estimate, f(S)) pair the ``sample`` loop tests reaches
    ``Band.contains``, and its rows count the pairs that fail it."""
    seen = []
    original = Band.contains

    def spy(self, F, f):
        seen.append((F, f, original(self, F, f)))
        return seen[-1][2]

    f = CoverageFunction(7, [(1 << 7) - 1] * 8)
    kwargs = dict(epsilon=0.1, confidence_constant=1.0, trials=6, seed=3, k=3,
                  width=2.0, family="uniform-relative")
    monkeypatch.setattr(Band, "contains", spy)
    rows, summary = run_sampling_validation(f, **kwargs)
    monkeypatch.setattr(Band, "contains", original)
    want = []
    for t in range(kwargs["trials"]):
        est = SamplingEstimator(f, kwargs["family"], kwargs["width"], kwargs["seed"] + t,
                                summary["m"])
        greedy_cardinality(est, kwargs["k"])
        sets = [Subset._raw(f.n, mk, mk.bit_count()) for mk in est.cached_sets()]
        want.append([(est.value(s), f.value(s)) for s in sets])
    got = iter(seen)
    for row, pairs in zip(rows, want, strict=True):
        tested = [next(got) for _ in pairs]
        assert [(F, fv) for F, fv, _ in tested] == pairs
        assert row["band_escapes"] == sum(not inside for *_, inside in tested)
    assert next(got, None) is None
    assert 0 < sum(row["band_escapes"] for row in rows) < len(seen)


# ---------------------------------------------------------------------------
# check_sandwich and the hard-pair sandwiches
# ---------------------------------------------------------------------------

def _pair_sandwiches():
    params = HardPairParams(12, 6, 2, 5, 0.3)
    for seed in range(6):
        pair = build_monotone_pair(params, draw_hidden_set(12, 6, seed))
        yield params, pair, build_sandwich(pair)


def test_pair_sandwiches_match_on_every_mask():
    for params, pair, sw in _pair_sandwiches():
        ref = ReferenceSandwich(pair.fh, pair.g, params.epsilon)
        escapes = 0
        for m in range(1 << 12):
            s = Subset._raw(12, m, m.bit_count())
            got, want = sw.value(s), ref.value(s)
            assert got == want and type(got) is type(want), m
            escapes += got != pair.g.value(s)
        assert escapes > 0
        assert check_sandwich(sw, pair.fh, params.epsilon, 12) == \
            reference_check_sandwich(sw, pair.fh, params.epsilon, 12)


@pytest.mark.parametrize("eps", [0.3, 0.25, Fraction(1, 3)])
def test_check_sandwich_matches_on_mixed_tables(eps):
    rng = random.Random(11)
    n = 4
    pool = EXACT_VALUES[:9] + [Fraction(1, 3), Fraction(-5, 7), 0.5, np.int64(2), 1.25]
    nonnegative = [0, 1, 2, 7, True, False, 10 ** 20, Fraction(1, 3)]
    seen = set()
    for i in range(300):
        # Every other f table is nonnegative and exact, so some tables pass.
        f_tab = [rng.choice(nonnegative if i % 2 else pool) for _ in range(1 << n)]
        e = Fraction(float(eps))
        # Mostly in-band F, so some tables pass and failures land anywhere.
        F_tab = [v * (1 + e * rng.choice([-1, 0, 1])) if rng.random() < 0.97 and
                 isinstance(v, (int, Fraction)) else rng.choice(pool) for v in f_tab]
        F, f = TableFunction(n, F_tab), TableFunction(n, f_tab)
        report = check_sandwich(F, f, eps, n)
        assert report == reference_check_sandwich(F, f, eps, n)
        seen.add((report.passed, report.examined > 1))
    assert seen == {(True, True), (False, False), (False, True)}


@pytest.mark.parametrize("eps", [0.3, 0.05, 0.125, 0.45, 0.9])
def test_pair_band_takes_its_ints_from_band(eps):
    params = HardPairParams(24, 12, 3, 8, eps)
    band = PairBand(params)
    assert (band.q, band.q_lo, band.q_hi) == reference_pair_band_ints(params)


def _band_state(band: Band) -> tuple:
    return band.q, band.q_lo, band.q_hi, band.lo, band.hi


@pytest.mark.parametrize("params", [power_law_params(4096, 0.25),
                                    HardPairParams(12, 6, 2, 5, 0.3)], ids=["decoy", "verify"])
def test_pair_band_is_the_band_of_its_epsilon(params):
    band = PairBand(params)
    assert isinstance(band, Band)
    assert _band_state(band) == _band_state(Band(float(params.epsilon)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_band_is_the_band_of_fuzzed_params(data):
    n = data.draw(st.integers(2, 1000), label="n")
    h = data.draw(st.integers(1, n // 2), label="h")
    k = data.draw(st.integers(1, h), label="k")
    alpha = data.draw(st.integers(1, k), label="alpha")
    eps = data.draw(st.one_of(
        st.floats(min_value=1e-12, max_value=1 - 1e-12),
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(
            lambda e: 0 < e < 1)), label="epsilon")
    params = HardPairParams(n, h, alpha, k, eps)
    band = PairBand(params)
    assert isinstance(band, Band)
    assert _band_state(band) == _band_state(Band(float(eps)))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

rationals = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6),
)
epsilons = st.one_of(
    st.floats(min_value=1e-12, max_value=1 - 1e-12),
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(lambda e: 0 < e < 1),
)


@settings(max_examples=400, deadline=None)
@given(epsilons, rationals, rationals, st.sampled_from([None, -1, 1]))
def test_holds_equals_fraction_arithmetic(eps, F, f, edge):
    e = Fraction(eps)
    if edge is not None:  # land exactly on an edge
        F = (1 + edge * e) * f
    assert Band(eps).holds(F, f) == ((1 - e) * f <= F <= (1 + e) * f)


# ---------------------------------------------------------------------------
# Integer table scaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table", [
    [],
    [0, 1, 2, 3],
    [True, False, 2, Fraction(1, 2)],
    [Fraction(1, 3), Fraction(-5, 7), 4, -9, Fraction(0)],
    [Fraction(2 ** 61 - 1, 3), 0],
    [Fraction(2 ** 61, 3), 0],
    [2 ** 61, 1],
    [Fraction(1, 2 ** 40), Fraction(1, 3 ** 20), 1],
    [1, 2.0, 3],
    [Fraction(1, 2), np.int64(1)],
])
def test_exact_int_table_matches_fraction_scaling(table):
    got = int_table(table)
    assert_same_int_table(got, reference_exact_int_table(table), table)
    assert_same_int_table(got, _exact_int_table(table), table)


def assert_same_int_table(got, want, values):
    """int_table's array equals the reference table, and each entry is D * v
    for D the values' least common denominator."""
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        D = math.lcm(*(v.denominator for v in values))
        assert got.tolist() == [D * v for v in values]


def test_exact_int_table_matches_on_random_mixed_tables():
    rng = random.Random(3)
    for _ in range(300):
        table = [rng.choice([rng.randint(-50, 50), Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
                             rng.random() < 0.5]) for _ in range(rng.randint(1, 64))]
        got = int_table(table)
        assert_same_int_table(got, reference_exact_int_table(table), table)
        assert_same_int_table(got, _exact_int_table(table), table)
