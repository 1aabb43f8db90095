"""Seeded experiment runners and report emission.

Every runner is a pure function of its arguments (seeds included): rerunning
with the same configuration reproduces the report byte for byte.  Reports are
rows over a fixed column set, written as CSV or a structured JSON document.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .adversarial import (
    Band,
    HardPairParams,
    PairBand,
    build_greedy_trap,
    draw_hidden_set,
    gap_bound,
    power_law_params,
)
from .functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    ConcaveCardinalityFunction,
    CoverageFunction,
    SumFunction,
    config_int,
    config_number,
    config_seed,
)
from .noise import ConsistentNoiseOracle, SamplingEstimator, _check_draws, required_samples
from .sets import Subset
from .solvers import brute_force, expected_greedy_queries, greedy_bound, greedy_cardinality
from .verify import chernoff_tails, tabulate

REPORT_COLUMNS = [
    "experiment", "n", "k", "h", "alpha", "beta", "epsilon", "seed", "solver",
    "value", "baseline", "ratio", "bound", "queries", "band_escapes",
]


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _format_cell(v) -> str:
    return "%.17g" % v if isinstance(v, float) else str(v)


def emit_report(rows, path: str, format: str = "csv") -> None:
    """Write rows (none: the header alone) over the fixed column set; deterministic
    for fixed input.  Each row has every column, and each cell is a str ("" for
    none), an int or a float: CSV writes a float as ``%.17g``, the rest by ``str``."""
    if format == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in REPORT_COLUMNS))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    elif format == "structured":
        doc = {
            "columns": REPORT_COLUMNS,
            "rows": [[row[c] for c in REPORT_COLUMNS] for row in rows],
        }
        with open(path, "w", newline="\n") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# Instance corpus
# ---------------------------------------------------------------------------

def instance_corpus(seed: int = 0, sizes=(8, 10, 12)) -> list:
    """Seeded corpus of monotone submodular instances (>= 30 for the default
    sizes): additive, budget-additive, coverage, concave-of-cardinality, and
    sums, all with small integer data so evaluation is exact."""
    rng = np.random.default_rng(config_seed(seed))
    corpus = []

    def rand_weights(n):
        return [int(w) for w in rng.integers(1, 10, size=n)]

    def rand_coverage(n):
        universe = 2 * n
        covers = []
        for _ in range(n):
            m = int(rng.integers(2, 6))
            pts = rng.choice(universe, size=min(m, universe), replace=False)
            covers.append([int(p) for p in pts])
        return CoverageFunction(universe, covers)

    def rand_concave(n):
        # Nonincreasing positive increments make the table concave monotone.
        incs = sorted((int(d) for d in rng.integers(1, 8, size=n)), reverse=True)
        table = [0]
        for d in incs:
            table.append(table[-1] + d)
        return ConcaveCardinalityFunction(table)

    for n in sizes:
        for _ in range(2):
            corpus.append(AdditiveFunction(rand_weights(n)))
        for _ in range(2):
            w = rand_weights(n)
            budget = int(rng.integers(max(2, sum(w) // 4), max(3, sum(w) // 2)))
            corpus.append(BudgetAdditiveFunction(w, budget))
        for _ in range(3):
            corpus.append(rand_coverage(n))
        for _ in range(2):
            corpus.append(rand_concave(n))
        corpus.append(SumFunction([AdditiveFunction(rand_weights(n)),
                                   BudgetAdditiveFunction(rand_weights(n), int(rng.integers(4, 12)))]))
        corpus.append(SumFunction([rand_coverage(n), rand_concave(n)]))
    return corpus


# ---------------------------------------------------------------------------
# Decoy-following experiment at scale
# ---------------------------------------------------------------------------

def _sandwich_greedy_fast(params: HardPairParams, hidden: Subset) -> tuple[int, Fraction, int, int]:
    """Greedy on the sandwich oracle, collapsed by candidate type.

    Every candidate inside the planted set yields one (planted, decoy) value
    pair and every candidate outside yields another, so each round compares
    two exact values and charges h - s1 or n - h - s0 escapes.  Both kinds are
    left in every round: k <= h <= n/2 (``HardPairParams``), and the planted
    set has exactly h elements.  Both candidates have size s1 + s0 + 1, so
    one :meth:`PairBand.window` per round tests both, on values n times the
    oracle's, in integers: the chosen set, ``Fraction(V, n)``, query count
    and escape count equal the generic greedy's (verified in tests).
    """
    band = PairBand(params)
    n, h, k, cap_n = params.n, params.h, params.k, band.cap_n
    # Unpacking the mask's bytes is ~20x cheaper than two Subset.elements()
    # walks at n = 4096.
    bits = np.unpackbits(
        np.frombuffer(hidden.mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
        count=n, bitorder="little",
    )
    in_ids = np.flatnonzero(bits).tolist()
    out_ids = np.flatnonzero(bits == 0).tolist()
    s1 = s0 = 0
    escapes = 0
    chosen_mask = 0
    value = 0
    for _ in range(k):
        G, lo, hi = band.window(s1 + s0 + 1)
        F_in = n * (s1 + 1) + min(n * s0, cap_n)
        F_out = n * s1 + min(n * (s0 + 1), cap_n)
        v_in = v_out = G
        if not lo <= F_in <= hi:
            v_in = F_in
            escapes += h - s1
        if not lo <= F_out <= hi:
            v_out = F_out
            escapes += (n - h) - s0
        if v_in != v_out:
            take_in = v_in > v_out
        else:
            take_in = in_ids[s1] < out_ids[s0]
        if take_in:
            chosen_mask |= 1 << in_ids[s1]
            s1 += 1
            value = v_in
        else:
            chosen_mask |= 1 << out_ids[s0]
            s0 += 1
            value = v_out
    return chosen_mask, Fraction(value, n), escapes, expected_greedy_queries(n, k)


def planted_optimum_escapes(params: HardPairParams) -> bool:
    """Whether the sandwich reveals the planted function at a budget-sized
    subset of the planted set (if not, the experiment is report-only: the
    anchor value k is conservative)."""
    return not PairBand(params).sandwich(params.k, 0)[1]


def run_distinguishability(
    n: int, beta: float, trials: int, seed: int
) -> tuple[list[dict], dict]:
    """Per trial: draw a planted set, run greedy on the sandwich oracle with
    the scaling-regime budget, and record value, queries, and the number of
    queries on which the oracle revealed the planted function.

    Returns (rows, summary); the summary reports the zero-escape fraction and
    mean achieved-to-anchor ratio but asserts nothing.  Each row's 'ok' flag
    is the exit rule, decided on the exact value: a trial that never escaped
    the band must stay within the gap bound, value <= gap_bound * k.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    params = power_law_params(n, beta)
    bound = float(gap_bound(params))
    limit = gap_bound(params) * params.k

    rows = []
    for t in range(trials):
        hidden = draw_hidden_set(n, params.h, seed + t)
        _, value, escapes, queries = _sandwich_greedy_fast(params, hidden)
        rows.append({
            "experiment": "distinguish", "n": n, "k": params.k, "h": params.h,
            "alpha": params.alpha, "beta": beta, "epsilon": params.epsilon,
            "seed": seed + t, "solver": "greedy", "value": float(value),
            "baseline": params.k, "ratio": float(value) / params.k, "bound": bound,
            "queries": queries, "band_escapes": escapes, "ok": escapes > 0 or value <= limit,
        })
    zero = sum(1 for r in rows if r["band_escapes"] == 0)
    summary = {
        "trials": trials,
        "zero_escape_fraction": zero / trials if trials else 0.0,
        "mean_ratio": sum(r["ratio"] for r in rows) / trials if trials else 0.0,
        "gap_bound": bound,
        "params": {"n": n, "h": params.h, "alpha": params.alpha,
                   "k": params.k, "epsilon": params.epsilon},
        "report_only": not planted_optimum_escapes(params),
    }
    return rows, summary


# ---------------------------------------------------------------------------
# Greedy noise sweep
# ---------------------------------------------------------------------------

SWEEP_MAX_N = 14  # brute force visits up to 2^n sets per run
SAMPLE_MAX_N = 20  # the sampling rule's value range visits all 2^n sets


def run_noise_sweep(instances=None, k: int = 4, delta_grid=(0.0, 0.5, 1 - 1e-9),
                    seeds=range(10), sizes=None, count=None, corpus_seed=None) -> list[dict]:
    """For each instance (default: ``instance_corpus(corpus_seed, sizes)[:count]``), error
    level delta (eps = delta/k), and seed: wrap in consistent noise, run greedy, and compare
    against the brute-force optimum of the noisy oracle and the closed-form ratio guarantee.

    Rows carry an extra 'ok' flag, value >= bound * optimum with no slack (the float
    tolerances left, :meth:`Band.near` and ``verify._SUBMODULAR_TOL``, are for rounded
    noise products and float tables).  Rows are seed-major.  Before any run or corpus,
    sizes, count or corpus_seed (None: not given) beside instances is refused, and every
    n must be in k..SWEEP_MAX_N, every seed nonnegative and every delta/k in [0, 1).
    """
    keys = {"sizes": sizes, "count": count, "corpus_seed": corpus_seed}
    if instances is not None and (given := [key for key, v in keys.items() if v is not None]):
        raise ValueError(f"a sweep config with 'instances' does not read {given}")
    k = config_int(k, "k")
    if k < 1:
        raise ValueError(f"sweep budget k must be >= 1, got {k}")
    if count is not None and config_int(count, "count") < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    sizes = [config_int(size, "a size") for size in ((8, 10) if sizes is None else sizes)]
    for n in sizes if instances is None else [inst.n for inst in instances]:
        if not k <= n <= SWEEP_MAX_N:  # greedy refuses k > n; brute force visits 2^n sets
            raise ValueError(f"sweep instances need k <= n <= {SWEEP_MAX_N}, got k={k}, n={n}")
    seeds = [config_seed(seed) for seed in seeds]
    epsilons = [float(config_number(delta, "a delta_grid entry")) / k for delta in delta_grid]
    for delta, eps in zip(delta_grid, epsilons):
        if not 0 <= eps < 1:
            raise ValueError(f"delta_grid entries need 0 <= delta/k < 1, got delta={delta}, k={k}")
    if instances is None:
        instances = instance_corpus(0 if corpus_seed is None else corpus_seed, sizes)[:count]
    rows = []
    for seed in seeds:
        for idx, inst in enumerate(instances):
            for eps in epsilons:
                F = ConsistentNoiseOracle(inst, eps, seed)
                res = greedy_cardinality(F, k)
                opt = brute_force(F, k)
                bound = greedy_bound(k, eps)
                val = float(res.value)
                best = float(opt.value)
                if not (math.isfinite(val) and math.isfinite(best)):
                    raise ValueError(f"sweep values are not finite: greedy {val}, "
                                     f"optimum {best} on instance #{idx}")
                ratio = val / best if best > 0 else 1.0
                ok = val >= bound * best
                rows.append({
                    "experiment": "sweep", "n": inst.n, "k": k, "h": "", "alpha": "",
                    "beta": "", "epsilon": eps, "seed": seed,
                    "solver": f"greedy/{getattr(inst, 'kind', 'fn')}#{idx}",
                    "value": val, "baseline": best, "ratio": ratio,
                    "bound": bound,
                    "queries": res.queries_used + opt.queries_used,
                    "band_escapes": "", "ok": ok,
                })
    return rows


# ---------------------------------------------------------------------------
# Greedy trap
# ---------------------------------------------------------------------------

def run_trap(k: int = 16, beta: float = 0.5, n: int = 64) -> tuple[list[dict], dict]:
    """Build the trap instance (the build refuses one that would leave the
    band) and report the predicted and the measured greedy value."""
    trap = build_greedy_trap(k, beta, n)
    res = greedy_cardinality(trap, k)
    measured = Fraction(res.value)
    claimed = trap.claimed_greedy_value()
    # The intended optimum (all of A plus budget filled from C) is known in
    # closed form; no brute force at n = 64.
    best_known = trap.override_value + (k - len(trap.a_elements))
    row = {
        "experiment": "trap", "n": n, "k": k, "h": "", "alpha": "",
        "beta": beta, "epsilon": float(trap.epsilon), "seed": "",
        "solver": "greedy", "value": float(measured),
        "baseline": float(claimed), "ratio": float(measured / claimed),
        "bound": "", "queries": res.queries_used, "band_escapes": "",
    }
    summary = {
        "epsilon": float(trap.epsilon),
        "claimed_greedy_value": float(claimed),
        "measured_greedy_value": float(measured),
        "discrepancy": measured != claimed,
        "best_feasible_value": float(best_known),
        "chosen": res.chosen.elements(),
        "note": (
            "measured greedy differs from the predicted trap value: the "
            "deflation override covers only the exact A-plus-one-C sets, so "
            "after greedy accepts a single filler element the next queries "
            "reveal the full value of C and greedy escapes the trap"
        ) if measured != claimed else "",
    }
    return [row], summary


def run_trap_curve(ks, beta: float = 0.5) -> list[dict]:
    """Measured greedy-to-best ratio for trap instances across budgets k, at n = 4k."""
    if not ks:
        raise ValueError("a trap curve needs at least one budget")
    rows = []
    for k in ks:
        rws, summary = run_trap(k, beta, 4 * k)
        row = dict(rws[0])
        row["experiment"] = "trap-curve"
        row["ratio"] = summary["measured_greedy_value"] / summary["best_feasible_value"]
        row["baseline"] = summary["best_feasible_value"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Sampling-rule validation
# ---------------------------------------------------------------------------

def sampling_union_bound(n_sets: int, m: int, epsilon: float, width: float,
                         b: float = 1.0) -> float:
    """Union-bounded exponential prediction for the chance any of n_sets
    averaged estimates leaves the (1 +- eps) band.

    Each draw, rescaled to [0,1], concentrates around m/2 with relative
    deviation delta = eps/width (relative noise) at the band edge; the
    two :func:`~approxsub.verify.chernoff_tails` are summed and
    union-bounded over the queried sets.  Without noise (width 0) no
    estimate leaves the band, nor at a width so small that delta overflows.
    """
    delta = epsilon * b / width if width > 0 else math.inf
    try:  # delta ** 2, not delta * delta: libm's square can differ in the last bit
        x = delta ** 2 * (m / 2.0)
    except OverflowError:
        x = math.inf
    if math.isinf(x):
        return 0.0
    per_set = sum(chernoff_tails(x, delta))
    return min(1.0, n_sets * per_set)


def run_sampling_validation(
    f=None, epsilon: float = 0.1, confidence_constant: float = 3.0, trials: int = 100,
    seed: int = 0, k: int = 4, width: float = 0.5,
    family: str = "uniform-relative", n=None, alpha=None,
) -> tuple[list[dict], dict]:
    """Drive greedy through a sampling estimator and measure how often any queried set's
    estimate leaves the (1 +- eps) band around f (None: the step fixture of n and alpha).

    m is set from the value range of f over nonempty sets; per-trial rows report the
    violating-set count against the union-bounded prediction.  n or alpha beside f is refused.
    """
    keys = {"n": n, "alpha": alpha}
    if f is not None and (given := [key for key, v in keys.items() if v is not None]):
        raise ValueError(f"a sample config with 'instance' does not read {given}")
    trials, k, seed = config_int(trials, "trials"), config_int(k, "k"), config_seed(seed)
    epsilon, width = config_number(epsilon, "epsilon"), config_number(width, "width")
    confidence_constant = config_number(confidence_constant, "confidence_constant")
    _check_draws(family, width)  # the estimator's own check, even when no trial runs
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    n = config_int(12 if n is None else n, "n") if f is None else f.n
    if not 1 <= k <= n:
        raise ValueError(f"greedy budget k must be in 1..n, got k={k}, n={n}")
    if n > SAMPLE_MAX_N:
        raise ValueError(f"sampling validation guarded at n <= {SAMPLE_MAX_N}, got {n}")
    if f is None:  # the step fixture alpha * [S nonempty] on n elements
        alpha = 5 if alpha is None else alpha
        if config_int(alpha, "alpha") < 1:
            raise ValueError(f"the step fixture needs alpha >= 1, got {alpha}")
        f = ConcaveCardinalityFunction([0] + [alpha] * n)
    T = f.exact_table()  # the values over nonempty sets, or their ends as exact ratios
    ends = (tabulate(f, n)[1:] if T is None
            else [Fraction(int(end), f.den) for end in (T[1:].min(), T[1:].max())])
    lo, hi = min(ends), max(ends)
    try:  # float() of an exact value is correctly rounded
        b, B = float(lo), float(hi)
    except OverflowError:
        raise ValueError(f"the value range {lo}..{hi} is past the float range") from None
    m = required_samples(B, b, n, epsilon, confidence_constant)
    band = Band(float(epsilon))
    rows = []
    trials_violating = 0
    n_sets = expected_greedy_queries(n, k)
    rel_b = 1.0 if family == "uniform-relative" else b
    prediction = sampling_union_bound(n_sets, m, epsilon, width, rel_b)
    for t in range(trials):
        est = SamplingEstimator(f, family, width, seed + t, m)
        greedy_cardinality(est, k)
        violations = 0
        for mk in est.cached_sets():
            s = Subset._raw(n, mk, mk.bit_count())
            if not band.contains(est.value(s), f.value(s)):
                violations += 1
        if violations:
            trials_violating += 1
        rows.append({
            "experiment": "sample", "n": n, "k": k, "h": "", "alpha": "",
            "beta": "", "epsilon": epsilon, "seed": seed + t,
            "solver": f"estimator(m={m},{family},w={width})",
            "value": violations, "baseline": n_sets,
            "ratio": violations / n_sets, "bound": prediction,
            "queries": est.samples, "band_escapes": violations,
        })
    summary = {
        "m": m, "trials": trials, "queried_sets_per_trial": n_sets,
        "violating_trials": trials_violating,
        "violating_fraction": trials_violating / trials if trials else 0.0,
        "prediction": prediction,
        "confidence_constant": confidence_constant,
    }
    return rows, summary

