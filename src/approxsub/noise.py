"""Noise wrappers around exact functions; both are counted value oracles.

Two models:

* consistent noise: a persistent multiplicative perturbation, the same value
  on every re-query of a set.  Implemented statelessly: the seed is mixed once
  per oracle, and each query folds its mask's 64-bit words into it with a
  64-bit mixer, so no per-set table is stored and identity holds across runs.
* inconsistent noise: every query is a fresh unbiased draw; the sampling
  estimator draws m per set from its own seeded stream and caches their mean
  to present a consistent oracle again.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import config_int, config_number, config_seed, refuse_stray_keys, require_keys
from .sets import Subset, ValueOracle

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
MAX_SAMPLES = 1 << 24  # a SamplingEstimator draws one set's m samples as one 128 MiB batch


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a full-avalanche 64-bit mixer."""
    z = (z + _GOLDEN) & _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def subset_unit(state: int, mask: int) -> float:
    """Deterministic uniform-in-[0,1) value keyed by (state, mask): the mixer
    is folded from the oracle's mixed seed over the mask's 64-bit words, least
    significant first, up to the last nonzero one, and the final state is
    mapped to [0,1) by 53-bit mantissa division."""
    while mask:
        state = _mix64(state ^ (mask & _M64))
        mask >>= 64
    return (state >> 11) * 2.0 ** -53


class ConsistentNoiseOracle(ValueOracle):
    """F(S) = xi_S * f(S) with xi_S uniform in [1-eps, 1+eps], persistent per set.

    xi_S is a pure function of (seed, mask of S), and the seed is mixed when
    the oracle is built: re-querying any set returns the identical value, and
    two oracles built with the same (f, eps, seed) agree everywhere.
    """

    def __init__(self, base, epsilon: float, seed: int):
        if not 0 <= epsilon < 1:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        super().__init__(base.n)
        self.base = base
        self.epsilon = float(epsilon)
        self._state = _mix64(seed & _M64)

    def value(self, s: Subset):
        v = self.base.value(s)
        if self.epsilon == 0.0:
            return v
        u = subset_unit(self._state, s.mask)
        return (1.0 + self.epsilon * (2.0 * u - 1.0)) * v


def required_samples(B, b, n, epsilon: float, confidence_constant: float = 3.0) -> int:
    """Samples per set so the averaged oracle is within (1 +- eps) of f w.h.p.

    m = ceil(confidence_constant * B * ln(n) / (b * eps^2)), clamped to >= 1.
    The multiplicative constant is configuration: the underlying guarantee
    fixes only the scaling, not the constant.
    """
    if b <= 0:
        raise ValueError(
            "lower value bound b must be positive; for ranges reaching zero use "
            "additive-error estimation instead"
        )
    if B < b:
        raise ValueError(f"need b <= B, got b={b}, B={B}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < confidence_constant < math.inf:
        raise ValueError(
            f"confidence_constant must be positive and finite, got {confidence_constant}")
    denominator = b * epsilon * epsilon
    if not denominator > 0:
        raise ValueError(f"b * eps^2 underflows to 0 at b={b}, eps={epsilon}")
    m = confidence_constant * B * math.log(n) / denominator
    if not m < math.inf:
        raise ValueError(f"sample count {m} is not finite")
    return max(1, math.ceil(m))


FAMILIES = ("uniform-relative", "additive-bounded")


def _check_draws(family: str, width: float) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    if not 0 <= width < math.inf:
        raise ValueError(f"width must be nonnegative and finite, got {width}")


class SamplingEstimator(ValueOracle):
    """Consistent oracle over inconsistent noise: the mean of m draws per
    set, taken in first-query order from one stream seeded by ``seed`` and
    cached under the subset's mask; ``samples`` counts the draws.  A draw is

    * ``uniform-relative``: f(S) * U[1-width, 1+width], or
    * ``additive-bounded``: f(S) + U[-width, +width].

    A mean that is not finite (a draw overflowed) is an error, not an estimate.
    """

    def __init__(self, base, family: str, width: float, seed: int, m: int):
        _check_draws(family, width)
        if not 1 <= m <= MAX_SAMPLES:
            raise ValueError(f"need 1 <= m <= {MAX_SAMPLES} samples per set, got {m}")
        super().__init__(base.n)
        self.base = base
        self.family = family
        self.width = float(width)
        self.m = m
        self.samples = 0
        self._rng = np.random.default_rng(config_seed(seed))
        self._cache: dict[int, float] = {}

    def value(self, s: Subset) -> float:
        self._check_ground(s)  # before the cache, which is keyed by mask alone
        cached = self._cache.get(s.mask)
        if cached is not None:
            return cached
        v = float(self.base.value(s))
        self.samples += self.m
        shift = self.width * (2.0 * self._rng.random(self.m) - 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            est = float(np.mean(v * (1.0 + shift) if self.family == "uniform-relative"
                                else v + shift))
        # A draw that is not finite leaves the mean inf or nan.
        if not math.isfinite(est):
            raise ValueError(f"sampled estimate {est} of {s} is not finite "
                             f"(f = {v}, width = {self.width}, m = {self.m})")
        self._cache[s.mask] = est
        return est

    def cached_sets(self) -> list[int]:
        """Masks of the sets estimated so far, in first-query order."""
        return list(self._cache)


_NOISE_KEYS = {"consistent": {"kind", "epsilon", "seed"}}
_NOISE_KEYS["inconsistent"] = _NOISE_KEYS["consistent"] | {
    "family", "width", "m", "B", "b", "confidence_constant"}


def noise_from_dict(base, cfg: dict):
    """Build a noise wrapper from a config block.

    Consistent: {"kind": "consistent", "epsilon": e, "seed": s}
    Sampled estimator: {"kind": "inconsistent", "family": ..., "width": w,
    "seed": s} plus either "m" or {"B": ..., "b": ..., "epsilon": ...,
    "confidence_constant": ...}, which sets m by :func:`required_samples`.
    Any other key is rejected.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"a noise block must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind not in ("consistent", "inconsistent"):
        raise ValueError(f"unknown noise kind {kind!r}")
    refuse_stray_keys(cfg, _NOISE_KEYS[kind], f"a {kind} noise block")
    seed = config_seed(cfg.get("seed", 0))  # None would draw OS entropy
    if kind == "consistent":
        require_keys(cfg, ["epsilon"], "a consistent noise block")
        return ConsistentNoiseOracle(base, config_number(cfg["epsilon"], "epsilon"), seed)
    if "width" not in cfg:
        raise ValueError("an inconsistent noise block needs 'width', each draw's spread")
    family, width = cfg.get("family", "uniform-relative"), config_number(cfg["width"], "width")
    _check_draws(family, width)  # a bad family or width reports before m's errors
    if "m" in cfg:
        m = config_int(cfg["m"], "m")
    elif "B" in cfg:
        if "b" not in cfg:
            raise ValueError("a noise block with 'B' needs 'b', the lower value bound")
        require_keys(cfg, ["epsilon"], "an inconsistent noise block with 'B'")
        m = required_samples(
            config_number(cfg["B"], "B"), config_number(cfg["b"], "b"), base.n,
            config_number(cfg["epsilon"], "epsilon"),
            config_number(cfg.get("confidence_constant", 3.0), "confidence_constant"),
        )
    else:
        raise ValueError("an inconsistent noise block needs 'm' or 'B' for the "
                         "sandwich check (a sampled estimator)")
    return SamplingEstimator(base, family, width, seed, m)
