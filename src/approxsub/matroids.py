"""Independence systems for constrained maximization: uniform and partition
matroids, plus the oracle interface arbitrary user matroids can implement."""

from __future__ import annotations

from .sets import Subset


class Matroid:
    """Independence oracle over {0..n-1}: downward closed with exchange."""

    n: int

    def is_independent(self, s: Subset) -> bool:
        raise NotImplementedError

    def rank(self) -> int:
        """Common size of all maximal independent sets."""
        raise NotImplementedError

    def _check_ground(self, s: Subset):
        if s.n != self.n:
            raise ValueError(f"ground set mismatch: matroid n={self.n}, subset n={s.n}")


class UniformMatroid(Matroid):
    """S independent iff |S| <= k."""

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"rank k={k} outside 0..{n}")
        self.n = n
        self.k = k

    def is_independent(self, s: Subset) -> bool:
        self._check_ground(s)
        return s.size <= self.k

    def rank(self) -> int:
        return self.k


class PartitionMatroid(Matroid):
    """S independent iff each block's intersection with S is within capacity.

    ``blocks`` assigns every element a block id 0..B-1; ``capacities`` gives
    the per-block limits.
    """

    def __init__(self, blocks, capacities):
        self.blocks = list(blocks)
        self.capacities = list(capacities)
        self.n = len(self.blocks)
        if self.n < 1:
            raise ValueError("need at least one element")
        nblocks = len(self.capacities)
        for b in self.blocks:
            if not 0 <= b < nblocks:
                raise ValueError(f"block id {b} outside 0..{nblocks - 1}")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        self._block_masks = [0] * nblocks
        for e, b in enumerate(self.blocks):
            self._block_masks[b] |= 1 << e

    def is_independent(self, s: Subset) -> bool:
        self._check_ground(s)
        for mask, cap in zip(self._block_masks, self.capacities):
            if (s.mask & mask).bit_count() > cap:
                return False
        return True

    def rank(self) -> int:
        # Capacity in excess of the block size cannot be used.
        return sum(
            min(cap, mask.bit_count())
            for mask, cap in zip(self._block_masks, self.capacities)
        )


def matroid_to_dict(m: Matroid) -> dict:
    if isinstance(m, UniformMatroid):
        return {"kind": "uniform", "n": m.n, "k": m.k}
    if isinstance(m, PartitionMatroid):
        return {"kind": "partition", "blocks": m.blocks, "capacities": m.capacities}
    raise TypeError("cannot serialize this matroid type")


def matroid_from_dict(d: dict) -> Matroid:
    if not isinstance(d, dict):
        raise ValueError(f"a matroid must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "uniform":
        return UniformMatroid(d["n"], d["k"])
    if kind == "partition":
        return PartitionMatroid(d["blocks"], d["capacities"])
    raise ValueError(f"unknown matroid kind {kind!r}")
