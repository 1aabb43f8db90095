"""Independence systems for constrained maximization: partition matroids
(one block of capacity k is the uniform matroid of rank k), plus the oracle
interface arbitrary user matroids can implement."""

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

