"""Bitmask subsets and query-counted value oracles."""

from __future__ import annotations

_BLOCK_BITS = 64
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Subset:
    """Canonical subset of {0..n-1}: an n-bit mask with cached cardinality.

    Two subsets are equal iff their masks (and widths) are equal; bits at
    positions >= n are never set, so the mask itself is the canonical form.
    """

    __slots__ = ("n", "mask", "size")

    def __init__(self, n: int, mask: int = 0):
        if n < 1:
            raise ValueError(f"invalid subset width n={n}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask has bits outside 0..{n - 1}")
        self.n = n
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def _raw(cls, n: int, mask: int, size: int) -> "Subset":
        # Unchecked constructor for hot loops; callers guarantee invariants.
        s = object.__new__(cls)
        s.n = n
        s.mask = mask
        s.size = size
        return s

    @classmethod
    def from_elements(cls, elements, n: int) -> "Subset":
        mask = 0
        for e in elements:
            if not 0 <= e < n:
                raise ValueError(f"element {e} outside ground set 0..{n - 1}")
            mask |= 1 << e
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls._raw(n, 0, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls._raw(n, (1 << n) - 1, n)

    def contains(self, e: int) -> bool:
        return bool((self.mask >> e) & 1)

    def add(self, e: int) -> "Subset":
        if not 0 <= e < self.n:
            raise ValueError(f"element {e} outside ground set 0..{self.n - 1}")
        if self.contains(e):
            return self
        return Subset._raw(self.n, self.mask | (1 << e), self.size + 1)

    def remove(self, e: int) -> "Subset":
        if not self.contains(e):
            return self
        return Subset._raw(self.n, self.mask & ~(1 << e), self.size - 1)

    def union(self, other: "Subset") -> "Subset":
        self._check_same_ground(other)
        m = self.mask | other.mask
        return Subset._raw(self.n, m, m.bit_count())

    def intersection(self, other: "Subset") -> "Subset":
        self._check_same_ground(other)
        m = self.mask & other.mask
        return Subset._raw(self.n, m, m.bit_count())

    def complement(self) -> "Subset":
        m = ~self.mask & ((1 << self.n) - 1)
        return Subset._raw(self.n, m, self.n - self.size)

    def elements(self) -> list[int]:
        return list(iter_bits(self.mask))

    def key(self) -> tuple[int, ...]:
        """Canonical 64-bit block sequence (least-significant block first,
        trailing zero blocks trimmed).  Stable across runs; used as PRF input."""
        m = self.mask
        blocks = []
        while m:
            blocks.append(m & _BLOCK_MASK)
            m >>= _BLOCK_BITS
        return tuple(blocks)

    def _check_same_ground(self, other: "Subset"):
        if self.n != other.n:
            raise ValueError(f"ground set mismatch: n={self.n} vs n={other.n}")

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.n and self.contains(e)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter_bits(self.mask)

    def __eq__(self, other):
        return (
            isinstance(other, Subset) and self.n == other.n and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"Subset(n={self.n}, elements={self.elements()})"


class ValueOracle:
    """Black-box access to a set function with query accounting: the one base
    class of every set function in the package.

    Subclasses implement :meth:`value`, a pure function of the subset (and
    the oracle's state at construction).  :meth:`query` is the counted entry
    point used by solvers; the counter increments by exactly one per call.
    The class-level count of 0 lets a subclass that sets ``n`` itself skip
    ``__init__``, as the exact function kinds do.
    """

    _queries = 0

    def __init__(self, n: int):
        self.n = n

    def value(self, s: Subset):
        raise NotImplementedError

    def exact_table(self):
        """``(T, D)``, an int64 array over all 2^n masks and a positive int
        with ``value(S) == Fraction(T[S.mask], D)`` on every set, or None.

        None, the default, means a reader evaluates ``value()`` set by set:
        the function has no table form, some datum is not exactly an int,
        bool or Fraction, or an entry could reach 2^61.
        """
        return None

    def _check_ground(self, s: Subset):
        if s.n != self.n:
            raise ValueError(f"ground set mismatch: oracle n={self.n}, subset n={s.n}")

    def query(self, s: Subset):
        if s.n != self.n:  # _check_ground inline: one call less per query
            raise ValueError(f"ground set mismatch: oracle n={self.n}, subset n={s.n}")
        self._queries += 1
        return self.value(s)

    @property
    def query_count(self) -> int:
        return self._queries
