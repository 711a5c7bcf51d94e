"""Base prime generation and odd-only windowed sieving.

Any interval [lo, hi) can be primality-resolved with base primes up to
sqrt(hi - 1); memory stays proportional to the window, never to hi.
Windows store one boolean per odd integer, with 2 special-cased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTable

# Odd slots per segment used by streaming counts (covers 2^21 integers).
DEFAULT_SEGMENT_ODDS = 1 << 20


@dataclass(frozen=True)
class PrimeTable:
    """Exactly the primes <= limit, ascending. Immutable once built."""

    limit: int
    primes: np.ndarray

    def __post_init__(self) -> None:
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.primes.size)


def base_primes(limit: int) -> PrimeTable:
    """Simple sieve of Eratosthenes up to limit inclusive."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return PrimeTable(limit, np.flatnonzero(is_p).astype(np.int64))


def grown(table: PrimeTable, new_limit: int) -> PrimeTable:
    """Return a table covering new_limit; doubling keeps re-sieves amortized.

    Growing never changes previously listed primes, it only appends.
    """
    if new_limit <= table.limit:
        return table
    return base_primes(max(new_limit, 2 * table.limit))


_shared: PrimeTable = base_primes(1 << 16)


def shared_table(limit: int) -> PrimeTable:
    """Package-wide prime table, grown on demand. Returned values are immutable."""
    global _shared
    t = _shared
    if t.limit < limit:
        t = grown(t, limit)
        _shared = t
    return t


@dataclass(frozen=True)
class SegmentBitmap:
    """Primality marks for [lo, hi): one bool byte per odd integer, 2 special-cased."""

    lo: int
    hi: int
    bits: np.ndarray  # bits[i] marks first_odd + 2*i
    has_two: bool

    def __post_init__(self) -> None:
        self.bits.setflags(write=False)

    @property
    def first_odd(self) -> int:
        return self.lo if self.lo % 2 == 1 else self.lo + 1

    def is_marked(self, m: int) -> bool:
        if not (self.lo <= m < self.hi):
            raise ValueError(f"{m} outside [{self.lo}, {self.hi})")
        if m % 2 == 0:
            return m == 2 and self.has_two
        return bool(self.bits[(m - self.first_odd) // 2])

    def marked_values(self) -> np.ndarray:
        odd = self.first_odd + 2 * np.flatnonzero(self.bits).astype(np.int64)
        if self.has_two:
            return np.concatenate((np.array([2], dtype=np.int64), odd))
        return odd

    def count(self) -> int:
        return int(np.count_nonzero(self.bits)) + (1 if self.has_two else 0)


def concat(a: SegmentBitmap, b: SegmentBitmap) -> SegmentBitmap:
    """Join two adjacent segments into one over the union window."""
    if a.hi != b.lo:
        raise ValueError("segments are not adjacent")
    return SegmentBitmap(a.lo, b.hi, np.concatenate((a.bits, b.bits)), a.has_two or b.has_two)


def sieve_window(lo: int, hi: int, table: PrimeTable) -> SegmentBitmap:
    """Mark exactly the primes in [lo, hi) using base primes from table.

    Raises InsufficientTable when table.limit < floor(sqrt(hi - 1)).
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    if hi >= 2 and table.limit < math.isqrt(hi - 1):
        raise InsufficientTable(
            f"table covers {table.limit}, window needs {math.isqrt(hi - 1)}"
        )
    first_odd = lo if lo % 2 == 1 else lo + 1
    n_odds = max(0, (hi - first_odd + 1) // 2)
    bits = np.ones(n_odds, dtype=bool)
    if n_odds and first_odd == 1:
        bits[0] = False
    if hi > 9:
        # 9 is the least odd composite; below that nothing needs marking
        cut = int(np.searchsorted(table.primes, math.isqrt(hi - 1), side="right"))
        for p in table.primes[:cut].tolist():
            if p == 2:
                continue
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                bits[(start - first_odd) // 2 :: p] = False
    return SegmentBitmap(lo, hi, bits, lo <= 2 < hi)


def count_primes_open(a: int, b: int, *, segment_odds: int = DEFAULT_SEGMENT_ODDS) -> int:
    """Number of primes p with a < p < b; 0 whenever b <= a + 1."""
    if a < 0 or b < 0:
        raise ValueError("need a >= 0 and b >= 0")
    lo, hi = a + 1, b
    if hi <= lo or hi <= 2:
        return 0
    table = shared_table(math.isqrt(hi - 1))
    total = 0
    span = 2 * segment_odds
    cur = lo
    while cur < hi:
        nxt = min(cur + span, hi)
        total += sieve_window(cur, nxt, table).count()
        cur = nxt
    return total


def is_prime(x: int) -> bool:
    """Trial-division ground truth; meant for spot checks, not bulk counting."""
    if x < 0:
        raise ValueError("need x >= 0")
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True
