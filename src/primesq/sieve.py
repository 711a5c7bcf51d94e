"""Base prime generation and odd-only windowed sieving.

Any interval [lo, hi) can be primality-resolved with base primes up to
sqrt(hi - 1); memory stays proportional to the window, never to hi.
Windows store one boolean per odd integer, with 2 special-cased.

One numpy expression finds every base prime's first odd multiple in the
window. Primes below SLICE_PRIME_MAX strike by slice assignment; all larger
ones strike together, one fancy-index round per multiple, so the Python
steps per window do not grow with the number of base primes.

Counts stream such windows and sum their marks up to each bound; no window
is ever turned into a list of primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTable

# Odd slots per segment used by streaming counts (covers 2^21 integers).
DEFAULT_SEGMENT_ODDS = 1 << 20
# Base primes below this strike by slice assignment; larger ones in rounds.
SLICE_PRIME_MAX = 1 << 14


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


_shared: PrimeTable = base_primes(1 << 16)


def shared_table(limit: int) -> PrimeTable:
    """Package-wide prime table covering limit. Returned values are immutable.

    The table grows to at least twice its limit, so re-sieves amortize;
    growing never changes previously listed primes, it only appends.
    """
    global _shared
    if _shared.limit < limit:
        _shared = base_primes(max(limit, 2 * _shared.limit))
    return _shared


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

    def count(self) -> int:
        return int(np.count_nonzero(self.bits)) + (1 if self.has_two else 0)


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
        p = table.primes[1:cut]  # the odd base primes; primes[0] is 2
        # the first odd multiple m*p >= max(p^2, lo) has the least odd m >= max(p, ceil(lo/p))
        m = np.maximum(p, -(-lo // p)) | 1
        idx = (m * p - first_odd) >> 1  # its slot; a step of p slots is 2p integers
        k = int(np.searchsorted(p, SLICE_PRIME_MAX))
        for i, q in zip(idx[:k].tolist(), p[:k].tolist()):
            bits[i::q] = False
        idx, p = idx[k:], p[k:]
        while idx.size:
            live = idx < n_odds
            idx, p = idx[live], p[live]
            bits[idx] = False
            idx += p
    return SegmentBitmap(lo, hi, bits, lo <= 2 < hi)


def count_primes_below(lo: int, bounds, *, segment_odds: int = DEFAULT_SEGMENT_ODDS) -> np.ndarray:
    """For each ascending bound b, the number of primes in [lo, b).

    One pass streams sieve segments of segment_odds odd slots over
    [lo, max bound); a bound at or below lo counts 0. Each segment's bounds
    are walked in order, summing the marks between consecutive odd slots.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = np.zeros(bounds.size, dtype=np.int64)
    hi = int(bounds[-1]) if bounds.size else lo
    if hi <= lo:
        return counts
    table = shared_table(math.isqrt(hi - 1))
    below = 0  # primes in [lo, cur)
    cur = lo
    while cur < hi:
        nxt = min(cur + 2 * segment_odds, hi)
        seg = sieve_window(cur, nxt, table)
        i, j = np.searchsorted(bounds, (cur, nxt), side="right")  # bounds in (cur, nxt]
        if i < j:
            ends = ((bounds[i:j] - seg.first_odd + 1) // 2).tolist()  # odd slots below each bound
            got, at, seg_counts = below, 0, []
            for end in ends:
                got += int(np.count_nonzero(seg.bits[at:end]))
                seg_counts.append(got)
                at = end
            counts[i:j] = seg_counts
            if seg.has_two:
                counts[i:j] += bounds[i:j] > 2
        below += seg.count()
        cur = nxt
    return counts
