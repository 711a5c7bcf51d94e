"""Base prime generation and windowed sieving of the integers prime to 6.

Any interval [lo, hi) can be primality-resolved with base primes up to
sqrt(hi - 1); memory stays proportional to the window, never to hi.
Windows store one boolean per integer prime to 6 (the 6k+1 and 6k+5
slots), with 2 and 3 special-cased, so multiples of 2 and 3 are never
stored.

A window starts as copies of a 10010-slot pattern with the multiples of 5,
7, 11 and 13 struck (the pre-sieve of Walisch's primesieve). Each base prime
p >= 17 then strikes two progressions, its multiples p*m with m = 1 and
m = 5 mod 6, each a step of 2p slots. A few in-place numpy operations find
every base prime's first two such multiples in the window.
How a prime strikes depends on how often it strikes the window at hand: in
a window of n slots, a prime p <= n // (2 * MAX_ROUNDS) hits each of its
progressions at least MAX_ROUNDS times and strikes by slice assignment;
all larger ones strike together, one fancy-index round per multiple, in at
most MAX_ROUNDS rounds. An index past the window is clamped to one sentinel
slot after it, and each round takes only the prefix of primes that can
still strike, so the Python steps per window do not grow with the number
of base primes. A full segment of 2^20 slots splits at 10922.

The base-prime table is itself one such window over [0, limit], whose
base primes come from base_primes itself at isqrt(limit). The package-wide
table starts empty, so import sieves nothing, and grows in blocks of 2^16.

Counts stream such windows and sum their marks up to each bound; no counted
window is ever turned into a list of primes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTable

# Slots per segment used by streaming counts (covers 3 * 2^20 integers).
DEFAULT_SEGMENT_SLOTS = 1 << 20
# A base prime that hits each of its progressions in a window at least this
# many times strikes by slice assignment; the others take at most this many rounds.
MAX_ROUNDS = 48
# Every window starts from one periodic pattern with the multiples of these struck.
PRESIEVE = (5, 7, 11, 13)
# The package-wide table grows to a multiple of this limit.
SHARED_BLOCK = 1 << 16


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
    """The primes up to limit inclusive, from one window sieve of [0, limit]."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    seg = sieve_window(0, limit + 1, base_primes(math.isqrt(limit)))
    primes = np.flatnonzero(seg.bits)  # slot s holds 3s + 1 or 3s + 2, whichever is odd
    primes *= 3
    primes += 1
    primes |= 1
    return PrimeTable(limit, np.concatenate((np.array(seg.small, dtype=np.int64), primes)))


_shared = PrimeTable(0, np.empty(0, dtype=np.int64))


def shared_table(limit: int) -> PrimeTable:
    """Package-wide prime table covering limit. Returned values are immutable.

    The table grows to at least twice its limit, and to limit rounded up to
    a multiple of SHARED_BLOCK, so re-sieves amortize; growing never changes
    previously listed primes, it only appends.
    """
    global _shared
    if _shared.limit < limit:
        _shared = base_primes(max(2 * _shared.limit, -(-limit // SHARED_BLOCK) * SHARED_BLOCK))
    return _shared


@functools.cache
def _presieve_pattern() -> np.ndarray:
    """Slots 2j and 2j + 1 mark 6j + 1 and 6j + 5 iff prime to PRESIEVE, for j < 5005."""
    pattern = np.ones(2 * math.prod(PRESIEVE), dtype=bool)
    for p in PRESIEVE:  # p * m for m = 1 and m = 5 mod 6, steps of 2p slots
        pattern[p // 3 :: 2 * p] = False
        pattern[5 * p // 3 :: 2 * p] = False
    pattern.setflags(write=False)
    return pattern


# m0 mod 6 -> how far the least m >= m0 prime to 6, and the next one, lie above m0
_FIRST_M = np.array([1, 0, 3, 2, 1, 0], dtype=np.int64)
_SECOND_M = np.array([5, 4, 5, 4, 3, 2], dtype=np.int64)


def _slots_below(off):
    """Slots whose integer lies below base + off, for off >= 0 (an int or an array)."""
    return 2 * (off // 6) + (off % 6 >= 2)


@dataclass(frozen=True)
class SegmentBitmap:
    """Primality marks for [lo, hi): one bool byte per integer prime to 6, 2 and 3 special-cased.

    With base = lo - lo % 6, bits[2j] marks base + 6j + 1 and bits[2j + 1]
    marks base + 6j + 5, so integer v sits in slot (v - base) // 3; a slot
    below lo is never marked.
    """

    lo: int
    hi: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        self.bits.setflags(write=False)

    @property
    def base(self) -> int:
        return self.lo - self.lo % 6

    @property
    def small(self) -> tuple[int, ...]:
        """The special-cased primes 2 and 3 that lie in [lo, hi)."""
        return tuple(p for p in (2, 3) if self.lo <= p < self.hi)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits)) + len(self.small)


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
    base = lo - lo % 6
    n = _slots_below(hi - base)
    pattern = _presieve_pattern()
    start = base // 3 % pattern.size  # base's slot in the pattern's period
    bits = np.empty(n + 1, dtype=bool)  # bits[n] is the sentinel
    filled = min(n + 1, pattern.size)  # one period from start, wrapping, then doubled
    head = min(filled, pattern.size - start)
    bits[:head] = pattern[start : start + head]
    bits[head:filled] = pattern[: filled - head]
    while filled <= n:
        bits[filled : 2 * filled] = bits[: min(filled, n + 1 - filled)]
        filled *= 2
    if base + 1 < max(lo, 2):  # slot 0 holds 1 or an integer below lo
        bits[0] = False
    if lo <= PRESIEVE[-1]:  # struck in the pattern, but prime
        bits[[(p - base) // 3 for p in PRESIEVE if lo <= p < hi]] = True
    if hi > 289:
        # 17^2 is the least composite prime to 2..13; below that nothing needs marking
        cut = int(np.searchsorted(table.primes, math.isqrt(hi - 1), side="right"))
        p = table.primes[6:cut]  # the base primes from 17 on
        # the multiples m*p >= max(p^2, lo) with m prime to 6 start at the least
        # two such m >= m0 = max(p, ceil(lo/p)); all arithmetic is in place
        m = np.floor_divide(-lo, p)
        np.negative(m, out=m)
        np.maximum(m, p, out=m)
        rem = np.floor_divide(m, 6)
        rem *= -6
        rem += m  # m mod 6, quicker than np.remainder
        i1 = np.take(_FIRST_M, rem, mode="clip")
        i2 = np.take(_SECOND_M, rem, out=rem, mode="clip")
        for idx in (i1, i2):
            idx += m
            idx *= p
            idx -= base
            idx //= 3  # the multiple's slot; a step of 6p integers is 2p slots
            np.minimum(idx, n, out=idx)
        step = np.multiply(p, 2, out=m)
        k = int(np.searchsorted(p, n // (2 * MAX_ROUNDS), side="right"))
        for a, b, q in zip(i1[:k].tolist(), i2[:k].tolist(), step[:k].tolist()):
            bits[a::q] = False
            bits[b::q] = False
        i1, i2, p, step = i1[k:], i2[k:], p[k:], step[k:]
        rounds, live = 0, p.size
        while live:
            bits[i1[:live]] = False
            bits[i2[:live]] = False
            rounds += 1
            # only a prime with 2p * rounds <= n can reach a slot again
            live = int(np.searchsorted(p, n // (2 * rounds), side="right"))
            for idx in (i1[:live], i2[:live]):
                idx += step[:live]
                np.minimum(idx, n, out=idx)
    return SegmentBitmap(lo, hi, bits[:n])


def count_primes_below(lo: int, bounds, *, segment_slots: int = DEFAULT_SEGMENT_SLOTS) -> np.ndarray:
    """For each ascending bound b, the number of primes in [lo, b).

    One pass streams sieve segments of 3 * segment_slots integers over
    [lo, max bound); a bound at or below lo counts 0. Each segment's bounds
    are walked in order, summing the marks between consecutive slots.
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
        nxt = min(cur + 3 * segment_slots, hi)
        seg = sieve_window(cur, nxt, table)
        i, j = np.searchsorted(bounds, (cur, nxt), side="right")  # bounds in (cur, nxt]
        if i < j:
            ends = _slots_below(bounds[i:j] - seg.base).tolist()  # slots below each bound
            got, at, seg_counts = below, 0, []
            for end in ends:
                got += int(np.count_nonzero(seg.bits[at:end]))
                seg_counts.append(got)
                at = end
            counts[i:j] = seg_counts
            for p in seg.small:
                counts[i:j] += bounds[i:j] > p
        below += seg.count()
        del seg  # frees its marks before the next segment allocates its own
        cur = nxt
    return counts
