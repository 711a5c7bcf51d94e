"""Test-only code: views of sieve segments, a second order of summing mbound's gaps,
and scalar Miller-Rabin, the reference for the vectorised kernel."""

from __future__ import annotations

import bisect

import numpy as np

from primesq import mbound
from primesq.analytic import _U
from primesq.counting import MILLER_RABIN_BASES, MILLER_RABIN_PSI
from primesq.errors import DomainError
from primesq.sieve import SegmentBitmap


def marked_values(seg: SegmentBitmap) -> np.ndarray:
    """The marked integers of seg, ascending."""
    odd = seg.first_odd + 2 * np.flatnonzero(seg.bits).astype(np.int64)
    if seg.has_two:
        return np.concatenate((np.array([2], dtype=np.int64), odd))
    return odd


def is_marked(seg: SegmentBitmap, m: int) -> bool:
    """Whether m, which must lie in [seg.lo, seg.hi), is marked."""
    if not (seg.lo <= m < seg.hi):
        raise ValueError(f"{m} outside [{seg.lo}, {seg.hi})")
    if m % 2 == 0:
        return m == 2 and seg.has_two
    return bool(seg.bits[(m - seg.first_odd) // 2])


def concat(a: SegmentBitmap, b: SegmentBitmap) -> SegmentBitmap:
    """Join two adjacent segments into one over the union window."""
    if a.hi != b.lo:
        raise ValueError("segments are not adjacent")
    return SegmentBitmap(a.lo, b.hi, np.concatenate((a.bits, b.bits)), a.has_two or b.has_two)


def forward_tail_sum(m: int, n: int) -> tuple[float, float]:
    """Forward-order compensated tail sum, for order-independence checks."""
    if m < mbound.START_K or n < m:
        raise DomainError("need 597 <= m <= n")
    mbound._extend_caches(n)
    u = _U["double"]
    s = c = err = 0.0
    for i in range(m - mbound.START_K, n - mbound.START_K + 1):
        g = mbound._gaps[i]
        err += mbound._gap_errs[i] + 2.0 * u * g
        y = g - c
        t = s + y
        c = (t - s) - y
        s = t
    return s - c, err + u * abs(s)


def miller_rabin(x: int) -> bool:
    """Whether x is prime; exact for 0 <= x < psi_12 (about 3.18e23).

    Trial division by the bases first, then a strong probable-prime test
    to the first k bases, the fewest whose psi_k exceeds x.
    """
    for a in MILLER_RABIN_BASES:
        if x % a == 0:
            return x == a
    if x < 2:
        return False
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES[:bisect.bisect_right(MILLER_RABIN_PSI, x) + 1]:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True
