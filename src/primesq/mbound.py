"""Certified-capacity start index M(n) and its supporting sums.

s_sum(n) adds the integer floor terms from k = 597; bound_gap(k) is the
certified capacity U((k+1)^2) - L(k^2) of one window, positive and only
defined from 597 on, where both explicit bound validity thresholds hold.
m_of(n) is the largest start index m in [597, n] whose tail capacity still
covers s_sum(n); tail sums decrease strictly in m, so binary search applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .analytic import (
    _U,
    DUSART_LOWER_C,
    DUSART_UPPER_C,
    PRECISION_BITS,
    RealEval,
    _dusart,
    _least,
    dusart_lower,
    dusart_upper,
    theorem_floor,
)
from .errors import DomainError

START_K = 597  # least k certifying both L(k^2) and U((k+1)^2)


@dataclass(frozen=True)
class MnRecord:
    """Row of the capacity-ratio table; ratio is m_value/n when defined."""

    n: int
    s_sum: int
    m_value: int | None
    ratio: float | None


# integer floor terms and double-precision gaps, cached as ascending prefixes
_tfloors: list[int] = []
_gaps: list[float] = []
_gap_errs: list[float] = []


def _extend_caches(n: int) -> None:
    ks = np.arange(START_K + len(_tfloors), n + 1, dtype=np.int64)
    if ks.size:
        _tfloors.extend(theorem_floor(ks)[0].tolist())
        gap = bound_gap(ks)
        _gaps.extend(gap.value.tolist())
        _gap_errs.extend(gap.abs_err.tolist())


def s_sum(n: int) -> int:
    """Exact integer sum of theorem_floor(k) for k = 597..n."""
    if n < START_K:
        raise DomainError(f"s_sum needs n >= {START_K}")
    _extend_caches(n)
    return sum(_tfloors[: n - START_K + 1])


def bound_gap(k: int, precision: str = "double") -> RealEval:
    """U((k+1)^2) - L(k^2), strictly positive for every k >= 597; k may be an int64 array."""
    if _least(k) < START_K:
        raise DomainError(f"bound_gap needs k >= {START_K}, bounds are uncertified below")
    upper, _ = dusart_upper((k + 1) * (k + 1), precision)
    lower, _ = dusart_lower(k * k, precision)
    return RealEval(upper.value - lower.value, upper.abs_err + lower.abs_err, precision)


def _tail_arrays(n: int) -> tuple[list[float], list[float]]:
    """Suffix capacity sums: tail[i] = sum of gaps for k = 597+i .. n.

    Backward compensated accumulation; err[i] bounds |tail[i] - exact|.
    """
    _extend_caches(n)
    count = n - START_K + 1
    tail = [0.0] * count
    terr = [0.0] * count
    u = _U["double"]
    s = c = err = 0.0
    for i in range(count - 1, -1, -1):
        g = _gaps[i]
        err += _gap_errs[i] + 2.0 * u * g
        y = g - c
        t = s + y
        c = (t - s) - y
        s = t
        tail[i] = s - c
        terr[i] = err + u * abs(s)
    return tail, terr


def _tail_quad(m: int, n: int) -> mpf:
    """Tail capacity at quad precision, for deciding near-tie comparisons."""
    with mp.workprec(PRECISION_BITS["quad"]):
        total = mpf(0)
        for k in range(m, n + 1):
            total += _dusart(mp.log, (k + 1) * (k + 1), DUSART_UPPER_C)[0]
            total -= _dusart(mp.log, k * k, DUSART_LOWER_C)[0]
        return total


def _covers(S: int, m: int, n: int, tail: list[float], terr: list[float]) -> bool:
    """Does the tail capacity starting at m cover the integer sum S?

    Whenever the float comparison sits inside the tracked error bound, the
    tail is re-summed at quad precision before deciding.
    """
    i = m - START_K
    if abs(tail[i] - S) <= terr[i]:
        return S <= _tail_quad(m, n)
    return S <= tail[i]


def m_of(n: int) -> int | None:
    """Largest m in [597, n] whose tail capacity covers s_sum(n); None if none."""
    if n < START_K:
        raise DomainError(f"m_of needs n >= {START_K}")
    S = s_sum(n)
    tail, terr = _tail_arrays(n)
    if not _covers(S, START_K, n, tail, terr):
        return None
    lo, hi = START_K, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _covers(S, mid, n, tail, terr):
            lo = mid
        else:
            hi = mid - 1
    return lo


def c3_table(ns: list[int]) -> list[MnRecord]:
    """Capacity ratio rows for empirical study; no pass/fail verdict."""
    out = []
    for n in ns:
        if n < START_K:
            raise DomainError(f"c3_table needs every n >= {START_K}")
        m = m_of(n)
        out.append(MnRecord(n, s_sum(n), m, (m / n) if m is not None else None))
    return out


C3_CSV_COLUMNS = "n,s_sum,m,ratio"


def c3_csv(records: list[MnRecord]) -> str:
    lines = [C3_CSV_COLUMNS]
    for rec in records:
        m = "" if rec.m_value is None else str(rec.m_value)
        ratio = "" if rec.ratio is None else f"{rec.ratio:.6f}"
        lines.append(f"{rec.n},{rec.s_sum},{m},{ratio}")
    return "\n".join(lines) + "\n"
