"""Certified-capacity start index M(n), 597 <= n <= M_OF_MAX, and its sums.

s_sum(n) adds the integer floor terms from k = 597; bound_gap(k) is the
certified capacity U((k+1)^2) - L(k^2) of one window, positive and only
defined from 597 on, where both explicit bound validity thresholds hold.
m_of(n) is the largest start index m in [597, n] whose tail capacity still
covers s_sum(n); tail sums decrease strictly in m, so binary search applies.
Each probe fsums its tail of cached gaps, with the summed gap errors plus one
rounding of each sum as its bound (_tail); ties inside it are decided at quad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    _U,
    DUSART_LOWER_C,
    DUSART_UPPER_C,
    RealEval,
    _check_squares,
    _dusart,
    _run,
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


M_OF_MAX = 9999999  # keeps s_sum below 1e14 and bound_gap's int64 squares exact
_CHUNK = 1 << 16  # k per cache fill, bounding its temporaries

# floor terms, gaps and gap errors from k = 597, filled in place; unfilled pages take no memory
_tfloors = np.empty(M_OF_MAX - START_K + 1, dtype=np.int64)
_gaps = np.empty(M_OF_MAX - START_K + 1)
_gap_errs = np.empty(M_OF_MAX - START_K + 1)
_filled = 0  # the caches hold k = START_K .. START_K + _filled - 1


def _check(n: int) -> None:
    if not START_K <= n <= M_OF_MAX:
        raise DomainError(f"M(n) is defined for {START_K} <= n <= {M_OF_MAX}, got n = {n}")


def _extend_caches(n: int) -> None:
    global _filled
    while _filled <= n - START_K:
        i, j = _filled, min(_filled + _CHUNK, n - START_K + 1)
        ks = np.arange(START_K + i, START_K + j, dtype=np.int64)
        _tfloors[i:j] = theorem_floor(ks)[0]
        gap = bound_gap(ks)
        _gaps[i:j], _gap_errs[i:j] = gap.value, gap.abs_err
        _filled = j


def s_sum(n: int) -> int:
    """Exact integer sum of theorem_floor(k) for k = 597..n, in int64."""
    _check(n)
    _extend_caches(n)
    return int(_tfloors[: n - START_K + 1].sum())


def bound_gap(k: int, precision: str = "double") -> RealEval:
    """U((k+1)^2) - L(k^2), strictly positive for every k >= 597; k may be an int64 array."""
    if np.min(k) < START_K:
        raise DomainError(f"bound_gap needs k >= {START_K}, bounds are uncertified below")
    _check_squares(k, "bound_gap")
    upper, _ = dusart_upper((k + 1) * (k + 1), precision)
    lower, _ = dusart_lower(k * k, precision)
    return RealEval(upper.value - lower.value, upper.abs_err + lower.abs_err, precision)


def _tail(m: int, n: int) -> tuple[float, float]:
    """The cached gaps g_k of k = m..n summed to t, and a bound on |t - T|
    for their exact capacities G_k summed to T; the caches must reach n.

    math.fsum rounds the exact sum to nearest, which errs by at most half an
    ulp of the result, so |t - sum g| <= u*t; likewise the errors e_k >=
    |g_k - G_k| sum to E >= sum e - u*E. So |t - T| <= E + u*t + u*E, three
    doubles (u is a power of two) whose fsum rounds to nearest: the next
    double up bounds their exact sum.
    """
    i, j = m - START_K, n - START_K + 1
    t = math.fsum(_gaps[i:j].data)
    err = math.fsum(_gap_errs[i:j].data)
    u = _U["double"]
    return t, math.nextafter(math.fsum((err, u * t, u * err)), math.inf)


def _tail_quad(m: int, n: int):
    """Tail capacity at quad precision through analytic's evaluator, for deciding near-tie comparisons."""

    def tail(log):
        total = 0
        for k in range(m, n + 1):
            total += _dusart(log, (k + 1) * (k + 1), DUSART_UPPER_C)[0]
            total -= _dusart(log, k * k, DUSART_LOWER_C)[0]
        return total

    return _run(tail, "quad")


def _covers(S: int, m: int, n: int) -> bool:
    """Does the tail capacity starting at m cover the integer sum S? Inside
    the error bound, the tail is re-summed at quad precision to decide."""
    t, err = _tail(m, n)
    if abs(t - S) <= err:
        return S <= _tail_quad(m, n)
    return S <= t


def m_of(n: int) -> int | None:
    """Largest m in [597, n] whose tail capacity covers s_sum(n); None if none."""
    S = s_sum(n)  # checks n before the caches grow
    lo, hi = START_K - 1, n  # lo = START_K - 1: no m covers
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _covers(S, mid, n):
            lo = mid
        else:
            hi = mid - 1
    return lo if lo >= START_K else None


def c3_table(ns: list[int]) -> list[MnRecord]:
    """Capacity ratio rows for empirical study; no pass/fail verdict."""
    for n in ns:
        _check(n)
    out = []
    for n in ns:
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


def c3_json_rows(records: list[MnRecord]) -> list[dict]:
    """The rows as the JSON objects that `table c3` and `report all` emit."""
    return [{"n": r.n, "s_sum": r.s_sum, "m": r.m_value, "ratio": r.ratio} for r in records]
