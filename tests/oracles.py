"""Test-only code: views of sieve segments, trial division, a sieve of
Eratosthenes, the reference for the base-prime table, a window sieve with
one bool per integer, an open-interval prime count, backward and forward
compensated sums of mbound's gaps with a linear-scan M(n) on the backward
ones, the 160-bit tail capacity as one mpmath loop, the reference for
mbound's, scalar Miller-Rabin, the reference for the vectorised kernel,
Legendre's recurrence over every x // i, the reference for the combinatorial
pi, which updates only the rough i, the running sum of r(k) as an exact
integer sum of the double terms and as a 160-bit sum of the real terms,
campaign rows built one n at a time from the scalar analytic functions, the
reference for the chunk row builders, reports folded one row at a time, the
reference for the column folds, and the margin CSV formatted one row tuple
at a time, the reference for the column formatter."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np
from mpmath import mp

from primesq import mbound
from primesq.analytic import (
    _U,
    DUSART_LOWER_C,
    DUSART_UPPER_C,
    PRECISION_BITS,
    _dusart,
    c1_rhs,
    c2_lhs,
    delta,
    lemma1_proof_sides,
    lemma1_sides,
    lemma2_lhs,
    r_term,
    theorem_floor,
)
from primesq.counting import MILLER_RABIN_BASES, MILLER_RABIN_PSI, _icbrt
from primesq.errors import DomainError
from primesq.sieve import DEFAULT_SEGMENT_SLOTS, SegmentBitmap, count_primes_below
from primesq.verify import (
    CLS_BOUNDARY,
    CLS_PASS,
    CLS_VIOLATION,
    MARGIN_CSV_COLUMNS,
    ConjectureReport,
    LemmaRecord,
    MarginRecord,
)


def marked_values(seg: SegmentBitmap) -> np.ndarray:
    """The marked integers of seg, ascending."""
    slots = np.flatnonzero(seg.bits).astype(np.int64)
    # slot 2j holds base + 6j + 1, slot 2j + 1 holds base + 6j + 5
    prime_to_6 = seg.base + 3 * slots + 1 + (slots & 1)
    return np.concatenate((np.array(seg.small, dtype=np.int64), prime_to_6))


def is_marked(seg: SegmentBitmap, m: int) -> bool:
    """Whether m, which must lie in [seg.lo, seg.hi), is marked."""
    if not (seg.lo <= m < seg.hi):
        raise ValueError(f"{m} outside [{seg.lo}, {seg.hi})")
    if m % 2 == 0 or m % 3 == 0:
        return m in seg.small
    return bool(seg.bits[(m - seg.base) // 3])


def concat(a: SegmentBitmap, b: SegmentBitmap) -> SegmentBitmap:
    """Join two adjacent segments into one over the union window."""
    if a.hi != b.lo:
        raise ValueError("segments are not adjacent")
    # b's slots start at its own base, 2 slots per 6 integers above a's; where
    # the two overlap, each leaves unmarked the slots outside its window
    shift = (b.base - a.base) // 3
    bits = np.zeros(max(a.bits.size, shift + b.bits.size), dtype=bool)
    bits[: a.bits.size] = a.bits
    bits[shift : shift + b.bits.size] |= b.bits
    return SegmentBitmap(a.lo, b.hi, bits)


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


def eratosthenes(limit: int) -> np.ndarray:
    """The primes up to limit inclusive as int64, from one bool per integer."""
    is_p = np.ones(max(limit + 1, 2), dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p[: limit + 1]).astype(np.int64)


def window_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), from one bool per integer struck by every d from 2
    to sqrt(hi - 1): a reference for wide windows that shares no layout with the
    sieve."""
    marks = np.ones(max(hi - lo, 0), dtype=bool)
    marks[: max(0, 2 - lo)] = False  # 0 and 1
    for d in range(2, math.isqrt(max(hi - 1, 0)) + 1):
        marks[max(d * d, -(-lo // d) * d) - lo :: d] = False
    return (lo + np.flatnonzero(marks)).tolist()


def count_primes_open(a: int, b: int, *, segment_slots: int = DEFAULT_SEGMENT_SLOTS) -> int:
    """Number of primes p with a < p < b; 0 whenever b <= a + 1."""
    if a < 0 or b < 0:
        raise ValueError("need a >= 0 and b >= 0")
    return int(count_primes_below(a + 1, [b], segment_slots=segment_slots)[0])


def gaps(m: int, n: int) -> tuple[list[float], list[float]]:
    """bound_gap of k = m..n and its error bounds, from one array evaluation
    and none of mbound's caches."""
    gap = mbound.bound_gap(np.arange(m, n + 1, dtype=np.int64))
    return gap.value.tolist(), gap.abs_err.tolist()


def forward_tail_sum(m: int, n: int) -> tuple[float, float]:
    """Forward-order compensated tail sum, for order-independence checks."""
    if m < mbound.START_K or n < m:
        raise DomainError("need 597 <= m <= n")
    u = _U["double"]
    s = c = err = 0.0
    for g, e in zip(*gaps(m, n)):
        err += e + 2.0 * u * g
        y = g - c
        t = s + y
        c = (t - s) - y
        s = t
    return s - c, err + u * abs(s)


def tail_quad(m: int, n: int):
    """The tail capacity of k = m..n summed one bound at a time in mpmath at
    160 bits, the reference for mbound._tail_quad."""
    with mp.workprec(PRECISION_BITS["quad"]):
        total = mp.mpf(0)
        for k in range(m, n + 1):
            total += _dusart(mp.log, (k + 1) * (k + 1), DUSART_UPPER_C)[0]
            total -= _dusart(mp.log, k * k, DUSART_LOWER_C)[0]
        return total


def kahan_tail_arrays(n: int) -> tuple[list[float], list[float]]:
    """Suffix capacity sums: tail[i] = sum of gaps for k = 597+i .. n.

    Backward compensated accumulation; err[i] bounds |tail[i] - exact|.
    """
    values, errs = gaps(mbound.START_K, n)
    count = len(values)
    tail = [0.0] * count
    terr = [0.0] * count
    u = _U["double"]
    s = c = err = 0.0
    for i in range(count - 1, -1, -1):
        g = values[i]
        err += errs[i] + 2.0 * u * g
        y = g - c
        t = s + y
        c = (t - s) - y
        s = t
        tail[i] = s - c
        terr[i] = err + u * abs(s)
    return tail, terr


def m_of_linear(n: int) -> int | None:
    """Exhaustive-scan oracle for m_of: the same certified predicate on the
    backward Kahan tails, no bisection; a tie inside their error bound is
    decided at quad precision."""
    if n < mbound.START_K:
        raise DomainError(f"m_of needs n >= {mbound.START_K}")
    S = mbound.s_sum(n)
    tail, terr = kahan_tail_arrays(n)
    for m in range(n, mbound.START_K - 1, -1):
        i = m - mbound.START_K
        if abs(tail[i] - S) <= terr[i]:
            if S <= tail_quad(m, n):
                return m
        elif S <= tail[i]:
            return m
    return None


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


def dense_pi(x: int) -> int:
    """pi(x) by Legendre's recurrence with Meissel's split, as in
    counting._pi_combinatorial, but each step p updates S(x // i) for every
    i <= isqrt(x) with x // i >= p^2, rough or not."""
    if x < 2:
        return 0
    r, y = math.isqrt(x), _icbrt(x)
    small = np.maximum(np.arange(-1, r, dtype=np.int32), 0)
    quot = x // np.maximum(np.arange(r + 1, dtype=np.int64), 1)  # x // i; x // (i * p) is quot[i] // p
    large = quot - 1  # large[0] is unused
    for p in range(2, y + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite: S(p, p-1) = S(p-1, p-1)
        sp, last = small[p - 1], min(r, x // (p * p))
        k = min(r // p, last)  # large[i * p] holds S(x // (i * p)) for i <= k
        large[1:k + 1] -= large[p:k * p + 1:p] - sp
        large[k + 1:last + 1] -= small[quot[k + 1:last + 1] // p] - sp
        # small[v // p] for v = p^2..r: each small[w], p <= w <= r // p, p times in a row
        small[p * p:] -= np.repeat(small[p:r // p + 1], p)[:r + 1 - p * p] - sp
    q = y + 1 + np.flatnonzero(small[y + 1:] > small[y:-1])  # the primes in (y, r]
    return int(large[1] - (large[q] - small[q] + 1).sum())


def exact_sum_r(ns) -> dict[int, tuple[float, Fraction]]:
    """For each n >= 3 of ns, the sum of r_term(k) over 3 <= k < n: the exact
    sum of the double terms rounded once, and a sound bound on its distance
    from the real sum, the exact sum of the terms' error bounds plus half an
    ulp of the rounded value. The terms, evaluated an array of k at a time,
    are integers over 2^50 and their bounds over 2^100, summed exactly."""
    out, total, err, k = {}, 0, 0, 3
    for n in sorted(set(ns)):
        while k < n:
            term = r_term(np.arange(k, min(n, k + 2**16), dtype=np.int64))
            total += _exact_sum(term.value, 50)
            err += _exact_sum(term.abs_err, 100)
            k += term.value.size
        value = total / (1 << 50)
        out[n] = value, Fraction(err, 1 << 100) + Fraction(math.ulp(value)) / 2
    return out


def _exact_sum(x: np.ndarray, bits: int) -> int:
    """The sum of the floats x times 2^bits, each an integer below 2^58: in
    int64, 32 terms at a time, then as Python ints."""
    q = np.ldexp(x, bits)
    if not (np.array_equal(q, np.floor(q)) and q.max() < 2**58):
        raise ValueError(f"terms are not multiples of 2^-{bits} below 2^{58 - bits}")
    q = np.concatenate([q.astype(np.int64), np.zeros(-q.size % 32, dtype=np.int64)])
    return sum(q.reshape(-1, 32).sum(axis=1).tolist())


# _quad_prefix[i] is the 160-bit sum of r(k) over 3 <= k < 3 + i
_quad_prefix = [mp.mpf(0)]


def quad_sum_r(n: int):
    """The sum of r(k) = log^2 k / loglog k over 3 <= k < n (none for n <= 3)
    as an mpf, one mp.log per term and every operation at 160 bits: within a
    relative n*2^-155 of the real sum. Compare it under mp.workprec(160)."""
    with mp.workprec(160):
        while len(_quad_prefix) < n - 2:
            lg = mp.log(len(_quad_prefix) + 2)
            _quad_prefix.append(_quad_prefix[-1] + lg * lg / mp.log(lg))
    return _quad_prefix[max(n - 3, 0)]


def _classify(margin: float, err: float) -> int:
    if abs(margin) <= err:
        return CLS_BOUNDARY
    return CLS_PASS if margin > 0.0 else CLS_VIOLATION


def _judged(margin: float, err: float, strict: bool, at_quad) -> int:
    """Class of margin within err; under strict a boundary is judged again
    from at_quad(), the same margin and its error at quad."""
    cls = _classify(margin, err)
    if strict and cls == CLS_BOUNDARY:
        cls = _classify(*at_quad())
    return cls


def margin_row(n: int, f: int, pi: int, strict: bool) -> MarginRecord:
    """The margin row of n, evaluated on its own."""
    d, c1, c2 = delta(n), c1_rhs(n), c2_lhs(n)
    tf, bflag = theorem_floor(n)

    def c1_quad():
        q = c1_rhs(n, "quad")
        return q.value - f, q.abs_err

    def c2_quad():
        q = c2_lhs(n, "quad")
        return f - q.value, q.abs_err

    cls1 = _judged(c1.value - f, c1.abs_err, strict, c1_quad)
    cls2 = _judged(f - c2.value, c2.abs_err, strict, c2_quad)
    cls_thm = CLS_BOUNDARY if strict and bflag else CLS_PASS if f >= tf else CLS_VIOLATION
    return MarginRecord(n, f, pi, d.value, c1.value, c2.value, tf, c1.value - f, f - c2.value,
                        f - tf, int(bflag), cls1, cls2, cls_thm)


def lemma_row(n: int, pi: int, strict: bool) -> LemmaRecord:
    """The lemma row of n, evaluated on its own."""
    lhs, rhs = lemma1_sides(n)
    plhs, prhs = lemma1_proof_sides(n)
    display = (rhs.value - lhs.value, rhs.abs_err + lhs.abs_err)
    proof = (plhs.value - prhs.value, plhs.abs_err + prhs.abs_err)
    m1, e1 = display if display[0] <= proof[0] else proof

    def display_quad():
        ql, qr = lemma1_sides(n, "quad")
        return qr.value - ql.value, qr.abs_err + ql.abs_err

    def lemma2_quad():
        q = lemma2_lhs(n, "quad")
        return pi - q.value, q.abs_err

    l2 = lemma2_lhs(n)
    return LemmaRecord(n, pi, m1, _judged(m1, e1, strict, display_quad),
                       pi - l2.value, _judged(pi - l2.value, l2.abs_err, strict, lemma2_quad))


def fold_items(target: str, from_n: int, to_n: int, items, note: str) -> ConjectureReport:
    """The report over (n, margin, cls) items in n-order, one item at a time;
    the first of equal least pass margins wins."""
    checked = 0
    violations: list[int] = []
    boundary: list[int] = []
    min_margin: float | None = None
    argmin: int | None = None
    for n, margin, cls in items:
        checked += 1
        if cls == CLS_VIOLATION:
            violations.append(n)
        elif cls == CLS_BOUNDARY:
            boundary.append(n)
        elif min_margin is None or margin < min_margin:
            min_margin, argmin = margin, n
    return ConjectureReport(target, (from_n, to_n), checked, violations, boundary,
                            min_margin, argmin, note)


def implication_cls(r: MarginRecord) -> int:
    """A c2 pass at n must force t_floor <= f."""
    if r.cls_c2 == CLS_BOUNDARY or r.cls_thm == CLS_BOUNDARY:
        return CLS_BOUNDARY
    return CLS_VIOLATION if r.cls_c2 == CLS_PASS and r.t_floor > r.f else CLS_PASS


MARGIN_ITEM = {
    "c1": lambda r: (r.n, r.margin_c1, r.cls_c1),
    "c2": lambda r: (r.n, r.margin_c2, r.cls_c2),
    "theorem": lambda r: (r.n, float(r.margin_thm), r.cls_thm),
    "implication": lambda r: (r.n, float(r.margin_thm), implication_cls(r)),
}


def margin_report(target: str, from_n: int, to_n: int, rows: list[MarginRecord], note: str) -> ConjectureReport:
    """The target's report over the rows in [from_n, to_n], one row at a time;
    note is the campaign note, before the floor's sign transition."""
    rows = [r for r in rows if from_n <= r.n <= to_n]
    if target in ("theorem", "implication"):
        last = max((r.n for r in rows if r.t_floor < 0), default="none")
        note += f";last_negative_t_floor={last}"
    return fold_items(target, from_n, to_n, map(MARGIN_ITEM[target], rows), note)


def records(block: tuple) -> list[tuple]:
    """The row tuples of a column block, each field a Python scalar."""
    return list(map(type(block), *(col.tolist() for col in block)))


def margin_csv(rows: list[MarginRecord]) -> str:
    """The margin CSV of row tuples, one line at a time."""
    lines = [MARGIN_CSV_COLUMNS]
    for r in rows:
        lines.append(
            f"{r.n},{r.f},{r.pi_n2},{r.delta:.6f},{r.c1_rhs:.6f},{r.c2_lhs:.6f},"
            f"{r.t_floor},{r.margin_c1:.6f},{r.margin_c2:.6f},{r.margin_thm},"
            f"{1 if r.boundary_flag else 0}"
        )
    return "\n".join(lines) + "\n"
