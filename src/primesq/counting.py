"""Exact prime counts: per-window counts, running pi(n^2), pi(x), and g(n).

Window counts f(n), window-sieve pi(x) and pi at many points all come from
one streaming count in the sieve layer (``count_primes_below``); f(n) is
defined for (n+1)^2 <= F_WINDOW_MAX. The combinatorial method tabulates
Legendre's partial-sieve recurrence over the values x // i for the primes
up to x^(1/3) and finishes with Meissel's split; it shares no code with the
sieve layer, so the two pi(x) methods cross-check each other.
A campaign seeds pi(n^2) with it, sums window counts from there and checks
the final sum against it. g(n), defined on f's range, finds the first prime
of each window without the sieve, so it cross-checks f: a numpy kernel
strikes the multiples of the Miller-Rabin bases in a block of windows and
runs deterministic Miller-Rabin on the survivors, with modular arithmetic
exact below 2^47 > F_WINDOW_MAX.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError, Unsupported
from .sieve import count_primes_below

PiMethod = Literal["window_sieve", "combinatorial"]

WINDOW_SIEVE_MAX = 10**10
COMBINATORIAL_MAX = 10**12
F_WINDOW_MAX = 10**14  # f(n) and g(n) need (n+1)^2 <= this, i.e. n <= 9999999

# The first k prime bases decide Miller-Rabin for every x below psi_k, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                    341550071728321, 341550071728321, 3825123056546413051,
                    3825123056546413051, 3825123056546413051, 318665857834031151167461)


@dataclass(frozen=True)
class FRecord:
    """One row of the square-interval sweep.

    f is the number of primes strictly between n^2 and (n+1)^2 and pi_n2 is
    pi(n^2); pi_n2 + f of row n gives pi_n2 of row n+1 because both square
    endpoints are composite for n >= 1.
    """

    n: int
    f: int
    pi_n2: int


def _check_window_range(n: int) -> None:
    if (n + 1) ** 2 > F_WINDOW_MAX:
        raise DomainError(f"f(n) and g(n) need (n+1)^2 <= {F_WINDOW_MAX}, so n <= {math.isqrt(F_WINDOW_MAX) - 1}")


def _window_counts(n_from: int, n_to: int) -> np.ndarray:
    """Counts of primes in (k^2, (k+1)^2) for k = n_from..n_to, one sieve pass."""
    _check_window_range(n_to)
    squares = np.arange(n_from, n_to + 2, dtype=np.int64) ** 2  # <= F_WINDOW_MAX, no wrap
    # no square is prime, so [k^2, (k+1)^2) holds the same primes
    return np.diff(count_primes_below(n_from * n_from, squares))


def f_of(n: int) -> int:
    """Number of primes strictly between n^2 and (n+1)^2."""
    if n < 1:
        raise ValueError("need n >= 1")
    return int(_window_counts(n, n)[0])


def stream_f(from_n: int, to_n: int) -> list[FRecord]:
    """Rows for n = from_n..to_n; the first pi(n^2) is seeded exactly."""
    if not 1 <= from_n <= to_n:
        raise ValueError("need 1 <= from <= to")
    counts = _window_counts(from_n, to_n)
    pi = pi_exact(from_n * from_n, "combinatorial")
    out = []
    for i, n in enumerate(range(from_n, to_n + 1)):
        f = int(counts[i])
        out.append(FRecord(n, f, pi))
        pi += f
    return out


# --- combinatorial pi ------------------------------------------------------
# Legendre's recurrence: S(v, p), the count of 2 <= m <= v that are prime or
# have no prime factor <= p, is S(v, p-1) - (S(v // p, p-1) - S(p-1, p-1)) for
# a prime p <= isqrt(v), and pi(x) = S(x, isqrt(x)). Only v = x // i occur:
# small[v] for v <= isqrt(x), large[i] for x // i. Per prime, large then small
# update in place; numpy evaluates each right side first, so it reads S(., p-1).
# Meissel's split (Lehmer, Illinois J. Math. 1959) stops the loop at
# y = icbrt(x): then small[v] = pi(v) for every v, and each prime q in (y, r]
# has x // q < q^2, so large[q] = pi(x // q) and the steps left sum at once:
# pi(x) = large[1] - sum(large[q] - small[q] + 1). Time O(x^(3/4) / log x)
# with one Python step per prime <= x^(1/3), not x^(1/2); memory O(sqrt(x)).


def _icbrt(x: int) -> int:
    """floor(x^(1/3)), exact for 0 <= x < 2^53.

    There the float root is off by far less than 1/2, so it rounds to the
    floor or to one above it.
    """
    y = round(x ** (1 / 3))
    return y - (y**3 > x)


def _pi_combinatorial(x: int) -> int:
    if x < 2:
        return 0
    r, y = math.isqrt(x), _icbrt(x)
    idx = np.arange(r + 1, dtype=np.int64)
    small = np.maximum(idx - 1, 0)
    large = x // np.maximum(idx, 1) - 1  # large[0] is unused
    for p in range(2, y + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite: S(p, p-1) = S(p-1, p-1)
        sp, last = small[p - 1], min(r, x // (p * p))
        k = min(r // p, last)  # large[i * p] holds S(x // (i * p)) for i <= k
        large[1:k + 1] -= large[p:k * p + 1:p] - sp
        large[k + 1:last + 1] -= small[x // (idx[k + 1:last + 1] * p)] - sp
        small[p * p:] -= small[idx[p * p:] // p] - sp
    q = y + 1 + np.flatnonzero(small[y + 1:] > small[y:-1])  # the primes in (y, r]
    return int(large[1] - (large[q] - small[q] + 1).sum())


def pi_exact(x: int, method: PiMethod = "combinatorial") -> int:
    """Exact pi(x). Both methods agree wherever both are supported."""
    if x < 0:
        raise ValueError("need x >= 0")
    x = int(x)
    if method == "window_sieve":
        return pi_exact_many([x])[0]
    if method == "combinatorial":
        if x > COMBINATORIAL_MAX:
            raise Unsupported(f"combinatorial supports x <= {COMBINATORIAL_MAX}")
        return _pi_combinatorial(x)
    raise ValueError(f"unknown method {method!r}")


def pi_exact_many(xs: list[int]) -> list[int]:
    """Window-sieve pi at many points in a single streaming pass."""
    if not xs:
        return []
    if min(xs) < 0:
        raise ValueError("need x >= 0")
    if max(xs) > WINDOW_SIEVE_MAX:
        raise Unsupported(f"window_sieve supports x <= {WINDOW_SIEVE_MAX}")
    arr = np.array(xs, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    out = np.empty_like(arr)
    out[order] = count_primes_below(0, arr[order] + 1)
    return out.tolist()


# --- g(n): the first prime of each window, a block of windows at a time ------
# Candidates stay below F_WINDOW_MAX < 2^47 < psi_7, so Miller-Rabin needs at
# most the first 7 bases and runs in numpy int64/float64 arithmetic. A block
# of G_BLOCK windows lays out the next G_SPAN candidates of each as a matrix
# and strikes the multiples of the 12 bases with residue patterns gathered by
# lo mod w, one gather per wheel w, no division per candidate. Then, in
# rounds, each unresolved row tests its next survivors until it finds a prime
# or runs out; a row with none gets the next G_SPAN candidates of its window
# in a later pass, until the window ends.

G_BLOCK = 8192  # windows per block
G_SPAN = 64  # candidates per window per pass
_POW_BITS = 3  # exponent bits per multiplication; a^7 < 2^37 for every base a
_WHEELS = ((2, 3, 5, 7, 11, 13), (17, 19, 23), (29, 31, 37))  # MILLER_RABIN_BASES


@functools.cache
def _strike_patterns() -> list[tuple[int, np.ndarray]]:
    """(w, pattern) per wheel w: pattern[r, j] says whether r + j is prime to w.

    Each pattern is a sliding-window view of one table over 0..w + G_SPAN - 1.
    """
    out = []
    for primes in _WHEELS:
        w = math.prod(primes)
        v = np.arange(w + G_SPAN)
        prime_to_w = np.logical_and.reduce([v % p != 0 for p in primes])
        out.append((w, np.lib.stride_tricks.sliding_window_view(prime_to_w, G_SPAN)))
    return out


def _mulmod(a: np.ndarray, b, m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """A residue of a * b mod m in (-m, m), for m < 2^47, |a| < m and either
    b = a or 0 < b < 2^37; inv = 1 / m in float64.

    a and b are exact in float64. The float quotient a*b*inv has three
    roundings, so it is off by at most 3 * 2^-53 * |a*b/m|, which is below
    3 * 2^-53 * 2^47 < 0.05 in both cases. Its nearest integer q therefore has
    |a*b - q*m| <= 0.55 m. Both int64 products wrap, but their difference is
    that residue, which int64 holds exactly.
    """
    q = np.rint(a.astype(np.float64) * b * inv).astype(np.int64)
    return a * b - q * m


def _strong_probable_prime(x: np.ndarray, a: int) -> np.ndarray:
    """Whether each odd x, a < x < 2^47, is a strong probable prime to base a.

    a^d mod x by left-to-right exponentiation: _POW_BITS squarings, then one
    multiplication by a^digit for the next _POW_BITS bits of d.
    """
    inv = 1.0 / x.astype(np.float64)
    d = x - 1
    s = np.frexp((d & -d).astype(np.float64))[1] - 1  # 2^s exactly divides x - 1
    d >>= s
    powers = a ** np.arange(1 << _POW_BITS, dtype=np.int64)
    y = np.ones_like(x)
    for shift in range(int(d.max()).bit_length() // _POW_BITS * _POW_BITS, -1, -_POW_BITS):
        for _ in range(_POW_BITS):
            y = _mulmod(y, y, x, inv)
        y = _mulmod(y, powers[(d >> shift) & ((1 << _POW_BITS) - 1)], x, inv)
    y %= x
    ok = (y == 1) | (y == x - 1)
    for r in range(1, int(s.max())):
        y = _mulmod(y, y, x, inv) % x
        ok |= (y == x - 1) & (r < s)
    return ok


def _is_prime_many(x: np.ndarray) -> np.ndarray:
    """Whether each int64 x, 0 <= x < 2^47, is prime.

    Odd x above the bases take a strong probable-prime test to the first k
    bases, the fewest whose psi_k exceeds the largest of them.
    """
    small = x <= MILLER_RABIN_BASES[-1]
    prime = small & np.isin(x, MILLER_RABIN_BASES)
    test = np.flatnonzero(~small & ((x & 1) == 1))
    top = int(x[test].max()) if test.size else 0
    for a in MILLER_RABIN_BASES[:bisect.bisect_right(MILLER_RABIN_PSI, top) + 1]:
        if test.size:
            test = test[_strong_probable_prime(x[test], a)]
    prime[test] = True
    return prime


def _span_first_primes(lo: np.ndarray, end: np.ndarray) -> np.ndarray:
    """First prime in [lo, min(lo + G_SPAN, end)) per row, or 0; lo ascending."""
    rows = lo.size
    alive = np.arange(G_SPAN) < (end - lo)[:, None]
    # rows with lo <= 37 may hold a base itself, which striking would remove
    near = int(np.searchsorted(lo, MILLER_RABIN_BASES[-1], side="right"))
    for w, pattern in _strike_patterns():
        alive[near:] &= pattern[lo[near:] % w]
    hit = np.flatnonzero(alive)  # row * G_SPAN + column of each survivor, in row-major order
    stop = np.cumsum(np.count_nonzero(alive, axis=1))
    at = np.concatenate(([0], stop[:-1]))  # each row's next untested survivor
    found = np.zeros(rows, dtype=np.int64)
    live = np.flatnonzero(at < stop)
    while live.size:
        # test up to `take` survivors of each live row, so a round stays about `rows` long
        take = np.minimum(stop[live] - at[live], max(1, rows // live.size))
        row = np.repeat(live, take)
        first = np.cumsum(take) - take
        k = at[row] + np.arange(row.size) - np.repeat(first, take)
        x = lo[row] + (hit[k] - row * G_SPAN)
        prime = _is_prime_many(x)
        done, i = np.unique(row[prime], return_index=True)  # a row's first prime comes first
        found[done] = x[prime][i]
        at[live] += take
        live = live[(found[live] == 0) & (at[live] < stop[live])]
    return found


def _first_primes(t_from: int, t_to: int) -> Iterator[np.ndarray]:
    """The first prime in (t^2, (t+1)^2), or 0 where there is none, for
    t = t_from..t_to: one array per block of G_BLOCK windows."""
    for t0 in range(t_from, t_to + 1, G_BLOCK):
        t = np.arange(t0, min(t0 + G_BLOCK - 1, t_to) + 1, dtype=np.int64)
        lo, end = t * t + 1, (t + 1) * (t + 1)
        found = np.zeros(t.size, dtype=np.int64)
        rows = np.arange(t.size)
        while rows.size:
            found[rows] = _span_first_primes(lo[rows], end[rows])
            lo[rows] += G_SPAN
            rows = rows[(found[rows] == 0) & (lo[rows] < end[rows])]
        yield found


def g_of(n: int) -> int:
    """How many t <= n have at least one prime in (t^2, (t+1)^2); (n+1)^2 <= F_WINDOW_MAX."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_window_range(n)
    return sum(int(np.count_nonzero(block)) for block in _first_primes(1, n))
