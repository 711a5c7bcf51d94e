"""Exact prime counts: per-window counts, running pi(n^2), pi(x), and g(n).

Window counts f(n), window-sieve pi(x) and pi at many points all come from
one streaming count in the sieve layer (``count_primes_below``); f(n) is
defined for (n+1)^2 <= F_WINDOW_MAX. The combinatorial method tabulates
Legendre's partial-sieve recurrence over the values x // i for the primes
up to x^(1/3) and finishes with Meissel's split; it shares no code with the
sieve layer, so the two pi(x) methods cross-check each other.
A campaign seeds pi(n^2) with it, sums window counts from there and checks
the final sum against it. g(n) finds the first prime of each window with a
deterministic Miller-Rabin test, without the sieve, so it cross-checks f.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError, Unsupported
from .sieve import count_primes_below

PiMethod = Literal["window_sieve", "combinatorial"]

WINDOW_SIEVE_MAX = 10**10
COMBINATORIAL_MAX = 10**12
F_WINDOW_MAX = 10**14  # f(n) needs (n+1)^2 <= this, i.e. n <= 9999999

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


def _window_counts(n_from: int, n_to: int) -> np.ndarray:
    """Counts of primes in (k^2, (k+1)^2) for k = n_from..n_to, one sieve pass."""
    if (n_to + 1) ** 2 > F_WINDOW_MAX:
        raise DomainError(f"f(n) needs (n+1)^2 <= {F_WINDOW_MAX}, so n <= {math.isqrt(F_WINDOW_MAX) - 1}")
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


def g_of(n: int) -> int:
    """How many t <= n have at least one prime in (t^2, (t+1)^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    hits = 0
    for t in range(1, n + 1):
        x, end = t * t + 1, (t + 1) * (t + 1)
        while x < end and not miller_rabin(x):
            x += 1
        hits += x < end
    return hits
