"""Exact prime counts: per-window counts, running pi(n^2), pi(x), and g(n).

Window counts f(n), window-sieve pi(x) and pi at many points all come from
one streaming count in the sieve layer (``count_primes_below``). The
combinatorial method tabulates Legendre's partial-sieve recurrence over the
values x // i and shares no code with the sieve layer, so the two pi(x)
methods cross-check each other. A campaign seeds pi(n^2) with it, sums
window counts from there and checks the final sum against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import Unsupported
from .sieve import count_primes_below, shared_table

PiMethod = Literal["window_sieve", "combinatorial"]

WINDOW_SIEVE_MAX = 10**10
COMBINATORIAL_MAX = 10**12


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
    squares = np.arange(n_from, n_to + 2, dtype=np.int64) ** 2
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
# Time O(x^(3/4) / log x), memory O(sqrt(x)).


def _pi_combinatorial(x: int) -> int:
    if x < 2:
        return 0
    r = math.isqrt(x)
    idx = np.arange(r + 1, dtype=np.int64)
    small = np.maximum(idx - 1, 0)
    large = x // np.maximum(idx, 1) - 1  # large[0] is unused
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite: S(p, p-1) = S(p-1, p-1)
        sp, last = small[p - 1], min(r, x // (p * p))
        k = min(r // p, last)  # large[i * p] holds S(x // (i * p)) for i <= k
        large[1:k + 1] -= large[p:k * p + 1:p] - sp
        large[k + 1:last + 1] -= small[x // (idx[k + 1:last + 1] * p)] - sp
        small[p * p:] -= small[idx[p * p:] // p] - sp
    return int(large[1])


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


def _first_prime_in_open(lo_sq: int, hi_sq: int, primes: list[int]) -> int | None:
    """Smallest prime strictly between lo_sq and hi_sq, or None.

    Trial division against the supplied base primes; callers guarantee the
    list covers sqrt(hi_sq - 1). Scans stop at the first hit, which for
    square-bounded windows lands within a few dozen candidates.
    """
    if lo_sq < 2 < hi_sq:
        return 2
    x = lo_sq + 1
    if x % 2 == 0:
        x += 1
    while x < hi_sq:
        composite = False
        for p in primes:
            if p * p > x:
                break
            if x % p == 0:
                composite = True
                break
        if not composite:
            return x
        x += 2
    return None


def g_of(n: int) -> int:
    """How many t <= n have at least one prime in (t^2, (t+1)^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    primes = shared_table(n + 1).primes.tolist()
    hits = 0
    for t in range(1, n + 1):
        if _first_prime_in_open(t * t, (t + 1) * (t + 1), primes) is not None:
            hits += 1
    return hits
