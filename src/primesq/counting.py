"""Exact prime counts: per-window counts, running pi(n^2), pi(x), and g(n).

Window counts f(n), window-sieve pi(x) and pi at many points all come from
one streaming count in the sieve layer (``count_primes_below``). The
combinatorial method recursively counts integers not divisible by the first
a primes (partial sieve) and never touches the segment code, so the two pi(x)
methods cross-check each other. A campaign seeds pi(n^2) once with it and
sums window counts from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import Unsupported
from .sieve import base_primes, count_primes_below, shared_table

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
# phi(x, a) = #{1 <= m <= x : m has no prime factor among the first a primes}.
# Small a bottoms out on wheel tables; pi(x) follows a Meissel-style recursion
# whose correction terms all reduce to lookups below x^(2/3).

_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)


def _build_wheels() -> list[tuple[int, int, np.ndarray]]:
    out = []
    w = 1
    for i in range(len(_WHEEL_PRIMES)):
        w *= _WHEEL_PRIMES[i]
        c = np.ones(w, dtype=np.int64)
        for q in _WHEEL_PRIMES[: i + 1]:
            c[::q] = 0
        cs = np.cumsum(c)  # cs[r] = #{1 <= m <= r coprime}, c[0] = 0
        cnt = np.append(cs, cs[-1])  # m = w itself is divisible
        out.append((w, int(cnt[w]), cnt))
    return out


_WHEELS = _build_wheels()

_small_tables_cache: dict[int, tuple[list[int], np.ndarray]] = {}


def _small_tables(limit: int) -> tuple[list[int], np.ndarray]:
    """(primes, pi table) up to a power-of-two bound >= limit, cached."""
    key = 1 << max(limit.bit_length(), 12)
    hit = _small_tables_cache.get(key)
    if hit is not None:
        return hit
    table = base_primes(key)
    is_p = np.zeros(key + 1, dtype=bool)
    is_p[table.primes] = True
    pi = np.cumsum(is_p, dtype=np.int64)
    entry = (table.primes.tolist(), pi)
    _small_tables_cache[key] = entry
    return entry


def _icbrt(n: int) -> int:
    x = int(round(n ** (1.0 / 3.0)))
    while x > 0 and x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def _pi_combinatorial(x: int) -> int:
    if x < 2:
        return 0
    limit = max(math.isqrt(x), int(round(x ** (2.0 / 3.0)))) + 10
    primes, pi_small = _small_tables(limit)
    memo: dict[int, int] = {}
    n_wheels = len(_WHEEL_PRIMES)

    def phi(x: int, a: int) -> int:
        if x <= 0:
            return 0
        if a == 0:
            return x
        if a <= n_wheels:
            w, tot, cnt = _WHEELS[a - 1]
            return (x // w) * tot + int(cnt[x % w])
        if x < primes[a - 1]:
            return 1
        key = (x << 12) | a
        v = memo.get(key)
        if v is None:
            v = phi(x, a - 1) - phi(x // primes[a - 1], a - 1)
            memo[key] = v
        return v

    def pi(x: int) -> int:
        if x <= limit:
            return int(pi_small[x])
        a = pi(_icbrt(x))
        b = pi(math.isqrt(x))
        res = phi(x, a) + a - 1
        for i in range(a + 1, b + 1):
            res -= pi(x // primes[i - 1]) - (i - 1)
        return res

    result = pi(x)
    del phi, pi  # break the closures' self-references so the memo is freed now
    return result


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
