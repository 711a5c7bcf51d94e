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

import functools
import math
import operator
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
    if (operator.index(n) + 1) ** 2 > F_WINDOW_MAX:  # a Python int: numpy integers may wrap
        raise DomainError(f"f(n) and g(n) need (n+1)^2 <= {F_WINDOW_MAX}, so n <= {math.isqrt(F_WINDOW_MAX) - 1}")


def _window_counts(n_from: int, n_to: int) -> np.ndarray:
    """Counts of primes in (k^2, (k+1)^2) for k = n_from..n_to, one sieve pass."""
    _check_window_range(n_to)
    squares = np.arange(n_from, n_to + 2, dtype=np.int64) ** 2  # <= F_WINDOW_MAX, no wrap
    # no square is prime, so [k^2, (k+1)^2) holds the same primes
    return np.diff(count_primes_below(n_from * n_from, squares))


def f_of(n: int) -> int:
    """Number of primes strictly between n^2 and (n+1)^2."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    return int(_window_counts(n, n)[0])


def stream_f(from_n: int, to_n: int) -> list[FRecord]:
    """Rows for n = from_n..to_n; the first pi(n^2) is seeded exactly."""
    from_n, to_n = operator.index(from_n), operator.index(to_n)
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
# small[v] for v <= r = isqrt(x), large for x // i. Meissel's split (Lehmer,
# Illinois J. Math. 1959) stops the steps at y = icbrt(x): then small[v] =
# pi(v) for every v, and each prime q in (y, r] has x // q < q^2, so
# S(x // q, y) = pi(x // q) and the steps left sum at once:
# pi(x) = S(x, y) - sum(S(x // q, y) - pi(q) + 1).
# As in the phi leaves of Lagarias, Miller & Odlyzko (Math. Comp. 1985),
# after step p only S(x // i) for i = 1 and the rough i <= r, those with no
# prime factor <= p, are read again, so each step updates only those. The
# list holds them by i ascending: quot = x // i, from which i = x // quot
# (exact for i <= r), and large = S(x // i, p). Before step p,
# small[v] - pi(p-1) counts the listed i in [2, v], so that is the position
# of a listed v; for i * p > r, x // (i * p) = quot // p <= r and small
# holds its S. Each step reads its right sides before it writes.
# - p <= x^(1/4): every listed i has x // i >= p^2, so every one updates.
#   The multiples of p in the list are i * p for the listed i <= r // p:
#   they are read at their positions, and then they leave the list.
#   small[v] for v >= p^2 updates through an (m, p) view whose rows share
#   v // p.
# - p > x^(1/4): the list is 1 and the primes in (x^(1/4), r], and stays so.
#   p is its own entry, small holds pi and no longer changes, and only 1
#   and the primes in (p, x // p^2] update.
# Time O(x^(3/4) / log x), from the small updates (the list updates take
# O(x^(3/4) / log^2 x)), with one Python step per prime <= x^(1/3); memory
# O(sqrt(x)).


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
    # small[v] <= v - 1 < r <= 10^6 for x <= COMBINATORIAL_MAX, so int32 holds it
    # and halves the traffic of its updates; large and quot reach x and stay int64
    small = np.maximum(np.arange(-1, r, dtype=np.int32), 0)
    quot = x // np.arange(1, r + 1, dtype=np.int64)  # every i <= r is listed before p = 2
    large = quot - 1
    for p in range(2, math.isqrt(r) + 1):  # the p with p^4 <= x
        if small[p] == small[p - 1]:
            continue  # p is composite: S(p, p-1) = S(p-1, p-1)
        sp = small[p - 1]
        at = small[x // quot[:small[r // p] - sp + 1] * p]  # i * p for the listed i <= r // p
        at -= sp
        keep = np.ones(quot.size, dtype=bool)
        keep[at] = False
        held = large[at[keep[:at.size]]]  # S(x // (i * p), p-1) for the i that stay
        held -= sp
        quot = quot[keep]
        large = large[keep]
        large[:held.size] -= held
        large[held.size:] -= small[quot[held.size:] // p] - sp
        w = (r + 1) // p  # rows w' = p..w - 1 hold v = w' * p .. w' * p + p - 1, row w the tail to r
        cut = small[p:w + 1] - sp
        rows = small[p * p:w * p].reshape(-1, p)
        rows -= cut[:-1, None]
        small[w * p:] -= cut[-1]
    pi0 = int(small[math.isqrt(r)])  # entry j >= 1 is the prime with pi = pi0 + j
    last = int(small[y]) - pi0  # entry last is the last prime <= y
    for j in range(1, last + 1):  # the primes p in (x^(1/4), y]
        p, sp = x // int(quot[j]), pi0 + j - 1
        large[0] -= large[j] - sp
        end = int(small[x // (p * p)]) - pi0 + 1
        large[j + 1:end] -= small[quot[j + 1:end] // p] - sp
    q = x // quot[last + 1:]  # the primes in (y, r]
    return int(large[0] - (large[last + 1:] - small[q] + 1).sum())


def pi_exact(x: int, method: PiMethod = "combinatorial") -> int:
    """Exact pi(x) for an integer x. Both methods agree wherever both are supported."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("need x >= 0")
    if method == "window_sieve":
        return pi_exact_many([x])[0]
    if method == "combinatorial":
        if x > COMBINATORIAL_MAX:
            raise Unsupported(f"combinatorial supports x <= {COMBINATORIAL_MAX}")
        return _pi_combinatorial(x)
    raise ValueError(f"unknown method {method!r}")


def pi_exact_many(xs: list[int]) -> list[int]:
    """Window-sieve pi at many integer points in a single streaming pass."""
    xs = [operator.index(x) for x in xs]
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
# rounds of up to about G_BLOCK candidates, each unresolved row tests its
# next survivors until it finds a prime or runs out; a row with none gets the
# next G_SPAN candidates of its window in a later pass, until the window
# ends. Each round takes two Miller-Rabin passes: base 2 on every odd
# candidate, then one pass that holds each base-2 survivor once per further
# base its own size needs (3..p_k for the least k with x < psi_k). Only the
# candidates still undecided take the squarings after a^d.

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


@functools.cache
def _base_powers() -> np.ndarray:
    """a^j for every base a and j < 2^_POW_BITS, flat at a * 2^_POW_BITS + j."""
    a = np.arange(MILLER_RABIN_BASES[-1] + 1, dtype=np.int64)
    return (a[:, None] ** np.arange(1 << _POW_BITS)).ravel()


def _mulmod(a: np.ndarray, b, m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """A residue of a * b mod m in (-m, m), for m < 2^47, |a| < m and either
    b = a or 0 < b < 2^37; inv = 1 / m in float64.

    a and b are exact in float64. The float quotient a*b*inv has three
    roundings, so it is off by at most 3 * 2^-53 * |a*b/m|, which is below
    3 * 2^-53 * 2^47 < 0.05 in both cases. Its nearest integer q therefore has
    |a*b - q*m| <= 0.55 m. Both int64 products wrap, but their difference is
    that residue, which int64 holds exactly.
    """
    q = a.astype(np.float64)
    q *= b
    q *= inv
    r = a * b
    r -= np.rint(q, out=q).astype(np.int64) * m
    return r


def _strong_probable_prime(x: np.ndarray, a) -> np.ndarray:
    """Whether each odd x, a < x < 2^47, is a strong probable prime to base a,
    a scalar base or one base per element, each a <= 37.

    a^d mod x by left-to-right exponentiation: _POW_BITS squarings, then one
    multiplication by a^digit for the next _POW_BITS bits of d. x passes if
    a^d = 1 or some a^(d * 2^r), r < s, is -1 mod x; each further squaring
    takes only the x still undecided whose own s allows it.
    """
    inv = 1.0 / x.astype(np.float64)
    d = x - 1
    s = np.frexp((d & -d).astype(np.float64))[1] - 1  # 2^s exactly divides x - 1
    d >>= s
    powers, start = _base_powers(), np.left_shift(a, _POW_BITS)  # a^j sits at start + j
    y = np.ones_like(x)
    for shift in range(int(d.max()).bit_length() // _POW_BITS * _POW_BITS, -1, -_POW_BITS):
        for _ in range(_POW_BITS):
            y = _mulmod(y, y, x, inv)
        y = _mulmod(y, powers[((d >> shift) & ((1 << _POW_BITS) - 1)) + start], x, inv)
    y %= x
    ok = (y == 1) | (y == x - 1)
    live = np.flatnonzero(~ok & (s > 1))  # y is not +-1 and x - 1 allows a square
    y, r = y[live], 0
    while live.size:
        r += 1
        xl = x[live]
        y = _mulmod(y, y, xl, inv[live]) % xl  # a^(d * 2^r) mod x
        hit = y == xl - 1
        ok[live[hit]] = True
        keep = ~hit & (s[live] > r + 1)
        live, y = live[keep], y[keep]
    return ok


def _is_prime_many(x: np.ndarray) -> np.ndarray:
    """Whether each int64 x, 0 <= x < 2^47, is prime.

    Odd x above the bases take two strong probable-prime passes. The first
    tests every such x to base 2. An x that passes is prime if it passes the
    first k bases for the least k with x < psi_k, so the second pass holds
    it once for each of the bases 3..p_k, one base per element.
    """
    small = x <= MILLER_RABIN_BASES[-1]
    prime = small & np.isin(x, MILLER_RABIN_BASES)
    test = np.flatnonzero(~small & ((x & 1) == 1))
    if test.size:
        test = test[_strong_probable_prime(x[test], 2)]
    # k - 1 further bases each; psi_12 > 2^63 is left out so that numpy compares in int64
    more = np.searchsorted(MILLER_RABIN_PSI[:-1], x[test], side="right")
    prime[test] = True
    if more.any():
        held = np.repeat(test, more)
        nth = np.arange(held.size) - np.repeat(np.cumsum(more) - more, more)  # 0..k-2 per x
        bases = np.array(MILLER_RABIN_BASES[1:])[nth]
        prime[held[~_strong_probable_prime(x[held], bases)]] = False
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
    del alive  # frees the strike matrix before the rounds allocate theirs
    at = np.concatenate(([0], stop[:-1]))  # each row's next untested survivor
    found = np.zeros(rows, dtype=np.int64)
    live = np.flatnonzero(at < stop)
    while live.size:
        # test up to `take` survivors of each live row, so a round stays about G_BLOCK long
        take = np.minimum(stop[live] - at[live], max(1, G_BLOCK // live.size))
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
    n = operator.index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    _check_window_range(n)
    return sum(int(np.count_nonzero(block)) for block in _first_primes(1, n))
