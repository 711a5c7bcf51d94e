"""Reference kernel: a fixed amount of work, independent of primesq.

    python3 perfbench/calibrate.py

Prints the kernel's wall time in seconds. It is a miniature of primesq's
work mix, each part taking a similar share of the time: trial division over
a list of small primes (``g_of``), a memoised partial-sieve recursion on
Python ints (the combinatorial pi), float arithmetic through ``math`` with
small objects (the analytic layer), and numpy strided writes (the segment
sieve). The benchmark runs it in fresh processes right before and after
each iteration and divides the iteration's wall time by it, which cancels
most of the drift in machine speed that a shared host shows over minutes.
"""

import math
import time

import numpy as np


def _trial_division(primes: list[int]) -> int:
    hits = 0
    for x in range(10**6 + 1, 10**6 + 100_001, 2):
        for p in primes:
            if p * p > x or x % p == 0:
                break
        else:
            hits += 1
    return hits


def _phi(x: int, primes: list[int]) -> int:
    memo: dict[int, int] = {}

    def phi(y: int, a: int) -> int:
        if a == 0 or y == 0:
            return y
        key = (y << 8) | a
        v = memo.get(key)
        if v is None:
            v = phi(y, a - 1) - phi(y // primes[a - 1], a - 1)
            memo[key] = v
        return v

    return phi(x, 60)


def _floats() -> float:
    acc = 0.0
    for n in range(3, 80_003):
        lg = math.log(n)
        pair = ((n + 1) ** 2 / math.log(n + 1), n * n / lg)
        acc += 0.5 * (pair[0] - pair[1]) - lg * lg / math.log(lg)
    return acc


def _strided(primes: list[int]) -> None:
    marks = np.ones(1 << 20, dtype=bool)
    for _ in range(60):
        marks[:] = True
        for p in primes:
            marks[p * p::p] = False


def kernel() -> None:
    primes = [2] + [p for p in range(3, 1000, 2)
                    if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
    _trial_division(primes[1:])
    _phi(10**9, primes)
    _floats()
    _strided(primes[1:])


if __name__ == "__main__":
    t0 = time.perf_counter()
    kernel()
    print(time.perf_counter() - t0)
