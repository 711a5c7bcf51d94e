import gc
import math
import random

import numpy as np
import pytest

from primesq.counting import (
    COMBINATORIAL_MAX,
    F_WINDOW_MAX,
    G_BLOCK,
    WINDOW_SIEVE_MAX,
    FRecord,
    _first_primes,
    _icbrt,
    _is_prime_many,
    _mulmod,
    _pi_combinatorial,
    _window_counts,
    f_of,
    g_of,
    pi_exact,
    pi_exact_many,
    stream_f,
)
from primesq.errors import DomainError, Unsupported
from primesq.sieve import is_prime, shared_table, sieve_window

from oracles import marked_values, miller_rabin


def naive_pi(limit: int) -> list[int]:
    """Independent oracle: plain bytearray sieve, no package code."""
    marks = bytearray(b"\x01") * (limit + 1)
    marks[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if marks[p]:
            marks[p * p :: p] = b"\x00" * len(marks[p * p :: p])
        p += 1
    out = [0] * (limit + 1)
    count = 0
    for x in range(limit + 1):
        count += marks[x]
        out[x] = count
    return out


def test_f_of_examples():
    assert f_of(1) == 2
    assert f_of(4) == 3
    assert f_of(5) == 2


def test_stream_f_examples():
    assert stream_f(1, 3) == [FRecord(1, 2, 0), FRecord(2, 2, 2), FRecord(3, 2, 4)]
    assert stream_f(2, 2) == [FRecord(2, 2, 2)]


def test_stream_f_telescopes_to_pi():
    for a, b in ((1, 40), (7, 31), (100, 140)):
        recs = stream_f(a, b)
        last = recs[-1]
        assert last.pi_n2 + last.f == pi_exact((b + 1) ** 2, "combinatorial")


def test_stream_recurrence_and_pi_seed():
    # per-n equality against the oracle makes the telescoping identity
    # pi(b^2) - pi(a^2) = sum of f(k) hold for every 1 <= a <= b <= 2000
    oracle = naive_pi(2001**2)
    recs = stream_f(1, 2000)
    for rec in recs:
        assert rec.pi_n2 == oracle[rec.n**2]
        assert rec.f == oracle[(rec.n + 1) ** 2] - oracle[rec.n**2]


def test_f_of_matches_stream():
    recs = stream_f(37, 60)
    for rec in recs:
        assert f_of(rec.n) == rec.f


def test_pi_exact_examples():
    for method in ("window_sieve", "combinatorial"):
        assert pi_exact(10, method) == 4
        assert pi_exact(1, method) == 0
        assert pi_exact(0, method) == 0
    assert pi_exact(10**6, "window_sieve") == 78498
    assert pi_exact(10**6, "combinatorial") == 78498
    assert pi_exact(10**11, "combinatorial") == 4118054813


def test_pi_against_naive_oracle():
    oracle = naive_pi(30_000)
    for x in (2, 3, 10, 97, 1000, 4999, 29_999, 30_000):
        assert pi_exact(x, "window_sieve") == oracle[x]
        assert pi_exact(x, "combinatorial") == oracle[x]


def test_pi_methods_agree():
    xs = [10**3, 10**4, 10**5, 10**6]
    rng = random.Random(20260808)
    xs += [rng.randrange(2, 10**6) for _ in range(40)]
    for x in xs:
        assert pi_exact(x, "window_sieve") == pi_exact(x, "combinatorial"), x


def test_icbrt_exact_at_cubes():
    assert [_icbrt(x) for x in range(9)] == [0, 1, 1, 1, 1, 1, 1, 1, 2]
    for k in range(2, 10**4 + 1):
        assert (_icbrt(k**3 - 1), _icbrt(k**3), _icbrt(k**3 + 1)) == (k - 1, k, k), k


def test_combinatorial_pi_matches_window_sieve():
    # cubes and squares sit where the Meissel split moves its cut or a table ends
    xs = list(range(3000))
    xs += [k**3 + d for k in range(2, 300) for d in (-1, 0, 1)]
    xs += [k * k + d for k in range(1, 400) for d in (-1, 0)]
    rng = random.Random(20261018)
    xs += [rng.randrange(10**9) for _ in range(300)]
    assert [_pi_combinatorial(x) for x in xs] == pi_exact_many(xs)


def test_pi_exact_many_matches_singles():
    rng = random.Random(3)
    xs = [rng.randrange(0, 200_000) for _ in range(30)] + [1, 2, 199_999]
    assert pi_exact_many(xs) == [pi_exact(x, "combinatorial") for x in xs]


def test_pi_unsupported_ranges():
    with pytest.raises(Unsupported):
        pi_exact(WINDOW_SIEVE_MAX + 1, "window_sieve")
    with pytest.raises(Unsupported):
        pi_exact(COMBINATORIAL_MAX + 1, "combinatorial")
    with pytest.raises(ValueError):
        pi_exact(10, "abacus")


def test_combinatorial_pi_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        pi_exact(10**7, "combinatorial")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_g_examples():
    assert g_of(1) == 1
    assert g_of(10) == 10


def test_g_monotone_steps():
    prev = g_of(1)
    for n in range(2, 150):
        cur = g_of(n)
        assert cur - prev in (0, 1)
        assert cur <= n
        prev = cur


def test_preconditions():
    with pytest.raises(ValueError):
        f_of(0)
    with pytest.raises(ValueError):
        stream_f(5, 4)
    with pytest.raises(ValueError):
        g_of(0)


def test_miller_rabin_matches_trial_division():
    assert [x for x in range(200_000) if miller_rabin(x)] == [x for x in range(200_000) if is_prime(x)]


@pytest.mark.parametrize("x", [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                               341550071728321, 3825123056546413051])
def test_miller_rabin_rejects_strong_pseudoprimes(x):
    # each is the least strong pseudoprime to the first k prime bases, k = 1..9
    assert not miller_rabin(x)


def test_miller_rabin_large_primes():
    for p in (10**12 + 39, 10**14 + 31, 2**61 - 1):
        assert miller_rabin(p)
    assert not miller_rabin((10**12 + 39) * 1000003)


def test_g_matches_window_counts():
    counts = _window_counts(1, 3000)
    for n in (1, 2, 3, 10, 99, 1000, 2999, 3000):
        assert g_of(n) == int(np.count_nonzero(counts[:n])), n


def test_f_range_limit():
    assert F_WINDOW_MAX == 10**14
    with pytest.raises(DomainError):
        f_of(9_999_999 + 1)
    with pytest.raises(DomainError):
        f_of(4_000_000_000)
    with pytest.raises(DomainError):
        stream_f(9_999_990, 10**7)
    with pytest.raises(DomainError):
        g_of(9_999_999 + 1)
    with pytest.raises(DomainError):
        g_of(4_000_000_000)


# --- the vectorised Miller-Rabin kernel against the scalar oracle ------------


def _kernel_agrees(xs):
    xs = [int(x) for x in xs]
    assert _is_prime_many(np.array(xs, dtype=np.int64)).tolist() == [miller_rabin(x) for x in xs]


def _primes_near(v, count):
    """The count primes just below v and the count primes from v up."""
    below, above, x, y = [], [], v - 1, v
    while len(below) < count:
        below += [x] * miller_rabin(x)
        x -= 1
    while len(above) < count:
        above += [y] * miller_rabin(y)
        y += 1
    return below + above


def test_kernel_matches_miller_rabin_below_2e5():
    _kernel_agrees(range(200_000))


def test_kernel_rejects_pseudoprimes():
    # psi_1..psi_6, the least strong pseudoprimes to the first k bases, and Carmichael numbers;
    # alone, psi_k is the largest x of its batch, which must then take k + 1 bases
    psi = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 9746347772161]
    for x in psi + carmichael:
        assert not _is_prime_many(np.array([x], dtype=np.int64))[0], x
    _kernel_agrees(psi + carmichael)


def test_kernel_on_squares_and_products_of_close_primes():
    xs = []
    for v in (65536, math.isqrt(2**47), 10**7):  # products near 2^32, 2^47 and 10^14
        ps = _primes_near(v, 3)
        xs += [p * q for p in ps for q in ps if p * q < 2**47]
        xs += [p - 2 for p in ps] + ps
    assert any(x > 2**32 for x in xs) and max(xs) > 10**14
    _kernel_agrees(xs)


def test_kernel_on_random_large_odd_x():
    rng = random.Random(20261018)
    xs = [2**32 + d for d in range(-301, 301, 2)]
    xs += [rng.randrange(2**31, 2**32) | 1 for _ in range(2000)]
    xs += [rng.randrange(2**32, 2**33) | 1 for _ in range(2000)]
    xs += [rng.randrange(10**13, 10**14) | 1 for _ in range(3000)]
    _kernel_agrees(xs)


def test_mulmod_exact_near_2_32_and_10_14():
    top = 10**14 - 1
    while not miller_rabin(top):
        top -= 2
    for m in (2**32 - 5, 2**32 + 15, top):
        pairs = [(m - 1, m - 1), (m - 1, m - 2), (m - 2, m - 2), (m - 1, 37**7), (m - 2, 1)]
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        mm = np.full(len(pairs), m, dtype=np.int64)
        r = _mulmod(a, b, mm, 1.0 / mm.astype(np.float64)).tolist()
        assert [v % m for v in r] == [x * y % m for x, y in pairs], m
        assert all(abs(v) < m for v in r), m


def _sieve_first_primes(t_from, t_to, span=None):
    """First value sieve_window marks in (t^2, (t+1)^2), or in its first span integers."""
    out = []
    for t in range(t_from, t_to + 1):
        lo, hi = t * t + 1, (t + 1) ** 2
        if span is not None:
            hi = min(hi, lo + span)
        marked = marked_values(sieve_window(lo, hi, shared_table(math.isqrt(hi))))
        assert marked.size or span is None, t  # a span too short to hold the first prime
        out.append(int(marked[0]) if marked.size else 0)
    return out


def _kernel_first_primes(t_from, t_to):
    return np.concatenate(list(_first_primes(t_from, t_to))).tolist()


def test_first_primes_match_sieve_small_t():
    assert _kernel_first_primes(1, 3000) == _sieve_first_primes(1, 3000)


def test_first_primes_match_sieve_where_candidates_cross_2_32():
    # 65536^2 = 2^32: windows below it test candidates under 2^32, windows above it over 2^32
    assert _kernel_first_primes(65500, 65570) == _sieve_first_primes(65500, 65570)


def test_first_primes_at_a_block_edge():
    blocks = list(_first_primes(1, G_BLOCK + 1))
    assert [b.size for b in blocks] == [G_BLOCK, 1]
    got = np.concatenate(blocks)[G_BLOCK - 3:].tolist()
    assert got == _sieve_first_primes(G_BLOCK - 2, G_BLOCK + 1)
    assert _kernel_first_primes(G_BLOCK - 2, G_BLOCK + 1) == got
    assert [g_of(n) for n in (G_BLOCK - 1, G_BLOCK, G_BLOCK + 1)] == [G_BLOCK - 1, G_BLOCK, G_BLOCK + 1]


@pytest.mark.parametrize("near", [10**6, 9_999_999])
def test_first_primes_match_sieve_far(near):
    rng = random.Random(near)
    t0 = min(rng.randrange(near - 10**5, near), 9_999_999 - 40)
    assert _kernel_first_primes(t0, t0 + 40) == _sieve_first_primes(t0, t0 + 40, span=4096)
