import gc
import random

import numpy as np
import pytest

from primesq.counting import (
    COMBINATORIAL_MAX,
    F_WINDOW_MAX,
    WINDOW_SIEVE_MAX,
    FRecord,
    _icbrt,
    _pi_combinatorial,
    _window_counts,
    f_of,
    g_of,
    miller_rabin,
    pi_exact,
    pi_exact_many,
    stream_f,
)
from primesq.errors import DomainError, Unsupported
from primesq.sieve import is_prime


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
