import gc
import math
import random

import numpy as np
import pytest

from primesq import counting, sieve
from primesq.counting import (
    COMBINATORIAL_MAX,
    F_WINDOW_MAX,
    G_BLOCK,
    MILLER_RABIN_BASES,
    WINDOW_SIEVE_MAX,
    FRecord,
    _first_primes,
    _icbrt,
    _is_prime_many,
    _mulmod,
    _pi_combinatorial,
    _strong_probable_prime,
    _window_counts,
    f_of,
    g_of,
    pi_exact,
    pi_exact_many,
    stream_f,
)
from primesq.errors import DomainError, Unsupported
from primesq.sieve import PrimeTable, shared_table, sieve_window

from oracles import dense_pi, is_prime, marked_values, miller_rabin


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


def test_combinatorial_pi_matches_dense_recurrence():
    rng = random.Random(20261020)
    xs = [rng.randrange(10**9, 10**11) for _ in range(6)]
    # the last prime p with p^4 <= x, whose step ends the compaction, changes at q^4
    primes = [q for q in range(2, 301) if is_prime(q)]
    xs += [q**4 + d for q in primes for d in (-1, 0, 1)]
    xs += [k * k + d for k in rng.sample(range(31623, 316228), 6) for d in (-1, 0, 1)]
    xs += [k**3 + d for k in rng.sample(range(1001, 4642), 6) for d in (-1, 0, 1)]
    assert [_pi_combinatorial(x) for x in xs] == [dense_pi(x) for x in xs]


def test_combinatorial_pi_at_powers_of_ten():
    # OEIS A006880
    expected = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511,
                4118054813, 37607912018]
    assert [_pi_combinatorial(10**k) for k in range(1, 13)] == expected
    assert _pi_combinatorial(10**13) == 346065536839  # above COMBINATORIAL_MAX, which only pi_exact enforces


def test_pi_exact_many_matches_singles():
    rng = random.Random(3)
    xs = [rng.randrange(0, 200_000) for _ in range(30)] + [1, 2, 199_999]
    assert pi_exact_many(xs) == [pi_exact(x, "combinatorial") for x in xs]


def test_pi_takes_integers_only():
    for bad in (2.5, 10.9, np.float64(10.0), "10"):
        with pytest.raises(TypeError):
            pi_exact(bad)
        with pytest.raises(TypeError):
            pi_exact(bad, "window_sieve")
        with pytest.raises(TypeError):
            pi_exact_many([4, bad])
    for x in (np.int64(10), np.int32(10), np.uint16(10)):
        assert pi_exact(x) == pi_exact(x, "window_sieve") == pi_exact_many([x])[0] == pi_exact(int(x))
    assert pi_exact_many(np.array([10, 100])) == [4, 25]


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


def test_numpy_integers_narrower_than_int64_do_not_wrap():
    # int32 squares wrap: f_of(np.int32(50000)) raised "need 0 <= lo <= hi", and the range
    # check passed np.int32(20_000_000), whose candidates lie outside _mulmod's exact range
    assert f_of(np.int32(50000)) == f_of(50000) == 4605
    assert g_of(np.int16(300)) == g_of(300)
    assert stream_f(np.int32(50000), np.int32(50001)) == stream_f(50000, 50001)
    for n in (np.int32(20_000_000), np.int64(20_000_000), 20_000_000):
        with pytest.raises(DomainError):
            counting._check_window_range(n)
        with pytest.raises(DomainError):
            g_of(n)


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
    # psi_k passes its first k bases, so it must take k + 1 bases in any batch
    psi = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 9746347772161]
    for x in psi + carmichael:
        assert not _is_prime_many(np.array([x], dtype=np.int64))[0], x
    _kernel_agrees(psi + carmichael)


def test_kernel_bases_per_candidate_in_one_shuffled_batch():
    psi = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 9746347772161]
    xs = [p for p in range(38) if miller_rabin(p)] + psi + carmichael
    for v in psi + [10**14]:
        xs += _primes_near(v, 2)
    random.Random(19).shuffle(xs)
    _kernel_agrees(xs)


def test_later_bases_test_only_the_candidates_that_need_them(monkeypatch):
    calls = []

    def spy(x, a):
        calls.append((np.broadcast_to(a, x.shape).tolist(), x.tolist()))
        return _strong_probable_prime(x, a)

    big = _primes_near(10**13, 1)[1]
    xs = [p for p in range(41, 2047) if miller_rabin(p)] + [big]
    monkeypatch.setattr(counting, "_strong_probable_prime", spy)
    assert _is_prime_many(np.array(xs, dtype=np.int64)).all()
    # base 2 on every x, then one call that holds each x once per further base it needs:
    # below psi_1 = 2047 none, and psi_6 < 10^13 < psi_7, so big takes the next six
    assert calls == [([2] * len(xs), xs), ([3, 5, 7, 11, 13, 17], [big] * 6)]


def _sprp(x, a):
    """Strong probable-prime test of odd x > a to base a, in Python integers."""
    s = ((x - 1) & (1 - x)).bit_length() - 1
    y = pow(a, (x - 1) >> s, x)
    return y == 1 or any(pow(y, 1 << r, x) == x - 1 for r in range(s))


# primes with large s (2^s exactly divides x - 1), and strong pseudoprimes to base 2 with s = 6..9
LARGE_S_PRIMES = [65537, 786433, 167772161, 469762049, 2013265921]
LARGE_S_PSEUDOPRIMES = [4033, 8321, 65281, 130561, 357761, 1357441]


def test_kernel_tail_on_large_s_and_3_mod_4():
    rng = random.Random(4)
    three_mod_4 = [rng.randrange(10**5, 10**10) // 4 * 4 + 3 for _ in range(300)]
    xs = LARGE_S_PRIMES + LARGE_S_PSEUDOPRIMES + three_mod_4 + [p for p in range(10**6 + 3, 10**6 + 800, 4)]
    rng.shuffle(xs)
    assert all(_sprp(x, 2) for x in LARGE_S_PSEUDOPRIMES)
    _kernel_agrees(xs)
    x = np.array(xs, dtype=np.int64)
    for a in MILLER_RABIN_BASES[:7]:
        assert _strong_probable_prime(x, a).tolist() == [_sprp(v, a) for v in xs], a


def test_one_base_per_element_in_a_shuffled_batch():
    psi = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    pairs = [(x, a) for x in LARGE_S_PRIMES + LARGE_S_PSEUDOPRIMES + psi for a in range(2, 18)]
    random.Random(21).shuffle(pairs)
    x = np.array([p[0] for p in pairs], dtype=np.int64)
    a = np.array([p[1] for p in pairs], dtype=np.int64)
    assert _strong_probable_prime(x, a).tolist() == [_sprp(*p) for p in pairs]


def test_tail_squares_only_the_undecided(monkeypatch):
    moduli = []

    def spy(a, b, m, inv):
        moduli.append(m.tolist())
        return _mulmod(a, b, m, inv)

    monkeypatch.setattr(counting, "_mulmod", spy)
    three_mod_4 = list(range(10**6 + 3, 10**6 + 400, 4))  # s = 1: no squaring after a^d
    _strong_probable_prime(np.array(three_mod_4, dtype=np.int64), 3)
    assert moduli and all(m == three_mod_4 for m in moduli)
    moduli.clear()
    # 3 is a primitive root mod 65537 = 2^16 + 1, so 3^(2^r) first reaches -1 at r = 15;
    # 1000005 = 5 * 200001 has s = 2 and is still undecided after 3^d, so it takes one squaring;
    # 13 has s = 2 too, but 3^3 = 1 mod 13 decides it before any squaring
    batch = three_mod_4 + [13, 1000005, 65537]
    assert _strong_probable_prime(np.array(batch, dtype=np.int64), 3)[-3:].tolist() == [True, False, True]
    assert moduli[-15:] == [[1000005, 65537]] + [[65537]] * 14
    assert all(m == batch for m in moduli[:-15])


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


def test_a_round_takes_every_survivor_of_a_few_rows(monkeypatch):
    # each first prime lies more than 40 past t^2; rounds sized to the 3 rows rather
    # than to G_BLOCK would test one survivor per row at a time, in 7 rounds
    sizes = []

    def spy(x):
        sizes.append(x.size)
        return _is_prime_many(x)

    monkeypatch.setattr(counting, "_is_prime_many", spy)
    ts = [1033, 1056, 1081]
    t = np.array(ts, dtype=np.int64)
    found = counting._span_first_primes(t * t + 1, (t + 1) ** 2)
    assert found.tolist() == [_sieve_first_primes(v, v)[0] for v in ts]
    assert (found - t * t > 40).all()
    assert len(sizes) == 1


@pytest.mark.parametrize("near", [10**6, 9_999_999])
def test_first_primes_match_sieve_far(near):
    rng = random.Random(near)
    t0 = min(rng.randrange(near - 10**5, near), 9_999_999 - 40)
    assert _kernel_first_primes(t0, t0 + 40) == _sieve_first_primes(t0, t0 + 40, span=4096)


def _miller_rabin_window_count(n):
    """f(n) from _is_prime_many over the integers prime to 6 in (n^2, (n+1)^2), n >= 2."""
    x = np.arange(n * n + 1, (n + 1) ** 2, dtype=np.int64)
    x = x[(x % 2 != 0) & (x % 3 != 0)]
    return sum(int(np.count_nonzero(_is_prime_many(x[i:i + G_BLOCK]))) for i in range(0, x.size, G_BLOCK))


def test_f_at_the_shared_table_growth_boundaries(monkeypatch):
    # f(n) needs base primes up to n, so from an empty table f(2^16 - 1) and f(2^16)
    # take a 2^16 table, f(2^16 + 1) grows it, and so on at 2^20
    monkeypatch.setattr(sieve, "_shared", PrimeTable(0, np.empty(0, dtype=np.int64)))
    cases = [(65535, 5853, 65536), (65536, 5862, 65536), (65537, 5895, 131072),
             (2**20 - 1, 75527, 2**20), (2**20, 75803, 2**20), (2**20 + 1, 75500, 2**21)]
    for n, f, limit in cases:
        assert f_of(n) == f == _miller_rabin_window_count(n), n
        assert sieve._shared.limit == limit, n


def test_consecutive_windows_build_the_shared_table_once(monkeypatch):
    monkeypatch.setattr(sieve, "_shared", PrimeTable(0, np.empty(0, dtype=np.int64)))
    limits = []
    real = sieve.base_primes

    def counted(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(sieve, "base_primes", counted)
    for n in range(10**6, 10**6 + 12):
        f_of(n)
    # one table of 2^20, whose own base primes recurse down through isqrt
    assert limits == [2**20, 2**10, 32, 5, 2, 1]
