import math
import random

import numpy as np
import pytest

from primesq import sieve
from primesq.errors import InsufficientTable
from primesq.sieve import (
    PrimeTable,
    base_primes,
    count_primes_below,
    shared_table,
    sieve_window,
)

from oracles import (
    concat,
    count_primes_open,
    eratosthenes,
    is_marked,
    is_prime,
    marked_values,
    miller_rabin,
    window_primes,
)


def test_base_primes_examples():
    assert base_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert base_primes(1).primes.tolist() == []
    assert len(base_primes(100)) == 25


def test_base_primes_all_pass_trial_division():
    for p in base_primes(500).primes.tolist():
        assert is_prime(p)


def test_base_primes_strictly_increasing_and_complete():
    table = base_primes(300)
    listed = table.primes.tolist()
    assert listed == sorted(set(listed))
    assert listed == [x for x in range(301) if is_prime(x)]


BASE_PRIME_LIMITS = [*range(300), *(2**k + d for k in range(1, 21) for d in (-1, 0, 1)), 10**6, 10**7]


def test_base_primes_match_eratosthenes():
    for limit in BASE_PRIME_LIMITS:
        table = base_primes(limit)
        assert table.limit == limit
        assert table.primes.dtype == np.int64
        assert np.array_equal(table.primes, eratosthenes(limit)), limit


def test_growing_never_changes_prefix(monkeypatch):
    monkeypatch.setattr(sieve, "_shared", PrimeTable(0, np.empty(0, dtype=np.int64)))
    assert shared_table(0).limit == 0  # nothing is sieved until a count needs it
    small = shared_table(50)
    assert small.limit == 65536  # the limit rounded up to a whole block of 2^16
    grown = shared_table(65537)
    assert grown.limit == 131072  # twice the old limit
    assert grown.primes[: len(small)].tolist() == small.primes.tolist()
    assert shared_table(400_000).limit == 458752  # 7 blocks, more than twice the old limit
    assert shared_table(300_000) is shared_table(458752)
    monkeypatch.setattr(sieve, "_shared", base_primes(100_000))
    assert shared_table(100_000) is sieve._shared
    assert shared_table(100_001).limit == 200_000  # twice the old limit, not a whole block


def test_sieve_window_examples():
    assert marked_values(sieve_window(4, 9, base_primes(2))).tolist() == [5, 7]
    assert marked_values(sieve_window(0, 2, base_primes(10))).tolist() == []
    assert marked_values(sieve_window(25, 36, base_primes(5))).tolist() == [29, 31]


def test_sieve_window_insufficient_table():
    with pytest.raises(InsufficientTable):
        sieve_window(25, 36, base_primes(4))


def test_sieve_window_marks_two():
    seg = sieve_window(0, 10, base_primes(3))
    assert marked_values(seg).tolist() == [2, 3, 5, 7]
    assert is_marked(seg, 2)
    assert not is_marked(seg, 1)
    assert not is_marked(seg, 4)


def test_count_primes_open_examples():
    assert count_primes_open(1, 4) == 2
    assert count_primes_open(24, 25) == 0
    assert count_primes_open(9, 16) == 2


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(7919)


def test_marks_match_trial_division_to_1e5():
    n = 100_000
    seg = sieve_window(0, n + 1, base_primes(400))
    total = 0
    for x in range(n + 1):
        marked = is_marked(seg, x)
        assert marked == is_prime(x), f"disagreement at {x}"
        total += marked
    assert count_primes_open(1, n + 1) == total == 9592


def test_count_open_matches_marks_at_random_cutoffs():
    n = 100_000
    seg = sieve_window(0, n + 1, base_primes(400))
    vals = marked_values(seg)
    rng = random.Random(7)
    for _ in range(25):
        cutoff = rng.randrange(2, n)
        assert count_primes_open(1, cutoff + 1) == int(np.searchsorted(vals, cutoff, side="right"))


def test_segment_size_independence():
    a, b = 10**6, 10**6 + 40_000
    baseline = count_primes_open(a, b)
    rng = random.Random(5)
    bounds = sorted([k * k for k in range(202)] + [rng.randrange(201**2) for _ in range(40)])
    many = count_primes_below(0, bounds)
    marks = marked_values(sieve_window(0, 201**2, base_primes(201)))
    assert many.tolist() == np.searchsorted(marks, bounds).tolist()
    for slots in (128, 1777, 65536):
        assert count_primes_open(a, b, segment_slots=slots) == baseline
        assert count_primes_below(0, bounds, segment_slots=slots).tolist() == many.tolist()


@pytest.mark.parametrize("slots", [1, 2, 7, sieve.DEFAULT_SEGMENT_SLOTS])
@pytest.mark.parametrize("lo", [0, 1, 2, 3])
def test_count_primes_below_every_bound(lo, slots):
    # every integer is a bound, so segments hold several and some end exactly on one
    bounds = list(range(1, 300))
    expected = [sum(is_prime(x) for x in range(lo, b)) for b in bounds]
    assert count_primes_below(lo, bounds, segment_slots=slots).tolist() == expected


def test_count_primes_below_many_bounds_in_one_segment():
    lo, hi = 10**6 + 1, 10**6 + 200_001
    rng = random.Random(17)
    bounds = sorted([lo - 3, lo, lo + 1, hi, hi] + [rng.randrange(lo, hi) for _ in range(3000)])
    marks = marked_values(sieve_window(lo, hi, base_primes(math.isqrt(hi))))
    expected = np.searchsorted(marks, np.maximum(bounds, lo)).tolist()
    assert count_primes_below(lo, bounds).tolist() == expected


def test_partition_concat_equals_whole():
    table = base_primes(1100)
    lo, hi = 999_000, 1_002_000
    whole = sieve_window(lo, hi, table)
    rng = random.Random(11)
    cuts = sorted(rng.sample(range(lo + 1, hi), 5))
    pieces = []
    prev = lo
    for cut in cuts + [hi]:
        pieces.append(sieve_window(prev, cut, table))
        prev = cut
    joined = pieces[0]
    for piece in pieces[1:]:
        joined = concat(joined, piece)
    assert joined.lo == whole.lo and joined.hi == whole.hi
    assert marked_values(joined).tolist() == marked_values(whole).tolist()


def test_squares_never_marked():
    table = base_primes(300)
    for n in range(1, 60):
        seg = sieve_window(n * n, n * n + 1, table)
        assert not is_marked(seg, n * n)


def test_window_preconditions():
    with pytest.raises(ValueError):
        sieve_window(10, 5, base_primes(10))
    with pytest.raises(ValueError):
        count_primes_open(-1, 10)


def _check_window(lo, hi, table, oracle=is_prime):
    seg = sieve_window(lo, hi, table)
    assert marked_values(seg).tolist() == [x for x in range(lo, hi) if oracle(x)], (lo, hi)
    assert seg.count() == len(marked_values(seg))


def test_tiny_windows_match_trial_division():
    for hi in range(0, 40):
        table = base_primes(math.isqrt(max(hi - 1, 0)))
        for lo in range(0, hi + 1):  # includes every empty, 1-wide and 2-straddling window
            _check_window(lo, hi, table)


def test_far_windows_match_trial_division():
    rng = random.Random(20261018)
    table = shared_table(10**7)
    for _ in range(6):
        lo = int(10 ** rng.uniform(12, 14))
        _check_window(lo, lo + rng.randrange(1, 64), table)
    for lo in (10**12, 10**14 - 40):
        _check_window(lo, lo, table)
        _check_window(lo, lo + 1, table)
        _check_window(lo, lo + 40, table)


@pytest.mark.parametrize("p", [3, 127, 10909, 10937, 999983])
def test_windows_at_a_prime_square(p):
    # p is the last base prime each window needs; a full segment's slices stop
    # between 10909 and 10937
    sq = p * p
    for lo in range(sq - 2, sq + 3):
        for width in (0, 1, 2, 3, 40):
            hi = lo + width
            _check_window(lo, hi, base_primes(math.isqrt(max(hi - 1, 0))))


def test_slice_split_sits_between_the_test_primes():
    split = sieve.DEFAULT_SEGMENT_SLOTS // (2 * sieve.MAX_ROUNDS)  # the largest prime a full segment slices
    assert 10909 < split == 10922 < 10937


def test_wide_far_windows_match_miller_rabin():
    # wide enough that primes which strike in rounds, up to 10937, strike several times
    for lo in (10937**2 - 5, 10**12 + 12345):
        hi = lo + 4 * 10937 + 7
        _check_window(lo, hi, shared_table(math.isqrt(hi)), miller_rabin)


@pytest.mark.parametrize("anchor", [0, 25, 49, 10**12, 10**14 - 40])
def test_windows_at_every_residue_pair(anchor):
    # lo and hi each take every residue mod 6, so slot 0 is below lo, at lo or
    # past hi, and the last slot is a 6k+1 or a 6k+5
    far = anchor > 10**6
    for lo in range(anchor, anchor + 6):
        for hi in range(lo, lo + 19):
            table = shared_table(math.isqrt(hi)) if far else base_primes(math.isqrt(max(hi - 1, 0)))
            _check_window(lo, hi, table, miller_rabin if far else is_prime)


@pytest.mark.parametrize("first", [16411, 16411 + 4])  # m = 1 and m = 5 mod 6 come first
@pytest.mark.parametrize("rounds", [1, 3])
def test_large_prime_steps_onto_the_last_slot_or_the_sentinel(first, rounds):
    # p = 16411 strikes in rounds; after `rounds` steps of 6p integers one of its
    # two progressions lands on the window's last slot (hi = v + 1) or on the
    # sentinel just past it (hi = v)
    p = 16411
    table = base_primes(p + 40)
    for m in (first, first + 2 if first % 6 == 5 else first + 4):  # each progression's start
        v = p * (m + 6 * rounds)
        for lo in range(p * first - 2, p * first + 1):
            for hi in (v, v + 1):
                seg = sieve_window(lo, hi, table)
                assert marked_values(seg).tolist() == window_primes(lo, hi), (lo, hi)
                # v's slot is the last one or the sentinel
                assert (v - seg.base) // 3 == seg.bits.size - (hi - v)


def test_rounds_alone_match_trial_division(monkeypatch):
    # with every base prime striking in rounds, small primes take many rounds each
    monkeypatch.setattr(sieve, "MAX_ROUNDS", 10**9)
    for hi in range(0, 60):
        for lo in range(0, hi + 1):
            _check_window(lo, hi, base_primes(math.isqrt(max(hi - 1, 0))))
    rng = random.Random(13)
    for _ in range(20):
        lo = rng.randrange(10**6)
        _check_window(lo, lo + rng.randrange(1, 3000), shared_table(1100))


def test_rounds_clamp_only_primes_that_can_strike_again(monkeypatch):
    # a prime strikes again in round r only if r steps of 2p slots fit in the
    # n slots, so each round clamps the prefix of primes p <= n // (2r), both
    # progressions; the primes above n // (2 * MAX_ROUNDS) take at most MAX_ROUNDS rounds
    class Recorder:
        def __init__(self):
            self.sizes = []

        def __getattr__(self, name):
            return getattr(np, name)

        def minimum(self, a, b, out=None):
            self.sizes.append(a.size)
            return np.minimum(a, b, out=out)

    monkeypatch.setattr(sieve, "MAX_ROUNDS", 15)
    lo, hi = 10**8 + 1, 10**8 + 9001
    table = base_primes(math.isqrt(hi))
    rec = Recorder()
    monkeypatch.setattr(sieve, "np", rec)
    seg = sieve_window(lo, hi, table)
    n, p = seg.bits.size, table.primes[6:]  # the base primes from 17 on; 5..13 come from the pattern
    assert n // (2 * 15) == 100  # the primes from 101 on take rounds
    large = p[p >= 101]
    expected, r = [], 1
    while (k := int(np.count_nonzero(large <= n // (2 * r)))):
        expected += [k, k]
        r += 1
    assert rec.sizes[:2] == [p.size, p.size]  # every first multiple, once
    assert [s for s in rec.sizes[2:] if s] == expected
    assert len(expected) == 2 * (15 - 1)  # 15 rounds, the last with nothing left to clamp


@pytest.mark.parametrize("slots", [1, 2, 7])
@pytest.mark.parametrize("lo", [4, 5, 1000, 10**6 + 3])
def test_small_segments_advance_and_count(monkeypatch, lo, slots):
    calls = []
    real = sieve.sieve_window

    def window(a, b, table):
        calls.append((a, b))
        return real(a, b, table)

    monkeypatch.setattr(sieve, "sieve_window", window)
    bounds = list(range(lo + 1, lo + 120))
    expected = [sum(is_prime(x) for x in range(lo, b)) for b in bounds]
    assert count_primes_below(lo, bounds, segment_slots=slots).tolist() == expected
    assert calls[0][0] == lo and calls[-1][1] == bounds[-1]
    assert all(a < b <= a + 3 * slots for a, b in calls)  # every segment advances
    assert all(x[1] == y[0] for x, y in zip(calls, calls[1:]))


def test_presieve_pattern_is_trial_division_over_one_period():
    # slot 2j holds 6j + 1 and slot 2j + 1 holds 6j + 5, for 6 * 5 * 7 * 11 * 13 integers
    expected = [all(v % d for d in (5, 7, 11, 13)) for j in range(5005) for v in (6 * j + 1, 6 * j + 5)]
    assert sieve._presieve_pattern().tolist() == expected


@pytest.mark.parametrize(("anchor", "phase"), [(10**8, 5003), (10**10, 5004), (10**12, 0)])
def test_windows_where_the_presieve_wraps(anchor, phase):
    # a window copies the pattern from slot 2 * phase, with phase = base // 6 % 5005;
    # at 5003 and 5004 the copy wraps to slot 0 after 12 and 6 integers
    start = anchor - anchor % 30030 + 6 * phase
    table = shared_table(math.isqrt(start + (3 << 20)))
    for lo in (start, start + 1, start + 5):
        assert (lo - lo % 6) // 6 % 5005 == phase
        for width in (1, 40):
            _check_window(lo, lo + width, table, miller_rabin)
    hi = start + 1 + (3 << 20)  # a full segment's width, from one period copied and doubled
    assert marked_values(sieve_window(start + 1, hi, table)).tolist() == window_primes(start + 1, hi)


def test_windows_from_the_presieved_primes_keep_them():
    # 5, 7, 11 and 13 are struck in the pattern and put back when they lie in [lo, hi)
    table = shared_table(math.isqrt(3 << 20))
    for lo in range(15):
        for hi in (*range(lo, 40), 289, 290, 30031, 30036, 3 << 20):
            seg = sieve_window(lo, hi, table)
            inside = [p for p in (5, 7, 11, 13) if lo <= p < hi]
            assert [p for p in inside if is_marked(seg, p)] == inside, (lo, hi)
            assert [v for v in marked_values(seg).tolist() if v < 300] == window_primes(lo, min(hi, 300))
