import math
import random

import numpy as np
import pytest

from primesq import sieve
from primesq.errors import InsufficientTable
from primesq.sieve import (
    base_primes,
    count_primes_below,
    count_primes_open,
    is_prime,
    shared_table,
    sieve_window,
)

from oracles import concat, is_marked, marked_values, miller_rabin


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


def test_growing_never_changes_prefix(monkeypatch):
    monkeypatch.setattr(sieve, "_shared", base_primes(100))
    small = shared_table(50)
    assert small.limit == 100
    big = shared_table(150)
    assert big.limit == 200  # grown to at least twice the old limit
    assert big.primes[: len(small)].tolist() == small.primes.tolist()
    assert shared_table(1000).limit == 1000
    assert shared_table(999) is shared_table(1000)


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
    for odds in (128, 1777, 65536):
        assert count_primes_open(a, b, segment_odds=odds) == baseline
        assert count_primes_below(0, bounds, segment_odds=odds).tolist() == many.tolist()


@pytest.mark.parametrize("odds", [1, 2, 7, sieve.DEFAULT_SEGMENT_ODDS])
@pytest.mark.parametrize("lo", [0, 1, 2, 3])
def test_count_primes_below_every_bound(lo, odds):
    # every integer is a bound, so segments hold several and some end exactly on one
    bounds = list(range(1, 300))
    expected = [sum(is_prime(x) for x in range(lo, b)) for b in bounds]
    assert count_primes_below(lo, bounds, segment_odds=odds).tolist() == expected


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


@pytest.mark.parametrize("p", [3, 127, 16381, 16411, 999983])
def test_windows_at_a_prime_square(p):
    # p is the last base prime each window needs; 16381 < SLICE_PRIME_MAX < 16411
    sq = p * p
    for lo in range(sq - 2, sq + 3):
        for width in (0, 1, 2, 3, 40):
            hi = lo + width
            _check_window(lo, hi, base_primes(math.isqrt(max(hi - 1, 0))))


def test_slice_split_sits_between_the_test_primes():
    assert 16381 < sieve.SLICE_PRIME_MAX < 16411


def test_wide_far_windows_match_miller_rabin():
    # wide enough that primes above SLICE_PRIME_MAX strike several times
    for lo in (16411**2 - 5, 10**12 + 12345):
        hi = lo + 4 * 16411 + 7
        _check_window(lo, hi, shared_table(math.isqrt(hi)), miller_rabin)
