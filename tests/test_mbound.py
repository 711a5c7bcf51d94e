import random

import numpy as np
import pytest
from mpmath import mp

from primesq import mbound
from primesq.analytic import theorem_floor
from primesq.counting import f_of
from primesq.errors import DomainError
from primesq.mbound import (
    C3_CSV_COLUMNS,
    M_OF_MAX,
    START_K,
    bound_gap,
    c3_csv,
    c3_table,
    m_of,
    s_sum,
)

from oracles import forward_tail_sum, m_of_linear, tail_quad

# frozen from a 40-digit term-by-term evaluation with a linear-scan search
M_ORACLE = {597: 597, 650: 635, 1000: 911, 2000: 1801}


def quad_floor_sum(lo: int, hi: int) -> int:
    total = 0
    with mp.workprec(160):
        for k in range(lo, hi + 1):
            arg = (((k + 1) ** 2) / mp.log(k + 1) - (k * k) / mp.log(k)) / 2 \
                - mp.log(k) ** 2 / mp.log(mp.log(k))
            total += int(mp.floor(arg))
    return total


def test_s_sum_values():
    assert s_sum(597) == theorem_floor(597)[0] == 64
    assert s_sum(598) == s_sum(597) + theorem_floor(598)[0]
    assert s_sum(600) == 256
    assert s_sum(1000) == quad_floor_sum(597, 1000)


def test_s_sum_matches_fresh_resummation():
    assert s_sum(800) == sum(theorem_floor(k)[0] for k in range(597, 801))


def test_s_sum_domain():
    with pytest.raises(DomainError):
        s_sum(596)


def test_range_checked_before_caches_grow():
    filled = mbound._filled
    for call in (lambda: s_sum(M_OF_MAX + 1), lambda: m_of(M_OF_MAX + 1),
                 lambda: c3_table([START_K, M_OF_MAX + 1])):
        with pytest.raises(DomainError, match="9999999"):
            call()
    assert mbound._filled == filled


def test_bound_gap_values():
    gap = bound_gap(597)
    assert gap.value == pytest.approx(214.54221406182842, abs=1e-6)
    assert 100 < gap.value < 1000  # order of magnitude 10^2
    with pytest.raises(DomainError):
        bound_gap(596)


def test_caches_match_scalar_values():
    mbound._extend_caches(3000)  # built a range of k at a time, from arrays
    gaps = [bound_gap(k) for k in range(START_K, 3001)]
    assert mbound._tfloors[:len(gaps)].tolist() == [theorem_floor(k)[0] for k in range(START_K, 3001)]
    assert [g.hex() for g in mbound._gaps[:len(gaps)].tolist()] == [g.value.hex() for g in gaps]
    assert [e.hex() for e in mbound._gap_errs[:len(gaps)].tolist()] == [g.abs_err.hex() for g in gaps]


def test_caches_filled_chunk_by_chunk_match_one_array(monkeypatch):
    # refill from empty in 1000-k chunks, over calls that stop inside a chunk
    monkeypatch.setattr(mbound, "_CHUNK", 1000)
    monkeypatch.setattr(mbound, "_filled", 0)
    for n in (700, 2500, 5000):
        mbound._extend_caches(n)
    assert mbound._filled == 5000 - START_K + 1
    ks = np.arange(START_K, 5001, dtype=np.int64)
    gap = bound_gap(ks)
    assert np.array_equal(mbound._tfloors[:ks.size], theorem_floor(ks)[0])
    assert mbound._gaps[:ks.size].tobytes() == gap.value.tobytes()
    assert mbound._gap_errs[:ks.size].tobytes() == gap.abs_err.tobytes()


def test_bound_gap_positive_and_dominates_f():
    for k in (597, 800, 1200, 5000):
        gap = bound_gap(k)
        assert gap.value > 0
        assert gap.value > f_of(k)  # sandwich audit on samples


def test_m_of_frozen_oracle():
    for n, expected in M_ORACLE.items():
        assert m_of(n) == expected


def test_m_of_within_domain():
    assert m_of(597) == 597
    for n in (650, 1000):
        m = m_of(n)
        assert 597 <= m <= n
    with pytest.raises(DomainError):
        m_of(596)


def test_binary_equals_linear_scan():
    for n in range(597, 900):
        assert m_of(n) == m_of_linear(n), n
    rng = random.Random(17)
    for n in (rng.randrange(900, 2000) for _ in range(25)):
        assert m_of(n) == m_of_linear(n), n


def test_m_of_agrees_with_oracle_far():
    rng = random.Random(23)
    for n in sorted(rng.randrange(2000, 200_000) for _ in range(6)) + [10**6]:
        assert m_of(n) == m_of_linear(n), n


def test_tail_sums_strictly_decreasing():
    for n in (700, 1500):
        s_sum(n)  # fills the caches to n
        tail = [mbound._tail(m, n)[0] for m in range(START_K, n + 1)]
        for i in range(len(tail) - 1):
            assert tail[i] > tail[i + 1]


def test_forward_and_fsum_tails_agree():
    for m, n in ((597, 800), (1000, 2500), (597, 3000)):
        fwd, ferr = forward_tail_sum(m, n)
        s_sum(n)
        tail, terr = mbound._tail(m, n)
        assert abs(fwd - tail) <= ferr + terr


def test_fsum_tail_within_bound_of_quad():
    rng = random.Random(29)
    pairs = [(597, 2000)]
    for _ in range(6):
        n = rng.randrange(10_000, 200_000)
        pairs.append((n - rng.randrange(1, 1500), n))
    for m, n in pairs:
        s_sum(n)
        tail, err = mbound._tail(m, n)
        assert abs(tail - mbound._tail_quad(m, n)) <= err, (m, n)


def test_tail_quad_matches_the_mpmath_loop_bits():
    for m, n in [(597, 597), (597, 2000), (1000, 1001), (150000, 151200), (9999000, M_OF_MAX)]:
        got, want = mbound._tail_quad(m, n), tail_quad(m, n)
        assert got._mpf_ == want._mpf_, (m, n)


def test_c3_table_and_csv():
    recs = c3_table([597, 650])
    assert recs[0].ratio == 1.0
    for rec in recs:
        assert rec.m_value is not None
        assert 0 < rec.ratio <= 1.0
    text = c3_csv(recs)
    lines = text.splitlines()
    assert lines[0] == C3_CSV_COLUMNS
    assert lines[1] == "597,64,597,1.000000"
    with pytest.raises(DomainError):
        c3_table([596])
