import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import primesq.analytic as analytic
from primesq.analytic import (
    SUM_R_BLOCK,
    SUM_R_MAX,
    c1_rhs,
    c2_lhs,
    delta,
    dusart_lower,
    dusart_upper,
    lemma1_proof_sides,
    lemma1_sides,
    SQUARE_N_MAX,
    lemma2_lhs,
    margin_sides,
    r_term,
    sum_r,
    theorem_floor,
)
from primesq.errors import DomainError
from primesq.mbound import bound_gap

from oracles import exact_sum_r, quad_sum_r

# expected values frozen from a 60-digit mpmath evaluation of the formulas
DELTA_3 = 1.6747036437350853582
DELTA_5 = 2.2793045959273029331
R_3 = 12.833352894993159951
R_4 = 5.8836818152529177054
C1_RHS_5 = 3.5119849279624465695
C2_LHS_3 = -12.158649251258074593
L_1E6 = 78304.235950041402496
U_1E6 = 78573.487078080902068
NEG_CONST = -0.096076519820768271264  # 4 - 9/log 9
SUM_R_6 = 24.160136340714041015


def test_delta_frozen_values():
    assert delta(3).value == pytest.approx(DELTA_3, abs=1e-10)
    assert delta(5).value == pytest.approx(DELTA_5, abs=1e-10)


def test_delta_positive_and_domain():
    for n in range(2, 400):
        assert delta(n).value > 0
    with pytest.raises(DomainError):
        delta(1)


def test_r_term_frozen_values():
    assert r_term(3).value == pytest.approx(R_3, abs=1e-9)
    assert r_term(4).value == pytest.approx(R_4, abs=1e-9)
    assert r_term(4).value < r_term(3).value  # r dips before growing


def test_r_term_positive_and_domain():
    for n in range(3, 400):
        assert r_term(n).value > 0
    with pytest.raises(DomainError):
        r_term(2)


def test_conjecture_sides_frozen_values():
    assert c1_rhs(5).value == pytest.approx(C1_RHS_5, abs=1e-9)
    assert c2_lhs(3).value == pytest.approx(C2_LHS_3, abs=1e-9)


def test_c1_exceeds_delta():
    for n in (3, 10, 100, 5000):
        assert c1_rhs(n).value > delta(n).value


def test_sides_algebraic_consistency():
    # c2_lhs + r + 1 reproduces delta within the summed error bounds
    for n in (3, 7, 50, 997, 10000):
        c2 = c2_lhs(n)
        r = r_term(n)
        d = delta(n)
        assert abs(c2.value + r.value + 1.0 - d.value) <= c2.abs_err + r.abs_err + d.abs_err
        # and bridges to c1_rhs through log^2 n * (loglog n + 1/loglog n)
        lg = math.log(n)
        ll = math.log(lg)
        bridge = c1_rhs(n).value - lg * lg * (ll + 1.0 / ll) - 1.0
        assert abs(c2.value - bridge) < 1e-7 * max(1.0, abs(c2.value))


def test_dusart_frozen_values_and_flags():
    lo, lo_ok = dusart_lower(10**6)
    up, up_ok = dusart_upper(10**6)
    assert lo.value == pytest.approx(L_1E6, abs=1e-6)
    assert up.value == pytest.approx(U_1E6, abs=1e-6)
    assert lo_ok and up_ok
    assert dusart_lower(32299)[1] is True
    assert dusart_lower(32298)[1] is False
    assert dusart_upper(355991)[1] is True
    assert dusart_upper(355990)[1] is False
    assert dusart_lower(100)[1] is False


def test_dusart_ordering_and_domain():
    for x in (2, 100, 32299, 10**6, 10**10):
        assert dusart_upper(x)[0].value > dusart_lower(x)[0].value
    with pytest.raises(DomainError):
        dusart_lower(1)
    with pytest.raises(DomainError):
        dusart_upper(0.5)


def test_theorem_floor_values():
    assert theorem_floor(3) == (-12, False)
    value, flag = theorem_floor(10000)
    assert value == 988 and not flag
    with pytest.raises(DomainError):
        theorem_floor(2)


def _oracle_floor(n: int) -> int:
    """floor(delta(n) - r(n)) from the paper's expression at 160 bits."""
    with mp.workprec(160):
        arg = (((n + 1) ** 2) / mp.log(n + 1) - (n * n) / mp.log(n)) / 2 - mp.log(n) ** 2 / mp.log(mp.log(n))
        return int(mp.floor(arg))


def test_theorem_floor_matches_quad_oracle(monkeypatch):
    import primesq.analytic as analytic

    oracle = {n: _oracle_floor(n) for n in range(3, 300)}
    assert {n: theorem_floor(n) for n in oracle} == {n: (fl, False) for n, fl in oracle.items()}
    # no n here comes near an integer, so force the 160-bit step for every n
    monkeypatch.setattr(analytic, "ESCALATE_DIST", 1.0)
    assert {n: theorem_floor(n) for n in oracle} == {n: (fl, False) for n, fl in oracle.items()}
    monkeypatch.setattr(analytic, "BOUNDARY_DIST", 1.0)
    assert {n: theorem_floor(n) for n in oracle} == {n: (fl, True) for n, fl in oracle.items()}


@pytest.mark.parametrize("lo, hi, size", [(950_000, 1_050_000, 6000), (9_900_000, 10_000_000, 300)])
def test_undecided_floors_take_one_quad_step(monkeypatch, lo, hi, size):
    # about 0.1% of floor arguments near 1e6 and 7% near 1e7 fall within the double tier's error of an integer
    import primesq.analytic as analytic

    ns = np.sort(np.random.default_rng(20).choice(np.arange(lo, hi), size, replace=False))
    calls = []
    evaluate = analytic._evaluate

    def spy(formula, precision, *args, **kw):
        if formula is analytic._floor_offset:
            calls.append((precision, args[0]))
        return evaluate(formula, precision, *args, **kw)

    monkeypatch.setattr(analytic, "_evaluate", spy)
    floors, flags = theorem_floor(ns)
    # one double pass over the array, then at least one undecided n, each once at 160 bits
    assert calls[0][0] == "double" and {precision for precision, _ in calls[1:]} == {"quad"}
    quad = [n for _, n in calls[1:]]
    assert len(set(quad)) == len(quad) and set(quad) <= set(ns.tolist())
    for n in quad:  # and alone: the double tier, then one 160-bit evaluation
        calls.clear()
        theorem_floor(n)
        assert calls == [("double", n), ("quad", n)]
    want = [(_oracle_floor(n), False) for n in ns.tolist()]
    assert list(zip(floors.tolist(), flags.tolist())) == want
    assert [theorem_floor(n) for n in ns.tolist()] == want


def test_sum_r_small_values():
    assert sum_r(3).value == 0.0
    assert sum_r(4).value == r_term(3).value
    six = sum_r(6)
    assert six.value == pytest.approx(SUM_R_6, abs=1e-9)
    with pytest.raises(DomainError):
        sum_r(2)


@pytest.fixture
def fresh_sum_r(monkeypatch):
    """The running sum of r(k) as a fresh process has it: no block filled."""
    monkeypatch.setattr(analytic, "_block_starts", analytic._block_starts[:1])
    analytic._block_prefix.cache_clear()


# each side of the first block edges (block b starts at n = 3 + 4096 b) and of later ones
BLOCK_EDGES = (4098, 4099, 4100, 8194, 8195, 8196, 12291, 65538, 65539, 65540)


def test_sum_r_query_order_independent(fresh_sum_r):
    ns = [3, 4, 57, 400, 1200, *BLOCK_EDGES, 25_000, 69_999]
    shuffled = random.Random(23).sample(ns, len(ns))
    got = {n: sum_r(n) for n in shuffled}
    del analytic._block_starts[1:]
    analytic._block_prefix.cache_clear()
    assert [sum_r(n) for n in ns] == [got[n] for n in ns]


def test_sum_r_matches_exact_oracle(fresh_sum_r):
    # sampled prefixes of 3..70000, each side of block edges near and far (the
    # block of k from 999427, the last from 9998339) and the top of the range,
    # where the hi lanes of the sums times 2^50 pass 2^48; read in shuffled
    # order, then as one unsorted array
    far = [999426, 999427, 999428, 9998338, 9998339, 9998340, SUM_R_MAX - 1, SUM_R_MAX]
    ns = random.Random(5).sample(range(3, 70_001), 300) + list(BLOCK_EDGES) + far
    random.Random(6).shuffle(ns)
    want = exact_sum_r(ns)
    got = [sum_r(n) for n in ns]
    for n, s in zip(ns, got):
        value, bound = want[n]
        assert s.value == value, n
        # the bound's own two roundings, each within a relative 2^-53, stay inside _ERR_C's headroom
        assert Fraction(s.abs_err) * (1 + Fraction(1, 2**51)) >= bound, n
    arr = sum_r(np.array(ns))
    assert (arr.value.tolist(), arr.abs_err.tolist()) == ([s.value for s in got], [s.abs_err for s in got])


def test_sum_r_terms_fit_the_fixed_point():
    # r(k) and its error scale grow from k = 16 on, so the first blocks and the
    # last one hold the extremes over 3 <= k < SUM_R_MAX: r(k) in [4, 128) and the
    # scale in [4, 256) are multiples of 2^-50, integers below 2^58 once scaled,
    # and the lanes sum them exactly
    top = (SUM_R_MAX - 3) // SUM_R_BLOCK
    for b in (*range(18), top):
        k0 = 3 + b * SUM_R_BLOCK
        ks = np.arange(k0, min(k0 + SUM_R_BLOCK, SUM_R_MAX), dtype=np.int64)
        val, scale = analytic._r(analytic._log, ks)
        assert 4 <= val.min() and val.max() < 128 and 4 <= scale.min() and scale.max() < 256
        hi, lo = analytic._block_prefix(b)[:, :, -1].tolist()
        for x, h, low in zip((val, scale), hi, lo):
            assert (h << 32) + low == sum(int(v * 2**50) for v in x.tolist())
    assert analytic._block_prefix(top).shape == (2, 2, (SUM_R_MAX - 3) % SUM_R_BLOCK + 1)


def test_sum_r_reads_one_block_below_the_head(fresh_sum_r, monkeypatch):
    sum_r(200_000)
    terms, real_r = [], analytic._r

    def counted(log, n):
        terms.append(np.size(n))
        return real_r(log, n)

    monkeypatch.setattr(analytic, "_r", counted)
    sum_r(5000)
    assert sum(terms) <= SUM_R_BLOCK


def test_sum_r_range():
    assert SUM_R_MAX == 10**7
    for fn in (sum_r, lemma1_sides, lemma1_proof_sides, lemma2_lhs):
        for precision in ("double", "quad"):
            with pytest.raises(DomainError, match="needs n <= 10000000"):
                fn(SUM_R_MAX + 1, precision)
        with pytest.raises(DomainError, match="needs n <= 10000000"):
            fn(np.array([5, SUM_R_MAX + 1]))


def test_sum_r_single_term_matches_quad():
    for n in (10, 500, 2000, 20000):
        d = sum_r(n)
        q = sum_r(n, "quad")
        assert abs(d.value - q.value) <= d.abs_err


# an empty sum's neighbours, small sums, both sides of the first block edge, and a later block
ORACLE_NS = (4, 5, 6, 10, 17, 4098, 4099, 20000)


def test_sum_r_and_lemma2_within_bounds_of_quad_oracle():
    ns = [*ORACLE_NS, *random.Random(24).sample(range(3, 20_001), 40)]
    for n in ns:
        want = quad_sum_r(n)
        with mp.workprec(160):
            lemma2 = (n * n) / (2 * mp.log(n)) + 4 - 9 / mp.log(9) - want
            for precision in ("double", "quad"):
                s, l2 = sum_r(n, precision), lemma2_lhs(n, precision)
                assert abs(s.value - want) <= s.abs_err, (n, precision)
                assert abs(l2.value - lemma2) <= l2.abs_err, (n, precision)


def test_quad_lemma_sides_take_a_handful_of_logs(monkeypatch):
    # the 160-bit sides read the exact running sum, not one mp.log per k
    calls, log = [], mp.log
    monkeypatch.setattr(mp, "log", lambda x: calls.append(x) or log(x))
    for fn in (lemma1_sides, lemma1_proof_sides, lemma2_lhs, sum_r):
        calls.clear()
        fn(10**5, "quad")
        assert len(calls) <= 4, fn.__name__


def test_margin_formulas_take_one_log_pass_per_argument(fresh_sum_r, monkeypatch):
    # delta, r and log^2 n loglog n share one math.log pass each over n, n+1
    # and log n; a block of the running sum takes two, over k and log k
    elements, log = [], analytic._log
    monkeypatch.setattr(analytic, "_log", lambda x: elements.append(np.size(x)) or log(x))
    ns = np.arange(1000, 3000, dtype=np.int64)
    for fn in (margin_sides, theorem_floor):
        elements.clear()
        fn(ns)
        assert sum(elements) == 3 * ns.size, fn.__name__
    elements.clear()
    analytic._block_prefix(0)
    assert sum(elements) == 2 * SUM_R_BLOCK


def test_quad_margin_sides_take_three_logs(monkeypatch):
    # one 160-bit formula gives delta, r and log^2 n loglog n: log n, log(n+1) and log log n
    calls, log = [], mp.log
    monkeypatch.setattr(mp, "log", lambda x: calls.append(x) or log(x))
    for fn in (delta, c1_rhs, c2_lhs):
        calls.clear()
        fn(10**5, "quad")
        assert len(calls) <= 3, fn.__name__


def test_unknown_precision_raises_value_error():
    for precision in ("extended", "bogus"):
        with pytest.raises(ValueError, match="precision must be one of double, quad"):
            delta(5, precision)
    with pytest.raises(ValueError):
        sum_r(50, "extended")


def test_lemma1_holds_small_range():
    for n in range(2, 400):
        lhs, rhs = lemma1_sides(n)
        assert lhs.value < rhs.value, n
        plhs, prhs = lemma1_proof_sides(n)
        assert plhs.value > prhs.value, n
    with pytest.raises(DomainError):
        lemma1_sides(1)


def test_lemma_negative_constant():
    _, rhs = lemma1_proof_sides(10)
    assert rhs.value == pytest.approx(NEG_CONST, abs=1e-12)
    assert rhs.value < 0


def test_lemma1_margin_exceeds_error():
    lhs, rhs = lemma1_sides(100)
    assert rhs.value - lhs.value > lhs.abs_err + rhs.abs_err


def test_lemma2_lhs_values():
    # at n=3 the main term cancels the constant exactly (9/(2 log 3) = 9/log 9)
    assert lemma2_lhs(3).value == pytest.approx(4.0, abs=1e-12)
    assert lemma2_lhs(1000).value < 78498
    with pytest.raises(DomainError):
        lemma2_lhs(2)


def test_lemma2_chain_below_certified_lower_bound():
    # the left side stays under L(n^2) wherever the lower bound is certified,
    # which is what makes the pi(n^2) estimate follow from the summed form
    for n in range(180, 2001):
        lhs = lemma2_lhs(n)
        lower, valid = dusart_lower(n * n)
        assert valid
        assert lhs.value < lower.value, n


def test_precision_escalation_tightens_error():
    for n in (3, 100, 9999):
        d = delta(n)
        q = delta(n, "quad")
        assert q.abs_err < d.abs_err
        assert abs(d.value - q.value) <= d.abs_err
        assert d.precision == "double" and q.precision == "quad"


def test_double_within_quad_for_all_expressions():
    for n in (3, 5, 17, 180, 1234, 10000):
        pairs = [
            (delta(n), delta(n, "quad")),
            (r_term(n), r_term(n, "quad")),
            (c1_rhs(n), c1_rhs(n, "quad")),
            (c2_lhs(n), c2_lhs(n, "quad")),
            (dusart_lower(n * n + 7)[0], dusart_lower(n * n + 7, "quad")[0]),
            (dusart_upper(n * n + 7)[0], dusart_upper(n * n + 7, "quad")[0]),
            (lemma2_lhs(n), lemma2_lhs(n, "quad")),
        ]
        for dbl, quad in pairs:
            assert abs(dbl.value - quad.value) <= dbl.abs_err


def _bits(ev) -> list[tuple[str, str]]:
    """(value, error) of a RealEval as hex digits, one pair per element."""
    values, errs = np.atleast_1d(ev.value).tolist(), np.atleast_1d(ev.abs_err).tolist()
    return [(v.hex(), e.hex()) for v, e in zip(values, errs)]


def test_array_evaluation_matches_scalar_bits():
    # small n, the ends of the campaign and f ranges, and every n of one sum fold
    ns = np.concatenate([np.arange(3, 3000), np.arange(999000, 1000000), np.arange(9999500, 10000000)])
    scalar = {name: sum((_bits(fn(n)) for n in ns.tolist()), [])
              for name, fn in (("delta", delta), ("r_term", r_term), ("c1_rhs", c1_rhs), ("c2_lhs", c2_lhs),
                               ("dusart_lower", lambda n: dusart_lower(n * n + 7)[0]),
                               ("dusart_upper", lambda n: dusart_upper(n * n + 7)[0]))}
    assert scalar == {"delta": _bits(delta(ns)), "r_term": _bits(r_term(ns)), "c1_rhs": _bits(c1_rhs(ns)),
                      "c2_lhs": _bits(c2_lhs(ns)), "dusart_lower": _bits(dusart_lower(ns * ns + 7)[0]),
                      "dusart_upper": _bits(dusart_upper(ns * ns + 7)[0])}
    floors, flags = theorem_floor(ns)
    assert list(zip(floors.tolist(), flags.tolist())) == [theorem_floor(n) for n in ns.tolist()]
    assert type(floors.tolist()[0]) is int and type(flags.tolist()[0]) is bool


def test_array_lemma_sides_match_scalar_bits():
    ns = np.arange(3, 10200)  # crosses two block edges of the running sum, at n = 4099 and 8195
    scalar = [(_bits(lemma1_sides(n)[0]), _bits(lemma1_sides(n)[1]), _bits(lemma1_proof_sides(n)[0]),
               _bits(lemma2_lhs(n))) for n in ns.tolist()]
    (lhs, rhs), (plhs, prhs) = lemma1_sides(ns), lemma1_proof_sides(ns)
    assert list(zip(*([[b] for b in _bits(side)] for side in (lhs, rhs, plhs, lemma2_lhs(ns))))) == scalar
    assert _bits(prhs) == _bits(lemma1_proof_sides(2)[1])
    two = np.array([2, 3])  # an empty sum at both
    assert _bits(lemma1_sides(two)[0]) == _bits(lemma1_sides(2)[0]) + _bits(lemma1_sides(3)[0])
    down = ns[::-1]  # the running sum is read in any order
    assert _bits(lemma1_sides(down)[0]) == [row[0][0] for row in reversed(scalar)]


def test_margin_sides_match_separate_calls_bits():
    ns = np.concatenate([np.arange(3, 3000), np.arange(999000, 1000000), np.arange(9999500, 10000000)])
    d, c1, c2, floors, flags = margin_sides(ns)
    assert [_bits(ev) for ev in (d, c1, c2)] == [_bits(fn(ns)) for fn in (delta, c1_rhs, c2_lhs)]
    want_floors, want_flags = theorem_floor(ns)
    assert np.array_equal(floors, want_floors) and np.array_equal(flags, want_flags)


ARRAY_SQUARING = [
    ("delta", delta), ("c1_rhs", c1_rhs), ("c2_lhs", c2_lhs), ("theorem_floor", theorem_floor),
    ("margin_sides", margin_sides), ("lemma1_sides", lemma1_sides), ("lemma1_proof_sides", lemma1_proof_sides),
    ("lemma2_lhs", lemma2_lhs), ("bound_gap", bound_gap),
]


@pytest.mark.parametrize("name, fn", ARRAY_SQUARING, ids=[name for name, _ in ARRAY_SQUARING])
def test_array_squares_range_checked(name, fn):
    # (n+1)^2 wraps int64 above SQUARE_N_MAX: delta(4e9) over an array gave 181542872.0, not 176825856.0
    assert SQUARE_N_MAX == 3037000498 and (SQUARE_N_MAX + 1) ** 2 < 2**63 <= (SQUARE_N_MAX + 2) ** 2
    for top in (SQUARE_N_MAX + 1, 4_000_000_000):
        # the greatest element, not the first, is out of range; an int64 element wraps as its array does
        inputs = [np.array([1000, top])] + ([] if name == "margin_sides" else [np.int64(top)])
        for n in inputs:
            with pytest.raises(DomainError, match=f"{name} over an int64 array needs every element <= 3037000498"):
                fn(n)


@pytest.mark.parametrize("name, fn", ARRAY_SQUARING, ids=[name for name, _ in ARRAY_SQUARING])
def test_narrow_integers_refused(name, fn):
    # int32 squares wrap far below SQUARE_N_MAX: delta over int32 [100000] gave 8632.73, not 8308.70
    for dtype in (np.int32, np.int16, np.uint64):
        inputs = [np.array([1000], dtype=dtype)] + ([] if name == "margin_sides" else [dtype(1000)])
        for n in inputs:
            with pytest.raises(DomainError, match=f"{name} needs int64 numpy integers"):
                fn(n)


def test_narrow_integer_values_not_wrapped():
    with pytest.raises(DomainError):
        delta(np.array([100000], dtype=np.int32))
    with pytest.raises(DomainError):
        theorem_floor(np.array([100000], dtype=np.int32))  # gave 8578, not 8254
    assert delta(np.array([100000], dtype=np.int64)).value[0] == delta(100000).value
    assert theorem_floor(np.array([100000], dtype=np.int64))[0].tolist() == [theorem_floor(100000)[0]] == [8254]


def test_array_squares_exact_at_range_end():
    n = SQUARE_N_MAX
    for fn in (delta, c1_rhs, c2_lhs):
        assert _bits(fn(np.array([n]))) == _bits(fn(n))
    assert _bits(bound_gap(np.array([n]))) == _bits(bound_gap(n))
    assert delta(4_000_000_000).value == 176825856.0  # Python ints never wrap
