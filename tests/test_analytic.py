import math

import pytest
from mpmath import mp

from primesq.analytic import (
    SumRCache,
    c1_rhs,
    c2_lhs,
    delta,
    dusart_lower,
    dusart_upper,
    lemma1_proof_sides,
    lemma1_sides,
    lemma2_lhs,
    r_term,
    sum_r,
    theorem_floor,
)
from primesq.errors import DomainError

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


def test_theorem_floor_matches_quad_oracle():
    for n in range(3, 300):
        fl, _ = theorem_floor(n)
        with mp.workprec(160):
            arg = (((n + 1) ** 2) / mp.log(n + 1) - (n * n) / mp.log(n)) / 2 \
                - mp.log(n) ** 2 / mp.log(mp.log(n))
            assert int(mp.floor(arg)) == fl, n


def test_sum_r_small_values():
    assert sum_r(3).value == 0.0
    assert sum_r(4).value == r_term(3).value
    six = sum_r(6)
    assert six.value == pytest.approx(SUM_R_6, abs=1e-9)
    with pytest.raises(DomainError):
        sum_r(2)


def test_sum_r_query_order_independent():
    a = SumRCache()
    a.value_at(57)
    a.value_at(1200)
    a.value_at(400)  # rewind path
    a.value_at(25_000)  # crosses two checkpoint folds
    b = SumRCache()
    for n in (400, 1200, 12_000, 25_000, 26_000):  # a replays 12_000 from a fold
        assert a.value_at(n).value == b.value_at(n).value


def test_sum_r_single_term_matches_quad():
    for n in (10, 500, 2000):
        d = sum_r(n)
        q = sum_r(n, "quad")
        assert abs(d.value - q.value) <= d.abs_err


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
