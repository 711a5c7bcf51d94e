"""Closed-form expression evaluation with tracked absolute error bounds.

Every quantity below uses natural logarithms. Evaluations default to IEEE
double with a conservative error bound; callers may request "extended"
(96-bit) or "quad" (160-bit) re-evaluation, which runs through mpmath.
Squares are formed in integer arithmetic before conversion, so they are
exact for every n this package sweeps.

The one place rounding can flip a verdict is the floor of a near-integer
argument, so theorem_floor escalates precision automatically and flags
arguments that stay within 1e-30 of an integer at the highest precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError

PRECISION_BITS = {"double": 53, "extended": 96, "quad": 160}

# unit roundoff per precision level
_U = {name: 2.0 ** (-bits) for name, bits in PRECISION_BITS.items()}

# headroom multiplier on first-order rounding models
_ERR_C = 8.0

# floor escalation policy: double -> extended below 1e-9 (or within the
# tracked error), extended -> quad when extended cannot certify clearance,
# boundary when quad still sees the argument within 1e-30 of an integer.
ESCALATE_DIST = 1e-9
BOUNDARY_DIST = 1e-30

DUSART_LOWER_MIN_X = 32299
DUSART_UPPER_MIN_X = 355991


@dataclass(frozen=True)
class RealEval:
    """A real value with a sound absolute-error bound for how it was computed."""

    value: float
    abs_err: float
    precision: str


def _finish_mp(val, scale, precision: str) -> RealEval:
    """Round an mpf result to a RealEval, charging the conversion to abs_err."""
    v = float(val)
    err = _ERR_C * _U[precision] * float(scale) + 0.5 * math.ulp(abs(v))
    return RealEval(v, err, precision)


# --- raw formulas, generic over the log implementation -----------------------


def _delta_parts(n: int, log):
    m = n + 1
    return (m * m) / log(m), (n * n) / log(n)


def _r_raw(n: int, log):
    lg = log(n)
    return lg * lg / log(lg)


def _dusart_raw(x, log, c):
    lx = log(x)
    return (x / lx) * (1 + 1 / lx + c / (lx * lx))


def delta(n: int, precision: str = "double") -> RealEval:
    """Half the increment of x^2/log x from n to n+1; positive for n >= 2."""
    if n < 2:
        raise DomainError("delta needs n >= 2")
    if precision == "double":
        a, b = _delta_parts(n, math.log)
        return RealEval(0.5 * (a - b), _ERR_C * _U["double"] * (a + b), "double")
    with mp.workprec(PRECISION_BITS[precision]):
        a, b = _delta_parts(n, mp.log)
        return _finish_mp((a - b) / 2, a + b, precision)


def r_term(n: int, precision: str = "double") -> RealEval:
    """log^2(n) / loglog(n), defined for n >= 3 (needs loglog n > 0)."""
    if n <= 2:
        raise DomainError("r_term needs n >= 3")
    if precision == "double":
        lg = math.log(n)
        ll = math.log(lg)
        val = lg * lg / ll
        return RealEval(val, _ERR_C * _U["double"] * val * (1.0 + 1.0 / ll), "double")
    with mp.workprec(PRECISION_BITS[precision]):
        lg = mp.log(n)
        val = lg * lg / mp.log(lg)
        return _finish_mp(val, val * (1 + 1 / mp.log(lg)), precision)


def _s_term(n: int, precision: str = "double") -> RealEval:
    """log^2(n) * loglog(n), the additive slack of the upper conjecture."""
    if n <= 2:
        raise DomainError("s term needs n >= 3")
    if precision == "double":
        lg = math.log(n)
        val = lg * lg * math.log(lg)
        return RealEval(val, _ERR_C * _U["double"] * (abs(val) + lg * lg), "double")
    with mp.workprec(PRECISION_BITS[precision]):
        lg = mp.log(n)
        val = lg * lg * mp.log(lg)
        return _finish_mp(val, abs(val) + lg * lg, precision)


def c1_rhs(n: int, precision: str = "double") -> RealEval:
    """Upper-conjecture right side: delta(n) + log^2(n)*loglog(n)."""
    if n <= 2:
        raise DomainError("c1_rhs needs n >= 3")
    d = delta(n, precision)
    s = _s_term(n, precision)
    return RealEval(d.value + s.value, d.abs_err + s.abs_err, precision)


def c2_lhs(n: int, precision: str = "double") -> RealEval:
    """Lower-conjecture left side: delta(n) - r(n) - 1."""
    if n <= 2:
        raise DomainError("c2_lhs needs n >= 3")
    d = delta(n, precision)
    r = r_term(n, precision)
    return RealEval(d.value - r.value - 1.0, d.abs_err + r.abs_err, precision)


def dusart_lower(x: float, precision: str = "double") -> tuple[RealEval, bool]:
    """Explicit lower bound L(x) on pi(x); the flag marks x >= 32299 validity."""
    if x <= 1:
        raise DomainError("dusart_lower needs x > 1")
    if precision == "double":
        val = _dusart_raw(x, math.log, 1.8)
        ev = RealEval(val, _ERR_C * _U["double"] * val, "double")
    else:
        with mp.workprec(PRECISION_BITS[precision]):
            ev = _finish_mp(_dusart_raw(x, mp.log, mpf("1.8")), x / math.log(x) * 2, precision)
    return ev, x >= DUSART_LOWER_MIN_X


def dusart_upper(x: float, precision: str = "double") -> tuple[RealEval, bool]:
    """Explicit upper bound U(x) on pi(x); the flag marks x >= 355991 validity."""
    if x <= 1:
        raise DomainError("dusart_upper needs x > 1")
    if precision == "double":
        val = _dusart_raw(x, math.log, 2.51)
        ev = RealEval(val, _ERR_C * _U["double"] * val, "double")
    else:
        with mp.workprec(PRECISION_BITS[precision]):
            ev = _finish_mp(_dusart_raw(x, mp.log, mpf("2.51")), x / math.log(x) * 2, precision)
    return ev, x >= DUSART_UPPER_MIN_X


# --- floor of delta(n) - r(n) with precision escalation ----------------------


def _floor_mp(n: int, bits: int) -> tuple[int, float, float]:
    """(floor, distance to nearest integer, error bound) at the given bits."""
    with mp.workprec(bits):
        a, b = _delta_parts(n, mp.log)
        lg = mp.log(n)
        ll = mp.log(lg)
        arg = (a - b) / 2 - lg * lg / ll
        fl = int(mp.floor(arg))
        dist = float(min(arg - fl, fl + 1 - arg))
        scale = float(a + b) + float(lg * lg / ll) * (1.0 + 1.0 / float(ll))
        return fl, dist, _ERR_C * (2.0**-bits) * scale


def theorem_floor(n: int) -> tuple[int, bool]:
    """floor(delta(n) - r(n)) plus a flag for quad-resistant near-integers."""
    if n <= 2:
        raise DomainError("theorem_floor needs n >= 3")
    a, b = _delta_parts(n, math.log)
    lg = math.log(n)
    ll = math.log(lg)
    r = lg * lg / ll
    arg = 0.5 * (a - b) - r
    err = _ERR_C * _U["double"] * ((a + b) + r * (1.0 + 1.0 / ll))
    fl = math.floor(arg)
    dist = min(arg - fl, fl + 1 - arg)
    if dist >= max(ESCALATE_DIST, 4.0 * err):
        return int(fl), False
    fl_x, dist_x, err_x = _floor_mp(n, PRECISION_BITS["extended"])
    if dist_x >= max(BOUNDARY_DIST, 4.0 * err_x):
        return fl_x, False
    fl_q, dist_q, _ = _floor_mp(n, PRECISION_BITS["quad"])
    return fl_q, bool(dist_q < BOUNDARY_DIST)


# --- compensated running sum of r(k) -----------------------------------------

SUM_R_CHECKPOINT_EVERY = 10_000


def _r_double_with_err(k: int) -> tuple[float, float]:
    lg = math.log(k)
    ll = math.log(lg)
    term = lg * lg / ll
    return term, _ERR_C * _U["double"] * term * (1.0 + 1.0 / ll)


class SumRCache:
    """Compensated running sum of r(k) for k ascending from 3.

    The Kahan carry is folded into the sum every SUM_R_CHECKPOINT_EVERY terms
    and a checkpoint (next_k, partial_sum, err_bound) is recorded. Folding at
    fixed term counts makes the value at any n a pure function of n alone,
    independent of query history, which keeps chunked campaigns
    bit-reproducible.

    Single writer, any number of readers of returned values.
    """

    def __init__(self) -> None:
        self._next_k = 3
        self._sum = 0.0
        self._carry = 0.0
        self._err = 0.0
        self._checkpoints: list[tuple[int, float, float]] = [(3, 0.0, 0.0)]

    @staticmethod
    def _step(s: float, c: float, term: float) -> tuple[float, float]:
        y = term - c
        t = s + y
        return t, (t - s) - y

    def _advance(self, k_stop: int) -> None:
        # consume terms k = next_k .. k_stop-1
        u = _U["double"]
        k, s, c, err = self._next_k, self._sum, self._carry, self._err
        while k < k_stop:
            term, term_err = _r_double_with_err(k)
            err += term_err + 2.0 * u * term
            s, c = self._step(s, c, term)
            k += 1
            if (k - 3) % SUM_R_CHECKPOINT_EVERY == 0:
                s -= c  # fold: the compensated value becomes the plain sum
                c = 0.0
                err += u * abs(s)
                self._checkpoints.append((k, s, err))
        self._next_k, self._sum, self._carry, self._err = k, s, c, err

    def value_at(self, n: int) -> RealEval:
        """Sum of r(k) for 3 <= k <= n-1 (empty when n == 3)."""
        if n < 3:
            raise DomainError("sum_r needs n >= 3")
        if n < self._next_k:
            # rewind to the best checkpoint at or below n and replay
            base = self._checkpoints[0]
            for ck in self._checkpoints:
                if ck[0] <= n:
                    base = ck
            fresh = SumRCache()
            fresh._next_k, fresh._sum, fresh._err = base[0], base[1], base[2]
            fresh._advance(n)
            return fresh._settled()
        self._advance(n)
        return self._settled()

    def _settled(self) -> RealEval:
        val = self._sum - self._carry
        return RealEval(val, self._err + _U["double"] * abs(val), "double")

    def head(self) -> int:
        """First k not yet consumed."""
        return self._next_k


# every double-precision sum_r in the process reads this one; value_at is a
# pure function of n, so the order of queries never changes a result
_default_sum_r = SumRCache()


def _sum_r_mpf(n: int):
    """Plain mpf sum of r(k), 3 <= k < n; call inside an mp.workprec block."""
    total = mpf(0)
    for k in range(3, n):
        total += _r_raw(k, mp.log)
    return total, float(total) * max(1, n - 3)


def sum_r(n: int, precision: str = "double") -> RealEval:
    """Compensated sum of r(k) over 3 <= k <= n-1 with a tracked error bound."""
    if n < 3:
        raise DomainError("sum_r needs n >= 3")
    if precision == "double":
        return _default_sum_r.value_at(n)
    with mp.workprec(PRECISION_BITS[precision]):
        total, scale = _sum_r_mpf(n)
        return _finish_mp(total, scale, precision)


# --- inequality sides built from the pieces above ----------------------------


def _lemma_lhs(n: int, precision: str) -> RealEval:
    """n^2/(2 log n) + (4 - 9/log 9) - sum_r(n); the constant is negative."""
    if precision == "double":
        ssum = sum_r(max(n, 3), "double")  # empty sum at n in {2, 3}
        main = (n * n) / (2.0 * math.log(n))
        val = main + (4.0 - 9.0 / math.log(9.0)) - ssum.value
        err = _ERR_C * _U["double"] * (main + 9.0) + ssum.abs_err
        return RealEval(val, err, precision)
    with mp.workprec(PRECISION_BITS[precision]):
        total, sum_scale = _sum_r_mpf(max(n, 3))
        main = (n * n) / (2 * mp.log(n))
        val = main + (4 - 9 / mp.log(9)) - total
        return _finish_mp(val, float(main) + 9.0 + sum_scale, precision)


def lemma1_sides(n: int, precision: str = "double") -> tuple[RealEval, RealEval]:
    """Both sides of the summed-floor lemma's displayed inequality (lhs < rhs)."""
    if n < 2:
        raise DomainError("lemma1_sides needs n >= 2")
    lhs = _lemma_lhs(n, precision)
    if precision == "double":
        lg = math.log(n)
        rhs_val = (n * n) / (2.0 * lg) * (1.0 + 1.0 / (2.0 * lg) + 9.0 / (20.0 * lg * lg))
        rhs = RealEval(rhs_val, _ERR_C * _U["double"] * rhs_val, "double")
    else:
        with mp.workprec(PRECISION_BITS[precision]):
            lg = mp.log(n)
            val = (n * n) / (2 * lg) * (1 + 1 / (2 * lg) + mpf(9) / (20 * lg * lg))
            rhs = _finish_mp(val, val, precision)
    return lhs, rhs


def lemma1_proof_sides(n: int, precision: str = "double") -> tuple[RealEval, RealEval]:
    """Rearranged form: n^2/(4 log^2 n) + 9 n^2/(40 log^3 n) + sum_r(n) > 4 - 9/log 9."""
    if n < 2:
        raise DomainError("lemma1_proof_sides needs n >= 2")
    if precision == "double":
        ssum = sum_r(max(n, 3), "double")
        lg = math.log(n)
        main = (n * n) / (4.0 * lg * lg) + 9.0 * n * n / (40.0 * lg * lg * lg)
        lhs = RealEval(main + ssum.value, _ERR_C * _U["double"] * main + ssum.abs_err, "double")
        rhs = RealEval(4.0 - 9.0 / math.log(9.0), _ERR_C * _U["double"] * 9.0, "double")
        return lhs, rhs
    with mp.workprec(PRECISION_BITS[precision]):
        total, sum_scale = _sum_r_mpf(max(n, 3))
        lg = mp.log(n)
        main = (n * n) / (4 * lg * lg) + 9 * (n * n) / (40 * lg * lg * lg)
        lhs = _finish_mp(main + total, float(main) + sum_scale, precision)
        rhs = _finish_mp(4 - 9 / mp.log(9), 9, precision)
        return lhs, rhs


def lemma2_lhs(n: int, precision: str = "double") -> RealEval:
    """Left side of the pi(n^2) lower estimate; equals lemma1_sides(n)[0]."""
    if n < 3:
        raise DomainError("lemma2_lhs needs n >= 3")
    return _lemma_lhs(n, precision)
