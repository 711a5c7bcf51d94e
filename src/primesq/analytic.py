"""Closed-form expression evaluation with tracked absolute error bounds.

Every quantity below uses natural logarithms and is written once, as a
formula over a log function that returns (value, error scale). One
evaluator runs it at a precision: "double" (53 bits) on floats with error
bound _ERR_C*u*scale, or "quad" (160 bits) on mpmath numbers under
mp.workprec, with the same bound at that precision's u plus half an ulp for
the rounding of the result to a float. Squares are formed in
integer arithmetic before conversion, so they are exact for every n this
package sweeps.

The double path also takes an int64 array of n, as campaigns evaluate their
range and mbound a chunk at a time; (n+1)^2 must fit an int64, so n <= SQUARE_N_MAX.
It applies math.log to each element, not np.log, which can differ in the
last bit; elementwise + - * /, np.floor and np.rint round as the scalar
operations do, so every element is bit-identical to the scalar result.
One formula, _margin, gives delta, r and log^2 n loglog n from one log each of
n, n+1 and log n: margin_sides reads a campaign's delta, c1_rhs, c2_lhs and
theorem_floor from it, _lemma_sides its lemma sides from one formula of their own.

The one place rounding can flip a verdict is the floor of a near-integer
argument, so theorem_floor evaluates at 160 bits each argument the double
tier leaves undecided, and flags those within 1e-30 of an integer there.

The lemmas' running sum of r(k) is one exact sum of the double terms, kept
in two int64 lanes of prefix sums over blocks of SUM_R_BLOCK k, for n up to
SUM_R_MAX; so every read is a pure function of n, in any order. The double
path rounds it once; the 160-bit path reads it exactly and carries the double
terms' own error bound, so neither precision loops over k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PRECISION_BITS = {"double": 53, "quad": 160}

# unit roundoff per precision level
_U = {name: 2.0 ** (-bits) for name, bits in PRECISION_BITS.items()}

# headroom multiplier on first-order rounding models
_ERR_C = 8.0
_ERR_DOUBLE = _ERR_C * _U["double"]  # a power of two, so scaling by it is exact

# floors: the double tier decides from 1e-9 off an integer, 160 bits flag within 1e-30
ESCALATE_DIST = 1e-9
BOUNDARY_DIST = 1e-30

DUSART_LOWER_MIN_X = 32299
DUSART_UPPER_MIN_X = 355991

# Dusart's constants c in L(x) and U(x), as decimals that each precision rounds
DUSART_LOWER_C = "1.8"
DUSART_UPPER_C = "2.51"


@dataclass(frozen=True)
class RealEval:
    """A real value with a sound absolute-error bound for how it was computed;
    float arrays on the double path over an array of n."""

    value: float | np.ndarray
    abs_err: float | np.ndarray
    precision: str


def _log(x):
    """math.log of a number, or of each element of an array."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.log, x.tolist()), float, x.size)
    return math.log(x)


# the greatest n whose (n+1)^2 an int64 holds; array formulas square n and n+1 in int64
SQUARE_N_MAX = math.isqrt(2**63 - 1) - 1


def _check_squares(n, name: str) -> None:
    """Over an int64 array or element, DomainError where (n+1)^2 would wrap; Python ints never do.
    Narrower numpy integers wrap far sooner, so they are refused."""
    if not isinstance(n, (np.ndarray, np.integer)):
        return
    if n.dtype.kind in "iu" and n.dtype != np.int64:
        raise DomainError(f"{name} needs int64 numpy integers, got {n.dtype}")
    if np.max(n) > SQUARE_N_MAX:
        raise DomainError(f"{name} over an int64 array needs every element <= {SQUARE_N_MAX}")


def _check(n, least: int, name: str) -> None:
    """DomainError for any n below least, or above SQUARE_N_MAX in an int64 array."""
    if np.min(n) < least:
        raise DomainError(f"{name} needs n >= {least}")
    _check_squares(n, name)


def _evaluate(formula, precision: str, *args) -> RealEval:
    """Value and error bound at precision of formula(log, *args) -> (value, error scale)."""
    return _bounded(*_run(formula, precision, *args), precision)


def _run(formula, precision: str, *args):
    """formula(_log, *args) on the double path, and formula(mp.log, *args)
    under mp.workprec at 160 bits."""
    if precision == "double":
        return formula(_log, *args)
    if precision not in PRECISION_BITS:
        raise ValueError(f"precision must be one of {', '.join(PRECISION_BITS)}, got {precision!r}")
    from mpmath import mp  # only the 160-bit path needs it

    with mp.workprec(PRECISION_BITS[precision]):
        return formula(mp.log, *args)


def _bounded(val, scale, precision: str) -> RealEval:
    """val and _ERR_C*u*scale, plus at 160 bits half an ulp for rounding val to a float."""
    if precision == "double":
        return RealEval(val, _ERR_DOUBLE * scale, "double")
    v = float(val)
    return RealEval(v, _ERR_C * _U[precision] * float(scale) + 0.5 * math.ulp(abs(v)), precision)


# --- formulas, generic over the log implementation ----------------------------


def _r_of(lg, ll):
    """r = log^2 n / loglog n and its error scale, from lg = log n and ll = log lg."""
    val = lg * lg / ll
    return val, val * (1 + 1 / ll)


def _r(log, n: int):
    lg = log(n)
    return _r_of(lg, log(lg))


def _margin(log, n: int):
    """(value, error scale) of delta(n), r(n) and s(n) = log^2 n loglog n, from
    one log each of n, n+1 and log n."""
    lg = log(n)
    ll = log(lg)
    a = ((n + 1) * (n + 1)) / log(n + 1)
    b = (n * n) / lg
    s = lg * lg * ll
    return ((a - b) / 2, a + b), _r_of(lg, ll), (s, abs(s) + lg * lg)


def _dusart(log, x, c: str):
    lx = log(x)
    const = float(c) if isinstance(lx, np.ndarray) else type(lx)(c)
    val = (x / lx) * (1 + 1 / lx + const / (lx * lx))
    return val, val


def _floor_offset(log, n: int, k: int):
    """delta(n) - r(n) - k; with k the integer nearest the argument, the
    difference keeps its digits when rounded to a float."""
    (d, d_scale), (r, r_scale), _ = _margin(log, n)
    return d - r - k, d_scale + r_scale


def _r_sum(n: int, precision: str):
    """Sum of r(k) over 3 <= k < n (none for n <= 3) and its error scale, for
    n <= SUM_R_MAX; on the double path n may be an int64 array in any order.

    Both precisions read S, the exact sum of the double terms r(k). Each is
    within _ERR_DOUBLE*scale(k) of r(k), so S is within _ERR_DOUBLE times the
    exact sum of the scales, which is rounded once, a relative 2^-53 inside
    _ERR_C's headroom. The 160-bit path holds S exactly, as S < 2^83, and
    states the terms' bound in units of its own _ERR_C*u. The double path
    rounds S once, within u*|S| = _ERR_DOUBLE*|S|/_ERR_C: S*2^50 = A*2^32 + B
    with A, B < 2^53, exact doubles, so A*2^-18 + B*2^-50 rounds once.
    """
    ns = np.atleast_1d(np.maximum(n, 3))
    if ns.max() > SUM_R_MAX:
        raise DomainError(f"sum_r needs n <= {SUM_R_MAX}")
    blocks, offsets = np.divmod(ns - 3, SUM_R_BLOCK)
    sums = np.empty((2, ns.size))  # S and the scale sum of each n, each rounded once
    for b in sorted(set(blocks.tolist())):
        while len(_block_starts) <= b:  # each block below b, once
            hi, lo = _block_starts[-1] + _block_prefix(len(_block_starts) - 1)[:, :, -1]
            _block_starts.append(np.stack([hi + (lo >> 32), lo & 0xFFFFFFFF]))
        at = blocks == b
        hi, lo = _block_prefix(b)[:, :, offsets[at]] + _block_starts[b][:, :, None]
        sums[:, at] = np.ldexp(hi, -18) + np.ldexp(lo, -50)
    if precision != "double":  # one n: its two exact sums from the last block's lanes
        from mpmath import mp

        total, scale = ((h << 32) + x for h, x in zip(hi[:, 0].tolist(), lo[:, 0].tolist()))
        return mp.ldexp(total, -50), scale / 2**50 * (_ERR_DOUBLE / (_ERR_C * _U["quad"]))
    total, scale = sums if isinstance(n, np.ndarray) else sums[:, 0].tolist()
    return total, scale + total / _ERR_C


def _lemma(log, n: int, precision: str):
    """(value, error scale) of each lemma side: the display's lhs
    n^2/(2 log n) + (4 - 9/log 9) - sum_r(n) and rhs, then the proof form's."""
    total, total_scale = _r_sum(n, precision)
    lg = log(n)
    const = 4 - 9 / log(9)
    main = (n * n) / (2 * lg)
    rhs = main * (1 + 1 / (2 * lg) + 9 / (20 * lg * lg))
    proof = (n * n) / (4 * lg * lg) + 9 * (n * n) / (40 * lg * lg * lg)
    return [(main + const - total, main + 9 + total_scale), (rhs, rhs), (proof + total, proof + total_scale),
            (const, 9)]


# --- public quantities ----------------------------------------------------------


def delta(n: int, precision: str = "double") -> RealEval:
    """Half the increment of x^2/log x from n to n+1; positive for n >= 2."""
    _check(n, 2, "delta")
    return _margin_sides(n, precision)[0]


def r_term(n: int, precision: str = "double") -> RealEval:
    """log^2(n) / loglog(n), defined for n >= 3 (needs loglog n > 0)."""
    if np.min(n) <= 2:
        raise DomainError("r_term needs n >= 3")
    return _evaluate(_r, precision, n)


def _c1(d: RealEval, s: RealEval) -> RealEval:
    return RealEval(d.value + s.value, d.abs_err + s.abs_err, d.precision)


def _c2(d: RealEval, r: RealEval) -> RealEval:
    return RealEval(d.value - r.value - 1.0, d.abs_err + r.abs_err, d.precision)


def c1_rhs(n: int, precision: str = "double") -> RealEval:
    """Upper-conjecture right side: delta(n) + log^2(n)*loglog(n)."""
    _check(n, 3, "c1_rhs")
    d, _, s = _margin_sides(n, precision)
    return _c1(d, s)


def c2_lhs(n: int, precision: str = "double") -> RealEval:
    """Lower-conjecture left side: delta(n) - r(n) - 1."""
    _check(n, 3, "c2_lhs")
    d, r, _ = _margin_sides(n, precision)
    return _c2(d, r)


def dusart_lower(x: float, precision: str = "double") -> tuple[RealEval, bool]:
    """Explicit lower bound L(x) on pi(x); the flag marks x >= 32299 validity."""
    if np.min(x) <= 1:
        raise DomainError("dusart_lower needs x > 1")
    return _evaluate(_dusart, precision, x, DUSART_LOWER_C), x >= DUSART_LOWER_MIN_X


def dusart_upper(x: float, precision: str = "double") -> tuple[RealEval, bool]:
    """Explicit upper bound U(x) on pi(x); the flag marks x >= 355991 validity."""
    if np.min(x) <= 1:
        raise DomainError("dusart_upper needs x > 1")
    return _evaluate(_dusart, precision, x, DUSART_UPPER_C), x >= DUSART_UPPER_MIN_X


def theorem_floor(n: int) -> tuple[int, bool]:
    """floor(delta(n) - r(n)) plus a flag for quad-resistant near-integers; over an
    array of n, arrays of both. The double tier decides each argument at least
    max(ESCALATE_DIST, 4x its error) from its nearest integer k; each other n
    takes one 160-bit evaluation of the argument less k."""
    _check(n, 3, "theorem_floor")
    if isinstance(n, np.ndarray):
        return _floors(n, _evaluate(_floor_offset, "double", n, 0))
    ev = _evaluate(_floor_offset, "double", n, 0)
    k = round(ev.value)
    if abs(ev.value - k) < max(ESCALATE_DIST, 4.0 * ev.abs_err):
        return _quad_floor(n, k)
    return math.floor(ev.value), False


def _quad_floor(n: int, k: int) -> tuple[int, bool]:
    """theorem_floor(n) from one 160-bit evaluation of the argument less k."""
    v = _evaluate(_floor_offset, "quad", n, k).value
    return k + math.floor(v), abs(v - round(v)) < BOUNDARY_DIST


def _floors(n: np.ndarray, ev: RealEval) -> tuple[np.ndarray, np.ndarray]:
    """theorem_floor over an array of n from the double-tier floor argument ev."""
    floors = np.floor(ev.value).astype(np.int64)
    k = np.rint(ev.value)  # round half to even, as round() does
    undecided = np.abs(ev.value - k) < np.maximum(ESCALATE_DIST, 4.0 * ev.abs_err)
    flags = np.zeros(n.size, dtype=bool)
    for i in np.flatnonzero(undecided).tolist():
        floors[i], flags[i] = _quad_floor(int(n[i]), int(k[i]))
    return floors, flags


def _margin_sides(n, precision: str = "double") -> list[RealEval]:
    """delta(n), r(n) and log^2 n loglog n, from one log pass each over n, n+1 and log n."""
    return [_bounded(*pair, precision) for pair in _run(_margin, precision, n)]


def margin_sides(n: np.ndarray) -> tuple[RealEval, RealEval, RealEval, np.ndarray, np.ndarray]:
    """delta(n), c1_rhs(n), c2_lhs(n) and theorem_floor(n) over an int64 array
    of n >= 3, bit-identical to those calls.

    One formula gives delta, r and log^2 n loglog n, from one math.log pass
    each over n, n+1 and log n. The floor argument delta - r carries the
    error bound d.abs_err + r.abs_err, which equals _floor_offset's because
    _ERR_DOUBLE is a power of two.
    """
    _check(n, 3, "margin_sides")
    d, r, s = _margin_sides(n)
    floors, flags = _floors(n, RealEval(d.value - r.value, d.abs_err + r.abs_err, "double"))
    return d, _c1(d, s), _c2(d, r), floors, flags


# --- exact running sum of r(k) ------------------------------------------------

SUM_R_MAX = 10**7  # the greatest n whose sum_r is served
SUM_R_BLOCK = 4096  # k per block of prefix sums

# the exact sums of r(k) and of its error scale before each block reached so far, times 2^50,
# as A0*2^32 + B0 with A0 < 2^51 and B0 < 2^32: int64 of shape (A0/B0, quantity)
_block_starts = [np.zeros((2, 2), dtype=np.int64)]


@functools.lru_cache(maxsize=1)
def _block_prefix(b: int) -> np.ndarray:
    """Prefix sums of r(k) and its error scale, times 2^50, over block b's k from
    3 + b*SUM_R_BLOCK, as int64 lanes of shape (hi/lo, quantity, terms + 1).

    For 3 <= k < SUM_R_MAX every double r(k) lies in [5.44, 93.5] and every
    scale in [13.9, 149.3], so each is a multiple of 2^-50 and, times 2^50, an
    integer q below 2^58; the lanes q >> 32 and q mod 2^32 sum a block exactly.
    """
    k0 = 3 + b * SUM_R_BLOCK
    ks = np.arange(k0, min(k0 + SUM_R_BLOCK, SUM_R_MAX), dtype=np.int64)
    q = np.ldexp(np.stack(_r(_log, ks)), 50).astype(np.int64)
    lanes = np.zeros((2, 2, ks.size + 1), dtype=np.int64)
    np.cumsum((q >> 32, q & 0xFFFFFFFF), axis=2, out=lanes[:, :, 1:])
    return lanes


def sum_r(n: int, precision: str = "double") -> RealEval:
    """Sum of r(k) over 3 <= k <= n-1 with a tracked error bound; n <= SUM_R_MAX."""
    _check(n, 3, "sum_r")
    return _evaluate(lambda log, n: _r_sum(n, precision), precision, n)


# --- lemma sides ----------------------------------------------------------------


def _lemma_sides(n, precision: str = "double", name: str = "lemma sides") -> list[RealEval]:
    """lemma1_sides(n) then lemma1_proof_sides(n), from one log pass over n and one read of sum_r."""
    _check(n, 2, name)
    return [_bounded(*pair, precision) for pair in _run(_lemma, precision, n, precision)]


def lemma1_sides(n: int, precision: str = "double") -> tuple[RealEval, RealEval]:
    """Both sides of the summed-floor lemma's displayed inequality (lhs < rhs)."""
    return tuple(_lemma_sides(n, precision, "lemma1_sides")[:2])


def lemma1_proof_sides(n: int, precision: str = "double") -> tuple[RealEval, RealEval]:
    """Rearranged form: n^2/(4 log^2 n) + 9 n^2/(40 log^3 n) + sum_r(n) > 4 - 9/log 9."""
    return tuple(_lemma_sides(n, precision, "lemma1_proof_sides")[2:])


def lemma2_lhs(n: int, precision: str = "double") -> RealEval:
    """Left side of the pi(n^2) lower estimate; equals lemma1_sides(n)[0]."""
    _check(n, 3, "lemma2_lhs")
    return _lemma_sides(n, precision)[0]
