"""Byte-for-byte pins on the default report, a checkpointed campaign and the analytic layer.

The report, CSV and checkpoint digests were recorded from the implementation
that ran c1, c2, theorem and implication as four separate campaigns; a
refactor of rows, folds or checkpoint writes must reproduce them exactly.

C2_CHECKPOINT was pinned again when the checkpoint format went to version 2:
a record now holds a chunk's counts (chunk_start, chunk_end, pi_at_start, f
and pi_n2) instead of every field of every row, which resume rebuilds. The
CSV of the same run, C2_CSV, kept its digest.

C2_CHECKPOINT was pinned again when the checkpoint format went to version 3:
the header names only the range and chunk size (from, to, chunk_size), no
longer the command or precision, and a record holds chunk_start, f and pi_n2
only, since pi_at_start always equalled the chunk's first pi_n2 and nothing
read chunk_end. C2_CSV kept its digest again.

C2_CHECKPOINT was pinned again when the checkpoint format went to version 4:
a record holds chunk_start and f only. pi_n2 was the combinatorial pi(from^2)
plus the counts before n, and every run now seeds pi(from^2) and pi((to+1)^2)
itself, so a stored pi_n2 could only disagree with them. The version-3 bytes
of this run are test_verify's VERSION_3_C2_CHECKPOINT. C2_CSV kept its digest
again.

REPORT_ALL_STRICT_JSON pins `report all --precision strict`; it was recorded
from the implementation that built campaign rows one n at a time, before rows
were built a chunk at a time from arrays.

LEMMAS_JSON and LEMMAS_STRICT_JSON pin `verify lemmas --from 3 --to 2000
--format json`, fast and strict. They were recorded from the implementation
whose `report all` still ran that lemma campaign, before it built its lemma
rows from the margin pass; the lemma campaign must keep giving those bytes.

The analytic digests were recorded from the implementation that wrote a
separate float body and mpmath body for each quantity. They hash float.hex
of every value and error bound on a grid of n at each precision, so a
refactor of the analytic layer must keep every bit. The quad error digest
leaves out the Dusart bounds and bound_gap: their mpmath error scale was
2x/log x where the double path used the bound itself.

ANALYTIC_MP_FAR hashes float.hex of the 160-bit value and error bound of
delta, r_term, c1_rhs and c2_lhs at 20 seeded n in 10^5..9999999, beyond the
grid's 10000. It was recorded from the implementation that evaluated delta,
r and log^2 n loglog n as three separate formulas.

ANALYTIC_MP_VALUES and ANALYTIC_MP_ERRORS were pinned again, over the quad
lines alone, when the 96-bit "extended" level was dropped; the quad lines
kept every bit. ANALYTIC_DOUBLE was pinned again when the running sum of
r(k) became exact: no value moved, and the error bounds of sum_r and of the
lemma sides that read it (lemma1_lhs, proof_lhs, lemma2_lhs) fell by up to
14% at each grid n above 3.

ANALYTIC_MP_VALUES and ANALYTIC_MP_ERRORS were pinned again when the 160-bit
sum of r(k) came to read the same exact sum of the double terms as the double
path, in place of a 160-bit sum of the real terms. Only the sum_r, lemma1_lhs,
proof_lhs and lemma2_lhs lines moved: sum_r's values now equal the double
ones, and every bound of the four carries the double terms' summed bound
(lemma2_lhs: 1.3e-13 at n = 4, where half an ulp was 4.4e-16). Each moved value lies within its new bound of the
160-bit reference sum (oracles.quad_sum_r).
"""

import hashlib
import random

import pytest

from primesq import cli
from primesq.analytic import (
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
from primesq.mbound import START_K, bound_gap

REPORT_ALL_JSON = "70e33a9f6341af548bc718466e9459d72a87e15129a000f9dc1991f07e590fd1"
REPORT_ALL_STRICT_JSON = "a0b0f5ce5550ac0c18844ac2140128ae82b510927b4bbac28390193e397e1bdc"
LEMMAS_JSON = "97461facda60028b8df8d2179ff9a7d0b0d1649608af0888fceadd7b0143a18f"
LEMMAS_STRICT_JSON = "f5adfe3797277c4632805cc567ae6af2d7fc018b38a3ba1feb744fe23862bcb4"
C2_CSV = "3e0b6bf6a7e00c66b0147e4c41c14b7b94141080eafa2a85e82995e27ebeac91"
C2_CHECKPOINT = "4cd7d613d94bc3398161b63ba24a5161b389272947640ac23fd5bf44da0ba2fb"

ANALYTIC_DOUBLE = "3038c2d13eb274cc8219e5d0aa9cb996f432b1d9e6b9a65f907fdf687296ba64"
ANALYTIC_MP_VALUES = "4aa8f904cd770e0ab4fdd28742a637bc4dde9549d8e729eb60d0b0b771e99bab"
ANALYTIC_MP_ERRORS = "edd3566431c6bc552272480485f70d9765848f64f89b15b52de09d189f038f78"
THEOREM_FLOOR_3_20000 = "a48e703dff016abf9ec2b0954ed389bd62ce4e31e267c54c59cb848222467294"
ANALYTIC_MP_FAR = "7a666ebc6441809faa74d0f0ee511c625004fda17fd1cebb374ed183104532ab"

ANALYTIC_GRID = (3, 4, 5, 6, 10, 17, 50, 179, 180, 597, 1234, 2000, 9999, 10000)
ANALYTIC_FAR_NS = sorted(random.Random(30).sample(range(10**5, 10**7), 20))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_report_all_json_digest(capsys):
    assert cli.main(["report", "all", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == REPORT_ALL_JSON


def test_report_all_strict_json_digest(capsys):
    assert cli.main(["report", "all", "--precision", "strict", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == REPORT_ALL_STRICT_JSON


@pytest.mark.parametrize("precision, digest", [("fast", LEMMAS_JSON), ("strict", LEMMAS_STRICT_JSON)])
def test_lemmas_json_digest(capsys, precision, digest):
    argv = ["verify", "lemmas", "--from", "3", "--to", "2000", "--precision", precision, "--format", "json"]
    assert cli.main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest


def test_c2_csv_and_checkpoint_digests(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    assert cli.main(["verify", "c2", "--from", "3", "--to", "1100",
                     "--format", "csv", "--checkpoint", str(ck)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == C2_CSV
    assert _sha256(ck.read_bytes()) == C2_CHECKPOINT


def _analytic_evals(n: int, precision: str) -> list[tuple[str, object]]:
    """(name, RealEval) of every analytic quantity at n and precision."""
    x = n * n + 7
    out = [("delta", delta(n, precision)), ("r_term", r_term(n, precision)),
           ("c1_rhs", c1_rhs(n, precision)), ("c2_lhs", c2_lhs(n, precision)),
           ("dusart_lower", dusart_lower(x, precision)[0]),
           ("dusart_upper", dusart_upper(x, precision)[0])]
    out += zip(("lemma1_lhs", "lemma1_rhs"), lemma1_sides(n, precision))
    out += zip(("proof_lhs", "proof_rhs"), lemma1_proof_sides(n, precision))
    out += [("lemma2_lhs", lemma2_lhs(n, precision)), ("sum_r", sum_r(n, precision))]
    if n >= START_K:
        out.append(("bound_gap", bound_gap(n, precision)))
    return out


def _analytic_digests() -> tuple[str, str, str]:
    double, mp_values, mp_errors = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for n in ANALYTIC_GRID:
        for name, ev in _analytic_evals(n, "double"):
            double.update(f"{n} {name} {ev.value.hex()} {ev.abs_err.hex()}\n".encode())
        for name, ev in _analytic_evals(n, "quad"):
            mp_values.update(f"{n} quad {name} {ev.value.hex()}\n".encode())
            if not name.startswith("dusart") and name != "bound_gap":
                mp_errors.update(f"{n} quad {name} {ev.abs_err.hex()}\n".encode())
    return double.hexdigest(), mp_values.hexdigest(), mp_errors.hexdigest()


def test_analytic_digests():
    assert _analytic_digests() == (ANALYTIC_DOUBLE, ANALYTIC_MP_VALUES, ANALYTIC_MP_ERRORS)


def test_theorem_floor_digest():
    text = "".join(f"{n} {fl} {flag}\n" for n in range(3, 20001) for fl, flag in [theorem_floor(n)])
    assert _sha256(text.encode()) == THEOREM_FLOOR_3_20000


def test_analytic_far_quad_digest():
    digest = hashlib.sha256()
    for n in ANALYTIC_FAR_NS:
        for fn in (delta, r_term, c1_rhs, c2_lhs):
            ev = fn(n, "quad")
            digest.update(f"{n} {fn.__name__} {ev.value.hex()} {ev.abs_err.hex()}\n".encode())
    assert digest.hexdigest() == ANALYTIC_MP_FAR
