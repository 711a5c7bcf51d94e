"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module finishes in well under a minute on a desktop.
"""

import json
import random
import re
import time

import pytest
from mpmath import mp

from primesq import cli
from primesq.analytic import dusart_lower, dusart_upper, theorem_floor
from primesq.counting import g_of, pi_exact, pi_exact_many
from primesq.mbound import c3_table, m_of, m_of_linear
from primesq.verify import implication_check, verify_dusart, verify_lemmas


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def _campaign_json(tmp_path, *argv) -> tuple[int, dict, float]:
    out = tmp_path / "report.json"
    t0 = time.time()
    code = cli.main([*argv, "--format", "json", "--out", str(out)])
    elapsed = time.time() - t0
    return code, json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def g10000():
    return g_of(10000)


def test_c01_conjecture1_reproduction(tmp_path):
    code, payload, elapsed = _campaign_json(
        tmp_path, "verify", "c1", "--from", "5", "--to", "10000")
    ok = code == 0 and payload["violations"] == [] and payload["checked"] == 9996 and elapsed < 300
    _line(1, "conjecture-1 5..10000", ok,
          f"violations={len(payload['violations'])} elapsed={elapsed:.1f}s")


def test_c02_conjecture2_reproduction(tmp_path):
    code, payload, elapsed = _campaign_json(
        tmp_path, "verify", "c2", "--from", "3", "--to", "10000")
    ok = code == 0 and payload["violations"] == [] and payload["checked"] == 9998 and elapsed < 300
    _line(2, "conjecture-2 3..10000", ok,
          f"violations={len(payload['violations'])} elapsed={elapsed:.1f}s")


def test_c03_theorem_and_implication(tmp_path):
    code, payload, _ = _campaign_json(
        tmp_path, "verify", "theorem", "--from", "3", "--to", "10000")
    imp = implication_check(3, 10000)
    match = re.search(r"last_negative_t_floor=(\d+)", payload["runtime_note"])
    transition = int(match.group(1)) if match else None
    ok = (code == 0 and payload["violations"] == [] and imp.violations == []
          and transition == 49 and 40 <= transition <= 70)
    _line(3, "theorem + implication 3..10000", ok,
          f"violations={len(payload['violations'])} implication={len(imp.violations)} "
          f"sign_transition_last_negative={transition}")


def test_c04_lemmas():
    rep1, rep2 = verify_lemmas(3, 2000)
    ok = (rep1.violations == [] and rep1.checked == 1998
          and rep2.violations == [] and rep2.checked == 2000 - 180 + 1)
    _line(4, "lemma-1 (both forms) 3..2000, lemma-2 180..2000", ok,
          f"lemma1_violations={len(rep1.violations)} lemma2_violations={len(rep2.violations)}")


def test_c05_pi_cross_validation():
    fixed = [10**3, 10**4, 10**5, 10**6, 10**7, 10**8]
    rng = random.Random(20260808)
    randoms = [rng.randrange(0, 10**7 + 1) for _ in range(200)]
    window = pi_exact_many(fixed + randoms)
    comb = [pi_exact(x, "combinatorial") for x in fixed + randoms]
    agree = window == comb

    # independent naive-sieve oracle, written here, no package code
    limit = 10**6
    marks = bytearray(b"\x01") * (limit + 1)
    marks[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if marks[p]:
            marks[p * p :: p] = b"\x00" * len(marks[p * p :: p])
        p += 1
    oracle_1e6 = sum(marks)
    ok = agree and oracle_1e6 == 78498 and pi_exact(10**6, "combinatorial") == 78498
    _line(5, "pi dual-method agreement + naive oracle", ok,
          f"points={len(fixed) + len(randoms)} pi(1e6)={oracle_1e6}")


def test_c06_dusart_sanity():
    lower_xs = [32299, 10**5, 10**6, 10**8]
    upper_xs = [355991, 10**6, 10**8]
    bad = []
    for x in lower_xs:
        if not dusart_lower(x)[0].value <= pi_exact(x, "combinatorial"):
            bad.append(("L", x))
    for x in upper_xs:
        if not pi_exact(x, "combinatorial") <= dusart_upper(x)[0].value:
            bad.append(("U", x))
    report = verify_dusart(sorted(set(lower_xs + upper_xs)))
    ok = not bad and report.violations == []
    _line(6, "explicit bounds sandwich pi(x)", ok, f"failures={bad}")


def test_c07_every_interval_hit(g10000):
    ok = g10000 == 10000
    _line(7, "g(10000) == 10000", ok, f"g(10000)={g10000}")


def test_c08_capacity_suite(g10000):
    mismatch = [n for n in range(597, 3001) if m_of(n) != m_of_linear(n)]
    m597 = m_of(597)
    records = c3_table([1000, 5000, 10000])
    ratios_ok = all(r.ratio is not None and 0 < r.ratio <= 1 for r in records)
    g_vals = {1000: g_of(1000), 5000: g_of(5000), 10000: g10000}
    dominated = all(g_vals[r.n] >= r.m_value for r in records)
    ok = not mismatch and m597 == 597 and ratios_ok and dominated
    _line(8, "capacity index suite", ok,
          f"binary==linear mismatches={len(mismatch)} m(597)={m597} "
          f"ratios={[round(r.ratio, 6) for r in records]} "
          f"g_dominates_m={dominated}")


def test_c09_determinism_and_resume(tmp_path):
    args = ["verify", "theorem", "--from", "3", "--to", "1600"]
    blobs = []
    for workers in ("1", "4", "8"):
        jpath = tmp_path / f"w{workers}.json"
        cpath = tmp_path / f"w{workers}.csv"
        assert cli.main(args + ["--workers", workers, "--format", "json", "--out", str(jpath)]) == 0
        assert cli.main(args + ["--workers", workers, "--format", "csv", "--out", str(cpath)]) == 0
        blobs.append((jpath.read_bytes(), cpath.read_bytes()))
    workers_identical = all(b == blobs[0] for b in blobs[1:])

    ck = tmp_path / "ck.txt"
    ref = tmp_path / "ref.json"
    res = tmp_path / "res.json"
    assert cli.main(args + ["--checkpoint", str(ck), "--format", "json", "--out", str(ref)]) == 0
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:3]) + "\n" + lines[3][:25])  # kill mid-write
    assert cli.main(args + ["--checkpoint", str(ck), "--resume",
                            "--format", "json", "--out", str(res)]) == 0
    resume_identical = ref.read_bytes() == res.read_bytes()
    ok = workers_identical and resume_identical
    _line(9, "workers byte-identical + kill/resume", ok,
          f"workers_identical={workers_identical} resume_identical={resume_identical}")


def test_c10_floor_precision_stability():
    mismatches = 0
    boundaries = 0
    for n in range(3, 10001):
        fl, flag = theorem_floor(n)
        boundaries += flag
        with mp.workprec(160):
            arg = (((n + 1) ** 2) / mp.log(n + 1) - (n * n) / mp.log(n)) / 2 \
                - mp.log(n) ** 2 / mp.log(mp.log(n))
            mismatches += int(mp.floor(arg)) != fl
    ok = mismatches == 0
    _line(10, "escalated floor == direct quad floor 3..10000", ok,
          f"mismatches={mismatches} boundary_flags={boundaries}")
