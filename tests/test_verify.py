import json
import math
import os
import random
from dataclasses import asdict

import pytest

from primesq.errors import DomainError
from primesq.sieve import count_primes_open
from primesq.verify import (
    MARGIN_CSV_COLUMNS,
    implication_check,
    margin_rows_csv,
    report_json,
    report_table,
    run_margin_campaign,
    verify_conjecture,
    verify_dusart,
    verify_lemmas,
    verify_theorem,
)


def trial_f(n: int) -> int:
    """Tiny independent oracle for small n."""
    def prime(x):
        if x < 2:
            return False
        d = 2
        while d * d <= x:
            if x % d == 0:
                return False
            d += 1
        return True
    return sum(prime(x) for x in range(n * n + 1, (n + 1) ** 2))


def test_c2_single_n():
    report = verify_conjecture("c2", 3, 3)
    assert report.checked == 1
    assert report.violations == []
    assert report.min_margin == pytest.approx(2 - (-12.158649251258074593), abs=1e-9)
    assert report.argmin_n == 3


def test_c1_small_range_margins():
    report = verify_conjecture("c1", 5, 60)
    assert report.violations == []
    oracle = []
    for n in range(5, 61):
        lg = math.log(n)
        rhs = 0.5 * ((n + 1) ** 2 / math.log(n + 1) - n * n / lg) + lg * lg * math.log(lg)
        oracle.append((rhs - trial_f(n), n))
    best, best_n = min(oracle)
    assert report.min_margin == pytest.approx(best, abs=1e-9)
    assert report.argmin_n == best_n


def test_theorem_small_range_and_note():
    report = verify_theorem(3, 120)
    assert report.violations == []
    assert "last_negative_t_floor=49" in report.runtime_note


def test_implication_empty():
    report = implication_check(3, 300)
    assert report.violations == []
    assert report.checked == 298


def test_lemmas_small_range():
    rep1, rep2 = verify_lemmas(3, 250)
    assert rep1.violations == []
    assert rep1.checked == 248
    assert rep2.violations == []
    assert rep2.checked == 250 - 180 + 1
    assert "below_domain_failures=1" in rep2.runtime_note  # exact tie at n=3


def test_dusart_skip_and_margin():
    skipped = verify_dusart([100])
    assert skipped.checked == 0 and skipped.violations == []
    assert skipped.min_margin is None
    report = verify_dusart([10**6])
    assert report.checked == 1 and report.violations == []
    assert report.min_margin == pytest.approx(78573.487078080902 - 78498, abs=1e-6)
    assert report.argmin_n == 10**6


def test_margin_record_fields_consistent():
    report, records = run_margin_campaign("c2", 3, 80)
    assert report.checked == len(records) == 78
    for rec in records:
        assert rec.margin_c1 == pytest.approx(rec.c1_rhs - rec.f, abs=1e-12)
        assert rec.margin_c2 == pytest.approx(rec.f - rec.c2_lhs, abs=1e-12)
        assert rec.margin_thm == rec.f - rec.t_floor
        assert rec.margins == (rec.margin_c1, rec.margin_c2, rec.margin_thm)


def test_rows_audit_against_independent_count():
    _, records = run_margin_campaign("theorem", 3, 400)
    rng = random.Random(99)
    for rec in rng.sample(records, max(1, len(records) // 100)):
        assert rec.f == count_primes_open(rec.n**2, (rec.n + 1) ** 2)


def test_csv_schema():
    _, records = run_margin_campaign("c2", 3, 10)
    text = margin_rows_csv(records)
    lines = text.splitlines()
    assert lines[0] == MARGIN_CSV_COLUMNS
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "2"
    assert first[3] == f"{records[0].delta:.6f}"
    assert first[10] in ("0", "1")


def test_json_schema():
    report = verify_conjecture("c2", 3, 10)
    payload = json.loads(report_json(report))
    assert list(payload) == [
        "target", "range", "checked", "violations", "boundary_cases",
        "min_margin", "argmin_n", "runtime_note",
    ]
    assert payload["range"] == [3, 10]
    assert payload == asdict(report) | {"range": [3, 10]}


def test_report_table_renders():
    text = report_table(verify_conjecture("c2", 3, 10))
    assert "violations  : 0" in text


def test_workers_bit_identical():
    rep1, recs1 = run_margin_campaign("c2", 3, 1100, workers=1)
    rep3, recs3 = run_margin_campaign("c2", 3, 1100, workers=3)
    assert report_json(rep1) == report_json(rep3)
    assert margin_rows_csv(recs1) == margin_rows_csv(recs3)


def test_checkpoint_resume_equivalence(tmp_path):
    ck = tmp_path / "ck.txt"
    full, _ = run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    assert len(lines) == 1 + 3  # header + three chunks of 512
    # simulate a kill: one complete chunk survives plus a torn line
    ck.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40])
    resumed, _ = run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck), resume=True)
    assert report_json(full) == report_json(resumed)


@pytest.mark.parametrize("fail_at", ["serialise", "rename"])
def test_checkpoint_rewrite_is_atomic(tmp_path, monkeypatch, fail_at):
    ck = tmp_path / "ck.txt"
    full, full_rows = run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:3]) + "\n")  # killed after two of three chunks
    before = ck.read_bytes()

    def fail(*args, **kwargs):
        raise OSError("simulated failure during the checkpoint rewrite")

    if fail_at == "serialise":
        # header and first chunk serialise, the second chunk fails
        real_dumps, calls = json.dumps, []

        def dumps(obj, **kwargs):
            calls.append(obj)
            if len(calls) == 3:
                fail()
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
    else:
        monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck), resume=True)
    monkeypatch.undo()
    assert ck.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]  # no stray temp file
    resumed, resumed_rows = run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck), resume=True)
    assert report_json(resumed) == report_json(full)
    assert margin_rows_csv(resumed_rows) == margin_rows_csv(full_rows)


def test_completed_checkpoint_skips_recomputation(tmp_path, monkeypatch):
    ck = tmp_path / "ck.txt"
    full, _ = run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck))
    import primesq.verify as v

    def boom(args):
        raise AssertionError("chunk recomputed on a completed checkpoint")

    monkeypatch.setattr(v, "_chunk_job", boom)
    again, _ = run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck), resume=True)
    assert report_json(full) == report_json(again)


def test_checkpoint_campaign_mismatch(tmp_path):
    ck = tmp_path / "ck.txt"
    run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck))
    with pytest.raises(DomainError):
        run_margin_campaign("c2", 3, 700, checkpoint_path=str(ck), resume=True)
    with pytest.raises(DomainError):
        run_margin_campaign("theorem", 3, 600, checkpoint_path=str(ck), resume=True)


def test_domain_checks():
    with pytest.raises(DomainError):
        verify_conjecture("c1", 4, 10)
    with pytest.raises(DomainError):
        verify_conjecture("c2", 2, 10)
    with pytest.raises(DomainError):
        verify_theorem(10, 5)
    with pytest.raises(DomainError):
        verify_lemmas(2, 10)
    with pytest.raises(ValueError):
        verify_conjecture("c9", 3, 10)
    with pytest.raises(DomainError):
        verify_dusart([])


def test_strict_mode_runs_clean():
    report = verify_conjecture("c2", 3, 200, precision_mode="strict")
    assert report.violations == [] and report.boundary_cases == []
