import json
import math
import os
import random
from dataclasses import asdict

import pytest

from primesq.analytic import RealEval
from primesq.counting import _window_counts
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

    monkeypatch.setattr(v, "_counts_job", boom)
    again, _ = run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck), resume=True)
    assert report_json(full) == report_json(again)


def test_chunk_checkpointed_as_soon_as_done(tmp_path, monkeypatch):
    import primesq.verify as v

    whole, ck = tmp_path / "whole.txt", tmp_path / "ck.txt"
    full, full_rows = run_margin_campaign("c2", 3, 2000, checkpoint_path=str(whole))  # four chunks
    real_job, jobs = v._counts_job, []

    def job(chunk):
        jobs.append(chunk)
        if len(jobs) == 3:
            raise RuntimeError("killed while counting the third chunk")
        return real_job(chunk)

    monkeypatch.setattr(v, "_counts_job", job)
    with pytest.raises(RuntimeError):
        run_margin_campaign("c2", 3, 2000, checkpoint_path=str(ck))
    assert ck.read_text().splitlines() == whole.read_text().splitlines()[:3]
    jobs.clear()
    resumed, rows = run_margin_campaign("c2", 3, 2000, checkpoint_path=str(ck), resume=True)
    assert jobs == [(1027, 1538), (1539, 2000)]
    assert report_json(resumed) == report_json(full)
    assert margin_rows_csv(rows) == margin_rows_csv(full_rows)
    assert ck.read_bytes() == whole.read_bytes()


def test_one_pi_seed_per_campaign(tmp_path, monkeypatch):
    import primesq.counting as counting
    import primesq.verify as v

    real, seeds = counting.pi_exact, []

    def counted(x, method="combinatorial"):
        seeds.append(x)
        return real(x, method)

    monkeypatch.setattr(counting, "pi_exact", counted)
    monkeypatch.setattr(v, "pi_exact", counted)

    def seeds_of(run, *args, **kwargs):
        seeds.clear()
        run(*args, **kwargs)
        return list(seeds)

    ck = str(tmp_path / "ck.txt")
    for workers in (1, 2):
        assert seeds_of(run_margin_campaign, "c2", 3, 2000, workers=workers, checkpoint_path=ck) == [9, 2001**2]
    lines = (tmp_path / "ck.txt").read_text().splitlines()
    (tmp_path / "ck.txt").write_text("\n".join(lines[:3]) + "\n")  # two of four chunks
    assert seeds_of(run_margin_campaign, "c2", 3, 2000, checkpoint_path=ck, resume=True) == [1027**2, 2001**2]
    assert seeds_of(run_margin_campaign, "c2", 3, 2000, checkpoint_path=ck, resume=True) == []
    assert seeds_of(verify_lemmas, 3, 1100) == [9, 1101**2]


def test_campaign_sum_checked_against_combinatorial_pi(monkeypatch, capsys):
    import primesq.verify as v
    from primesq import cli

    real_job = v._counts_job

    def off_by_one(chunk):
        counts = real_job(chunk)
        if chunk[1] == 1100:  # last of the three chunks of 3..1100
            counts[-1] += 1
        return counts

    monkeypatch.setattr(v, "_counts_job", off_by_one)
    with pytest.raises(RuntimeError, match="combinatorial"):
        run_margin_campaign("c2", 3, 1100)
    assert cli.main(["verify", "c2", "--from", "3", "--to", "1100"]) == 3
    err = capsys.readouterr().err
    assert "RuntimeError" in err and err.count("\n") == 1


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


def _blurred(monkeypatch, name):
    """Make verify's binding of name return a huge error at double; quad passes through."""
    import primesq.verify as v

    real = getattr(v, name)

    def blur(ev):
        return RealEval(ev.value, 1e30, ev.precision)

    def patched(n, precision="double"):
        out = real(n, precision)
        if precision != "double":
            return out
        return tuple(map(blur, out)) if isinstance(out, tuple) else blur(out)

    monkeypatch.setattr(v, name, patched)


def test_strict_re_evaluates_every_boundary(monkeypatch):
    import primesq.verify as v

    for name in ("c1_rhs", "c2_lhs", "lemma1_sides", "lemma1_proof_sides", "lemma2_lhs"):
        _blurred(monkeypatch, name)
    real_floor = v.theorem_floor
    monkeypatch.setattr(v, "theorem_floor", lambda n: (real_floor(n)[0], True))
    ns = list(range(180, 201))
    for target in ("c1", "c2"):
        fast = verify_conjecture(target, 180, 200)
        assert fast.boundary_cases == ns and fast.violations == []
        strict = verify_conjecture(target, 180, 200, precision_mode="strict")
        assert strict.boundary_cases == [] and strict.violations == [] and strict.checked == 21
    assert verify_theorem(180, 200).boundary_cases == []
    assert verify_theorem(180, 200, precision_mode="strict").boundary_cases == ns
    for rep in verify_lemmas(180, 200):
        assert rep.boundary_cases == ns and rep.violations == []
    for rep in verify_lemmas(180, 200, precision_mode="strict"):
        assert rep.boundary_cases == [] and rep.violations == [] and rep.checked == 21


def test_campaign_pool_capped_at_chunks_left(monkeypatch):
    import primesq.verify as v

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(v, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(v, "CHUNK_SIZE", 4)
    report, _ = run_margin_campaign("c2", 3, 22, workers=64)  # five chunks
    assert sizes == [5]
    assert report.checked == 20 and report.violations == []


def test_dusart_bound_within_error_is_boundary(monkeypatch):
    import primesq.verify as v
    from primesq.counting import pi_exact

    x = 10**6
    real_upper = v.dusart_upper
    pi = pi_exact(x, "combinatorial")

    def upper_at_pi(xx, precision="double"):
        ev, ok = real_upper(xx, precision)
        return RealEval(pi + 0.5 * ev.abs_err, ev.abs_err, ev.precision), ok

    monkeypatch.setattr(v, "dusart_upper", upper_at_pi)
    report = verify_dusart([100, x])
    assert report.boundary_cases == [x] and report.violations == []
    assert report.checked == 1 and report.min_margin is None
    assert report.runtime_note == "samples=2;skipped=1"


def _raised_first_count(n_from, n_to):
    counts = _window_counts(n_from, n_to)
    if n_from == 3:
        counts[0] += 1
    return counts


def _raise_first_count(monkeypatch):
    import primesq.verify as v

    # patched where the worker job looks it up, so forked workers see it too
    monkeypatch.setattr(v, "_window_counts", _raised_first_count)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_check_leaves_no_resumable_checkpoint(tmp_path, monkeypatch, capsys, workers):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "1100", "--workers", str(workers),
            "--checkpoint", str(ck), "--format", "csv"]
    _raise_first_count(monkeypatch)
    assert cli.main(argv) == 3
    lines = ck.read_text().splitlines()
    assert len(lines) == 1 + 2  # the last of three chunks is held back
    if workers == 2:  # two chunks left to count, so the pool runs
        ck.write_text("\n".join(lines[:2]) + "\n")
    monkeypatch.undo()
    capsys.readouterr()
    assert cli.main(argv + ["--resume"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "RuntimeError" in captured.err and captured.err.count("\n") == 1


def test_failed_lemma_check_leaves_no_resumable_checkpoint(tmp_path, monkeypatch):
    ck = str(tmp_path / "ck.txt")
    _raise_first_count(monkeypatch)
    with pytest.raises(RuntimeError):
        verify_lemmas(3, 1100, checkpoint_path=ck)
    monkeypatch.undo()
    with pytest.raises(RuntimeError, match="checkpoint chunks sum"):
        verify_lemmas(3, 1100, checkpoint_path=ck, resume=True)


def test_partial_resume_requires_chained_chunks(tmp_path):
    ck = tmp_path / "ck.txt"
    full, _ = run_margin_campaign("c2", 3, 1100, checkpoint_path=str(ck))
    header, first, second, _ = ck.read_text().splitlines()
    rec = json.loads(second)
    rec["pi_at_start"] += 1
    ck.write_text("\n".join([header, first, json.dumps(rec)]) + "\n")
    with pytest.raises(RuntimeError, match="chunks before it end"):
        run_margin_campaign("c2", 3, 1100, checkpoint_path=str(ck), resume=True)
    ck.write_text("\n".join([header, first, second]) + "\n")
    resumed, _ = run_margin_campaign("c2", 3, 1100, checkpoint_path=str(ck), resume=True)
    assert report_json(resumed) == report_json(full)


@pytest.mark.parametrize("chunk, field", [(0, "f"), (1, "pi_n2"), (2, "f"), (2, "pi_n2")])
def test_complete_resume_checks_its_chain(tmp_path, capsys, chunk, field):
    from primesq import cli
    from primesq.verify import MarginRecord

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "1100", "--checkpoint", str(ck), "--format", "csv"]
    assert cli.main(argv) == 0
    good = capsys.readouterr().out
    lines = ck.read_text().splitlines()
    rec = json.loads(lines[1 + chunk])
    rec["rows"][5][MarginRecord._fields.index(field)] += 1
    ck.write_text("\n".join(lines[:1 + chunk] + [json.dumps(rec)] + lines[2 + chunk:]) + "\n")
    assert cli.main(argv + ["--resume"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "RuntimeError" in captured.err and captured.err.count("\n") == 1
    ck.write_text("\n".join(lines) + "\n")
    assert cli.main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == good
