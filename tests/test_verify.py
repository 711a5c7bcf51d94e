import functools
import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import signal
from dataclasses import asdict

import numpy as np
import pytest

from primesq import verify as v
from primesq.analytic import RealEval
from primesq.counting import _window_counts, pi_exact
from primesq.errors import DomainError
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

from oracles import count_primes_open, fold_items, lemma_row, margin_csv, margin_report, margin_row, records


# test_golden's C2_CHECKPOINT while checkpoints were format versions 2 and 3
VERSION_2_C2_CHECKPOINT = "539a30438be909e12ea18471264ec99c63ccb4200f59cca83eff6032aeebc6b3"
VERSION_3_C2_CHECKPOINT = "f0c862f2fd6caeb09050c9fb29d9c052177b383a705a3a229c4101420eab42c1"


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
    report, rows = run_margin_campaign("c2", 3, 80)
    assert report.checked == rows.n.size == 78
    for rec in records(rows):
        assert rec.margin_c1 == pytest.approx(rec.c1_rhs - rec.f, abs=1e-12)
        assert rec.margin_c2 == pytest.approx(rec.f - rec.c2_lhs, abs=1e-12)
        assert rec.margin_thm == rec.f - rec.t_floor


def test_rows_audit_against_independent_count():
    rows = records(run_margin_campaign("theorem", 3, 400)[1])
    rng = random.Random(99)
    for rec in rng.sample(rows, max(1, len(rows) // 100)):
        assert rec.f == count_primes_open(rec.n**2, (rec.n + 1) ** 2)


def test_csv_schema():
    _, rows = run_margin_campaign("c2", 3, 10)
    text = margin_rows_csv(rows)
    lines = text.splitlines()
    assert lines[0] == MARGIN_CSV_COLUMNS
    assert len(lines) == 1 + rows.n.size
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "2"
    assert first[3] == f"{rows.delta[0]:.6f}"
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
    same_json = report_json(rep1) == report_json(rep3)  # named, so a failure does not diff two whole outputs
    same_csv = margin_rows_csv(recs1) == margin_rows_csv(recs3)
    assert same_json and same_csv


def test_checkpoint_resume_equivalence(tmp_path):
    ck = tmp_path / "ck.txt"
    full, _ = run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    assert len(lines) == 1 + 3  # header + three chunks of 512
    # simulate a kill: one complete chunk survives plus a torn line
    ck.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40])
    resumed, _ = run_margin_campaign("theorem", 3, 1200, checkpoint_path=str(ck), resume=True)
    same_json = report_json(full) == report_json(resumed)  # named, so a failure does not diff two whole outputs
    assert same_json


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
    same_json = report_json(resumed) == report_json(full)  # named, so a failure does not diff two whole outputs
    same_csv = margin_rows_csv(resumed_rows) == margin_rows_csv(full_rows)
    assert same_json and same_csv


def test_completed_checkpoint_skips_recomputation(tmp_path, monkeypatch):
    ck = tmp_path / "ck.txt"
    full, _ = run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck))
    import primesq.verify as v

    def boom(args):
        raise AssertionError("chunk recomputed on a completed checkpoint")

    monkeypatch.setattr(v, "_counts_job", boom)
    again, _ = run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck), resume=True)
    same_json = report_json(full) == report_json(again)  # named, so a failure does not diff two whole outputs
    assert same_json


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
    same_json = report_json(resumed) == report_json(full)  # named, so a failure does not diff two whole outputs
    same_csv = margin_rows_csv(rows) == margin_rows_csv(full_rows)
    assert same_json and same_csv
    assert ck.read_bytes() == whole.read_bytes()


def _logged_seeds(monkeypatch, log):
    """Make each combinatorial pi a campaign seeds, in this process or a forked
    worker, append its pid and x to the file log; return the function that
    reads back the (pid, x) logged since its last call."""
    import primesq.counting as counting

    real = counting.pi_exact

    def counted(x, method="combinatorial"):
        with open(log, "a", encoding="utf-8") as fh:  # forked workers log here too
            fh.write(f"{os.getpid()} {x}\n")
        return real(x, method)

    monkeypatch.setattr(counting, "pi_exact", counted)
    monkeypatch.setattr(v, "pi_exact", counted)
    log.write_text("")

    def calls():
        got = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        log.write_text("")
        return got

    return calls


def _worker_seeds(calls) -> list[int]:
    """The x of calls, which must all have run in forked workers, sorted, as workers finish in any order."""
    assert os.getpid() not in {pid for pid, _ in calls}
    return sorted(x for _, x in calls)


def test_one_pi_seed_per_campaign(tmp_path, monkeypatch):
    calls = _logged_seeds(monkeypatch, tmp_path / "seeds.txt")

    def seeds_of(run, *args, workers, **kwargs):
        calls()
        run(*args, workers=workers, **kwargs)
        return [x for _, x in calls()] if workers == 1 else _worker_seeds(calls())

    ck = tmp_path / "ck.txt"
    for workers in (1, 2):
        run = functools.partial(seeds_of, run_margin_campaign, "c2", 3, 2000, workers=workers,
                                checkpoint_path=str(ck))
        assert run() == [9, 2001**2]
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:3]) + "\n")  # two of four chunks
        # partial and complete resumes alike are anchored at from and to + 1
        assert run(resume=True) == [9, 2001**2]
        assert run(resume=True) == [9, 2001**2]
        assert seeds_of(verify_lemmas, 3, 1100, workers=workers) == [9, 1101**2]
        assert seeds_of(run_margin_campaign, "c2", 3, 500, workers=workers) == [9, 501**2]  # one chunk


def test_one_worker_campaign_runs_its_jobs_in_job_order(monkeypatch):
    calls, real_pi, real_job = [], v.pi_exact, v._counts_job

    def seed(x, method):
        calls.append(("seed", x))
        return real_pi(x, method)

    def job(chunk):
        calls.append(("counts", chunk))
        return real_job(chunk)

    monkeypatch.setattr(v, "pi_exact", seed)
    monkeypatch.setattr(v, "_counts_job", job)
    run_margin_campaign("c2", 3, 1500)  # three chunks, run in this process as the workers run them
    assert calls == [("seed", 9), ("seed", 1501**2), ("counts", (3, 514)), ("counts", (515, 1026)),
                     ("counts", (1027, 1500))]


def _off_by_one_job(chunk):
    """The chunk's window counts, with the last count of 3..1100 raised by one."""
    counts = _window_counts(*chunk)
    if chunk[1] == 1100:  # last of the three chunks of 3..1100
        counts[-1] += 1
    return counts


def test_campaign_sum_checked_against_combinatorial_pi(monkeypatch, capsys):
    import primesq.verify as v
    from primesq import cli

    monkeypatch.setattr(v, "_counts_job", _off_by_one_job)
    for workers in (1, 2):
        with pytest.raises(RuntimeError, match="combinatorial"):
            run_margin_campaign("c2", 3, 1100, workers=workers)
        assert cli.main(["verify", "c2", "--from", "3", "--to", "1100", "--workers", str(workers)]) == 3
        err = capsys.readouterr().err
        assert "RuntimeError" in err and err.count("\n") == 1
        assert multiprocessing.active_children() == []


def _refused_second_chunk_job(chunk):
    """The chunk's window counts, but DomainError for the second chunk of 3..2000."""
    if chunk[0] == 515:
        raise DomainError("no counts at 515")
    return _window_counts(*chunk)


def test_worker_domain_error_exits_2(monkeypatch, capsys):
    from primesq import cli

    monkeypatch.setattr(v, "_counts_job", _refused_second_chunk_job)
    with pytest.raises(DomainError, match="^no counts at 515$"):  # raised again with its own type
        run_margin_campaign("c2", 3, 2000, workers=2)
    assert cli.main(["verify", "c2", "--from", "3", "--to", "2000", "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "primesq: error: no counts at 515\n"
    assert multiprocessing.active_children() == []


_TEST_PID = os.getpid()


def _killed_on_third_chunk_job(chunk):
    """The chunk's window counts, but the third chunk of 3..2000 sends SIGKILL
    to the worker counting it."""
    if chunk[0] == 1027:
        assert os.getpid() != _TEST_PID, "the job ran in the test process"
        os.kill(os.getpid(), signal.SIGKILL)
    return _window_counts(*chunk)


def test_worker_killed_mid_campaign_exits_3(tmp_path, monkeypatch, capsys):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "2000", "--workers", "2", "--checkpoint", str(ck)]
    assert cli.main(argv) == 0
    whole = ck.read_text().splitlines()
    capsys.readouterr()
    # jobs: two seeds, then four chunks; the third chunk is job 4, on worker 1 of 2
    monkeypatch.setattr(v, "_counts_job", _killed_on_third_chunk_job)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "RuntimeError: campaign worker 1 of 2 died before finishing job 4\n" in captured.err
    assert ck.read_text().splitlines() == whole[:3]  # the header and the two chunks before that job
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_from, n_to", [(3, 500), (700000, 700001)])
def test_one_chunk_campaign_same_bytes_on_the_pool(tmp_path, capsys, n_from, n_to):
    from primesq import cli

    out = {}
    for workers in (1, 2):
        ck = tmp_path / f"ck{workers}.txt"
        argv = ["verify", "c2", "--from", str(n_from), "--to", str(n_to), "--workers", str(workers),
                "--checkpoint", str(ck), "--format", "csv"]
        assert cli.main(argv) == 0
        out[workers] = (capsys.readouterr().out, ck.read_bytes())
    same_bytes = out[1] == out[2]  # named, so a failure does not diff two whole outputs
    assert same_bytes


def test_lemma_chunks_read_the_running_sum_once(monkeypatch):
    import primesq.analytic as analytic

    terms, real_r = [], analytic._r

    def counted(log, n):
        terms.append(n.tolist())
        return real_r(log, n)

    monkeypatch.setattr(analytic, "_block_starts", analytic._block_starts[:1])
    analytic._block_prefix.cache_clear()
    monkeypatch.setattr(analytic, "_r", counted)
    verify_lemmas(3, 2000)  # four chunks, every n in block 0 of the running sum
    assert terms == [list(range(3, 3 + analytic.SUM_R_BLOCK))]


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
def test_lemma_rows_read_the_sum_once(monkeypatch, strict):
    import primesq.analytic as analytic

    # a chunk across the block edge at k = 999427, counts around lemma 2's left side
    ns = np.arange(998976, 999488, dtype=np.int64)
    pis = np.floor(analytic.lemma2_lhs(ns).value).astype(np.int64) + np.resize([-1, 0, 1, 2, 1000], ns.size)
    want = _scalar_lemma_rows(ns, pis, strict)
    reads, passes = [], []
    real_r_sum, real_lemma = analytic._r_sum, analytic._lemma

    def counted_r_sum(n, precision):
        reads.append(isinstance(n, np.ndarray))
        return real_r_sum(n, precision)

    def counted_lemma(log, n, precision):
        def counted_log(x):
            passes.append(isinstance(x, np.ndarray) and np.array_equal(x, ns))
            return log(x)

        return real_lemma(counted_log, n, precision)

    monkeypatch.setattr(analytic, "_r_sum", counted_r_sum)
    monkeypatch.setattr(analytic, "_lemma", counted_lemma)
    got = v._lemma_rows(ns, np.zeros_like(ns), pis, strict)
    assert reads.count(True) == 1 and passes.count(True) == 1
    assert _bits(got) == _bits(want)
    assert {v.CLS_PASS, v.CLS_VIOLATION} <= {r.cls_l2 for r in want}


@pytest.mark.parametrize("precision", ["fast", "strict"])
def test_margin_campaigns_never_read_the_running_sum(monkeypatch, precision):
    import primesq.analytic as analytic

    def no_read(n, precision):
        raise AssertionError("a margin campaign read the running sum of r(k)")

    monkeypatch.setattr(analytic, "_r_sum", no_read)
    for target in v.MARGIN_TARGETS:
        run_margin_campaign(target, 5, 1100, precision_mode=precision)


def test_checkpoint_campaign_mismatch(tmp_path):
    ck = tmp_path / "ck.txt"
    run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck))
    with pytest.raises(DomainError, match="different range"):
        run_margin_campaign("c2", 3, 700, checkpoint_path=str(ck), resume=True)
    # a checkpoint holds only its range's counts, so another target resumes it
    want = run_margin_campaign("theorem", 3, 600)[0]
    got = run_margin_campaign("theorem", 3, 600, checkpoint_path=str(ck), resume=True)[0]
    assert report_json(got) == report_json(want)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(chunk_size=256), "has header field chunk_size = 256, this primesq writes 512$"),
    (lambda h: h.update(note="x"), 'has header field note = "x", this primesq writes null$'),
    (lambda h: h.pop("chunk_size"), "has header field chunk_size = null, this primesq writes 512$"),
    (lambda h: h.clear() or h.update(a=1), "is not a primesq checkpoint$"),
], ids=["chunk-size", "extra-field", "missing-field", "not-primesq"])
def test_checkpoint_header_mismatch_names_the_field(tmp_path, edit, message):
    ck = tmp_path / "ck.txt"
    run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    ck.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(DomainError, match=message):
        run_margin_campaign("c2", 3, 600, checkpoint_path=str(ck), resume=True)


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


def _blur_double_bounds(monkeypatch) -> None:
    """Scale every double-precision error bound that rows, floors and the running
    sum of r(k) read to 2^100 times its error scale; the 160-bit bounds, which
    carry the double terms' bound of that sum, stay as they are."""
    import primesq.analytic as analytic

    bounded = analytic._bounded

    def blurred(val, scale, precision):
        if precision != "double":
            return bounded(val, scale, precision)
        return RealEval(val, scale * 2.0 ** 100, precision)

    monkeypatch.setattr(analytic, "_bounded", blurred)


def test_strict_re_evaluates_every_boundary(monkeypatch):
    import primesq.analytic as analytic

    # blur every double-precision error bound, and let no tier clear a floor,
    # so every floor climbs to quad and is flagged
    _blur_double_bounds(monkeypatch)
    monkeypatch.setattr(analytic, "BOUNDARY_DIST", 1.0)
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


def test_strict_re_evaluates_every_dusart_boundary(monkeypatch):
    import primesq.analytic as analytic
    from primesq import cli

    samples = cli.DEFAULT_DUSART_SAMPLES
    _blur_double_bounds(monkeypatch)  # every default sample's double margins lie within their bounds
    assert verify_dusart(samples).boundary_cases == samples
    assert verify_dusart(samples, precision_mode="strict").boundary_cases == []
    assert cli.main(["verify", "dusart", "--precision", "strict"]) == 0
    # report all passes its precision on too; its other reports over a short range, and no c3 row
    monkeypatch.setattr(cli, "DEFAULT_RANGES", dict.fromkeys(cli.DEFAULT_RANGES, (180, 200)))
    monkeypatch.setattr(cli, "DEFAULT_C3_NS", [])
    assert cli.main(["report", "all", "--precision", "strict"]) == 0
    blurred = analytic._bounded  # and now the 160-bit bounds too
    monkeypatch.setattr(analytic, "_bounded",
                        lambda val, scale, precision: blurred(val, scale * 2.0**200, precision))
    assert verify_dusart(samples, precision_mode="strict").boundary_cases == samples
    assert cli.main(["verify", "dusart", "--precision", "strict"]) == 1


def _bits(rows) -> list[tuple]:
    """Rows, or the rows of a column block, with every float as its hex digits and
    every other field tagged with its type."""
    if isinstance(rows, tuple):  # a column block: a row type holding one array per field
        rows = records(rows)
    return [tuple(x.hex() if type(x) is float else (type(x).__name__, x) for x in row) for row in rows]


@functools.cache
def _chunk(n_from: int, n_to: int):
    """n, f(n) and pi(n^2) over [n_from, n_to], as int64 arrays, as a campaign builds them."""
    ns = np.arange(n_from, n_to + 1, dtype=np.int64)
    fs = _window_counts(n_from, n_to)
    return ns, fs, pi_exact(n_from * n_from, "combinatorial") + np.cumsum(fs) - fs


def _scalar_margin_rows(ns, fs, pis, strict):
    return [margin_row(n, f, pi, strict) for n, f, pi in zip(ns.tolist(), fs.tolist(), pis.tolist())]


def _scalar_lemma_rows(ns, pis, strict):
    return [lemma_row(n, pi, strict) for n, pi in zip(ns.tolist(), pis.tolist())]


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
def test_margin_rows_match_scalar_rows(strict):
    ns, fs, pis = _chunk(3, 20000)
    off = fs.copy()  # counts far below and above the bounds, so every check also fails somewhere
    off[::7] = 0
    off[3::11] += 1000
    for counts in (fs, off):
        want = _scalar_margin_rows(ns, counts, pis, strict)
        assert _bits(v._margin_rows(ns, counts, pis, strict)) == _bits(want)
    assert {v.CLS_PASS, v.CLS_VIOLATION} <= {r.cls_c1 for r in want} & {r.cls_c2 for r in want} \
        & {r.cls_thm for r in want}


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
def test_lemma_rows_match_scalar_rows(strict):
    import primesq.analytic as analytic

    ns, fs, pis = _chunk(3, 2000)
    (lhs, rhs), (plhs, prhs) = analytic.lemma1_sides(ns), analytic.lemma1_proof_sides(ns)
    display, proof = rhs.value - lhs.value, plhs.value - prhs.value
    assert (display < proof).any() and (proof < display).any()  # so margin_l1 reads all four sides
    want = _scalar_lemma_rows(ns, pis, strict)
    assert _bits(v._lemma_rows(ns, fs, pis, strict)) == _bits(want)
    assert want[0].cls_l2 == v.CLS_BOUNDARY  # the exact tie at n = 3, judged at quad too under strict
    want = _scalar_lemma_rows(ns, pis // 2, strict)  # counts far too low for lemma 2
    assert _bits(v._lemma_rows(ns, fs, pis // 2, strict)) == _bits(want)
    assert v.CLS_VIOLATION in {r.cls_l2 for r in want}


def test_rows_match_scalar_rows_when_every_floor_escalates(monkeypatch):
    import primesq.analytic as analytic

    ns, fs, pis = _chunk(3, 3000)
    monkeypatch.setattr(analytic, "ESCALATE_DIST", 1.0)  # the double tier decides no floor
    want = _scalar_margin_rows(ns, fs, pis, True)
    assert _bits(v._margin_rows(ns, fs, pis, True)) == _bits(want)
    monkeypatch.setattr(analytic, "BOUNDARY_DIST", 1.0)  # and no tier does, so each is flagged
    ns, fs, pis = ns[:300], fs[:300], pis[:300]
    for strict in (False, True):
        want = _scalar_margin_rows(ns, fs, pis, strict)
        assert _bits(v._margin_rows(ns, fs, pis, strict)) == _bits(want)
        assert all(r.boundary_flag == 1 and (r.cls_thm == v.CLS_BOUNDARY) == strict for r in want)


def test_rows_match_scalar_rows_when_every_margin_is_boundary(monkeypatch):
    _blur_double_bounds(monkeypatch)
    ns, fs, pis = _chunk(3, 400)
    for strict in (False, True):
        want = _scalar_margin_rows(ns, fs, pis, strict)
        assert _bits(v._margin_rows(ns, fs, pis, strict)) == _bits(want)
        assert {r.cls_c2 for r in want} == {v.CLS_PASS if strict else v.CLS_BOUNDARY}
    ns, fs, pis = ns[:148], fs[:148], pis[:148]
    for strict in (False, True):
        want = _scalar_lemma_rows(ns, pis, strict)
        assert _bits(v._lemma_rows(ns, fs, pis, strict)) == _bits(want)
        assert {r.cls_l1 for r in want} == {v.CLS_PASS if strict else v.CLS_BOUNDARY}


def test_campaign_pool_capped_at_chunks_left(monkeypatch, tmp_path):
    import multiprocessing.context

    import primesq.workers

    started, real_start = [], multiprocessing.context.ForkProcess.start
    log, real_setup = tmp_path / "setup.txt", primesq.workers._worker_setup
    log.write_text("")

    def start(proc):
        started.append(proc)
        real_start(proc)

    def setup():
        with open(log, "a", encoding="utf-8") as fh:  # written by each forked worker
            fh.write(f"{os.getpid()}\n")
        real_setup()

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)  # what the campaign's workers are
    monkeypatch.setattr(primesq.workers, "_worker_setup", setup)
    monkeypatch.setattr(v, "CHUNK_SIZE", 4)
    report, _ = run_margin_campaign("c2", 3, 22, workers=64)  # five chunks and two seeds
    assert len(started) == 7 and {p.exitcode for p in started} == {0}
    assert sorted(map(int, log.read_text().split())) == sorted(p.pid for p in started)  # each set up once
    assert report.checked == 20 and report.violations == []


def test_pin_malloc_serves_large_temporaries_from_the_heap():
    import ctypes
    import subprocess
    import sys
    import textwrap

    import primesq

    try:
        ctypes.CDLL("libc.so.6").mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc 2.33 or later")
    # in a child process, so the test run's own malloc state is left alone
    code = textwrap.dedent("""
        import ctypes, numpy as np
        from primesq.workers import _worker_setup
        class Info(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
        libc = ctypes.CDLL("libc.so.6")
        libc.mallinfo2.restype = Info
        def mapped_while_alive(size):
            a = np.ones(size // 8)
            return libc.mallinfo2().hblkhd - base
        base = libc.mallinfo2().hblkhd
        print(mapped_while_alive(16 << 20) >= 16 << 20)  # above the default threshold: mapped
        _worker_setup()
        print(mapped_while_alive(24 << 20) < 1 << 20)  # above the risen threshold, below 32 MiB: the heap
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(primesq.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["True", "True"], done.stderr


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
    if workers == 2:  # resume with two chunks left to count
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
    with pytest.raises(RuntimeError, match="2 of its 3 chunks came from checkpoint .* without --resume$"):
        verify_lemmas(3, 1100, checkpoint_path=ck, resume=True)


def _no_counts_job(chunk):
    """A campaign job that fails the test if any window is counted."""
    raise AssertionError(f"a campaign counted the windows of {chunk}")


def _forbid_counting(monkeypatch):
    """Make any window count of a campaign fail the test; seeds still run."""
    monkeypatch.setattr(v, "_counts_job", _no_counts_job)


def _raised_f(line: str, row: int = 5) -> str:
    """A checkpoint record with one f(n) raised by one: the counts no longer
    sum to the combinatorial pi((to+1)^2)."""
    rec = json.loads(line)
    rec["f"][row] += 1
    return json.dumps(rec)


def test_partial_resume_requires_chained_chunks(tmp_path):
    ck = tmp_path / "ck.txt"
    full, _ = run_margin_campaign("c2", 3, 1100, checkpoint_path=str(ck))
    header, first, second, _ = ck.read_text().splitlines()
    ck.write_text("\n".join([header, first, _raised_f(second)]) + "\n")
    # the loaded counts face the same end check as counted ones, and the message names them
    hint = f"2 of its 3 chunks came from checkpoint {ck}, run the campaign again without --resume"
    with pytest.raises(RuntimeError, match=re.escape(hint) + "$"):
        run_margin_campaign("c2", 3, 1100, checkpoint_path=str(ck), resume=True)
    ck.write_text("\n".join([header, first, second]) + "\n")
    resumed, _ = run_margin_campaign("c2", 3, 1100, checkpoint_path=str(ck), resume=True)
    same_json = report_json(resumed) == report_json(full)  # named, so a failure does not diff two whole outputs
    assert same_json


def test_unchained_partial_resume_exits_3_on_the_pool(tmp_path):
    import subprocess
    import sys

    import primesq

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "1600", "--workers", "2", "--checkpoint", str(ck),
            "--format", "csv"]
    run_margin_campaign("c2", 3, 1600, checkpoint_path=str(ck))
    header, first, second, *_ = ck.read_text().splitlines()
    ck.write_text("\n".join([header, first, _raised_f(second)]) + "\n")  # two of four chunks left
    # in a child process, so workers that never exit fail the test instead of hanging it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(primesq.__file__)))
    done = subprocess.run([sys.executable, "-m", "primesq", *argv, "--resume"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stdout == "" and "without --resume" in done.stderr and done.stderr.count("\n") == 1


# checkpoint edits: (chunk, row) whose f to raise by one
_CHAIN_EDITS = {
    "0-f": (0, 5),
    "1-f": (1, 5),
    "2-f": (2, 5),
    "2-last-f": (2, -1),  # f(1100), the last count
}


@pytest.mark.parametrize("target, chunk, row", [
    pytest.param(target, *edit, id=name if target == "c2" else f"{target}-{name}")
    for target in ("c2", "lemmas") for name, edit in _CHAIN_EDITS.items()
])
def test_complete_resume_checks_its_chain(tmp_path, capsys, target, chunk, row):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    argv = ["verify", target, "--from", "3", "--to", "1100", "--checkpoint", str(ck),
            "--format", "csv" if target == "c2" else "json"]
    assert cli.main(argv) == 0
    good = capsys.readouterr().out
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:1 + chunk] + [_raised_f(lines[1 + chunk], row)] + lines[2 + chunk:]) + "\n")
    assert cli.main(argv + ["--resume"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "RuntimeError" in captured.err and captured.err.count("\n") == 1
    assert "3 of its 3 chunks came from checkpoint" in captured.err
    ck.write_text("\n".join(lines) + "\n")
    assert cli.main(argv + ["--resume"]) == 0
    fresh_bytes = capsys.readouterr().out == good  # named, so a failure does not diff two whole outputs
    assert fresh_bytes


def _edited_record(edit):
    """A malform that applies edit to the record on a checkpoint line."""
    def malform(line: str) -> str:
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec)
    return malform


def _set(key: str, i: int, value):
    return _edited_record(lambda rec: rec[key].__setitem__(i, value))


@pytest.mark.parametrize("at, malform", [
    pytest.param(0, lambda line: "[]", id="header-not-an-object"),
    pytest.param(1, lambda line: "42", id="record-not-an-object"),
    pytest.param(1, _edited_record(lambda rec: rec["f"].pop()), id="chunk-one-row-short"),
    pytest.param(1, _set("f", 1, "x"), id="row-with-a-string"),
    pytest.param(1, _set("f", 5, 4.0), id="f-with-a-float"),  # f(8) = 4 written as 4.0
    pytest.param(1, _set("f", 0, True), id="f-with-a-bool"),
    pytest.param(1, _set("f", 0, 2**63), id="f-beyond-int64"),
    pytest.param(1, _set("f", 0, -1), id="negative-f"),
    pytest.param(1, _edited_record(lambda rec: rec.pop("f")), id="record-without-f"),
    pytest.param(None, b"\xff\xfe{}\n", id="not-utf-8"),  # the whole file
    pytest.param(None, b"my notes\n", id="not-a-checkpoint"),
    pytest.param(0, _edited_record(lambda rec: rec.update(chunk_size=256)), id="other-chunk-size"),
    pytest.param(0, lambda line: '{"a": 1}', id="header-not-primesq"),
])
def test_malformed_checkpoint_exits_2(tmp_path, capsys, at, malform):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "1100", "--checkpoint", str(ck), "--format", "csv"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    if at is None:
        ck.write_bytes(malform)
    else:
        lines = ck.read_text().splitlines()
        lines[at] = malform(lines[at])
        ck.write_text("\n".join(lines) + "\n")
    before = ck.read_bytes()
    assert cli.main(argv + ["--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("primesq: error: checkpoint " + str(ck)) and captured.err.count("\n") == 1
    assert ck.read_bytes() == before


def _as_version(lines: list[str], version: int) -> list[str]:
    """A `verify c2` checkpoint's lines as an older format version wrote them.
    Versions 2 and 3 also held each chunk's running pi(n^2) as `pi_n2`; version 2
    also named the command and the precision in its header, and each record's
    chunk_end and pi_at_start."""
    header = json.loads(lines[0])
    if version == 1:
        return [json.dumps({**header, "version": 1}), *lines[1:]]
    out = [json.dumps({**header, "version": 3}) if version == 3 else
           json.dumps({"format": header["format"], "version": 2, "command": "verify c2", "from": header["from"],
                       "to": header["to"], "chunk_size": header["chunk_size"], "precision": "fast"})]
    pi = pi_exact(header["from"] ** 2, "combinatorial")
    for line in lines[1:]:
        rec = json.loads(line)
        start, fs = rec["chunk_start"], rec["f"]
        pis = (pi + np.cumsum(fs) - fs).tolist()
        pi = pis[-1] + fs[-1]
        out.append(json.dumps({"chunk_start": start, "f": fs, "pi_n2": pis} if version == 3 else
                              {"chunk_start": start, "chunk_end": start + len(fs) - 1, "pi_at_start": pis[0],
                               "f": fs, "pi_n2": pis}))
    return out


@pytest.mark.parametrize("version", [1, 2, 3], ids=["version-1", "version-2", "version-3"])
def test_older_checkpoint_version_exits_2(tmp_path, capsys, version):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "1100", "--checkpoint", str(ck)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    ck.write_text("\n".join(_as_version(ck.read_text().splitlines(), version)) + "\n")
    before = ck.read_bytes()
    if version > 1:  # the bytes that version wrote for this campaign
        want = {2: VERSION_2_C2_CHECKPOINT, 3: VERSION_3_C2_CHECKPOINT}[version]
        assert hashlib.sha256(before).hexdigest() == want
    assert cli.main(argv + ["--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("primesq: error: checkpoint " + str(ck))
    assert f"version {version}" in captured.err and "version 4" in captured.err
    assert "without --resume" in captured.err
    assert ck.read_bytes() == before


def test_one_checkpoint_serves_every_target(tmp_path, capsys, monkeypatch):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    span = ["--from", "5", "--to", "1600", "--workers", "2"]  # four chunks
    assert cli.main(["verify", "c2", *span, "--checkpoint", str(ck), "--format", "csv"]) == 0
    whole = ck.read_bytes()
    runs = [["verify", "c1", *span, "--format", "csv"],
            ["verify", "theorem", *span, "--format", "json"],
            ["verify", "implication", *span, "--precision", "strict", "--format", "csv"],
            ["verify", "lemmas", *span, "--format", "json"]]
    fresh = []
    for argv in runs:
        capsys.readouterr()
        assert cli.main(argv) == 0
        fresh.append(capsys.readouterr().out)
    _forbid_counting(monkeypatch)
    seeds = _logged_seeds(monkeypatch, tmp_path / "seeds.txt")
    for argv, want in zip(runs, fresh):
        assert cli.main([*argv, "--checkpoint", str(ck), "--resume"]) == 0
        fresh_bytes = capsys.readouterr().out == want  # named, so a failure does not diff two whole outputs
        assert fresh_bytes
        assert _worker_seeds(seeds()) == [25, 1601**2]  # a complete resume counts nothing, but seeds
    assert ck.read_bytes() == whole
    monkeypatch.undo()
    # two of four chunks: the lemma campaign counts only the other two
    real_job, jobs = v._counts_job, []

    def job(chunk):
        jobs.append(chunk)
        return real_job(chunk)

    monkeypatch.setattr(v, "_counts_job", job)
    ck.write_bytes(b"".join(whole.splitlines(keepends=True)[:3]))
    lemmas = ["verify", "lemmas", "--from", "5", "--to", "1600", "--format", "json"]  # job runs here
    assert cli.main([*lemmas, "--checkpoint", str(ck), "--resume"]) == 0
    fresh_bytes = capsys.readouterr().out == fresh[-1]  # named, so a failure does not diff two whole outputs
    assert fresh_bytes
    assert jobs == [(1029, 1540), (1541, 1600)]
    assert ck.read_bytes() == whole


def test_complete_resume_leaves_the_checkpoint_alone(tmp_path, capsys):
    from primesq import cli

    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "3", "--to", "1100", "--checkpoint", str(ck), "--format", "csv"]
    assert cli.main(argv) == 0
    good = capsys.readouterr().out
    os.utime(ck, ns=(10**18, 10**18))  # a stamp no rewrite could leave behind
    before = ck.read_bytes()
    assert cli.main(argv + ["--resume"]) == 0
    fresh_bytes = capsys.readouterr().out == good  # named, so a failure does not diff two whole outputs
    assert fresh_bytes
    assert ck.read_bytes() == before and ck.stat().st_mtime_ns == 10**18
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]


@pytest.mark.parametrize("margins, cls, want", [
    ([2.0, 1.0, 1.0, 5.0], [0, 0, 0, 0], (1.0, 4)),  # a tie: the first n wins
    ([0.0, -0.0, 1.0], [0, 0, 0], (0.0, 3)),
    ([-0.0, 0.0, 1.0], [0, 0, 0], (-0.0, 3)),
    ([-5.0, 0.5, -7.0, 0.5], [1, 0, 2, 0], (0.5, 4)),  # violations and boundaries have no say
    ([1.0, 2.0, 3.0], [1, 2, 1], (None, None)),  # no passes
    ([], [], (None, None)),
])
def test_fold_matches_row_fold(margins, cls, want):
    # reports are compared by repr, which tells -0.0 from 0.0 and a numpy scalar from a Python one
    ns = np.arange(3, 3 + len(margins), dtype=np.int64)
    got = v._fold("c2", 3, 9, ns, np.array(margins, dtype=float), np.array(cls, dtype=np.int64), "note")
    items = zip(ns.tolist(), margins, cls)
    assert repr(got) == repr(fold_items("c2", 3, 9, items, "note"))
    assert (got.min_margin, got.argmin_n) == want
    if want[0] is not None:
        assert math.copysign(1.0, got.min_margin) == math.copysign(1.0, want[0])


def _random_margin_block(rng, size: int, pass_share: float) -> v.MarginRecord:
    """A column block of margin rows with random classes and boundary flags, reals
    from 1e-9 to 1e9 of either sign, margins drawn with ties and both signed zeros,
    and floors on both sides of f and of 0."""
    ns = np.arange(3, 3 + size, dtype=np.int64)
    fs = rng.integers(0, 40, size)
    tf = fs + rng.integers(-4, 3, size)
    tf[rng.random(size) < 0.3] -= 50
    pick = [-2.5, -0.0, 0.0, 0.0, 0.75, 0.75, 4.0]

    def classes():
        return np.where(rng.random(size) < pass_share, v.CLS_PASS,
                        rng.choice([v.CLS_VIOLATION, v.CLS_BOUNDARY], size))

    def reals():
        return rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-9, 10, size)

    return v.MarginRecord(ns, fs, np.cumsum(fs) - fs, reals(), reals(), reals(), tf,
                          rng.choice(pick, size), rng.choice(pick, size), fs - tf,
                          rng.integers(0, 2, size), classes(), classes(), classes())


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
def test_margin_folds_match_row_folds(strict):
    rng = np.random.default_rng(12)
    for size, pass_share in ((400, 0.9), (400, 0.5), (60, 0.0), (1, 1.0)):
        block = _random_margin_block(rng, size, pass_share)
        rows = records(block)
        last = 2 + size
        for target in v.MARGIN_TARGETS:
            for a, b in ((3, last), (3 + size // 3, last - size // 4), (last, last)):
                note = v._campaign_note(a, b, strict)
                got = v.fold_margin_report(target, a, b, block, strict)
                assert repr(got) == repr(margin_report(target, a, b, rows, note))


def test_margin_csv_matches_row_csv():
    rng = np.random.default_rng(7)
    for size, pass_share in ((400, 0.5), (1, 1.0), (0, 1.0)):
        block = _random_margin_block(rng, size, pass_share)
        assert margin_rows_csv(block) == margin_csv(records(block))


def test_far_campaign_csv_matches_row_csv(tmp_path, capsys):
    from primesq import cli

    want = margin_csv(records(run_margin_campaign("c2", 100355, 101378)[1]))
    ck = tmp_path / "ck.txt"
    argv = ["verify", "c2", "--from", "100355", "--to", "101378", "--format", "csv", "--checkpoint", str(ck)]
    for extra in (["--workers", "1"], ["--workers", "2"], ["--resume"]):  # the last resumes a complete one
        assert cli.main(argv + extra) == 0
        same_csv = capsys.readouterr().out == want  # named, so a failure does not diff two whole outputs
        assert same_csv


def test_lemma_folds_match_row_folds():
    rng = np.random.default_rng(5)
    size = 400
    ns = np.arange(3, 3 + size, dtype=np.int64)
    cls1, cls2 = (rng.choice([v.CLS_PASS] * 6 + [v.CLS_VIOLATION, v.CLS_BOUNDARY], size) for _ in range(2))
    m1, m2 = (rng.choice([-1.0, -0.0, 0.0, 2.0, 2.0], size) for _ in range(2))
    block = v.LemmaRecord(ns, ns, m1, cls1, m2, cls2)
    rep1, rep2 = v._lemma_reports(3, 2 + size, block, False)
    rows = records(block)
    note = v._campaign_note(3, 2 + size, False)
    below = sum(1 for r in rows if r.n < v.LEMMA2_MIN_N and r.cls_l2 != v.CLS_PASS)
    want1 = fold_items("lemma1", 3, 2 + size, ((r.n, r.margin_l1, r.cls_l1) for r in rows),
                       note + ";forms=display+proof")
    want2 = fold_items("lemma2", 3, 2 + size, ((r.n, r.margin_l2, r.cls_l2) for r in rows if r.n >= 180),
                       note + f";asserted_from=180;below_domain_failures={below}")
    assert (repr(rep1), repr(rep2)) == (repr(want1), repr(want2))


@pytest.mark.parametrize("precision", ["fast", "strict"])
def test_suite_reports_equal_separate_campaigns(monkeypatch, precision):
    ranges = {"c1": (5, 1100), "c2": (3, 700), "theorem": (40, 1100), "implication": (100, 900)}
    want = {t: v.run_margin_campaign(t, a, b, precision_mode=precision)[0] for t, (a, b) in ranges.items()}
    want["lemma1"], want["lemma2"] = verify_lemmas(3, 600, precision_mode=precision)

    def no_lemma_campaign(*args, **kwargs):
        raise AssertionError("the suite ran a lemma campaign")

    calls, real_run = [], v._run_chunked

    def counted_run(from_n, to_n, **kwargs):
        calls.append((from_n, to_n))
        return real_run(from_n, to_n, **kwargs)

    monkeypatch.setattr(v, "run_lemma_campaign", no_lemma_campaign)
    monkeypatch.setattr(v, "_run_chunked", counted_run)
    got = v.suite_reports(ranges, (3, 600), precision_mode=precision)
    assert calls == [(3, 1100)]  # one pass over the union of the ranges
    assert list(got) == [*ranges, "lemma1", "lemma2"]
    assert {t: repr(r) for t, r in got.items()} == {t: repr(r) for t, r in want.items()}


def test_lemma_checkpoint_resume_same_bytes(tmp_path):
    whole, ck = tmp_path / "whole.txt", tmp_path / "ck.txt"
    full = verify_lemmas(3, 1200, checkpoint_path=str(whole))
    lines = whole.read_text().splitlines()
    assert len(lines) == 1 + 3
    for keep in (1, 2, 4):  # header only, one chunk, every chunk
        ck.write_text("\n".join(lines[:keep]) + "\n")
        assert verify_lemmas(3, 1200, checkpoint_path=str(ck), resume=True) == full
        assert ck.read_bytes() == whole.read_bytes()
