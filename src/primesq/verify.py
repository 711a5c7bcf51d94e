"""Range campaigns over the conjecture, theorem, and lemma inequalities.

Campaigns split [from, to] into fixed chunks. Each chunk's windows f(n) are
counted, unless a checkpoint holds them; a checkpoint holds these counts and
nothing else. Every run, fresh, partial or complete, seeds the combinatorial
pi(from^2) and pi((to+1)^2); with more than one worker, the seeds and the
counts are jobs on forked workers. The campaign process sums f(n) from the
start seed in n-order, and that sum must end at the end seed, so campaigns
need (to+1)^2 <= COMBINATORIAL_MAX. Rows are built once from n, f(n) and
pi(n^2), counted or loaded alike, as pure functions of n into a column block
(one array per row field) by one margin_sides or _lemma_sides pass. So any
worker count and any resume point give bit-identical results, and one pass
over a range serves every report drawn from it: suite_reports folds the
margin reports and builds the lemma rows of `report all` from one margin
pass. Reports fold columns in n-order, never in completion order, and the
margin CSV formats them whole.

A checkpoint names only its range and chunk size, so every margin and lemma
target, at either precision, resumes a checkpoint of the same range. The
last chunk reaches the checkpoint only after the end check passes, and a
resume's loaded counts face the same check, so a checkpoint whose counts
miss either seed can never be resumed into rows. A complete resume counts
nothing and rewrites nothing.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .analytic import (
    DUSART_LOWER_MIN_X,
    RealEval,
    _lemma_sides,
    c1_rhs,
    c2_lhs,
    dusart_lower,
    dusart_upper,
    lemma1_sides,
    lemma2_lhs,
    margin_sides,
)
from .counting import COMBINATORIAL_MAX, _window_counts, pi_exact
from .errors import DomainError

CHUNK_SIZE = 512
CHECKPOINT_VERSION = 4
LEMMA2_MIN_N = 180

CLS_PASS, CLS_VIOLATION, CLS_BOUNDARY = 0, 1, 2

MARGIN_TARGETS = ("c1", "c2", "theorem", "implication")
MARGIN_CSV_COLUMNS = "n,f,pi_n2,delta,c1_rhs,c2_lhs,t_floor,margin_c1,margin_c2,margin_thm,boundary_flag"


@dataclass(frozen=True)
class ConjectureReport:
    target: str
    range: tuple[int, int]
    checked: int
    violations: list[int]
    boundary_cases: list[int]
    min_margin: float | None
    argmin_n: int | None
    runtime_note: str


class MarginRecord(NamedTuple):
    """Per-n audit row; margins are rhs-f (c1), f-lhs (c2), f-t_floor (thm).

    Campaigns hold rows as a column block, a MarginRecord of equal-length
    arrays, from which reports are folded and the CSV is formatted. A
    checkpoint stores only f; the other fields are rebuilt from it and the
    seeds on resume.
    """

    n: int
    f: int
    pi_n2: int
    delta: float
    c1_rhs: float
    c2_lhs: float
    t_floor: int
    margin_c1: float
    margin_c2: float
    margin_thm: int
    boundary_flag: int  # 0 or 1
    cls_c1: int
    cls_c2: int
    cls_thm: int


class LemmaRecord(NamedTuple):
    """Per-n lemma row, held in column blocks as MarginRecord is; margin_l1 is
    the tighter of the display and proof forms."""

    n: int
    pi_n2: int
    l1_lhs: float
    l1_rhs: float
    proof_lhs: float
    proof_rhs: float
    margin_l1: float
    cls_l1: int
    margin_l2: float
    cls_l2: int


def _excess(hi, lo) -> tuple[float, float]:
    """hi - lo and its error bound; each side is a RealEval or an exact integer."""
    hv, he = (hi.value, hi.abs_err) if isinstance(hi, RealEval) else (hi, 0.0)
    lv, le = (lo.value, lo.abs_err) if isinstance(lo, RealEval) else (lo, 0.0)
    return hv - lv, he + le


def _judge(margins, errs, strict: bool = False, at_quad=None) -> np.ndarray:
    """Class of each margin (a float or an array) within its error bound; under strict,
    each boundary i is judged again from at_quad(i), that margin and its error at quad."""
    cls = np.where(np.abs(margins) <= errs, CLS_BOUNDARY, np.where(margins > 0.0, CLS_PASS, CLS_VIOLATION))
    if strict:
        for i in np.flatnonzero(cls == CLS_BOUNDARY).tolist():
            cls[i] = _judge(*at_quad(i))
    return cls


# Row builders: the column block of the rows of n from n, f(n) and pi(n^2)
# as int64 arrays, each quantity evaluated over all of them at once.


def _margin_rows(ns: np.ndarray, fs: np.ndarray, pis: np.ndarray, strict: bool) -> MarginRecord:
    d, c1, c2, tf, bflag = margin_sides(ns)
    m1, m2, mt = c1.value - fs, fs - c2.value, fs - tf
    cls1 = _judge(m1, c1.abs_err, strict, lambda i: _excess(c1_rhs(int(ns[i]), "quad"), int(fs[i])))
    cls2 = _judge(m2, c2.abs_err, strict, lambda i: _excess(int(fs[i]), c2_lhs(int(ns[i]), "quad")))
    # under strict, a flagged floor argument is inconclusive at quad
    cls_thm = np.where(strict & bflag, CLS_BOUNDARY, np.where(mt >= 0, CLS_PASS, CLS_VIOLATION))
    return MarginRecord(ns, fs, pis, d.value, c1.value, c2.value, tf, m1, m2, mt, bflag.astype(np.int64),
                        cls1, cls2, cls_thm)


def _lemma_rows(ns: np.ndarray, fs: np.ndarray, pis: np.ndarray, strict: bool) -> LemmaRecord:
    lhs, rhs, plhs, prhs = _lemma_sides(ns)
    # the lemma holds only if both forms do; judge the tighter margin
    disp, proof = rhs.value - lhs.value, plhs.value - prhs.value
    display_tighter = disp <= proof
    m1 = np.where(display_tighter, disp, proof)
    e1 = np.where(display_tighter, rhs.abs_err + lhs.abs_err, plhs.abs_err + prhs.abs_err)
    cls1 = _judge(m1, e1, strict, lambda i: _excess(*reversed(lemma1_sides(int(ns[i]), "quad"))))
    m2 = pis - lhs.value
    cls2 = _judge(m2, lhs.abs_err, strict, lambda i: _excess(int(pis[i]), lemma2_lhs(int(ns[i]), "quad")))
    return LemmaRecord(ns, pis, lhs.value, rhs.value, plhs.value, np.full(ns.size, prhs.value),
                       m1, cls1, m2, cls2)


def _counts_job(chunk: tuple[int, int]) -> np.ndarray:
    """Worker job: the chunk's window counts f(n), nothing else."""
    return _window_counts(*chunk)


def _chunks(from_n: int, to_n: int) -> list[tuple[int, int]]:
    return [(s, min(s + CHUNK_SIZE - 1, to_n)) for s in range(from_n, to_n + 1, CHUNK_SIZE)]


# --- checkpoint file: one JSON line per chunk, in order; torn tails discarded -


def _mode_for(path: str) -> int:
    """The mode open(path, "w") leaves: the file's own, or 0o666 less the umask for a new one."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def write_atomic(path: str, text: str) -> None:
    """Replace the file at path with text, via a temp file in the same directory
    that takes the mode writing the file in place would leave."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".primesq-")
    except OSError as exc:  # name the caller's path, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), _mode_for(path))  # mkstemp creates it 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _checkpoint_header(from_n: int, to_n: int) -> dict:
    return {
        "format": "primesq-checkpoint",
        "version": CHECKPOINT_VERSION,
        "from": from_n,
        "to": to_n,
        "chunk_size": CHUNK_SIZE,
    }


def _count_column(values, size: int) -> np.ndarray | None:
    """values as an int64 array, or None unless it is a list of size counts: ints from 0 below 2^63."""
    listed = isinstance(values, list) and len(values) == size
    if listed and all(type(x) is int and 0 <= x < 2**63 for x in values):
        return np.array(values, dtype=np.int64)
    return None


def _load_checkpoint(path: str, header: dict, chunks: list[tuple[int, int]]) -> list[np.ndarray]:
    """The f of chunks[0], chunks[1], ... as int64 arrays, up to the first
    missing or torn record; [] for no file or an empty one. Any other header,
    or a record, not as written raises DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        found = json.loads(lines[0])
    except (FileNotFoundError, IndexError):  # no file, an empty one
        return []
    except ValueError:  # not UTF-8, or not JSON: write_atomic never tears a header
        raise DomainError(f"checkpoint {path} does not start with a JSON header") from None
    if not isinstance(found, dict):
        raise DomainError(f"checkpoint {path} has a header that is not a JSON object")
    if found.get("format") != header["format"]:
        raise DomainError(f"checkpoint {path} is not a primesq checkpoint")
    if found.get("version") != header["version"]:
        raise DomainError(f"checkpoint {path} has format version {found.get('version')}, this primesq reads "
                          f"version {header['version']}; run the campaign again without --resume")
    if (found.get("from"), found.get("to")) != (header["from"], header["to"]):
        raise DomainError(f"checkpoint {path} belongs to a different range "
                          f"({found.get('from')}..{found.get('to')})")
    if found != header:  # the range agrees: name the first field that does not
        key = next(k for k in {**header, **found} if k not in found or k not in header or found[k] != header[k])
        raise DomainError(f"checkpoint {path} has header field {key} = {json.dumps(found.get(key))}, "
                          f"this primesq writes {json.dumps(header.get(key))}")
    done: list[np.ndarray] = []
    for line, (start, end) in zip(lines[1:], chunks):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail from an interrupted write
        if not isinstance(rec, dict):
            raise DomainError(f"checkpoint {path} has a record that is not a JSON object")
        if rec.get("chunk_start") != start:
            break
        fs = _count_column(rec.get("f"), end - start + 1)
        if fs is None:
            raise DomainError(f"checkpoint {path}: the f of chunk {start} is not "
                              f"a list of {end - start + 1} counts (integers >= 0)")
        done.append(fs)
    return done


def _record_line(start: int, fs: np.ndarray) -> str:
    """A chunk's checkpoint line: its first n and its f as a JSON integer list."""
    return json.dumps({"chunk_start": start, "f": fs.tolist()}) + "\n"


def _checkpoint_writer(path: str | None, header: dict, chunks: list[tuple[int, int]], done: list[np.ndarray]):
    """Rewrite the checkpoint with header and the loaded chunks, and return the
    function that appends one chunk's record; without a path, nothing is written."""
    if path is None:
        return lambda start, fs: None
    write_atomic(path, json.dumps(header) + "\n" + "".join(map(_record_line, (s for s, _ in chunks), done)))

    def append(start: int, fs: np.ndarray) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_record_line(start, fs))

    return append


def _run_chunked(from_n: int, to_n: int, *, workers: int, checkpoint_path: str | None,
                 resume: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, f(n) and pi(n^2) over [from_n, to_n] as int64 arrays, in n-order.

    Fresh, partial and complete runs take one path: the f of the chunks the
    checkpoint holds are loaded, the windows of the rest are counted, and
    pi(n^2) is the combinatorial pi(from^2) plus the counts before n. The
    counts must sum to the combinatorial pi((to+1)^2). With workers > 1 both
    seeds, then the counts, are jobs on forked workers, so this process only
    sums the counts and checkpoints each counted chunk as soon as it reads its
    counts, the last one only once the sum equals the end seed. A complete
    resume counts nothing and leaves the checkpoint as it is.
    """
    if to_n < from_n:
        raise DomainError("need from <= to")
    if (to_n + 1) ** 2 > COMBINATORIAL_MAX:
        raise DomainError(f"campaigns need (to+1)^2 <= {COMBINATORIAL_MAX} (combinatorial pi range)")
    header = _checkpoint_header(from_n, to_n)
    chunks = _chunks(from_n, to_n)
    done = _load_checkpoint(checkpoint_path, header, chunks) if (checkpoint_path and resume) else []
    loaded, todo = len(done), chunks[len(done):]
    append = _checkpoint_writer(checkpoint_path if todo else None, header, chunks, done)
    seeds = (from_n**2, (to_n + 1) ** 2)
    jobs = [*(partial(pi_exact, x, "combinatorial") for x in seeds), *(partial(_counts_job, c) for c in todo)]
    if workers > 1:  # a one-worker campaign never loads the workers' code
        from .workers import forked
    with forked(jobs, workers) if workers > 1 else nullcontext() as results:
        if results is None:  # this process counts, then seeds
            start_seed, end_seed, counts = *jobs[:2], (job() for job in jobs[2:])
        else:  # the workers' results in job order: both seeds, then the counts
            start_seed, end_seed, counts = partial(int, next(results)), partial(int, next(results)), results
        for (s, e), chunk_f in zip(todo, counts):
            done.append(chunk_f)
            if e < to_n:  # the last chunk waits for the final check
                append(s, chunk_f)
        fs = np.concatenate(done)
        pis = start_seed() + np.cumsum(fs) - fs
        if (pi := int(pis[-1] + fs[-1])) != (end := end_seed()):
            hint = (f"; {loaded} of its {len(chunks)} chunks came from checkpoint {checkpoint_path}, "
                    f"run the campaign again without --resume" if loaded else "")
            raise RuntimeError(f"window counts sum to pi({to_n + 1}^2) = {pi}, "
                               f"the combinatorial pi gives {end}{hint}")
    append(chunks[-1][0], done[-1])
    return np.arange(from_n, to_n + 1, dtype=np.int64), fs, pis


# --- reports: one fold over the n, margin and class columns -----------------


def _campaign_note(from_n: int, to_n: int, strict: bool) -> str:
    return (f"chunks={len(_chunks(from_n, to_n))};chunk_size={CHUNK_SIZE};"
            f"precision={'strict' if strict else 'fast'}")


def _fold(target: str, from_n: int, to_n: int, ns: np.ndarray, margins: np.ndarray, cls: np.ndarray,
          note: str) -> ConjectureReport:
    """The report over rows given as n-ordered columns; the least margin among
    passes, at its first n."""
    passes = np.flatnonzero(cls == CLS_PASS)
    at = passes[np.argmin(margins[passes])] if passes.size else None
    return ConjectureReport(target, (from_n, to_n), ns.size, ns[cls == CLS_VIOLATION].tolist(),
                            ns[cls == CLS_BOUNDARY].tolist(), None if at is None else float(margins[at]),
                            None if at is None else int(ns[at]), note)


def fold_margin_report(target: str, from_n: int, to_n: int, rows: MarginRecord,
                       strict: bool) -> ConjectureReport:
    """The target's report over [from_n, to_n] from a column block of margin
    rows covering that range."""
    i, j = np.searchsorted(rows.n, (from_n, to_n + 1))
    r = MarginRecord(*(col[i:j] for col in rows))
    note = _campaign_note(from_n, to_n, strict)
    if target == "c1":
        return _fold(target, from_n, to_n, r.n, r.margin_c1, r.cls_c1, note)
    if target == "c2":
        return _fold(target, from_n, to_n, r.n, r.margin_c2, r.cls_c2, note)
    negative = r.n[r.t_floor < 0]
    note += f";last_negative_t_floor={negative[-1] if negative.size else 'none'}"
    cls = r.cls_thm
    if target == "implication":  # a c2 pass at n must force t_floor <= f
        undecided = (r.cls_c2 == CLS_BOUNDARY) | (r.cls_thm == CLS_BOUNDARY)
        forced = (r.cls_c2 == CLS_PASS) & (r.t_floor > r.f)
        cls = np.where(undecided, CLS_BOUNDARY, np.where(forced, CLS_VIOLATION, CLS_PASS))
    return _fold(target, from_n, to_n, r.n, r.margin_thm, cls, note)


def _strict_flag(precision_mode: str) -> bool:
    if precision_mode not in ("fast", "strict"):
        raise ValueError(f"unknown precision mode {precision_mode!r}")
    return precision_mode == "strict"


def run_margin_campaign(target: str, from_n: int, to_n: int, *, workers: int = 1,
                        precision_mode: str = "fast", checkpoint_path: str | None = None,
                        resume: bool = False) -> tuple[ConjectureReport, MarginRecord]:
    """The target's report over [from_n, to_n] and the column block of its rows."""
    if target not in MARGIN_TARGETS:
        raise ValueError(f"unknown target {target!r}")
    min_from = 5 if target == "c1" else 3
    if from_n < min_from:
        raise DomainError(f"{target} campaigns need from >= {min_from}")
    strict = _strict_flag(precision_mode)
    counts = _run_chunked(from_n, to_n, workers=workers, checkpoint_path=checkpoint_path, resume=resume)
    rows = _margin_rows(*counts, strict)
    return fold_margin_report(target, from_n, to_n, rows, strict), rows


def verify_conjecture(which: str, from_n: int, to_n: int, **kwargs) -> ConjectureReport:
    """Check one of the two strict inequalities over n = from..to."""
    if which not in ("c1", "c2"):
        raise ValueError("which must be 'c1' or 'c2'")
    return run_margin_campaign(which, from_n, to_n, **kwargs)[0]


def verify_theorem(from_n: int, to_n: int, **kwargs) -> ConjectureReport:
    """Check t_floor(n) <= f(n); the note carries the floor sign transition."""
    return run_margin_campaign("theorem", from_n, to_n, **kwargs)[0]


def implication_check(from_n: int, to_n: int, **kwargs) -> ConjectureReport:
    """Exactness witness: wherever c2 passes, the floor bound must hold too.

    Any violation here signals a precision bug, not a mathematical finding:
    floor(x) <= F follows from x < F + 1 whenever F is an integer.
    """
    return run_margin_campaign("implication", from_n, to_n, **kwargs)[0]


def _lemma_reports(from_n: int, to_n: int, rows: LemmaRecord,
                   strict: bool) -> tuple[ConjectureReport, ConjectureReport]:
    note = _campaign_note(from_n, to_n, strict)
    rep1 = _fold("lemma1", from_n, to_n, rows.n, rows.margin_l1, rows.cls_l1, note + ";forms=display+proof")
    asserted = rows.n >= LEMMA2_MIN_N
    below = np.count_nonzero(~asserted & (rows.cls_l2 != CLS_PASS))
    rep2 = _fold("lemma2", from_n, to_n, rows.n[asserted], rows.margin_l2[asserted], rows.cls_l2[asserted],
                 note + f";asserted_from={max(from_n, LEMMA2_MIN_N)};below_domain_failures={below}")
    return rep1, rep2


def run_lemma_campaign(from_n: int, to_n: int, *, workers: int = 1,
                       precision_mode: str = "fast", checkpoint_path: str | None = None,
                       resume: bool = False) -> tuple[ConjectureReport, ConjectureReport]:
    if from_n < 3:
        raise DomainError("lemma campaigns need from >= 3")
    strict = _strict_flag(precision_mode)
    counts = _run_chunked(from_n, to_n, workers=workers, checkpoint_path=checkpoint_path, resume=resume)
    return _lemma_reports(from_n, to_n, _lemma_rows(*counts, strict), strict)


def verify_lemmas(from_n: int, to_n: int, **kwargs) -> tuple[ConjectureReport, ConjectureReport]:
    """Check both lemma inequalities; the second is asserted from n = 180 only."""
    return run_lemma_campaign(from_n, to_n, **kwargs)


def suite_reports(margin_ranges: dict[str, tuple[int, int]], lemma_range: tuple[int, int], *,
                  workers: int = 1, precision_mode: str = "fast") -> dict[str, ConjectureReport]:
    """Each margin target's report over its range, then "lemma1" and "lemma2"
    over lemma_range, from one margin pass over the union of the ranges whose
    pi(n^2) the lemma rows read; rows are pure functions of n, so every report
    equals the one its own campaign gives."""
    spans = [*margin_ranges.values(), lemma_range]
    lo, hi = min(a for a, _ in spans), max(b for _, b in spans)
    rows = run_margin_campaign("c2", lo, hi, workers=workers, precision_mode=precision_mode)[1]
    strict = precision_mode == "strict"
    reports = {t: fold_margin_report(t, a, b, rows, strict) for t, (a, b) in margin_ranges.items()}
    a, b = lemma_range
    keep = slice(a - lo, b - lo + 1)
    lemma = _lemma_rows(rows.n[keep], rows.f[keep], rows.pi_n2[keep], strict)
    reports["lemma1"], reports["lemma2"] = _lemma_reports(a, b, lemma, strict)
    return reports


def verify_dusart(samples: list[int]) -> ConjectureReport:
    """Sandwich pi(x) between the explicit bounds at each sample where L(x)
    applies; U(x) applies from a larger x on.

    Each checked sample folds as its smaller applicable margin and its worse
    class, a violation ranking above a boundary.
    """
    if not samples:
        raise DomainError("need at least one sample")
    xs = sorted(set(int(x) for x in samples))
    ns = np.array([x for x in xs if x >= DUSART_LOWER_MIN_X], dtype=np.int64)
    margins, cls = np.empty(0), np.empty(0, dtype=np.int64)
    if ns.size:
        pis = np.array([pi_exact(x, "combinatorial") for x in ns.tolist()])
        (lower, _), (upper, upper_ok) = dusart_lower(ns), dusart_upper(ns)
        (m_lo, e_lo), (m_up, e_up) = _excess(pis, lower), _excess(upper, pis)
        c_lo, c_up = _judge(m_lo, e_lo), np.where(upper_ok, _judge(m_up, e_up), CLS_PASS)
        margins = np.where(upper_ok & (m_up < m_lo), m_up, m_lo)
        cls = np.where((c_lo == CLS_VIOLATION) | (c_up == CLS_VIOLATION), CLS_VIOLATION, np.maximum(c_lo, c_up))
    return _fold("dusart", xs[0], xs[-1], ns, margins, cls, f"samples={len(xs)};skipped={len(xs) - ns.size}")


# --- emission -----------------------------------------------------------------


def margin_rows_csv(rows: MarginRecord) -> str:
    """The margin CSV of a column block: each column formatted whole, reals to
    6 decimals and integers as they are, then zipped into lines."""
    real = "{:.6f}".format
    fields = (getattr(rows, name) for name in MARGIN_CSV_COLUMNS.split(","))
    cols = (map(real if col.dtype.kind == "f" else str, col.tolist()) for col in fields)
    return "\n".join([MARGIN_CSV_COLUMNS, *map(",".join, zip(*cols))]) + "\n"


def report_json(report: ConjectureReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


def reports_json(reports: dict[str, ConjectureReport | list]) -> str:
    payload = {key: asdict(value) if isinstance(value, ConjectureReport) else value
               for key, value in reports.items()}
    return json.dumps(payload, indent=2) + "\n"


def report_table(report: ConjectureReport) -> str:
    lines = [
        f"target      : {report.target}",
        f"range       : {report.range[0]} .. {report.range[1]}",
        f"checked     : {report.checked}",
        f"violations  : {len(report.violations)}"
        + (f"  {report.violations[:20]}" if report.violations else ""),
        f"boundary    : {len(report.boundary_cases)}"
        + (f"  {report.boundary_cases[:20]}" if report.boundary_cases else ""),
        f"min margin  : "
        + ("n/a" if report.min_margin is None else f"{report.min_margin:.6f} at n={report.argmin_n}"),
        f"note        : {report.runtime_note}",
    ]
    return "\n".join(lines) + "\n"
