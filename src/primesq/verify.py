"""Range campaigns over the conjecture, theorem, and lemma inequalities.

Campaigns split [from, to] into fixed chunks; every chunk seeds its own
pi(n^2), and every row is a pure function of n, so chunks may run in any
number of worker processes with bit-identical results, and one pass over a
range serves every report drawn from it. Reports fold rows in n-order only,
never in completion order.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .analytic import (
    c1_rhs,
    c2_lhs,
    delta,
    dusart_lower,
    dusart_upper,
    lemma1_proof_sides,
    lemma1_sides,
    lemma2_lhs,
    theorem_floor,
)
from .counting import pi_exact, stream_f
from .errors import DomainError

CHUNK_SIZE = 512
CHECKPOINT_VERSION = 1
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

    A checkpoint stores each row as the JSON array of its fields.
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
    boundary_flag: int  # 0 or 1, written as such in checkpoints
    cls_c1: int
    cls_c2: int
    cls_thm: int

    @property
    def margins(self) -> tuple[float, float, int]:
        return (self.margin_c1, self.margin_c2, self.margin_thm)


class LemmaRecord(NamedTuple):
    """Per-n lemma row; margin_l1 is the tighter of the display and proof forms."""

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


def _classify(margin: float, err: float) -> int:
    if abs(margin) <= err:
        return CLS_BOUNDARY
    return CLS_PASS if margin > 0.0 else CLS_VIOLATION


def _margin_chunk(start: int, end: int, strict: bool) -> list[MarginRecord]:
    rows = []
    for rec in stream_f(start, end):
        n, f = rec.n, rec.f
        d = delta(n)
        c1 = c1_rhs(n)
        c2 = c2_lhs(n)
        tf, bflag = theorem_floor(n)
        m1 = c1.value - f
        m2 = f - c2.value
        mt = f - tf
        cls1 = _classify(m1, c1.abs_err)
        cls2 = _classify(m2, c2.abs_err)
        if strict and cls1 == CLS_BOUNDARY:
            q = c1_rhs(n, "quad")
            cls1 = _classify(q.value - f, q.abs_err)
        if strict and cls2 == CLS_BOUNDARY:
            q = c2_lhs(n, "quad")
            cls2 = _classify(f - q.value, q.abs_err)
        if strict and bflag:
            cls_thm = CLS_BOUNDARY  # floor argument inconclusive at quad
        else:
            cls_thm = CLS_PASS if mt >= 0 else CLS_VIOLATION
        rows.append(MarginRecord(n, f, rec.pi_n2, d.value, c1.value, c2.value, tf,
                                 m1, m2, mt, 1 if bflag else 0, cls1, cls2, cls_thm))
    return rows


def _lemma_chunk(start: int, end: int, strict: bool) -> list[LemmaRecord]:
    rows = []
    for rec in stream_f(start, end):
        n = rec.n
        lhs, rhs = lemma1_sides(n)
        plhs, prhs = lemma1_proof_sides(n)
        m_disp = rhs.value - lhs.value
        m_proof = plhs.value - prhs.value
        e_disp = rhs.abs_err + lhs.abs_err
        e_proof = plhs.abs_err + prhs.abs_err
        # the lemma holds only if both forms do; report the tighter margin
        if m_disp <= m_proof:
            m1, cls1 = m_disp, _classify(m_disp, e_disp)
        else:
            m1, cls1 = m_proof, _classify(m_proof, e_proof)
        if strict and cls1 == CLS_BOUNDARY:
            qlhs, qrhs = lemma1_sides(n, "quad")
            cls1 = _classify(qrhs.value - qlhs.value, qrhs.abs_err + qlhs.abs_err)
        m2 = rec.pi_n2 - lhs.value
        cls2 = _classify(m2, lhs.abs_err)
        if strict and cls2 == CLS_BOUNDARY:
            q = lemma2_lhs(n, "quad")
            cls2 = _classify(rec.pi_n2 - q.value, q.abs_err)
        rows.append(LemmaRecord(n, rec.pi_n2, lhs.value, rhs.value, plhs.value, prhs.value,
                                m1, cls1, m2, cls2))
    return rows


# chunk kind -> (chunk function, row type)
_CHUNK_KINDS = {"margin": (_margin_chunk, MarginRecord), "lemma": (_lemma_chunk, LemmaRecord)}


def _chunk_job(args: tuple[str, int, int, bool]) -> list[tuple]:
    kind, start, end, strict = args
    return _CHUNK_KINDS[kind][0](start, end, strict)


def _chunks(from_n: int, to_n: int) -> list[tuple[int, int]]:
    return [(s, min(s + CHUNK_SIZE - 1, to_n)) for s in range(from_n, to_n + 1, CHUNK_SIZE)]


# --- checkpoint file: one JSON line per record, torn tails discarded ---------


def write_atomic(path: str, text: str) -> None:
    """Replace the file at path with text, via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".primesq-")
    except OSError as exc:  # name the caller's path, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _checkpoint_header(command: str, from_n: int, to_n: int, precision: str) -> dict:
    return {
        "format": "primesq-checkpoint",
        "version": CHECKPOINT_VERSION,
        "command": command,
        "from": from_n,
        "to": to_n,
        "chunk_size": CHUNK_SIZE,
        "precision": precision,
    }


def _load_checkpoint(path: str, header: dict, row_type: type) -> dict[int, dict]:
    """Completed chunk records keyed by chunk_start; {} when absent."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return {}
    try:
        found = json.loads(lines[0])
    except json.JSONDecodeError:
        return {}
    if found != header:
        raise DomainError(
            f"checkpoint {path} belongs to a different campaign "
            f"({found.get('command')} over {found.get('from')}..{found.get('to')})"
        )
    done: dict[int, dict] = {}
    for line in lines[1:]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail from an interrupted write
        if "chunk_start" not in rec:
            break
        rec["rows"] = [row_type._make(row) for row in rec["rows"]]
        done[rec["chunk_start"]] = rec
    return done


class _CheckpointWriter:
    def __init__(self, path: str | None, header: dict, done: dict[int, dict]):
        self.path = path
        if path is None:
            return
        records = [header] + [done[start] for start in sorted(done)]
        write_atomic(path, "".join(json.dumps(rec) + "\n" for rec in records))

    def append(self, rec: dict) -> None:
        if self.path is None:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()


def _run_chunked(kind: str, command: str, from_n: int, to_n: int, *, workers: int,
                 strict: bool, checkpoint_path: str | None, resume: bool) -> list[tuple]:
    """All rows for [from_n, to_n] in n-order."""
    header = _checkpoint_header(command, from_n, to_n, "strict" if strict else "fast")
    chunks = _chunks(from_n, to_n)
    row_type = _CHUNK_KINDS[kind][1]
    done = _load_checkpoint(checkpoint_path, header, row_type) if (checkpoint_path and resume) else {}
    writer = _CheckpointWriter(checkpoint_path, header, done)
    todo = [(s, e) for (s, e) in chunks if s not in done]
    jobs = [(kind, s, e, strict) for (s, e) in todo]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_job, jobs))
    else:
        results = [_chunk_job(job) for job in jobs]
    for (s, e), rows in zip(todo, results):
        rec = {"chunk_start": s, "chunk_end": e,
               "pi_at_start": rows[0].pi_n2 if rows else None, "rows": rows}
        done[s] = rec
        writer.append(rec)
    return [row for s, _ in chunks for row in done[s]["rows"]]


# --- reports: one fold over (n, margin, cls) items ----------------------------


def _fold(target: str, from_n: int, to_n: int, items: Iterable[tuple[int, float, int]],
          strict: bool, note: str) -> ConjectureReport:
    checked = 0
    violations: list[int] = []
    boundary: list[int] = []
    min_margin: float | None = None
    argmin: int | None = None
    for n, margin, cls in items:
        checked += 1
        if cls == CLS_VIOLATION:
            violations.append(n)
        elif cls == CLS_BOUNDARY:
            boundary.append(n)
        elif min_margin is None or margin < min_margin:
            min_margin, argmin = margin, n
    base = (f"chunks={len(_chunks(from_n, to_n))};chunk_size={CHUNK_SIZE};"
            f"precision={'strict' if strict else 'fast'}")
    return ConjectureReport(target, (from_n, to_n), checked, violations, boundary,
                            min_margin, argmin, base + note)


def _implication_cls(r: MarginRecord) -> int:
    """A c2 pass at n must force t_floor <= f."""
    if r.cls_c2 == CLS_BOUNDARY or r.cls_thm == CLS_BOUNDARY:
        return CLS_BOUNDARY
    return CLS_VIOLATION if r.cls_c2 == CLS_PASS and r.t_floor > r.f else CLS_PASS


_MARGIN_ITEM = {
    "c1": lambda r: (r.n, r.margin_c1, r.cls_c1),
    "c2": lambda r: (r.n, r.margin_c2, r.cls_c2),
    "theorem": lambda r: (r.n, float(r.margin_thm), r.cls_thm),
    "implication": lambda r: (r.n, float(r.margin_thm), _implication_cls(r)),
}


def fold_margin_report(target: str, from_n: int, to_n: int, rows: list[MarginRecord],
                       strict: bool) -> ConjectureReport:
    """The target's report over [from_n, to_n] from margin rows covering that range."""
    rows = [r for r in rows if from_n <= r.n <= to_n]
    note = ""
    if target in ("theorem", "implication"):
        last = max((r.n for r in rows if r.t_floor < 0), default="none")
        note = f";last_negative_t_floor={last}"
    return _fold(target, from_n, to_n, map(_MARGIN_ITEM[target], rows), strict, note)


def _strict_flag(precision_mode: str) -> bool:
    if precision_mode not in ("fast", "strict"):
        raise ValueError(f"unknown precision mode {precision_mode!r}")
    return precision_mode == "strict"


def run_margin_campaign(target: str, from_n: int, to_n: int, *, workers: int = 1,
                        precision_mode: str = "fast", checkpoint_path: str | None = None,
                        resume: bool = False) -> tuple[ConjectureReport, list[MarginRecord]]:
    if target not in MARGIN_TARGETS:
        raise ValueError(f"unknown target {target!r}")
    min_from = 5 if target == "c1" else 3
    if from_n < min_from:
        raise DomainError(f"{target} campaigns need from >= {min_from}")
    if to_n < from_n:
        raise DomainError("need from <= to")
    strict = _strict_flag(precision_mode)
    rows = _run_chunked("margin", f"verify {target}", from_n, to_n, workers=workers,
                        strict=strict, checkpoint_path=checkpoint_path, resume=resume)
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


def run_lemma_campaign(from_n: int, to_n: int, *, workers: int = 1,
                       precision_mode: str = "fast", checkpoint_path: str | None = None,
                       resume: bool = False) -> tuple[ConjectureReport, ConjectureReport]:
    if from_n < 3:
        raise DomainError("lemma campaigns need from >= 3")
    if to_n < from_n:
        raise DomainError("need from <= to")
    strict = _strict_flag(precision_mode)
    rows = _run_chunked("lemma", "verify lemmas", from_n, to_n, workers=workers,
                        strict=strict, checkpoint_path=checkpoint_path, resume=resume)
    rep1 = _fold("lemma1", from_n, to_n, ((r.n, r.margin_l1, r.cls_l1) for r in rows),
                 strict, ";forms=display+proof")
    below = sum(1 for r in rows if r.n < LEMMA2_MIN_N and r.cls_l2 != CLS_PASS)
    rep2 = _fold("lemma2", from_n, to_n,
                 ((r.n, r.margin_l2, r.cls_l2) for r in rows if r.n >= LEMMA2_MIN_N), strict,
                 f";asserted_from={max(from_n, LEMMA2_MIN_N)};below_domain_failures={below}")
    return rep1, rep2


def verify_lemmas(from_n: int, to_n: int, **kwargs) -> tuple[ConjectureReport, ConjectureReport]:
    """Check both lemma inequalities; the second is asserted from n = 180 only."""
    return run_lemma_campaign(from_n, to_n, **kwargs)


def verify_dusart(samples: list[int]) -> ConjectureReport:
    """Sandwich pi(x) between the explicit bounds at each applicable sample."""
    if not samples:
        raise DomainError("need at least one sample")
    xs = sorted(set(int(x) for x in samples))
    violations: list[int] = []
    skipped: list[int] = []
    min_margin: float | None = None
    argmin: int | None = None
    checked = 0
    for x in xs:
        lower, lower_ok = (None, False) if x <= 1 else dusart_lower(x)
        upper, upper_ok = (None, False) if x <= 1 else dusart_upper(x)
        if not lower_ok and not upper_ok:
            skipped.append(x)
            continue
        pi = pi_exact(x, "combinatorial")
        checked += 1
        ok = True
        for margin, applies in ((pi - lower.value, lower_ok), (upper.value - pi, upper_ok)):
            if not applies:
                continue
            if margin <= 0.0:
                ok = False
            elif min_margin is None or margin < min_margin:
                min_margin, argmin = margin, x
        if not ok:
            violations.append(x)
    note = f"samples={len(xs)};skipped={len(skipped)}"
    return ConjectureReport("dusart", (xs[0], xs[-1]), checked, violations, [],
                            min_margin, argmin, note)


# --- emission -----------------------------------------------------------------


def margin_rows_csv(records: list[MarginRecord]) -> str:
    lines = [MARGIN_CSV_COLUMNS]
    for r in records:
        lines.append(
            f"{r.n},{r.f},{r.pi_n2},{r.delta:.6f},{r.c1_rhs:.6f},{r.c2_lhs:.6f},"
            f"{r.t_floor},{r.margin_c1:.6f},{r.margin_c2:.6f},{r.margin_thm},"
            f"{1 if r.boundary_flag else 0}"
        )
    return "\n".join(lines) + "\n"


def report_json(report: ConjectureReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


def reports_json(reports: dict[str, ConjectureReport | list]) -> str:
    payload = {}
    for key, value in reports.items():
        payload[key] = asdict(value) if isinstance(value, ConjectureReport) else value
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
