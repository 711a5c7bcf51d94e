"""Range campaigns over the conjecture, theorem, and lemma inequalities.

Campaigns split [from, to] into fixed chunks. Worker processes count each
chunk's windows f(n); the campaign process seeds pi(n^2) once, at the first
chunk not yet in the checkpoint, sums f(n) from there in n-order and builds
every row, which is a pure function of n. So any number of workers and any
resume point give bit-identical results, and one pass over a range serves
every report drawn from it. Reports fold rows in n-order only, never in
completion order.

A run that computed any chunk checks its final sum against the combinatorial
pi((to+1)^2), so campaigns need (to+1)^2 <= COMBINATORIAL_MAX. The last chunk
reaches the checkpoint only after that check passes, and a resume checks that
the chunks it loads chain into the pi(n^2) it seeds, so a checkpoint that
failed its check can never be resumed into rows. A complete resume seeds
nothing but still checks that its chunks and margin rows chain.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .analytic import (
    RealEval,
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
from .counting import COMBINATORIAL_MAX, _window_counts, pi_exact
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


def _excess(hi, lo) -> tuple[float, float]:
    """hi - lo and its error bound; each side is a RealEval or an exact integer."""
    hv, he = (hi.value, hi.abs_err) if isinstance(hi, RealEval) else (hi, 0.0)
    lv, le = (lo.value, lo.abs_err) if isinstance(lo, RealEval) else (lo, 0.0)
    return hv - lv, he + le


def _judge(margin: float, err: float, strict: bool, at_quad) -> int:
    """Class of margin within err; under strict, a boundary is judged again
    from at_quad(), which returns the same margin and its error at quad."""
    cls = _classify(margin, err)
    if strict and cls == CLS_BOUNDARY:
        cls = _classify(*at_quad())
    return cls


def _margin_row(n: int, f: int, pi: int, strict: bool) -> MarginRecord:
    d = delta(n)
    c1 = c1_rhs(n)
    c2 = c2_lhs(n)
    tf, bflag = theorem_floor(n)
    m1, e1 = _excess(c1, f)
    m2, e2 = _excess(f, c2)
    mt = f - tf
    cls1 = _judge(m1, e1, strict, lambda: _excess(c1_rhs(n, "quad"), f))
    cls2 = _judge(m2, e2, strict, lambda: _excess(f, c2_lhs(n, "quad")))
    if strict and bflag:
        cls_thm = CLS_BOUNDARY  # floor argument inconclusive at quad
    else:
        cls_thm = CLS_PASS if mt >= 0 else CLS_VIOLATION
    return MarginRecord(n, f, pi, d.value, c1.value, c2.value, tf,
                        m1, m2, mt, 1 if bflag else 0, cls1, cls2, cls_thm)


def _lemma_row(n: int, f: int, pi: int, strict: bool) -> LemmaRecord:
    lhs, rhs = lemma1_sides(n)
    plhs, prhs = lemma1_proof_sides(n)
    # the lemma holds only if both forms do; judge the tighter margin
    disp, proof = _excess(rhs, lhs), _excess(plhs, prhs)
    m1, e1 = disp if disp[0] <= proof[0] else proof
    cls1 = _judge(m1, e1, strict, lambda: _excess(*reversed(lemma1_sides(n, "quad"))))
    m2, e2 = _excess(pi, lhs)
    cls2 = _judge(m2, e2, strict, lambda: _excess(pi, lemma2_lhs(n, "quad")))
    return LemmaRecord(n, pi, lhs.value, rhs.value, plhs.value, prhs.value, m1, cls1, m2, cls2)


# row kind -> (row function of (n, f(n), pi(n^2), strict), row type)
_ROW_KINDS = {"margin": (_margin_row, MarginRecord), "lemma": (_lemma_row, LemmaRecord)}


def _counts_job(chunk: tuple[int, int]) -> np.ndarray:
    """Worker job: the chunk's window counts f(n), nothing else."""
    return _window_counts(*chunk)


def _chunks(from_n: int, to_n: int) -> list[tuple[int, int]]:
    return [(s, min(s + CHUNK_SIZE - 1, to_n)) for s in range(from_n, to_n + 1, CHUNK_SIZE)]


# --- checkpoint file: one JSON line per chunk, in order; torn tails discarded -


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


def _load_checkpoint(path: str, header: dict, row_type: type,
                     chunks: list[tuple[int, int]]) -> list[dict]:
    """The checkpoint's records of chunks[0], chunks[1], ... up to the first
    missing or torn one; [] when absent."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return []
    try:
        found = json.loads(lines[0])
    except json.JSONDecodeError:
        return []
    if found != header:
        raise DomainError(
            f"checkpoint {path} belongs to a different campaign "
            f"({found.get('command')} over {found.get('from')}..{found.get('to')})"
        )
    done: list[dict] = []
    for line, (start, _) in zip(lines[1:], chunks):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail from an interrupted write
        if rec.get("chunk_start") != start:
            break
        rec["rows"] = [row_type._make(row) for row in rec["rows"]]
        done.append(rec)
    return done


def _loaded_end(done: list[dict]) -> int:
    """pi((e+1)^2) for the last n = e of the loaded chunks, which must chain.

    Each chunk's pi_at_start plus its counts must give the next pi_at_start.
    Margin rows carry f(n), and each one's pi(n^2) must be the sum so far;
    lemma rows carry only pi(n^2), so a lemma chunk ends at its last pi(n^2)
    plus one window count.
    """
    pi = done[0]["pi_at_start"]
    for rec in done:
        if rec["pi_at_start"] != pi:
            raise RuntimeError(f"checkpoint chunk {rec['chunk_start']} starts at pi = {rec['pi_at_start']}, "
                               f"the chunks before it end at {pi}")
        last = rec["rows"][-1]
        if isinstance(last, MarginRecord):
            for row in rec["rows"]:
                if row.pi_n2 != pi:
                    raise RuntimeError(f"checkpoint row n = {row.n} has pi(n^2) = {row.pi_n2}, "
                                       f"the counts before it sum to {pi}")
                pi += row.f
        else:
            pi = last.pi_n2 + int(_window_counts(last.n, last.n)[0])
    return pi


class _CheckpointWriter:
    def __init__(self, path: str | None, header: dict, done: list[dict]):
        self.path = path
        if path is None:
            return
        write_atomic(path, "".join(json.dumps(rec) + "\n" for rec in [header] + done))

    def append(self, rec: dict) -> None:
        if self.path is None:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()


def _run_chunked(kind: str, command: str, from_n: int, to_n: int, *, workers: int,
                 strict: bool, checkpoint_path: str | None, resume: bool) -> list[tuple]:
    """All rows for [from_n, to_n] in n-order.

    Workers count the windows of the chunks still to do while this process
    seeds pi(n^2) once at the first of them, which the loaded chunks must
    chain into; it then builds every row from the running sum and checkpoints
    each chunk as soon as its rows exist, the last one only once the sum
    equals the combinatorial pi((to+1)^2). A complete resume seeds nothing;
    its chunks must still chain.
    """
    if (to_n + 1) ** 2 > COMBINATORIAL_MAX:
        raise DomainError(f"campaigns need (to+1)^2 <= {COMBINATORIAL_MAX} (combinatorial pi range)")
    header = _checkpoint_header(command, from_n, to_n, "strict" if strict else "fast")
    chunks = _chunks(from_n, to_n)
    row_fn, row_type = _ROW_KINDS[kind]
    done = _load_checkpoint(checkpoint_path, header, row_type, chunks) if (checkpoint_path and resume) else []
    writer = _CheckpointWriter(checkpoint_path, header, done)
    todo = chunks[len(done):]
    parallel = workers > 1 and len(todo) > 1
    with ProcessPoolExecutor(max_workers=min(workers, len(todo))) if parallel else nullcontext() as pool:
        counts = (pool.map if parallel else map)(_counts_job, todo)  # workers fork before the seed
        pi = pi_exact(todo[0][0] ** 2, "combinatorial") if todo else _loaded_end(done)
        if done and todo and (loaded := _loaded_end(done)) != pi:
            if parallel:
                pool.shutdown(cancel_futures=True)
            raise RuntimeError(f"checkpoint chunks sum to pi({todo[0][0]}^2) = {loaded}, "
                               f"the combinatorial pi gives {pi}")
        for (s, e), fs in zip(todo, counts):
            rec = {"chunk_start": s, "chunk_end": e, "pi_at_start": pi, "rows": []}
            for n, f in zip(range(s, e + 1), fs.tolist()):
                rec["rows"].append(row_fn(n, f, pi, strict))
                pi += f
            done.append(rec)
            if e < to_n:  # the last chunk waits for the final check
                writer.append(rec)
    end = pi_exact((to_n + 1) ** 2, "combinatorial") if todo else pi
    if pi != end:
        raise RuntimeError(f"window counts sum to pi({to_n + 1}^2) = {pi}, the combinatorial pi gives {end}")
    if todo:
        writer.append(done[-1])
    return [row for rec in done for row in rec["rows"]]


# --- reports: one fold over (n, margin, cls) items ----------------------------


def _campaign_note(from_n: int, to_n: int, strict: bool) -> str:
    return (f"chunks={len(_chunks(from_n, to_n))};chunk_size={CHUNK_SIZE};"
            f"precision={'strict' if strict else 'fast'}")


def _fold(target: str, from_n: int, to_n: int, items: Iterable[tuple[int, float, int]],
          note: str) -> ConjectureReport:
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
    return ConjectureReport(target, (from_n, to_n), checked, violations, boundary,
                            min_margin, argmin, note)


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
    note = _campaign_note(from_n, to_n, strict)
    if target in ("theorem", "implication"):
        last = max((r.n for r in rows if r.t_floor < 0), default="none")
        note += f";last_negative_t_floor={last}"
    return _fold(target, from_n, to_n, map(_MARGIN_ITEM[target], rows), note)


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
    note = _campaign_note(from_n, to_n, strict)
    rep1 = _fold("lemma1", from_n, to_n, ((r.n, r.margin_l1, r.cls_l1) for r in rows),
                 note + ";forms=display+proof")
    below = sum(1 for r in rows if r.n < LEMMA2_MIN_N and r.cls_l2 != CLS_PASS)
    rep2 = _fold("lemma2", from_n, to_n,
                 ((r.n, r.margin_l2, r.cls_l2) for r in rows if r.n >= LEMMA2_MIN_N),
                 note + f";asserted_from={max(from_n, LEMMA2_MIN_N)};below_domain_failures={below}")
    return rep1, rep2


def verify_lemmas(from_n: int, to_n: int, **kwargs) -> tuple[ConjectureReport, ConjectureReport]:
    """Check both lemma inequalities; the second is asserted from n = 180 only."""
    return run_lemma_campaign(from_n, to_n, **kwargs)


def verify_dusart(samples: list[int]) -> ConjectureReport:
    """Sandwich pi(x) between the explicit bounds at each applicable sample.

    Each checked sample folds as its smaller applicable margin and its worse
    class, a violation ranking above a boundary.
    """
    if not samples:
        raise DomainError("need at least one sample")
    xs = sorted(set(int(x) for x in samples))
    items: list[tuple[int, float, int]] = []
    for x in xs:
        lower, lower_ok = (None, False) if x <= 1 else dusart_lower(x)
        upper, upper_ok = (None, False) if x <= 1 else dusart_upper(x)
        if not lower_ok and not upper_ok:
            continue
        pi = pi_exact(x, "combinatorial")
        sides = []
        if lower_ok:
            sides.append(_excess(pi, lower))
        if upper_ok:
            sides.append(_excess(upper, pi))
        classes = {_classify(margin, err) for margin, err in sides}
        cls = CLS_VIOLATION if CLS_VIOLATION in classes else max(classes)
        items.append((x, min(margin for margin, _ in sides), cls))
    note = f"samples={len(xs)};skipped={len(xs) - len(items)}"
    return _fold("dusart", xs[0], xs[-1], items, note)


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
