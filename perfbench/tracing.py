"""Span tracing around the public layer functions of primesq.

``install`` replaces each traced function by a wrapper at every place a
primesq module binds it: modules import names with ``from .x import y``, so
patching only the defining module would miss most calls. A span records its
layer, function name, parent span, start, end and a few counts taken from the
call's arguments. Spans stay in memory. A forked campaign worker inherits the
tracer, so its spans name the campaign span open at fork time as their
parent; it writes them to a file when it exits, and ``collect`` reads them
back into the traced process.

Span ids are (pid, index into that process's span list). Times come from
``perf_counter``, which is CLOCK_MONOTONIC on Linux, so the spans of workers
and of the traced process share one clock.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
from multiprocessing import util as mp_util
from time import perf_counter


def _arg(args: tuple, kwargs: dict, i: int, name: str, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


# --- per-function probes: attrs taken on entry, completed on exit -------------


def _sieve_probe(args, kwargs):
    return {"ints": _arg(args, kwargs, 1, "hi") - _arg(args, kwargs, 0, "lo")}


def _seed_probe(args, kwargs):
    return {"x": int(_arg(args, kwargs, 0, "x"))}


def _stream_probe(args, kwargs):
    return {"rows": _arg(args, kwargs, 1, "to_n") - _arg(args, kwargs, 0, "from_n") + 1}


def _f_probe(args, kwargs):
    return {"rows": 1}


def _g_probe(args, kwargs):
    return {"t": _arg(args, kwargs, 0, "n")}


def _sum_r_probe(args, kwargs):
    from primesq import analytic

    cache = None
    if _arg(args, kwargs, 1, "precision", "double") == "double":
        cache = _arg(args, kwargs, 2, "cache") or analytic._default_sum_r
    return {"n": _arg(args, kwargs, 0, "n"), "cache": cache,
            "head": cache.head() if cache is not None else 0}


def _sum_r_finish(attrs):
    cache = attrs.pop("cache")
    attrs["terms"] = cache.head() - attrs.pop("head") if cache is not None else 0


def _campaign_probe(args, kwargs):
    """Range, workers and resume flag of a campaign; (from, to) sit after the target."""
    shift = 1 if args and isinstance(args[0], str) else 0
    return {"from": _arg(args, kwargs, shift, "from_n"), "to": _arg(args, kwargs, shift + 1, "to_n"),
            "workers": kwargs.get("workers", 1), "resume": kwargs.get("resume", False),
            "cpu": _cpu_s()}


def _verify_probe(args, kwargs):
    return {"workers": 1, "resume": False, "cpu": _cpu_s()}


def _cpu_finish(attrs):
    attrs["cpu"] = _cpu_s() - attrs["cpu"]


# module -> function -> (layer, probe, finish)
TRACED = {
    "primesq.sieve": {
        "sieve_window": ("sieve", _sieve_probe, None),
    },
    "primesq.counting": {
        "pi_exact": ("counting.seed", _seed_probe, None),
        "stream_f": ("counting.windows", _stream_probe, None),
        "f_of": ("counting.windows", _f_probe, None),
        "g_of": ("counting.g", _g_probe, None),
    },
    "primesq.analytic": {
        "sum_r": ("analytic.sum_r", _sum_r_probe, _sum_r_finish),
        **{name: ("analytic", None, None) for name in (
            "delta", "r_term", "c1_rhs", "c2_lhs", "theorem_floor", "dusart_lower",
            "dusart_upper", "lemma1_sides", "lemma1_proof_sides", "lemma2_lhs")},
    },
    "primesq.mbound": {
        name: ("mbound", None, None) for name in ("s_sum", "bound_gap", "m_of", "c3_table")
    },
    "primesq.verify": {
        "run_margin_campaign": ("verify", _campaign_probe, _cpu_finish),
        "run_lemma_campaign": ("verify", _campaign_probe, _cpu_finish),
        "verify_conjecture": ("verify", _campaign_probe, _cpu_finish),
        "verify_theorem": ("verify", _campaign_probe, _cpu_finish),
        "implication_check": ("verify", _campaign_probe, _cpu_finish),
        "verify_lemmas": ("verify", _campaign_probe, _cpu_finish),
        "verify_dusart": ("verify", _verify_probe, _cpu_finish),
    },
}


class Tracer:
    """In-memory span store; forked workers spill theirs to ``spill_dir``."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.spans: list[list] = []  # [layer, name, parent id, start, end, attrs]
        self.stack: list[tuple[int, int]] = []

    def _adopt_fork(self, pid: int) -> None:
        # The inherited stack stays: its top is the span that forked us.
        self.pid = pid
        self.spans = []
        mp_util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)

    def wrap(self, layer: str, fn, probe, finish):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:
                tracer._adopt_fork(pid)
            spans, stack = tracer.spans, tracer.stack
            attrs = probe(args, kwargs) if probe is not None else None
            rec = [layer, name, stack[-1] if stack else None, 0.0, 0.0, attrs]
            stack.append((pid, len(spans)))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if finish is not None:
                    finish(attrs)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever a loaded primesq module binds it."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "primesq" or key.startswith("primesq.")]
    for home_name, table in TRACED.items():
        home = sys.modules[home_name]
        for fname, (layer, probe, finish) in table.items():
            fn = getattr(home, fname)
            traced = tracer.wrap(layer, fn, probe, finish)
            for module in modules:
                if getattr(module, fname, None) is fn:
                    setattr(module, fname, traced)


def collect(tracer: Tracer) -> list[tuple[tuple[int, int], list]]:
    """All spans, parents before children: this process first, then each worker."""
    out = [((tracer.pid, i), rec) for i, rec in enumerate(tracer.spans)]
    for entry in sorted(os.listdir(tracer.spill_dir)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(tracer.spill_dir, entry), encoding="utf-8") as fh:
            data = json.load(fh)
        for i, rec in enumerate(data["spans"]):
            rec[2] = tuple(rec[2]) if rec[2] is not None else None
            out.append(((data["pid"], i), rec))
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[tuple[tuple[int, int], list]], wall_s: float, workers: int) -> dict:
    """Per-layer metrics from the spans of one traced iteration.

    A layer's calls and busy time count its outermost spans only (no
    ancestor of the same layer), so nested calls inside a layer are not
    counted twice. Self time is a span's duration minus the union of its
    children's intervals, children in forked workers included.
    """
    recs = dict(spans)
    ancestors: dict[tuple[int, int], frozenset] = {}
    children: dict[tuple[int, int], list] = {}
    for sid, (layer, _name, parent, *_rest) in spans:
        above = frozenset()
        if parent is not None:
            above = ancestors.get(parent, frozenset()) | {recs[parent][0]}
            children.setdefault(parent, []).append(sid)
        ancestors[sid] = above

    def self_s(sid):
        rec = recs[sid]
        kids = [(recs[k][3], recs[k][4]) for k in children.get(sid, ())]
        return rec[4] - rec[3] - _covered(kids, rec[3], rec[4])

    by_layer: dict[str, list] = {}
    for sid, rec in spans:
        by_layer.setdefault(rec[0], []).append(sid)

    def outer(layer):
        return [sid for sid in by_layer.get(layer, ()) if layer not in ancestors[sid]]

    def busy(layer):
        return sum(recs[s][4] - recs[s][3] for s in outer(layer))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}

    sieve = by_layer.get("sieve", [])
    m["sieve.calls"] = len(sieve)
    m["sieve.ints"] = sum(recs[s][5]["ints"] for s in sieve)
    m["sieve.busy_s"] = busy("sieve")
    m["sieve.ints_per_s"] = ratio(m["sieve.ints"], m["sieve.busy_s"])

    seed = outer("counting.seed")
    m["counting.seed.calls"] = len(seed)
    m["counting.seed.max_x"] = max((recs[s][5]["x"] for s in seed), default=0)
    m["counting.seed.busy_s"] = busy("counting.seed")
    m["counting.seed.share"] = ratio(m["counting.seed.busy_s"], wall_s * workers)

    windows = by_layer.get("counting.windows", [])
    m["counting.windows.rows"] = sum(recs[s][5]["rows"] for s in windows)
    m["counting.windows.self_s"] = sum(self_s(s) for s in windows)
    m["counting.windows.rows_per_s"] = ratio(m["counting.windows.rows"], m["counting.windows.self_s"])

    g = outer("counting.g")
    m["counting.g.t"] = sum(recs[s][5]["t"] for s in g)
    m["counting.g.busy_s"] = busy("counting.g")
    m["counting.g.t_per_s"] = ratio(m["counting.g.t"], m["counting.g.busy_s"])

    chunk_streams = [s for s in by_layer.get("counting.windows", ())
                     if recs[s][1] == "stream_f" and "verify" in ancestors[s]]
    rows_computed = sum(recs[s][5]["rows"] for s in chunk_streams)
    in_campaigns = [s for s in outer("analytic") if "verify" in ancestors[s]]

    m["analytic.calls"] = len(outer("analytic"))
    m["analytic.busy_s"] = busy("analytic")
    m["analytic.us_per_n"] = ratio(1e6 * sum(recs[s][4] - recs[s][3] for s in in_campaigns),
                                   rows_computed)

    sum_r = outer("analytic.sum_r")
    m["analytic.sum_r.calls"] = len(sum_r)
    m["analytic.sum_r.terms"] = sum(recs[s][5]["terms"] for s in sum_r)
    m["analytic.sum_r.terms_per_row"] = ratio(m["analytic.sum_r.terms"],
                                              len({recs[s][5]["n"] for s in sum_r}))
    m["analytic.sum_r.busy_s"] = busy("analytic.sum_r")

    m["mbound.calls"] = len(outer("mbound"))
    m["mbound.busy_s"] = busy("mbound")

    campaigns = outer("verify")
    reported: set[int] = set()
    for s in campaigns:
        attrs = recs[s][5]
        if attrs.get("from") is not None:
            reported.update(range(attrs["from"], attrs["to"] + 1))
    m["verify.chunks"] = len(chunk_streams)
    m["verify.rows_computed"] = rows_computed
    m["verify.rows_reported"] = len(reported)
    m["verify.rows_per_reported"] = ratio(rows_computed, len(reported))
    m["verify.self_s"] = sum(self_s(s) for s in by_layer.get("verify", ()))
    m["verify.cpu_s"] = sum(recs[s][5]["cpu"] for s in campaigns)
    capacity = sum((recs[s][4] - recs[s][3]) * (1 if recs[s][5]["resume"] else recs[s][5]["workers"])
                   for s in campaigns)
    m["verify.parallel_eff"] = ratio(m["verify.cpu_s"], capacity)
    return m
