"""Command-line frontend: each sub-command's parser names the handler that runs it.

Exit codes: 0 completed clean, 1 completed with violations (or boundary
cases in strict mode), 2 usage, domain or file error, 3 internal
inconsistency or any other unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from . import mbound, verify
from .analytic import delta, dusart_lower, dusart_upper
from .counting import WINDOW_SIEVE_MAX, f_of, g_of, pi_exact
from .errors import DomainError

DEFAULT_RANGES = {
    "c1": (5, 10000),
    "c2": (3, 10000),
    "theorem": (3, 10000),
    "implication": (3, 10000),
    "lemmas": (3, 2000),
}
DEFAULT_DUSART_SAMPLES = [32299, 355991, 10**6, 10**8]
DEFAULT_C3_NS = [1000, 5000, 10000]


def _emit(text: str, path: str | None) -> None:
    """Print to stdout, or write the whole file atomically."""
    if path is None:
        sys.stdout.write(text)
    else:
        verify.write_atomic(path, text)


def _report_exit_code(report: verify.ConjectureReport, args: argparse.Namespace) -> int:
    if report.violations:
        return 3 if report.target == "implication" else 1
    if args.precision == "strict" and report.boundary_cases:
        return 1
    return 0


def _campaign_kwargs(args: argparse.Namespace) -> dict:
    """The campaign keywords a command's options set, checked before any work starts."""
    if args.workers < 1:
        raise DomainError("--workers must be >= 1")
    kwargs = dict(workers=args.workers, precision_mode=args.precision)
    if "checkpoint" in args:
        if args.resume and args.checkpoint is None:
            raise DomainError("--resume requires --checkpoint")
        kwargs.update(checkpoint_path=args.checkpoint, resume=args.resume)
    return kwargs


def _verify_margin(args: argparse.Namespace) -> int:
    report, rows = verify.run_margin_campaign(args.target, args.from_n, args.to_n, **_campaign_kwargs(args))
    if args.format == "csv":
        text = verify.margin_rows_csv(rows)
    else:
        text = verify.report_json(report) if args.format == "json" else verify.report_table(report)
    _emit(text, args.out)
    return _report_exit_code(report, args)


def _verify_lemmas(args: argparse.Namespace) -> int:
    rep1, rep2 = verify.verify_lemmas(args.from_n, args.to_n, **_campaign_kwargs(args))
    if args.format == "json":
        text = verify.reports_json({"lemma1": rep1, "lemma2": rep2})
    else:
        text = verify.report_table(rep1) + "\n" + verify.report_table(rep2)
    _emit(text, args.out)
    return max(_report_exit_code(rep1, args), _report_exit_code(rep2, args))


def _verify_dusart(args: argparse.Namespace) -> int:
    report = verify.verify_dusart(args.samples, precision_mode=args.precision)
    text = verify.report_json(report) if args.format == "json" else verify.report_table(report)
    _emit(text, args.out)
    return _report_exit_code(report, args)


def _print_of_n(fn, args: argparse.Namespace) -> int:
    """Print fn(n); m_of gives None where M(n) is undefined."""
    value = fn(args.n)
    print("undefined" if value is None else value)
    return 0


def _compute_delta(args: argparse.Namespace) -> int:
    d = delta(args.n, "quad")
    if not d.abs_err < 5e-7:  # half a unit in the 6th printed decimal
        raise DomainError(f"delta({args.n}) is not known to 6 decimals: "
                          f"its 160-bit error bound is {d.abs_err:.2g}")
    print(f"{d.value:.6f}")
    return 0


def _compute_bounds(args: argparse.Namespace) -> int:
    x = args.x
    (lower, lo_ok), (upper, up_ok) = dusart_lower(x, "quad"), dusart_upper(x, "quad")
    if not (math.isfinite(lower.value) and math.isfinite(upper.value)):
        raise DomainError("L(x) and U(x) exceed the double range at this --x")
    print(f"L({x}) = {lower.value:.6f}  valid={'yes' if lo_ok else 'no'}")
    print(f"U({x}) = {upper.value:.6f}  valid={'yes' if up_ok else 'no'}")
    return 0


def _compute_pi(args: argparse.Namespace) -> int:
    x = args.x
    methods = [args.method] if args.method != "both" else ["combinatorial", "window_sieve"]
    if args.method == "both" and x > WINDOW_SIEVE_MAX:
        methods = ["combinatorial"]
    values = {m: pi_exact(x, m) for m in methods}
    if len(set(values.values())) > 1:
        print(f"pi methods disagree at {x}: {values}", file=sys.stderr)
        return 3
    print(next(iter(values.values())))
    return 0


def _table_c3(args: argparse.Namespace) -> int:
    records = mbound.c3_table(args.ns)
    if args.format == "json":
        text = json.dumps(mbound.c3_json_rows(records), indent=2) + "\n"
    else:
        text = mbound.c3_csv(records)  # csv and table share the row layout
    _emit(text, args.out)
    return 0


def _report_all(args: argparse.Namespace) -> int:
    reports = verify.suite_reports({t: DEFAULT_RANGES[t] for t in verify.MARGIN_TARGETS},
                                   DEFAULT_RANGES["lemmas"], **_campaign_kwargs(args))
    reports["dusart"] = verify.verify_dusart(DEFAULT_DUSART_SAMPLES, precision_mode=args.precision)
    c3 = mbound.c3_table(DEFAULT_C3_NS)
    if args.format == "json" or args.out is not None:
        text = verify.reports_json({**reports, "c3_table": mbound.c3_json_rows(c3)})
    else:
        text = "\n".join(verify.report_table(r) for r in reports.values())
        text += "\n" + mbound.c3_csv(c3)
    _emit(text, args.out)
    return max(_report_exit_code(r, args) for r in reports.values())


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command; see module docstring for exit codes."""
    return args.handler(args)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primesq",
        description="Count primes between consecutive squares and verify the explicit bounds on those counts.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def add_run(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--precision", choices=["fast", "strict"], default="fast")

    def add_output(p: argparse.ArgumentParser, formats: list[str]) -> None:
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", default=None, metavar="PATH")

    compute = sub.add_parser("compute", help="evaluate one quantity and print it")
    quantities = compute.add_subparsers(dest="what", required=True)

    def add_quantity(name: str, flag: str, handler) -> argparse.ArgumentParser:
        q = quantities.add_parser(name)
        q.add_argument(flag, type=int, required=True)
        q.set_defaults(handler=handler)
        return q

    add_quantity("f", "--n", partial(_print_of_n, f_of))
    add_quantity("pi", "--x", _compute_pi).add_argument(
        "--method", choices=["window_sieve", "combinatorial", "both"], default="both")
    add_quantity("g", "--n", partial(_print_of_n, g_of))
    add_quantity("m", "--n", partial(_print_of_n, mbound.m_of))
    add_quantity("delta", "--n", _compute_delta)
    add_quantity("bounds", "--x", _compute_bounds)

    ver = sub.add_parser("verify", help="run a verification campaign")
    targets = ver.add_subparsers(dest="target", required=True)
    for target in ("c1", "c2", "theorem", "lemmas", "implication"):
        margin = target != "lemmas"
        camp = targets.add_parser(target, help=f"{target} over a range of n")
        camp.add_argument("--from", dest="from_n", type=int, default=DEFAULT_RANGES[target][0])
        camp.add_argument("--to", dest="to_n", type=int, default=DEFAULT_RANGES[target][1])
        add_run(camp)
        camp.add_argument("--checkpoint", default=None, metavar="PATH")
        camp.add_argument("--resume", action="store_true")
        add_output(camp, ["csv", "json", "table"] if margin else ["json", "table"])
        camp.set_defaults(handler=_verify_margin if margin else _verify_lemmas)
    dusart = targets.add_parser("dusart", help="the explicit pi(x) bounds at sample x")
    dusart.add_argument("--samples", type=_int_list, default=DEFAULT_DUSART_SAMPLES,
                        help="comma-separated x values")
    dusart.add_argument("--precision", choices=["fast", "strict"], default="fast")
    add_output(dusart, ["json", "table"])
    dusart.set_defaults(handler=_verify_dusart)

    table = sub.add_parser("table", help="emit the capacity ratio table")
    table.add_argument("what", choices=["c3"])
    table.add_argument("--ns", type=_int_list, default=DEFAULT_C3_NS, help="comma-separated n values")
    add_output(table, ["csv", "json", "table"])
    table.set_defaults(handler=_table_c3)

    report = sub.add_parser("report", help="run the full default campaign suite")
    report.add_argument("what", choices=["all"])
    add_run(report)
    add_output(report, ["json", "table"])
    report.set_defaults(handler=_report_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(args)
    except (ValueError, OSError) as exc:  # input errors subclass ValueError
        print(f"primesq: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"primesq: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
