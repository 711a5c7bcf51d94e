"""Command-line frontend.

Exit codes: 0 completed clean, 1 completed with violations (or boundary
cases in strict mode), 2 usage, domain or file error, 3 internal
inconsistency (dual pi methods disagree, a campaign's summed window counts
miss the combinatorial pi((to+1)^2), the chunks a resume loads do not chain
into its pi(n^2) seed, or a non-empty implication check) or any other
unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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
# margin target -> the campaign that returns its report alone
_MARGIN_REPORTS = {
    "c1": partial(verify.verify_conjecture, "c1"),
    "c2": partial(verify.verify_conjecture, "c2"),
    "theorem": verify.verify_theorem,
    "implication": verify.implication_check,
}


@dataclass
class CampaignConfig:
    command: str
    from_n: int | None = None
    to_n: int | None = None
    n: int | None = None
    x: int | None = None
    workers: int = 1
    precision_mode: str = "fast"
    checkpoint_path: str | None = None
    resume: bool = False
    output_format: str = "table"
    output_path: str | None = None
    method: str = "both"
    samples: list[int] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)


def _emit(text: str, path: str | None) -> None:
    """Print to stdout, or write the whole file atomically."""
    if path is None:
        sys.stdout.write(text)
    else:
        verify.write_atomic(path, text)


def _report_exit_code(report: verify.ConjectureReport, strict: bool) -> int:
    if report.violations:
        return 3 if report.target == "implication" else 1
    if strict and report.boundary_cases:
        return 1
    return 0


def _campaign_kwargs(cfg: CampaignConfig) -> dict:
    return dict(workers=cfg.workers, precision_mode=cfg.precision_mode,
                checkpoint_path=cfg.checkpoint_path, resume=cfg.resume)


def _run_verify(cfg: CampaignConfig) -> int:
    target = cfg.command.split()[1]
    strict = cfg.precision_mode == "strict"
    if target in ("dusart", "lemmas") and cfg.output_format == "csv":
        raise DomainError(f"no CSV row schema for {target}; use json or table")
    if target == "dusart":
        report = verify.verify_dusart(cfg.samples or DEFAULT_DUSART_SAMPLES)
        text = verify.report_json(report) if cfg.output_format == "json" else verify.report_table(report)
        _emit(text, cfg.output_path)
        return _report_exit_code(report, strict)
    if target == "lemmas":
        rep1, rep2 = verify.verify_lemmas(cfg.from_n, cfg.to_n, **_campaign_kwargs(cfg))
        if cfg.output_format == "json":
            text = verify.reports_json({"lemma1": rep1, "lemma2": rep2})
        else:
            text = verify.report_table(rep1) + "\n" + verify.report_table(rep2)
        _emit(text, cfg.output_path)
        return max(_report_exit_code(rep1, strict), _report_exit_code(rep2, strict))
    if cfg.output_format == "csv":  # only the CSV needs the rows
        report, records = verify.run_margin_campaign(target, cfg.from_n, cfg.to_n, **_campaign_kwargs(cfg))
        text = verify.margin_rows_csv(records)
    else:
        report = _MARGIN_REPORTS[target](cfg.from_n, cfg.to_n, **_campaign_kwargs(cfg))
        text = verify.report_json(report) if cfg.output_format == "json" else verify.report_table(report)
    _emit(text, cfg.output_path)
    return _report_exit_code(report, strict)


def _run_compute(cfg: CampaignConfig) -> int:
    what = cfg.command.split()[1]
    if what == "f":
        print(f_of(_need(cfg.n, "--n")))
    elif what == "g":
        print(g_of(_need(cfg.n, "--n")))
    elif what == "delta":
        print(f"{delta(_need(cfg.n, '--n')).value:.6f}")
    elif what == "m":
        m = mbound.m_of(_need(cfg.n, "--n"))
        print("undefined" if m is None else m)
    elif what == "bounds":
        x = _need(cfg.x, "--x")
        lower, lo_ok = dusart_lower(x)
        upper, up_ok = dusart_upper(x)
        print(f"L({x}) = {lower.value:.6f}  valid={'yes' if lo_ok else 'no'}")
        print(f"U({x}) = {upper.value:.6f}  valid={'yes' if up_ok else 'no'}")
    elif what == "pi":
        x = _need(cfg.x, "--x")
        methods = [cfg.method] if cfg.method != "both" else ["combinatorial", "window_sieve"]
        if cfg.method == "both" and x > WINDOW_SIEVE_MAX:
            methods = ["combinatorial"]
        values = {m: pi_exact(x, m) for m in methods}
        if len(set(values.values())) > 1:
            print(f"pi methods disagree at {x}: {values}", file=sys.stderr)
            return 3
        print(next(iter(values.values())))
    return 0


def _run_table(cfg: CampaignConfig) -> int:
    records = mbound.c3_table(cfg.ns or DEFAULT_C3_NS)
    if cfg.output_format == "json":
        text = json.dumps(mbound.c3_json_rows(records), indent=2) + "\n"
    else:
        text = mbound.c3_csv(records)  # csv and table share the row layout
    _emit(text, cfg.output_path)
    return 0


def _run_report_all(cfg: CampaignConfig) -> int:
    strict = cfg.precision_mode == "strict"
    reports = verify.suite_reports({t: DEFAULT_RANGES[t] for t in verify.MARGIN_TARGETS},
                                   DEFAULT_RANGES["lemmas"], workers=cfg.workers,
                                   precision_mode=cfg.precision_mode)
    reports["dusart"] = verify.verify_dusart(DEFAULT_DUSART_SAMPLES)
    c3 = mbound.c3_table(DEFAULT_C3_NS)
    if cfg.output_format == "json" or cfg.output_path is not None:
        text = verify.reports_json({**reports, "c3_table": mbound.c3_json_rows(c3)})
    else:
        text = "\n".join(verify.report_table(r) for r in reports.values())
        text += "\n" + mbound.c3_csv(c3)
    _emit(text, cfg.output_path)
    return max(_report_exit_code(r, strict) for r in reports.values())


def _need(value, flag: str):
    if value is None:
        raise DomainError(f"this command requires {flag}")
    return value


def run(config: CampaignConfig) -> int:
    """Execute a parsed, validated config; see module docstring for exit codes."""
    group = config.command.split()[0]
    if group == "compute":
        return _run_compute(config)
    if group == "verify":
        return _run_verify(config)
    if group == "table":
        return _run_table(config)
    if group == "report":
        return _run_report_all(config)
    raise DomainError(f"unknown command {config.command!r}")


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
    compute.add_argument("what", choices=["f", "pi", "g", "m", "delta", "bounds"])
    compute.add_argument("--n", type=int)
    compute.add_argument("--x", type=int)
    compute.add_argument("--method", choices=["window_sieve", "combinatorial", "both"],
                         default="both")

    ver = sub.add_parser("verify", help="run a verification campaign")
    targets = ver.add_subparsers(dest="target", required=True)
    for target in ("c1", "c2", "theorem", "lemmas", "implication"):
        camp = targets.add_parser(target, help=f"{target} over a range of n")
        camp.add_argument("--from", dest="from_n", type=int, default=DEFAULT_RANGES[target][0])
        camp.add_argument("--to", dest="to_n", type=int, default=DEFAULT_RANGES[target][1])
        camp.set_defaults(samples=None)
        add_run(camp)
        camp.add_argument("--checkpoint", default=None, metavar="PATH")
        camp.add_argument("--resume", action="store_true")
        add_output(camp, ["csv", "json", "table"])
    dusart = targets.add_parser("dusart", help="the explicit pi(x) bounds at sample x")
    dusart.add_argument("--samples", type=_int_list, default=None, help="comma-separated x values")
    dusart.add_argument("--precision", choices=["fast", "strict"], default="fast")
    add_output(dusart, ["csv", "json", "table"])
    # dusart runs no campaign; it accepts none of the campaign options
    dusart.set_defaults(from_n=None, to_n=None, workers=1, checkpoint=None, resume=False)

    table = sub.add_parser("table", help="emit the capacity ratio table")
    table.add_argument("what", choices=["c3"])
    table.add_argument("--ns", type=_int_list, default=None, help="comma-separated n values")
    add_output(table, ["csv", "json", "table"])

    report = sub.add_parser("report", help="run the full default campaign suite")
    report.add_argument("what", choices=["all"])
    add_run(report)
    add_output(report, ["json", "table"])
    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    cfg = CampaignConfig(command=f"{args.group} {getattr(args, 'what', getattr(args, 'target', ''))}".strip())
    if args.group == "compute":
        cfg.n, cfg.x, cfg.method = args.n, args.x, args.method
        return cfg
    cfg.output_format, cfg.output_path = args.format, args.out
    if args.group == "table":
        cfg.ns = args.ns or []
        return cfg
    cfg.workers, cfg.precision_mode = args.workers, args.precision
    if cfg.workers < 1:
        raise DomainError("--workers must be >= 1")
    if args.group == "verify":
        cfg.from_n, cfg.to_n = args.from_n, args.to_n
        cfg.checkpoint_path, cfg.resume = args.checkpoint, args.resume
        if cfg.resume and cfg.checkpoint_path is None:
            raise DomainError("--resume requires --checkpoint")
        cfg.samples = args.samples or []
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        return run(config)
    except (ValueError, OSError) as exc:  # input errors subclass ValueError
        print(f"primesq: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"primesq: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
