"""The primesq benchmark: cold-process iterations of one workload, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/primesq``; no build step is needed.
Each iteration is a fresh interpreter (perfbench/iteration.py) that imports
primesq and runs the workload once, so every iteration pays the cold costs a
CLI user pays: module-level caches such as ``sieve._shared``,
``counting._small_tables_cache`` and the ``mbound`` prefixes start empty.
Iterations run one after another (a closed loop with one client); a new one
starts only while it is expected to end within S seconds, so at least one
runs.

Every iteration's exit codes and output digests are compared with the
references in perfbench/refs.json, recorded at the seed commit for every
input the seed can select; a mismatch counts as a failed iteration.

--trace 0 prints the end-to-end metrics: the median over iterations of the
work's wall time (import excluded) divided by the time of a reference
kernel (calibrate.py) run in fresh processes just before and after it, the
median set-up time (interpreter start plus ``import primesq.cli``), and the
peak resident set of any process. The raw median wall time is printed on
the summary line above the result.
--trace 1 alternates untraced and traced iterations and prints the per-layer
metrics of the traced ones (medians), the traced wall time and the tracing
overhead (median over pairs of traced minus untraced wall time); traced
outputs must equal the untraced ones byte for byte.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ITERATION = HERE / "iteration.py"
CALIBRATE = HERE / "calibrate.py"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 90  # keeps a run with one hung iteration under 180 s


class ChildFailed(Exception):
    pass


def _run_children(commands: list[list[str]], env: dict) -> list:
    """Run children at once, each to completion; the JSON value each printed last."""
    procs = [subprocess.Popen([sys.executable, *cmd], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, start_new_session=True) for cmd in commands]
    outputs = []
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out, err = b"", b"timed out"
        finally:
            # each child leads its own process group; take any stray worker with it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        outputs.append((proc.returncode, out, err))
    values = []
    for rc, out, err in outputs:
        lines = out.decode(errors="replace").strip().splitlines()
        if rc != 0 or not lines:
            raise ChildFailed(f"child exited {rc}: {err.decode(errors='replace')[-400:]}")
        try:
            values.append(json.loads(lines[-1]))
        except ValueError as exc:
            raise ChildFailed(f"unreadable child result: {exc}") from None
    return values


def _spawn(args: list[str], env: dict) -> tuple[float, dict]:
    """Run one iteration child; (monotonic spawn time, its JSON result)."""
    t_spawn = time.monotonic()
    return t_spawn, _run_children([[str(ITERATION), *args]], env)[0]


def _calibrate(copies: int, env: dict) -> float:
    """Mean time of the reference kernel, run in ``copies`` fresh processes at once.

    A workload with two workers keeps both processors busy, so its reference
    is taken with both busy too.
    """
    return statistics.mean(_run_children([[str(CALIBRATE)]] * copies, env))


def _problems(workload: str, inp: dict, res: dict, refs: dict, untraced: dict | None) -> list[str]:
    """Why this iteration's outputs are wrong; empty when they are right.

    ``untraced`` is the untraced iteration a traced one must match byte for byte.
    """
    ref = refs[workload].get(inp["ref"])
    if ref is None:
        return [f"no reference recorded for {inp['ref']}"]
    out = []
    if untraced is not None and res["digest"] != untraced["digest"]:
        out.append("traced output differs from the untraced output")
    if Path(res["primesq_file"]).resolve().parent != ROOT / "src" / "primesq":
        out.append(f"imported primesq from {res['primesq_file']}")
    if res["rc"] != ref["rc"]:
        out.append(f"exit codes {res['rc']} != {ref['rc']}")
    if res["digest"] != ref["digest"]:
        out.append("output digest differs from the reference")
    if workload == "campaign_far":
        if not res["resume_identical"]:
            out.append("--resume output differs from the campaign output")
        if not res["chain_ok"]:
            out.append("pi_n2 column does not chain: pi_n2[i] + f[i] != pi_n2[i+1]")
    if workload == "hits_far" and res["g"] != inp["g_n"]:
        out.append(f"g({inp['g_n']}) = {res['g']}")
    return out


def _units() -> dict[str, tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], kind) for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # unwind through the finally blocks on SIGTERM, so the running child's
    # process group is killed and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "primesq" / "__init__.py").is_file():
        print(f"perfbench: no primesq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    units = _units()
    inp = workloads.inputs(args.workload, args.seed)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    env = dict(os.environ, TMPDIR=workdir, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    attempted = failed = 0
    results: dict[bool, list[dict]] = {False: [], True: []}
    setup: list[float] = []
    overheads: list[float] = []  # traced minus the untraced iteration just before it

    def iterate(untraced: dict | None = None, trace: bool = False) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        iterdir = tempfile.mkdtemp(dir=workdir)
        try:
            t_spawn, res = _spawn(["run", args.workload, str(args.seed), iterdir, str(int(trace))], env)
        except ChildFailed as exc:
            failed += 1
            print(f"iteration {attempted}: {exc}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(iterdir, ignore_errors=True)
        problems = _problems(args.workload, inp, res, refs, untraced)
        if problems:
            failed += 1
            print(f"iteration {attempted}: {'; '.join(problems)}", file=sys.stderr)
        res["setup_s"] = res["imported_at"] - t_spawn
        results[trace].append(res)
        return res

    try:
        _spawn(["probe"], env)  # warm the file cache and bytecode before timing anything
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t_spawn, res = _spawn(["probe"], env)
                setup.append(res["imported_at"] - t_spawn)
        start = time.monotonic()
        rounds = 0
        calib = None if args.trace else _calibrate(inp["workers"], env)
        while True:
            plain = iterate()
            if args.trace:
                traced = iterate(plain, trace=True)
                if plain and traced:
                    overheads.append(traced["wall_s"] - plain["wall_s"])
            else:
                after = _calibrate(inp["workers"], env)
                if plain:
                    plain["calib_s"] = (calib + after) / 2
                calib = after
            rounds += 1
            elapsed = time.monotonic() - start
            if elapsed + elapsed / rounds > args.seconds:
                break  # the next round would end past the budget
    except ChildFailed as exc:
        print(f"perfbench: set-up or calibration child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, traced = results[False], results[True]
    if not plain or (args.trace and not overheads):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = statistics.median(overheads)
    else:
        values = {"wall_rel": statistics.median(r["wall_s"] / r["calib_s"] for r in plain),
                  "setup_s": statistics.median(setup + [r["setup_s"] for r in plain]),
                  "peak_rss_mb": max(r["rss_mb"] for r in plain)}
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [name for name, (_unit, k) in units.items() if k == kind]
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name][0]} for name in wanted}
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced "
          f"iterations, failed_ratio={failed}/{attempted}={failed / attempted:.3f}, "
          f"wall_s={wall:.4f} (median over {len(plain)})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
