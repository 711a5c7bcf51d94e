"""One cold iteration of a benchmark workload, in a fresh interpreter.

    python3 perfbench/iteration.py probe
    python3 perfbench/iteration.py run WORKLOAD SEED WORKDIR TRACE

Both modes print one JSON line on stdout. ``probe`` reports only when the
import of primesq finished (time.monotonic, comparable with the parent's
clock). ``run`` also runs the workload once and reports its wall time, the
peak resident set of this process and its reaped workers, exit codes and
digests of the outputs; with TRACE=1 the workload runs under the span tracer
and the per-layer metrics are added.
"""

import time

import primesq.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = primesq.cli.main(argv)
    return rc, buf.getvalue().encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pi_chain_ok(csv: bytes, first: int, last: int) -> bool:
    """Rows are n = first..last in order and pi_n2[i] + f[i] == pi_n2[i+1]."""
    lines = csv.decode().splitlines()
    if not lines or not lines[0].startswith("n,f,pi_n2,"):
        return False
    rows = [[int(v) for v in line.split(",")[:3]] for line in lines[1:]]
    if [r[0] for r in rows] != list(range(first, last + 1)):
        return False
    return all(a[2] + a[1] == b[2] for a, b in zip(rows, rows[1:]))


def _run_cli(inp: dict) -> dict:
    t0 = time.perf_counter()
    rc, out = _cli(inp["argv"])
    t1 = time.perf_counter()
    return {"wall_s": t1 - t0, "rc": [rc], "digest": _digest(out)}


def _run_campaign(inp: dict, workdir: str) -> dict:
    """The campaign with a checkpoint, then a --resume re-run on the finished file."""
    ckpt = os.path.join(workdir, "campaign.ckpt")
    argv = inp["argv"] + ["--checkpoint", ckpt]
    t0 = time.perf_counter()
    rc, out = _cli(argv)
    t1 = time.perf_counter()
    rc_resume, out_resume = _cli(argv + ["--resume"])
    t2 = time.perf_counter()
    return {"wall_s": t2 - t0, "rc": [rc, rc_resume], "digest": _digest(out),
            "resume_identical": out_resume == out,
            "chain_ok": _pi_chain_ok(out, inp["from"], inp["to"]),
            "checkpoint_bytes": os.path.getsize(ckpt), "resume_s": t2 - t1}


def _run_hits(inp: dict) -> dict:
    t0 = time.perf_counter()
    g = primesq.g_of(inp["g_n"])
    fs = [primesq.f_of(n) for n in inp["f_ns"]]
    t1 = time.perf_counter()
    return {"wall_s": t1 - t0, "rc": [0], "g": g,
            "digest": _digest(",".join(map(str, fs)).encode())}


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"]:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0
    workload, seed, workdir, trace = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    inp = workloads.inputs(workload, seed)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(workdir)
        tracing.install(tracer)
    if inp["kind"] == "cli":
        result = _run_cli(inp)
    elif inp["kind"] == "campaign":
        result = _run_campaign(inp, workdir)
    else:
        result = _run_hits(inp)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(imported_at=IMPORTED_AT, ref=inp["ref"], rss_mb=max(own, reaped) / 1024.0,
                  primesq_file=primesq.__file__)
    if tracer is not None:
        layers = tracing.layer_metrics(tracing.collect(tracer), result["wall_s"], inp["workers"])
        layers["verify.checkpoint_bytes"] = result.get("checkpoint_bytes", 0)
        layers["verify.resume_s"] = result.get("resume_s", 0.0)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
