"""Workload inputs of the primesq benchmark, derived from the seed alone.

Every workload is a closed loop with one client: each iteration is a fresh
interpreter that runs the workload once, and the next iteration starts only
after it has exited.
"""

from __future__ import annotations

CHUNK_SIZE = 512  # primesq.verify.CHUNK_SIZE; starts 3 + 512k sit on the default chunk grid

# campaign_far: two chunks at n ~ 1e5, one per worker. Starts lie in a band
# 1.5% wide, so the pi(F^2) seed costs nearly the same for every seed value.
CAMPAIGN_STARTS = tuple(3 + CHUNK_SIZE * k for k in range(196, 200))
CAMPAIGN_CHUNKS = 2
CAMPAIGN_WORKERS = 2

# hits_far: g_of(HITS_G_N), then f_of(n) for HITS_F_COUNT consecutive n from
# one of HITS_F_STARTS (windows near 1e12).
HITS_G_N = 15000
HITS_F_COUNT = 12
HITS_F_STARTS = tuple(10**6 + HITS_F_COUNT * j for j in range(8))

NAMES = ("report_all", "campaign_far", "hits_far")


def inputs(workload: str, seed: int) -> dict:
    """The inputs of one run; ``ref`` names the recorded reference they map to."""
    if workload == "report_all":
        return {"kind": "cli", "ref": "default", "workers": 1,
                "argv": ["report", "all", "--workers", "1", "--format", "json"]}
    if workload == "campaign_far":
        start = CAMPAIGN_STARTS[seed % len(CAMPAIGN_STARTS)]
        end = start + CAMPAIGN_CHUNKS * CHUNK_SIZE - 1
        return {"kind": "campaign", "ref": f"from={start}", "workers": CAMPAIGN_WORKERS,
                "from": start, "to": end,
                "argv": ["verify", "c2", "--from", str(start), "--to", str(end),
                         "--workers", str(CAMPAIGN_WORKERS), "--format", "csv"]}
    if workload == "hits_far":
        n0 = HITS_F_STARTS[seed % len(HITS_F_STARTS)]
        return {"kind": "api", "ref": f"n0={n0}", "workers": 1,
                "g_n": HITS_G_N, "f_ns": list(range(n0, n0 + HITS_F_COUNT))}
    raise ValueError(f"unknown workload {workload!r}")


def all_inputs(workload: str) -> list[dict]:
    """One input per distinct reference the seed can select."""
    count = {"report_all": 1, "campaign_far": len(CAMPAIGN_STARTS),
             "hits_far": len(HITS_F_STARTS)}[workload]
    return [inputs(workload, seed) for seed in range(count)]
