"""Record perfbench/refs.json: exit codes and output digests for every input.

    python3 perfbench/record_refs.py

Runs each workload once, untraced, for every input its seed can select, and
refuses to record an output that fails the benchmark's own structural checks
(resume identity, pi_n2 chaining, g(N) = N). Run it only at a commit whose
outputs are trusted; the benchmark then holds every later commit to them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    refs: dict[str, dict] = {}
    for workload in workloads.NAMES:
        refs[workload] = {}
        for seed, inp in enumerate(workloads.all_inputs(workload)):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
                _, res = run._spawn(["run", workload, str(seed), workdir, "0"], env)
            ref = {"rc": res["rc"], "digest": res["digest"]}
            problems = run._problems(workload, inp, res, {workload: {inp["ref"]: ref}}, None)
            if problems:
                print(f"{workload} {inp['ref']}: not recorded: {'; '.join(problems)}", file=sys.stderr)
                return 1
            refs[workload][inp["ref"]] = ref
            print(f"{workload} {inp['ref']}: rc={res['rc']} {res['wall_s']:.2f}s", flush=True)
    (run.HERE / "refs.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
