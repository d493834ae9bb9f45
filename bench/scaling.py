"""One-off scaling probe of the two backends; not a gated workload.

    python3 bench/scaling.py

For one purified comb at each five-part dimension 32 to 1024 this records
the time of every backend stage (sampling, statevector state, tomography,
contraction, trace distance, evaluate) and the peak RSS.  Each dimension
runs in its own interpreter (worker.py --scale-dim) under an address-space
limit of MEM_LIMIT_MB, so one that runs out of memory is recorded as
infeasible instead of taking the machine with it.  The result is written to
bench/results/scaling_probe.json.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DIMS = (32, 64, 128, 256, 512, 1024)
TIMEOUT_S = 600
MEM_LIMIT_MB = 2048
OUT = BENCH / "results" / "scaling_probe.json"


def limit_memory() -> None:
    """Run in the child before it starts: cap its address space."""
    limit = MEM_LIMIT_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def main() -> int:
    rows, env = [], None
    for dim in DIMS:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--scale-dim", str(dim)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S,
                                  preexec_fn=limit_memory)
        except subprocess.TimeoutExpired:
            rows.append({"dim": dim, "feasible": False, "reason": f"timeout {TIMEOUT_S} s"})
            continue
        if done.returncode == 0:
            rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
            env = rows[-1].pop("env")
        else:
            tail = done.stderr.strip().splitlines()[-1:] or [""]
            rows.append({"dim": dim, "feasible": False,
                         "reason": f"exit {done.returncode}: {tail[0]}"})
        print(json.dumps(rows[-1]), file=sys.stderr)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    record = {"mem_limit_mb": MEM_LIMIT_MB, "env": env, "rows": rows}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
