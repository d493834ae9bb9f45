"""Benchmark of qcausal: one workload, one run, one JSON result line.

    python3 bench/run.py --workload figures|campaigns|backends_large \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measurement runs in a fresh
interpreter (worker.py) that pins BLAS to one thread, imports qcausal from
``src/`` and drives it in a closed loop.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the provenance.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a traced pass.  A full record,
with the span table, is written under ``.bench_out/``.  Exit status: 0 when
every output was correct, 1 when one was not, 2 when the checkout or the
arguments are unusable.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("figures", "campaigns", "backends_large")
SETUP_SAMPLES = 16      # interpreters started per run to time set-up
CHILD_TIMEOUT_S = 170   # the whole run must end within 180 s
CONTROL_NOTE = ("no CPU pinning, frequency control or cache control is applied; "
                "times include the host's speed drift")


def run_worker(args: list[str]) -> tuple[dict, float]:
    """Start worker.py, wait for it, return its JSON and the set-up time
    from just before the start to the end of its first call."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result.get("ready_at", started) - started


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(seed: int, env: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "reference_commit": json.loads((BENCH / "reference.json").read_text()).get("commit"),
        **env,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "note": CONTROL_NOTE,
    }


def end_to_end(result: dict, setup: list[float]) -> dict:
    passes = result["untraced"]
    wall = statistics.median(passes["pass_s"])
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": passes["items_per_pass"] / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    metrics = result["traced"]["metrics"]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in units}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [str(f) for f in (ROOT / "src" / "qcausal" / "__init__.py",
                                ROOT / "BENCHMARK.json", BENCH / "reference.json")
               if not f.is_file()]
    if missing:
        print(f"error: not a qcausal checkout, missing {missing}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    base = [args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setup = []
        begin = time.perf_counter()
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_worker(base + ["--setup-only"])[1])
        # the set-up samples come out of the run's own --seconds
        budget = max(0.0, args.seconds - (time.perf_counter() - begin))
        result, t_setup = run_worker(base + ["--seconds", str(budget),
                                             "--trace", str(args.trace)])
        setup.append(t_setup)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = result["traced"] if args.trace else result["untraced"]
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    for problem in checked["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    line = {"correct": checked["failed"] == 0, "attempted": checked["attempted"],
            "failed": checked["failed"], "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, result["env"]),
              "fail_frac": checked["failed"] / checked["attempted"],
              "setup_samples_s": setup, "worker": result, "result": line}
    record_path = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"],
                      "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
