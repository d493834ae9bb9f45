"""One benchmark interpreter: pins BLAS threads, imports qcausal, runs a workload.

run.py starts one of these per measurement so every workload runs in a
fresh interpreter.  Modes:

  worker.py W --seed N --seconds S --trace 0|1 --workdir DIR   measure passes
  worker.py W --seed N --workdir DIR --setup-only              set-up only
  worker.py --probe                       count one switch_full point at 0.3
  worker.py --write-reference             rewrite reference.json
  worker.py --scale-dim D                 one scaling-probe comb (scaling.py)

Each mode prints one JSON object on stdout.  ``ready_at`` is the
``time.perf_counter()`` reading (CLOCK_MONOTONIC, shared by all processes
on Linux) taken when set-up ended, so the parent can time set-up from
before it started this interpreter.
"""
import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import qcausal  # noqa: E402
import workloads  # noqa: E402
from shim import Shim, Tracer  # noqa: E402

PERCENTILE_TAIL = 10  # a percentile is reported only with this many samples beyond it
MIN_TRACE_PAIRS = 2   # untraced/traced pass pairs behind trace.overhead_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float):
    """Nearest-rank percentile, or None when fewer than PERCENTILE_TAIL
    samples lie beyond it."""
    n = len(values)
    if n * (1.0 - q) < PERCENTILE_TAIL:
        return None
    return sorted(values)[min(n - 1, int(q * n))]


def span_table(stats: dict) -> dict:
    """Per span name: calls, self s, and p50/p99 of inclusive time with n."""
    table = {}
    for name, e in sorted(stats.items()):
        row = {"calls": e["calls"], "s": e["s"], "n": len(e["durations"])}
        for key, q in (("p50_us", 0.5), ("p99_us", 0.99)):
            p = percentile(e["durations"], q)
            if p is not None:
                row[key] = p * 1e6
        table[name] = row
    return table


def layer_metrics(tracer: Tracer, stats: dict, items: int, out_bytes: int) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from one traced pass.

    ``<span>.calls``, ``<span>.s`` (self time) and ``<span>.total_s``
    (inclusive time) come from the span table; the rest are derived here.
    """
    calls = lambda span: stats.get(span, {}).get("calls", 0)
    eigh = calls("numpy.eigh")
    derived = {
        "numpy.eig.flops_computed": tracer.eig_flops,
        "cli.out_bytes": out_bytes,
        "ratio.validations_per_state": _ratio(calls("labeled.DensityOperator"),
                                              tracer.states_built),
        "ratio.eig_per_point": _ratio(eigh, items),
        "ratio.distinct_spectra": _ratio(len(tracer.marginals),
                                         eigh + calls("numpy.eigvalsh")),
        "ratio.einsum_per_trial": _ratio(calls("numpy.einsum"), items),
        "process.state_reuse": _ratio(len(tracer.state_digests), tracer.states_built),
    }
    metrics = {}
    for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]:
        name = m["name"]
        span, _, stat = name.rpartition(".")
        entry = stats.get(span, {"calls": 0, "s": 0.0, "durations": []})
        if name in derived:
            metrics[name] = derived[name]
        elif stat == "total_s":
            metrics[name] = sum(entry["durations"])
        elif stat in ("calls", "s"):
            metrics[name] = entry[stat]
    return metrics


def probe() -> dict:
    """Counts for one ``switch_full`` grid point at lambda 0.3: statevector
    state plus ``evaluate`` with marginals, as ``sweep`` computes it."""
    tracer = Tracer()
    with Shim(tracer):
        qcausal.cli.sweep_reports("switch_full", [0.3], qcausal.VON_NEUMANN)
    stats = tracer.stats()
    return {
        "density_validations": stats["labeled.DensityOperator"]["calls"],
        "eigh_calls": stats["numpy.eigh"]["calls"],
        "distinct_marginals": len(tracer.marginals),
    }


def timed_pass(wl, tracer: Tracer | None = None) -> tuple[float, workloads.Check]:
    """One pass: ``prepare`` and ``check`` untimed, ``run`` timed, under the
    shim when a tracer is given."""
    wl.prepare()
    with Shim(tracer) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        out = wl.run()
        wall = time.perf_counter() - t0
    return wall, wl.check(out)


def run_passes(wl, budget: float) -> dict:
    """Closed loop of passes while the next one is expected to end within
    ``budget`` seconds; at least one pass."""
    times, items, failed, problems = [], 0, 0, []
    begin = time.perf_counter()
    while True:
        wall, c = timed_pass(wl)
        times.append(wall)
        items = c.items
        failed += c.failed
        problems += c.problems
        if time.perf_counter() - begin + statistics.median(times) > budget:
            break
    return {"pass_s": times, "items_per_pass": items, "attempted": items * len(times),
            "failed": failed, "problems": problems}


def traced_run(wl, budget: float) -> dict:
    """Pairs of one untraced and one traced pass, the order swapped from pair
    to pair, while the next pair is expected to end within ``budget``
    seconds; at least MIN_TRACE_PAIRS pairs.

    The per-layer metrics come from the first traced pass and the probe
    point.  ``trace.overhead_s`` is the median over pairs of traced minus
    untraced time: the two passes of a pair run back to back, so the host's
    slow speed drift mostly cancels.
    """
    untraced, traced, pair_s = [], [], []
    attempted, failed, problems, first = 0, 0, [], None
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for with_shim in (False, True) if len(pair_s) % 2 == 0 else (True, False):
            tracer = Tracer() if with_shim else None
            wall, c = timed_pass(wl, tracer)
            (traced if with_shim else untraced).append(wall)
            attempted += c.items
            failed += c.failed
            problems += c.problems
            if with_shim and first is None:
                first = tracer, c
        pair_s.append(time.perf_counter() - t0)
        if (len(pair_s) >= MIN_TRACE_PAIRS
                and time.perf_counter() - begin + statistics.median(pair_s) > budget):
            break
    tracer, c = first
    stats = tracer.stats()
    counts = probe()
    metrics = layer_metrics(tracer, stats, c.items, c.out_bytes)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["probe.eigh_calls"] = counts["eigh_calls"]
    metrics["probe.density_validations"] = counts["density_validations"]
    return {"pass_s": {"untraced": untraced, "traced": traced}, "attempted": attempted,
            "failed": failed, "problems": problems, "metrics": metrics,
            "spans": span_table(stats), "n_spans": len(tracer.names)}


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **{lib: {k: v for k, v in deps.get(lib, {}).items() if k in keep}
           for lib in ("blas", "lapack")},
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(args) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir),
                                            workloads.load_reference())
    wl.first_call()
    result = {"ready_at": time.perf_counter()}
    if args.setup_only:
        return result
    if args.trace:
        result["traced"] = traced_run(wl, args.seconds)
    else:
        result["untraced"] = run_passes(wl, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment()
    return result


def write_reference() -> dict:
    """Record the outputs of the current tree as the reference."""
    commit = subprocess.run(["git", "-C", str(BENCH.parent), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    ref = {"commit": commit or None, "figures": {}, "campaigns_seed0": {}}
    blank = {"figures": {}, "campaigns_seed0": None, "backends_large_seed0": None}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for tag in qcausal.cli.FIGURES:
            qcausal.cli.main(["reproduce", tag, "--out", str(tmp / tag)])
            ref["figures"][tag] = {p.name: workloads.sha256_file(p)
                                   for p in sorted((tmp / tag).iterdir())}
        camp = workloads.Campaigns(0, tmp, blank)
        camp.prepare()
        camp.run()
        for name in qcausal.campaigns.CAMPAIGNS:
            summary = json.loads((camp.outdir / f"{name}.json").read_text())
            summary.pop("elapsed_s")
            ref["campaigns_seed0"][name] = summary
    large = workloads.BackendsLarge(0, tmp, blank)
    ref["backends_large_seed0"] = large.values(large.run())
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return {"written": str(workloads.REFERENCE.name)}


def scale_dim(dim: int) -> dict:
    """Time each backend stage for one comb of five-part dimension ``dim``;
    report infeasible instead of crashing when memory runs out (scaling.py
    starts this interpreter under an address-space limit)."""
    row = {"dim": dim, "shape": list(workloads.COMB_SHAPES[dim]), "feasible": True}

    def stage(name, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        row[f"{name}_s"] = time.perf_counter() - t
        return out

    try:
        pc = stage("sample", workloads.sample_comb, "AB", dim, np.random.default_rng(dim))
        sv = stage("statevector", qcausal.interventional_state, pc, "statevector")
        w = stage("tomography", qcausal.process_matrix_of, pc)
        ct = stage("contraction", qcausal.interventional_state, w, "contraction")
        row["backend_gap"] = stage("trace_distance", qcausal.trace_distance, sv.tau, ct.tau)
        stage("evaluate", qcausal.evaluate, sv)
    except MemoryError:
        row.update(feasible=False, reason="MemoryError")
    return {**row, "peak_rss_mb": peak_rss_mb(), "env": environment()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", nargs="?", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--scale-dim", type=int, choices=sorted(workloads.COMB_SHAPES))
    args = p.parse_args(argv)
    if args.probe:
        result = probe()
    elif args.write_reference:
        result = write_reference()
    elif args.scale_dim:
        result = scale_dim(args.scale_dim)
    elif args.workload and args.workdir:
        result = measure(args)
    else:
        p.error("give a workload and --workdir, or one of --probe, "
                "--write-reference, --scale-dim")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
