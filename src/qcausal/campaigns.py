"""Seeded property campaigns behind the ``verify`` command.

Each campaign returns a summary dict with a uniform slack convention: a trial
fails when its slack drops below ``-tolerance`` or is NaN.  For inequality
campaigns the slack is ``value - bound``; for agreement campaigns it is minus
the observed distance.  All randomness derives from per-trial seeds
``seed + t`` so trials are order-independent and reproducible.

Each campaign is a module-level trial function ``trial(seed, t)`` returning
that trial's ``(worst slack, failures)``, run by ``_run``.  It maps the
trials with the package's one worker driver, ``_map``, over ``_workers``
processes (as many as the CPUs this process may use divided by the BLAS
threads per process), and folds the results in trial order, so a summary is
the same bit for bit whatever the number of workers; only ``elapsed_s``, the
wall time, differs.  The CLI maps sweep grid points with the same driver.
"""
from __future__ import annotations

import math
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
import traceback
from functools import partial

import numpy as np

from .labeled import herm_eig, trace_distance
from .channels import (
    apply_channel,
    completely_factorizable,
    ensure_rng,
    haar_unitary,
    random_channel,
    random_density,
    random_pure,
)
from .entropy import MIN_ENTROPY, VON_NEUMANN, entropy_from_spectrum, renyi, ssa_gap
from .process import (
    FUTURE_MODES,
    ORDERS,
    PureState,
    PurifiedComb,
    SwitchSpec,
    FixedOrderComb,
    as_fixed_order,
    comb_apply,
    interventional_state,
    purify_comb,
)
from .witness import dp_witness, marginal_witnesses

TOL = 1e-9
SLOT_DIMS = (2, 3)
TAU_DIM_CAP = 64
# entropy families exercised by the inequality campaigns (validated range)
DP_FAMILIES = (VON_NEUMANN, renyi(0.5), renyi(0.8), renyi(2.0), MIN_ENTROPY)
# work items per worker: a few lemma3 trials take seconds each, so chunks
# stay small enough for idle workers to take over the rest
CHUNKS_PER_WORKER = 16

# default trial count of each campaign, read by its runner and by the CLI
DEFAULT_TRIALS = {
    "thm1": 500,
    "lemma1": 500,
    "lemma3": 100,
    "ssa": 1000,
    "crosscheck": 50,
    "marginal_bounds": 500,
}
CAMPAIGNS = tuple(DEFAULT_TRIALS)


def _check(slack) -> tuple[float, int]:
    """One slack as a ``(worst slack, failures)`` pair; NaN is a failure."""
    slack = float(slack)
    return slack, int(not slack >= -TOL)


def _fold(results) -> tuple[float, int]:
    """Fold ``(worst slack, failures)`` pairs in order: the smallest slack
    (the first of equals, NaN once one is seen) and the summed failures."""
    worst, failures = math.inf, 0
    for slack, fails in results:
        if slack < worst or (math.isnan(slack) and not math.isnan(worst)):
            worst = slack
        failures += fails
    return worst, failures


def _blas_threads(cpus: int) -> int:
    """Threads the BLAS runs per process: OpenBLAS reads these variables in
    this order and by default runs one thread per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def _workers(n: int) -> int:
    """Worker processes for ``n`` independent work items.

    Workers and their BLAS threads share the CPUs this process may use.  With
    BLAS on one thread per CPU (its default) extra processes only make the
    threads compete: on 2 CPUs, two concurrent lemma3 runs took 19 s at two
    BLAS threads and 6 s at one.  So then the items run in this process.
    They do too where workers cannot be forked safely.  Forked workers
    inherit the imported package, but fork is unsafe while this process runs
    other threads, and on macOS, whose system libraries start threads.
    """
    if not hasattr(os, "fork") or sys.platform == "darwin" or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus // _blas_threads(cpus), n))


def _map(fn, items, workers: int) -> list:
    """``fn(item)`` for each of the sequence ``items``, in order: in this
    process when ``workers <= 1``, else on ``workers`` forked processes.

    ``fn`` and ``items`` reach the workers by fork, so ``fn`` need not be
    picklable; its results and exceptions must be.  The workers take
    contiguous chunks of items one at a time from a shared task pipe and
    send their pickled ``(index, ok, value)`` triples back on a pipe each.
    The exception of the first failing item is re-raised here; a worker
    that exits without reporting is a ``RuntimeError``.
    """
    if workers <= 1:
        return list(map(fn, items))
    chunk = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
    tasks_r, tasks_w = os.pipe()
    fds = {tasks_r, tasks_w}
    pids = {}  # result pipe -> worker pid
    # a forked worker must not write out this process's buffered output again
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            fds |= {out_r, out_w}
            pid = os.fork()
            if pid == 0:
                _work(fn, items, chunk, tasks_r, out_w, fds - {tasks_r, out_w})
            os.close(out_w)
            fds.discard(out_w)
            pids[out_r] = pid
        os.close(tasks_r)
        fds.discard(tasks_r)
        # every chunk number is 4 bytes and a write of at most PIPE_BUF
        # bytes is atomic, so no worker's read of 4 bytes splits a number
        chunks = -(-len(items) // chunk)
        tasks = struct.pack(f"={chunks}I", *range(chunks))
        try:
            for at in range(0, len(tasks), select.PIPE_BUF):
                os.write(tasks_w, tasks[at:at + select.PIPE_BUF])
        except BrokenPipeError:  # every worker died; reported below
            pass
        os.close(tasks_w)
        fds.discard(tasks_w)
        reports = _read_all(list(pids))
        results = []
        for out_r, pid in list(pids.items()):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[out_r]
            if status != 0 or not reports[out_r]:
                raise RuntimeError(f"worker {pid} exited with status {status} "
                                   "before reporting its results")
            results += pickle.loads(reports[out_r])
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    results.sort(key=lambda r: r[0])
    for _, ok, value in results:
        if not ok:
            raise value
    return [value for _, _, value in results]


def _work(fn, items, chunk: int, tasks: int, out: int, inherited) -> None:
    """Body of a forked worker of ``_map``; never returns.  Maps ``fn`` over
    each chunk whose number it reads from ``tasks``, until that pipe is empty
    and closed, then writes the pickled triples to ``out``."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        results = []
        while task := os.read(tasks, 4):
            (k,) = struct.unpack("=I", task)
            for i in range(k * chunk, min((k + 1) * chunk, len(items))):
                try:
                    results.append((i, True, fn(items[i])))
                except Exception as exc:
                    results.append((i, False, exc))
        with os.fdopen(out, "wb") as fh:
            fh.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
        status = 0
    except BaseException:  # ends the worker with status 1; say why first
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _read_all(fds: list[int]) -> dict[int, bytes]:
    """Everything written to each of ``fds`` until its writer closes it."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    parts = {fd: [] for fd in fds}
    left = len(fds)
    while left:
        for fd, _ in poller.poll():
            data = os.read(fd, 1 << 16)
            if data:
                parts[fd].append(data)
            else:
                poller.unregister(fd)
                left -= 1
    return {fd: b"".join(p) for fd, p in parts.items()}


def _run(campaign: str, trial, trials: int, seed: int, n: int | None = None) -> dict:
    """Summary of ``trial(seed, t)`` over ``t`` in ``range(n)`` (default
    ``trials``), on ``_workers(trials)`` processes."""
    t0 = time.perf_counter()
    n = trials if n is None else n
    worst, failures = _fold(_map(partial(trial, seed), range(n), _workers(trials)))
    return {
        "campaign": campaign,
        "trials": n,
        "failures": failures,
        "worst_slack": worst,
        "tolerance": TOL,
        "seed": seed,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def _pick(rng, options):
    # same stream as rng.choice(options), at a fraction of its cost
    return options[int(rng.integers(len(options)))]


def _sample_dims(rng) -> dict[str, int]:
    # five slot dims from {2,3}, capped so the five-system state fits in 64
    while True:
        dims = {l: _pick(rng, SLOT_DIMS) for l in ("A0", "A1", "B0", "B1", "F")}
        if math.prod(dims.values()) <= TAU_DIM_CAP:
            return dims


def sample_purified_comb(seed, order: str | None = None) -> PurifiedComb:
    """Random purified comb under the campaign dimension policy."""
    rng = ensure_rng(seed)
    if order is None:
        order = ORDERS[int(rng.integers(2))]
    first, second = order[0], order[1]
    while True:
        dims = _sample_dims(rng)
        dq0 = _pick(rng, (2, 3, 4))
        if (dims[f"{first}1"] * dq0) % dims[f"{second}0"]:
            continue
        dq1 = dims[f"{first}1"] * dq0 // dims[f"{second}0"]
        if (dims[f"{second}1"] * dq1) % dims["F"]:
            continue
        dq2 = dims[f"{second}1"] * dq1 // dims["F"]
        break
    dims.update(Q0=dq0, Q1=dq1, Q2=dq2)
    psi = PureState(random_pure(dims[f"{first}0"] * dq0, rng),
                    [(f"{first}0", dims[f"{first}0"]), ("Q0", dq0)])
    u1 = haar_unitary(dims[f"{first}1"] * dq0, rng)
    u2 = haar_unitary(dims[f"{second}1"] * dq1, rng)
    return PurifiedComb(order, psi, u1, u2, dims)


def sample_fixed_order_comb(seed, order: str | None = None) -> FixedOrderComb:
    """Random comb with mixed state, noisy channels, env dims from {1,2,3}."""
    rng = ensure_rng(seed)
    if order is None:
        order = ORDERS[int(rng.integers(2))]
    first, second = order[0], order[1]
    dims = _sample_dims(rng)
    de0, de1, de2 = (_pick(rng, (1, 2, 3)) for _ in range(3))
    d_rho = dims[f"{first}0"] * de0
    rho = random_density(d_rho, rank=int(rng.integers(1, d_rho + 1)), seed=rng,
                         dims=[(f"{first}0", dims[f"{first}0"]), ("E0", de0)])

    def chan(in_pairs, out_pairs):
        din = math.prod(d for _, d in in_pairs)
        dout = math.prod(d for _, d in out_pairs)
        rank = max(int(rng.integers(1, 4)), -(-din // dout))
        return random_channel(in_pairs, out_pairs, kraus_rank=rank, seed=rng)

    lam1 = chan([(f"{first}1", dims[f"{first}1"]), ("E0", de0)],
                [(f"{second}0", dims[f"{second}0"]), ("E1", de1)])
    lam2 = chan([(f"{second}1", dims[f"{second}1"]), ("E1", de1)],
                [("F", dims["F"]), ("E2", de2)])
    return FixedOrderComb(order, rho, lam1, lam2)


def _thm1_trial(seed: int, t: int) -> tuple[float, int]:
    order = ORDERS[t % 2]
    tau = interventional_state(sample_purified_comb(seed + t, order=order), "statevector")
    return _fold(_check(value - bound)
                 for value, bound in (dp_witness(tau, order, spec) for spec in DP_FAMILIES))


def run_thm1(trials: int = DEFAULT_TRIALS["thm1"], seed: int = 0) -> dict:
    """Matching-order DP witness >= its dimension bound on random purified
    combs, across all validated entropy families (shared spectra)."""
    return _run("thm1", _thm1_trial, trials, seed)


def _lemma1_trial(seed: int, t: int) -> tuple[float, int]:
    rng = ensure_rng(seed + t)
    while True:
        dn = _pick(rng, (2, 3))
        din = _pick(rng, (2, 3, 4))
        dtr = _pick(rng, (2, 3))
        if (dn * din) % dtr == 0:
            break
    dout = dn * din // dtr
    u = haar_unitary(dn * din, rng)
    chan = completely_factorizable(u, dim_noise=dn, dim_in=din, dim_traced=dtr)
    rho = random_density(din, rank=int(rng.integers(1, din + 1)), seed=rng,
                         dims=[("Q1", din)])
    out = apply_channel(chan, rho)
    lam_in = herm_eig(rho)[0]
    lam_out = herm_eig(out)[0]
    bound = math.log2(dout / din)
    return _fold(_check(entropy_from_spectrum(lam_out, spec)
                        - entropy_from_spectrum(lam_in, spec) - bound)
                 for spec in DP_FAMILIES)


def run_lemma1(trials: int = DEFAULT_TRIALS["lemma1"], seed: int = 0) -> dict:
    """Entropy gain of completely factorizable channels >= log2 dim ratio."""
    return _run("lemma1", _lemma1_trial, trials, seed)


def _lemma3_trial(seed: int, t: int) -> tuple[float, int]:
    rng = ensure_rng(seed + t)
    comb = sample_fixed_order_comb(rng)
    flat = as_fixed_order(purify_comb(comb))

    def slot(x0, x1):
        din, dout = comb.dims[x0], comb.dims[x1]
        rank = max(int(rng.integers(1, 4)), -(-din // dout))
        return random_channel([(x0, din)], [(x1, dout)], kraus_rank=rank, seed=rng)

    a, b = slot("A0", "A1"), slot("B0", "B1")
    diff = comb_apply(comb, a, b).matrix - comb_apply(flat, a, b).matrix
    return _check(-float(np.max(np.abs(diff))))


def run_lemma3(trials: int = DEFAULT_TRIALS["lemma3"], seed: int = 0) -> dict:
    """comb_apply agrees with the purified form on random channel pairs."""
    return _run("lemma3", _lemma3_trial, trials, seed)


def _ssa_trial(seed: int, t: int) -> tuple[float, int]:
    rng = ensure_rng(seed + t)
    rho = random_density(8, rank=int(rng.integers(1, 9)), seed=rng,
                         dims=[("X", 2), ("Y", 2), ("Z", 2)])
    return _check(ssa_gap(rho, ["X"], ["Y"], ["Z"]))


def run_ssa(trials: int = DEFAULT_TRIALS["ssa"], seed: int = 0) -> dict:
    """Strong subadditivity gap >= 0 on random three-qubit states."""
    return _run("ssa", _ssa_trial, trials, seed)


# crosscheck's first trial indices: the switch over every future mode and
# these control weights; the sampled combs follow
_SWITCH_GRID = tuple((mode, lam) for mode in FUTURE_MODES for lam in (0.0, 0.3, 0.7, 1.0))


def _crosscheck_trial(seed: int, t: int) -> tuple[float, int]:
    if t < len(_SWITCH_GRID):
        mode, lam = _SWITCH_GRID[t]
        source = SwitchSpec(lam, future_mode=mode)
    else:
        source = sample_purified_comb(seed + t - len(_SWITCH_GRID))
    sv = interventional_state(source, "statevector").tau
    ct = interventional_state(source, "contraction").tau
    return _check(-trace_distance(sv, ct))


def run_crosscheck(trials: int = DEFAULT_TRIALS["crosscheck"], seed: int = 0) -> dict:
    """Statevector and contraction backends agree in trace distance: the
    switch over all future modes and a grid of control weights, plus random
    purified combs."""
    return _run("crosscheck", _crosscheck_trial, trials, seed,
                n=len(_SWITCH_GRID) + trials)


def _marginal_bounds_trial(trials: int, seed: int, t: int) -> tuple[float, int]:
    if t < trials:
        rng = ensure_rng(seed + t)
        dims = _sample_dims(rng)
        total = math.prod(dims.values())
        rho = random_density(total, rank=int(rng.integers(1, total + 1)), seed=rng,
                             dims=list(dims.items()))
        checks = []
        for order in ORDERS:
            dp, _ = dp_witness(rho, order)
            i1, i2, _ = marginal_witnesses(rho, order)
            checks.append(_check(min(i1 - dp, i2 - dp)))
        return _fold(checks)
    t -= trials
    order = ORDERS[t % 2]
    pc = sample_purified_comb(seed + 500_000 + t, order=order)
    tau = interventional_state(pc, "statevector")
    i1, i2, bound = marginal_witnesses(tau, order)
    return _check(min(i1 - bound, i2 - bound))


def run_marginal_bounds(trials: int = DEFAULT_TRIALS["marginal_bounds"], seed: int = 0) -> dict:
    """Two-part soundness of the marginal witnesses: I1 and I2 upper-bound
    the DP witness on arbitrary five-system states (trials ``0 .. trials-1``),
    and meet the dimension bound of the matching order on random fixed-order
    processes (trial ``trials + t`` draws from ``seed + 500_000 + t``)."""
    return _run("marginal_bounds", partial(_marginal_bounds_trial, trials), trials, seed,
                n=2 * trials)


RUNNERS = {
    "thm1": run_thm1,
    "lemma1": run_lemma1,
    "lemma3": run_lemma3,
    "ssa": run_ssa,
    "crosscheck": run_crosscheck,
    "marginal_bounds": run_marginal_bounds,
}
