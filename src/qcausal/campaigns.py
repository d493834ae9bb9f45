"""Seeded property campaigns behind the ``verify`` command.

Each campaign returns a summary dict with a uniform slack convention: a check
fails when its slack drops below ``-tolerance`` or is NaN, and ``failures``
counts failing checks, not trials.  An inequality's slack is ``value - bound``
and an agreement's minus the observed distance.  All randomness derives from
per-trial seeds ``seed + t``: trials are order-independent and reproducible.

Every trial gives the raw slacks of its checks.  A campaign hands ``_run`` a
block function ``block(seed, ts)``, the slacks of each trial in ``ts``, and
``_run`` alone applies the fail rule (``_check``) and the fold (``_fold``).
It cuts the trials into contiguous blocks once (``_blocks``) and maps them
with the package's one worker driver, ``_map``, over ``_workers`` processes
(as many as the CPUs this process may use divided by the BLAS threads per
process).  Each block's checked slacks are folded where it runs, and those
folds again in block order; the fold keeps the first of equal minima and
NaN once seen, so a summary is the same bit for bit whatever the cut and
the number of workers; only ``elapsed_s`` differs.  The CLI maps its
sub-grids of at most ``BLOCK_ITEMS`` control weights with the same driver.

``lemma1``, ``lemma3`` and ``crosscheck`` run a block's trials one by one
(``_one_by_one``), in ``BLOCKS_PER_WORKER`` or more blocks per worker: a few
lemma3 trials take seconds, and idle workers take over the rest.  ``thm1``,
``ssa`` and ``marginal_bounds`` spend most of a trial in Python overhead on
a small state, so a block of at most ``BLOCK_ITEMS`` trials samples each
from its own seed as a trial alone would, groups them by order and labeled
dimensions, and validates and evaluates each group as one stack
(``_stacked``), which gives every trial's slacks bit for bit.  A block's
stacks are bounded, so memory does not grow with the trial count.
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
from typing import NamedTuple

import numpy as np

from .labeled import DensityOperator, trace_distance
from .channels import (
    apply_channel,
    completely_factorizable,
    _wishart,
    ensure_rng,
    haar_unitary,
    random_channel,
    random_density,
    random_pure,
)
from .entropy import MIN_ENTROPY, VON_NEUMANN, entropy, renyi, ssa_gap
from .process import (
    FUTURE_MODES,
    ORDERS,
    TAU_LABELS,
    InterventionalState,
    PureState,
    PurifiedComb,
    SwitchSpec,
    FixedOrderComb,
    _interventional,
    _slots,
    _wire_purified,
    as_fixed_order,
    comb_apply,
    interventional_state,
    purify_comb,
)
from .witness import dp_witness, marginal_witnesses

TOL = 1e-9
SLOT_DIMS = (2, 3)
TAU_DIM_CAP = 64
# dims of Q0 of a sampled purified comb, and of E0 E1 E2 of a sampled
# fixed-order comb
Q0_DIMS = (2, 3, 4)
ENV_DIMS = (1, 2, 3)
# entropy families of the inequality campaigns; one more moves thm1's seed-0
# worst_slack, pinned in bench/reference.json at 2.572851643067864e-06: the
# max-entropy to -1.11e-16 (trial 3), renyi(0.3) to 1.54e-06 (trial 305)
DP_FAMILIES = (VON_NEUMANN, renyi(0.5), renyi(0.8), renyi(2.0), MIN_ENTROPY)
# blocks per worker of a campaign whose trials run one by one: a few lemma3
# trials take seconds each, so blocks stay small enough for idle workers to
# take over the rest
BLOCKS_PER_WORKER = 16
# most items per stack: trials per block of a stacked campaign and control
# weights per CLI sub-grid; on 2 CPUs 64 ran as fast as any smaller size for both
BLOCK_ITEMS = 64

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
    picklable; its results and exceptions must be.  The workers take item
    numbers one at a time from a shared task pipe, and after the last one
    send their pickled ``(index, ok, value)`` triples back on a pipe each,
    which is read to its end one worker after another.  The exception of
    the first failing item is re-raised here; a worker that exits without
    reporting is a ``RuntimeError``.
    """
    if workers <= 1:
        return list(map(fn, items))
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
                _work(fn, items, tasks_r, out_w, fds - {tasks_r, out_w})
            os.close(out_w)
            fds.discard(out_w)
            pids[out_r] = pid
        os.close(tasks_r)
        fds.discard(tasks_r)
        # every item number is 4 bytes and a write of at most PIPE_BUF
        # bytes is atomic, so no worker's read of 4 bytes splits a number
        tasks = struct.pack(f"={len(items)}I", *range(len(items)))
        try:
            for at in range(0, len(tasks), select.PIPE_BUF):
                os.write(tasks_w, tasks[at:at + select.PIPE_BUF])
        except BrokenPipeError:  # every worker died; reported below
            pass
        os.close(tasks_w)
        fds.discard(tasks_w)
        results = []
        for out_r, pid in list(pids.items()):
            # a worker writes only after its last task, so reading its pipe
            # while the others wait to write theirs cannot stall
            with open(out_r, "rb") as fh:
                fds.discard(out_r)
                report = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[out_r]
            if status != 0 or not report:
                raise RuntimeError(f"worker {pid} exited with status {status} "
                                   "before reporting its results")
            results += pickle.loads(report)
    finally:
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    results.sort(key=lambda r: r[0])
    for _, ok, value in results:
        if not ok:
            raise value
    return [value for _, _, value in results]


def _work(fn, items, tasks: int, out: int, inherited) -> None:
    """Body of a forked worker of ``_map``; never returns.  Maps ``fn`` over
    each item whose number it reads from ``tasks``, until that pipe is empty
    and closed, then writes the pickled triples to ``out``."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        results = []
        while task := os.read(tasks, 4):
            (i,) = struct.unpack("=I", task)
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


def _blocks(n: int, cap: int, workers: int | None = None) -> tuple[list[range], int]:
    """``range(n)`` cut into contiguous parts of at most ``cap`` items, as
    many as fill every worker equally (but no empty part), and the number of
    workers: ``workers``, by default ``_workers`` of the parts."""
    parts = -(-n // cap)
    if workers is None:
        workers = _workers(parts)
    parts = min(n, -(-parts // workers) * workers)
    cuts = [n * k // parts for k in range(parts + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])], workers


def _run(campaign: str, block, trials: int, seed: int, n: int | None = None,
         cap: int | None = None) -> dict:
    """Summary of the trials ``t`` in ``range(n)`` (default ``trials``).

    ``block(seed, ts)`` gives the slacks of each trial in ``ts``.  The blocks
    hold at most ``cap`` trials; without a cap they are cut for
    ``BLOCKS_PER_WORKER`` blocks or more on each of ``_workers(trials)``.
    """
    if trials < 1 or seed < 0:
        raise ValueError(f"need trials >= 1 and seed >= 0, got trials={trials}, seed={seed}")
    t0 = time.perf_counter()
    n = trials if n is None else n
    if cap is None:
        workers = _workers(trials)
        blocks, workers = _blocks(n, max(1, n // (workers * BLOCKS_PER_WORKER)), workers)
    else:
        blocks, workers = _blocks(n, cap)
    worst, failures = _fold(_map(lambda ts: _fold(_check(s) for trial in block(seed, ts)
                                                  for s in trial), blocks, workers))
    return {
        "campaign": campaign,
        "trials": n,
        "failures": failures,
        "worst_slack": worst,
        "tolerance": TOL,
        "seed": seed,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def _one_by_one(trial, seed: int, ts: range):
    """The slacks of the trials in ``ts``, run one by one as ``trial(seed, t)``."""
    return map(partial(trial, seed), ts)


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
    x0, x1, y0, y1 = _slots(order)
    while True:
        dims = _sample_dims(rng)
        dq0 = _pick(rng, Q0_DIMS)
        if (dims[x1] * dq0) % dims[y0]:
            continue
        dq1 = dims[x1] * dq0 // dims[y0]
        if (dims[y1] * dq1) % dims["F"]:
            continue
        dq2 = dims[y1] * dq1 // dims["F"]
        break
    dims.update(Q0=dq0, Q1=dq1, Q2=dq2)
    psi = PureState(random_pure(dims[x0] * dq0, rng), [(x0, dims[x0]), ("Q0", dq0)])
    u1 = haar_unitary(dims[x1] * dq0, rng)
    u2 = haar_unitary(dims[y1] * dq1, rng)
    return PurifiedComb(order, psi, u1, u2, dims)


def sample_fixed_order_comb(seed, order: str | None = None) -> FixedOrderComb:
    """Random comb with mixed state, noisy channels, env dims from {1,2,3}."""
    rng = ensure_rng(seed)
    if order is None:
        order = ORDERS[int(rng.integers(2))]
    x0, x1, y0, y1 = _slots(order)
    dims = _sample_dims(rng)
    de0, de1, de2 = (_pick(rng, ENV_DIMS) for _ in range(3))
    d_rho = dims[x0] * de0
    rho = random_density(d_rho, rank=int(rng.integers(1, d_rho + 1)), seed=rng,
                         dims=[(x0, dims[x0]), ("E0", de0)])
    lam1 = _random_slot_channel(rng, [(x1, dims[x1]), ("E0", de0)],
                                [(y0, dims[y0]), ("E1", de1)])
    lam2 = _random_slot_channel(rng, [(y1, dims[y1]), ("E1", de1)],
                                [("F", dims["F"]), ("E2", de2)])
    return FixedOrderComb(order, rho, lam1, lam2)


def _random_slot_channel(rng, in_pairs, out_pairs):
    """Random channel of Kraus rank drawn from 1 to 3, or the least the dims allow."""
    din = math.prod(d for _, d in in_pairs)
    dout = math.prod(d for _, d in out_pairs)
    rank = max(int(rng.integers(1, 4)), -(-din // dout))
    return random_channel(in_pairs, out_pairs, kraus_rank=rank, seed=rng)


class _Draw(NamedTuple):
    """One trial of a stacked block, before its slacks: its index ``t``, the
    seed it was sampled from, the order its witnesses are evaluated in (None
    if the evaluation does not take one), and its state's labeled dims and
    unvalidated matrix."""
    t: int
    sample_seed: int
    order: str | None
    dims: tuple[tuple[str, int], ...]
    matrix: np.ndarray


def _stacked(campaign: str, seed: int, draws: list[_Draw], build, evaluate) -> list:
    """The slacks of each of ``draws``, in order: one tuple per trial.

    The draws of one order and dims form one stack: ``build(stack, dims)``
    validates it into a state, and the slack arrays of ``evaluate(state,
    order)``, one per check, are zipped into a tuple per slice.  A stack that
    fails validation is validated matrix by matrix, and the first that fails
    raises a ``ValueError`` that names the campaign, the seed and the trial.
    """
    groups: dict[tuple, list[_Draw]] = {}
    for draw in draws:
        groups.setdefault((draw.order, draw.dims), []).append(draw)
    slacks = {}
    for (order, dims), group in groups.items():
        try:
            state = build(np.stack([draw.matrix for draw in group]), dims)
        except ValueError:
            for draw in group:
                try:
                    build(draw.matrix, dims)
                except ValueError as exc:
                    raise ValueError(f"{campaign} campaign, seed {seed}, trial {draw.t} "
                                     f"(sample seed {draw.sample_seed}): {exc}") from exc
            raise
        slacks.update(zip((draw.t for draw in group), zip(*evaluate(state, order))))
    return [slacks[draw.t] for draw in draws]


def _comb_draw(t: int, sample_seed: int, order: str) -> _Draw:
    """Trial ``t``: the wired state of ``sample_purified_comb(sample_seed, order)``."""
    pc = sample_purified_comb(sample_seed, order=order)
    return _Draw(t, sample_seed, order, tuple((l, pc.dims[l]) for l in TAU_LABELS),
                 _wire_purified(pc))


def _dp_slacks(tau: InterventionalState, order: str) -> list[np.ndarray]:
    return [value - bound for value, bound in (dp_witness(tau, order, spec)
                                               for spec in DP_FAMILIES)]


def _thm1_block(seed: int, ts: range) -> list[tuple]:
    draws = [_comb_draw(t, seed + t, ORDERS[t % 2]) for t in ts]
    return _stacked("thm1", seed, draws, _interventional, _dp_slacks)


def run_thm1(trials: int = DEFAULT_TRIALS["thm1"], seed: int = 0) -> dict:
    """Matching-order DP witness >= its dimension bound on random purified
    combs, in every family of ``DP_FAMILIES`` (shared spectra)."""
    return _run("thm1", _thm1_block, trials, seed, cap=BLOCK_ITEMS)


def _lemma1_trial(seed: int, t: int) -> list[float]:
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
    bound = math.log2(dout / din)
    return [entropy(out, spec=spec) - entropy(rho, spec=spec) - bound for spec in DP_FAMILIES]


def run_lemma1(trials: int = DEFAULT_TRIALS["lemma1"], seed: int = 0) -> dict:
    """Entropy gain of completely factorizable channels >= log2 dim ratio."""
    return _run("lemma1", partial(_one_by_one, _lemma1_trial), trials, seed)


def _lemma3_trial(seed: int, t: int) -> list[float]:
    rng = ensure_rng(seed + t)
    comb = sample_fixed_order_comb(rng)
    flat = as_fixed_order(purify_comb(comb))
    a, b = (_random_slot_channel(rng, [(x0, comb.dims[x0])], [(x1, comb.dims[x1])])
            for x0, x1 in (("A0", "A1"), ("B0", "B1")))
    diff = comb_apply(comb, a, b).matrix - comb_apply(flat, a, b).matrix
    return [-float(np.max(np.abs(diff)))]


def run_lemma3(trials: int = DEFAULT_TRIALS["lemma3"], seed: int = 0) -> dict:
    """comb_apply agrees with the purified form on random channel pairs."""
    return _run("lemma3", partial(_one_by_one, _lemma3_trial), trials, seed)


_SSA_DIMS = (("X", 2), ("Y", 2), ("Z", 2))


def _ssa_slacks(rho: DensityOperator, order: None) -> list[np.ndarray]:
    return [ssa_gap(rho, ["X"], ["Y"], ["Z"])]


def _ssa_block(seed: int, ts: range) -> list[tuple]:
    draws = []
    for t in ts:
        rng = ensure_rng(seed + t)
        draws.append(_Draw(t, seed + t, None, _SSA_DIMS,
                           _wishart(8, int(rng.integers(1, 9)), rng)))
    return _stacked("ssa", seed, draws, DensityOperator, _ssa_slacks)


def run_ssa(trials: int = DEFAULT_TRIALS["ssa"], seed: int = 0) -> dict:
    """Strong subadditivity gap >= 0 on random three-qubit states."""
    return _run("ssa", _ssa_block, trials, seed, cap=BLOCK_ITEMS)


# crosscheck's first trial indices: the switch over every future mode and
# these control weights; the sampled combs follow
_SWITCH_GRID = tuple((mode, lam) for mode in FUTURE_MODES for lam in (0.0, 0.3, 0.7, 1.0))


def _crosscheck_trial(seed: int, t: int) -> list[float]:
    if t < len(_SWITCH_GRID):
        mode, lam = _SWITCH_GRID[t]
        source = SwitchSpec(lam, future_mode=mode)
    else:
        source = sample_purified_comb(seed + t - len(_SWITCH_GRID))
    sv = interventional_state(source, "statevector")
    ct = interventional_state(source, "contraction")
    return [-trace_distance(sv, ct)]


def run_crosscheck(trials: int = DEFAULT_TRIALS["crosscheck"], seed: int = 0) -> dict:
    """Statevector and contraction backends agree in trace distance: the
    switch over all future modes and a grid of control weights, plus random
    purified combs."""
    return _run("crosscheck", partial(_one_by_one, _crosscheck_trial), trials, seed,
                n=len(_SWITCH_GRID) + trials)


def _state_draw(t: int, sample_seed: int) -> _Draw:
    """Trial ``t``: a random five-part state of sampled dims and rank."""
    rng = ensure_rng(sample_seed)
    dims = _sample_dims(rng)
    total = math.prod(dims.values())
    matrix = _wishart(total, int(rng.integers(1, total + 1)), rng)
    return _Draw(t, sample_seed, None, tuple(dims.items()), matrix)


def _dominance_slacks(rho: DensityOperator, order: None) -> list[np.ndarray]:
    slacks = []
    for order in ORDERS:
        dp, _ = dp_witness(rho, order)
        slacks += [i - dp for i in marginal_witnesses(rho, order)[:2]]
    return slacks


def _bound_slacks(tau: InterventionalState, order: str) -> list[np.ndarray]:
    i1, i2, bound = marginal_witnesses(tau, order)
    return [i1 - bound, i2 - bound]


def _marginal_bounds_block(trials: int, seed: int, ts: range) -> list[tuple]:
    states = [_state_draw(t, seed + t) for t in ts if t < trials]
    combs = [_comb_draw(t, seed + 500_000 + t - trials, ORDERS[(t - trials) % 2])
             for t in ts if t >= trials]
    return (_stacked("marginal_bounds", seed, states, DensityOperator, _dominance_slacks)
            + _stacked("marginal_bounds", seed, combs, _interventional, _bound_slacks))


def run_marginal_bounds(trials: int = DEFAULT_TRIALS["marginal_bounds"], seed: int = 0) -> dict:
    """Two-part soundness of the marginal witnesses: I1 and I2 each upper-bound
    the DP witness on arbitrary five-system states (trials ``0 .. trials-1``),
    and meet the dimension bound of the matching order on random fixed-order
    processes (trial ``trials + t`` draws from ``seed + 500_000 + t``)."""
    return _run("marginal_bounds", partial(_marginal_bounds_block, trials), trials, seed,
                n=2 * trials, cap=BLOCK_ITEMS)


RUNNERS = {
    "thm1": run_thm1,
    "lemma1": run_lemma1,
    "lemma3": run_lemma3,
    "ssa": run_ssa,
    "crosscheck": run_crosscheck,
    "marginal_bounds": run_marginal_bounds,
}
