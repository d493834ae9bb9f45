"""Randomized verification campaigns: schema, determinism, small-scale runs,
and the trial driver that spreads a campaign over worker processes."""
import math
import os
import re
import signal
import subprocess
import sys
import threading
from functools import partial

import numpy as np
import pytest

import qcausal.campaigns as camp
from qcausal import (
    CAMPAIGNS,
    DEFAULT_TRIALS,
    FUTURE_MODES,
    MIN_ENTROPY,
    ORDERS,
    RUNNERS,
    TRACE_TOL,
    VON_NEUMANN,
    PurifiedComb,
    SwitchSpec,
    apply_channel,
    as_fixed_order,
    comb_apply,
    completely_factorizable,
    dp_witness,
    entropy,
    haar_unitary,
    interventional_state,
    marginal_witnesses,
    purify_comb,
    random_channel,
    random_density,
    renyi,
    run_crosscheck,
    run_lemma1,
    run_lemma3,
    run_marginal_bounds,
    run_ssa,
    run_thm1,
    sample_fixed_order_comb,
    sample_purified_comb,
    ssa_gap,
    trace_distance,
)
from qcausal.cli import BACKEND_AGREE_TOL

from conftest import child_env, purified_comb_of_shape, traced_peak

SUMMARY_KEYS = {"campaign", "trials", "failures", "worst_slack", "tolerance",
                "seed", "elapsed_s"}


class TestRegistry:
    def test_tags_consistent(self):
        assert set(CAMPAIGNS) == set(RUNNERS) == set(DEFAULT_TRIALS)
        assert CAMPAIGNS == ("thm1", "lemma1", "lemma3", "ssa", "crosscheck",
                            "marginal_bounds")

    def test_default_trials_positive(self):
        assert all(n >= 1 for n in DEFAULT_TRIALS.values())


@pytest.mark.parametrize("runner,trials", [
    (run_thm1, 25), (run_lemma1, 25), (run_lemma3, 5),
    (run_ssa, 50), (run_crosscheck, 4), (run_marginal_bounds, 25),
])
def test_small_scale_clean(runner, trials):
    out = runner(trials=trials, seed=0)
    assert set(out) == SUMMARY_KEYS
    assert out["failures"] == 0
    assert out["worst_slack"] >= -out["tolerance"]
    assert out["trials"] >= trials  # crosscheck and marginals count checks


@pytest.mark.parametrize("name", CAMPAIGNS)
@pytest.mark.parametrize("trials, seed, bad", [
    (0, 0, "trials=0"), (-3, 0, "trials=-3"), (1, -1, "seed=-1"),
], ids=["trials 0", "trials -3", "seed -1"])
def test_runners_reject_bad_trials_and_seed(name, trials, seed, bad, monkeypatch):
    # rejected before any block is cut: at trials 0 _blocks divided by zero,
    # and at trials -3 a run summed no trials, or 9 of crosscheck's 12
    def no_blocks(*args, **kwargs):
        raise AssertionError("blocks were cut")
    monkeypatch.setattr(camp, "_blocks", no_blocks)
    with pytest.raises(ValueError, match=bad):
        RUNNERS[name](trials=trials, seed=seed)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_thm1(trials=10, seed=3)
        b = run_thm1(trials=10, seed=3)
        assert a["worst_slack"] == b["worst_slack"]

    def test_seed_matters(self):
        a = run_thm1(trials=10, seed=3)
        b = run_thm1(trials=10, seed=4)
        assert a["worst_slack"] != b["worst_slack"]


class TestSamplers:
    def test_purified_comb_order_control(self):
        assert sample_purified_comb(7, order="AB").order == "AB"
        assert sample_purified_comb(7, order="BA").order == "BA"
        pc = sample_purified_comb(8)
        assert isinstance(pc, PurifiedComb)
        assert pc.order in ("AB", "BA")

    @pytest.mark.parametrize("order", ["XY", "A", "ab", "ABA"])
    @pytest.mark.parametrize("sampler", [sample_purified_comb, sample_fixed_order_comb])
    def test_unknown_order_rejected_by_name(self, sampler, order):
        # unknown wires, one party, lower case, three parties: the sampler
        # checks the order before it looks up any wire
        with pytest.raises(ValueError, match=re.escape(
                f"order must be one of ('AB', 'BA'), got {order!r}")):
            sampler(0, order=order)

    def test_purified_comb_deterministic(self):
        a = sample_purified_comb(9, order="AB")
        b = sample_purified_comb(9, order="AB")
        assert np.array_equal(a.u1, b.u1)

    def test_fixed_order_comb_contract(self):
        for seed in range(6):
            comb = sample_fixed_order_comb(seed)
            assert comb.order in ("AB", "BA")
            for chan in (comb.lambda1, comb.lambda2):
                gram = sum(k.conj().T @ k for k in chan.kraus)
                assert np.abs(gram - np.eye(chan.in_dims.total)).max() <= TRACE_TOL
            assert comb.rho.dims.dim("E0") in (1, 2, 3)
            assert set(comb.dims) == {"A0", "A1", "B0", "B1", "F", "E0", "E1", "E2"}

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_samplers_match_rng_choice_reference(self, monkeypatch, seed):
        fast = (sample_purified_comb(seed), sample_fixed_order_comb(seed))
        monkeypatch.setattr(camp, "_pick", lambda rng, options: int(rng.choice(options)))
        ref = (sample_purified_comb(seed), sample_fixed_order_comb(seed))
        (pc, comb), (pc_ref, comb_ref) = fast, ref
        assert pc.order == pc_ref.order and pc.dims == pc_ref.dims
        assert np.array_equal(pc.psi.amplitudes, pc_ref.psi.amplitudes)
        assert np.array_equal(pc.u1, pc_ref.u1) and np.array_equal(pc.u2, pc_ref.u2)
        assert comb.order == comb_ref.order
        assert np.array_equal(comb.rho.matrix, comb_ref.rho.matrix)
        for chan, chan_ref in ((comb.lambda1, comb_ref.lambda1),
                               (comb.lambda2, comb_ref.lambda2)):
            assert chan.in_dims.labels == chan_ref.in_dims.labels
            assert chan.out_dims.labels == chan_ref.out_dims.labels
            assert len(chan.kraus) == len(chan_ref.kraus)
            assert all(np.array_equal(k, k_ref) for k, k_ref in zip(chan.kraus, chan_ref.kraus))


class TestDimensionCap:
    def test_sampled_dims_never_exceed_cap(self):
        totals = set()
        for seed in range(2000):
            dims = camp._sample_dims(np.random.default_rng(seed))
            assert set(dims) == {"A0", "A1", "B0", "B1", "F"}
            assert set(dims.values()) <= set(camp.SLOT_DIMS)
            totals.add(math.prod(dims.values()))
        # 2 x 2 x 2 x 2 x 3 is the largest product of slot dims under the cap
        assert max(totals) == 48 <= camp.TAU_DIM_CAP

    @pytest.mark.parametrize("dq0", [2, 4])
    @pytest.mark.parametrize("order", ["AB", "BA"])
    def test_comb_at_cap(self, order, dq0):
        comb = purified_comb_of_shape(order, (2, 2, 2, 2, 4), seed=64 + dq0, q0=dq0)
        sv = interventional_state(comb, "statevector")
        ct = interventional_state(comb, "contraction")
        assert sv.tau.dims.total == camp.TAU_DIM_CAP
        assert trace_distance(sv.tau, ct.tau) < BACKEND_AGREE_TOL
        for tau in (sv, ct):
            for spec in camp.DP_FAMILIES:
                value, bound = dp_witness(tau, order, spec)
                assert bound == -1.0
                assert value >= bound - camp.TOL, spec.label


class TestFold:
    def test_nan_slack_is_a_failure(self):
        worst, failures = camp._fold([camp._check(0.5), camp._check(math.nan),
                                      camp._check(0.2)])
        assert failures == 1
        assert math.isnan(worst)

    def test_nan_survives_later_minima(self):
        worst, failures = camp._fold([(0.5, 0), (math.nan, 1), (-1.0, 1)])
        assert math.isnan(worst) and failures == 2

    def test_min_and_sum(self):
        assert camp._check(-2 * camp.TOL) == (-2 * camp.TOL, 1)
        assert camp._check(-camp.TOL) == (-camp.TOL, 0)
        assert camp._fold([(0.3, 0), (-1.0, 2), (0.1, 1)]) == (-1.0, 3)
        assert camp._fold([]) == (math.inf, 0)

    def test_first_of_equal_minima_is_kept(self):
        worst, _ = camp._fold([(0.0, 0), (-0.0, 0)])
        assert math.copysign(1.0, worst) == 1.0


# Reference trials of each campaign, built from the public API alone: each
# gives the slacks of trial t of a run at `seed` with `trials` trials, drawn
# from the same per-trial seed and in the same order as the campaign draws.
REF_FAMILIES = (VON_NEUMANN, renyi(0.5), renyi(0.8), renyi(2.0), MIN_ENTROPY)


def _ref_pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _ref_dims(rng):
    while True:
        dims = {l: _ref_pick(rng, (2, 3)) for l in ("A0", "A1", "B0", "B1", "F")}
        if math.prod(dims.values()) <= 64:
            return dims


def _ref_thm1(trials, seed, t):
    order = ORDERS[t % 2]
    tau = interventional_state(sample_purified_comb(seed + t, order=order), "statevector")
    return [value - bound for value, bound in (dp_witness(tau, order, spec)
                                               for spec in REF_FAMILIES)]


def _ref_lemma1(trials, seed, t):
    rng = np.random.default_rng(seed + t)
    while True:
        dn, din, dtr = _ref_pick(rng, (2, 3)), _ref_pick(rng, (2, 3, 4)), _ref_pick(rng, (2, 3))
        if (dn * din) % dtr == 0:
            break
    chan = completely_factorizable(haar_unitary(dn * din, rng), dim_noise=dn, dim_in=din,
                                   dim_traced=dtr)
    rho = random_density(din, int(rng.integers(1, din + 1)), rng, dims=[("Q1", din)])
    out = apply_channel(chan, rho)
    bound = math.log2(dn / dtr)
    return [entropy(out, spec=spec) - entropy(rho, spec=spec) - bound for spec in REF_FAMILIES]


def _ref_lemma3(trials, seed, t):
    rng = np.random.default_rng(seed + t)
    comb = sample_fixed_order_comb(rng)
    flat = as_fixed_order(purify_comb(comb))

    def slot(x0, x1):
        din, dout = comb.dims[x0], comb.dims[x1]
        rank = max(int(rng.integers(1, 4)), -(-din // dout))
        return random_channel([(x0, din)], [(x1, dout)], kraus_rank=rank, seed=rng)

    a, b = slot("A0", "A1"), slot("B0", "B1")
    return [-float(np.max(np.abs(comb_apply(comb, a, b).matrix
                                 - comb_apply(flat, a, b).matrix)))]


def _ref_ssa(trials, seed, t):
    rng = np.random.default_rng(seed + t)
    rho = random_density(8, int(rng.integers(1, 9)), rng, dims=[("X", 2), ("Y", 2), ("Z", 2)])
    return [ssa_gap(rho, ["X"], ["Y"], ["Z"])]


def _ref_crosscheck(trials, seed, t):
    grid = [(mode, lam) for mode in FUTURE_MODES for lam in (0.0, 0.3, 0.7, 1.0)]
    if t < len(grid):
        mode, lam = grid[t]
        source = SwitchSpec(lam, future_mode=mode)
    else:
        source = sample_purified_comb(seed + t - len(grid))
    return [-trace_distance(interventional_state(source, "statevector").tau,
                            interventional_state(source, "contraction").tau)]


def _ref_marginal_bounds(trials, seed, t):
    if t < trials:
        rng = np.random.default_rng(seed + t)
        dims = _ref_dims(rng)
        total = math.prod(dims.values())
        rho = random_density(total, int(rng.integers(1, total + 1)), rng,
                             dims=list(dims.items()))
        slacks = []
        for order in ORDERS:
            dp, _ = dp_witness(rho, order)
            i1, i2, _ = marginal_witnesses(rho, order)
            slacks += [i1 - dp, i2 - dp]
        return slacks
    t -= trials
    order = ORDERS[t % 2]
    tau = interventional_state(sample_purified_comb(seed + 500_000 + t, order=order))
    i1, i2, bound = marginal_witnesses(tau, order)
    return [i1 - bound, i2 - bound]


# campaign -> (reference trial, trial indices of a run with `trials` trials)
REFERENCES = {
    "thm1": (_ref_thm1, lambda trials: trials),
    "lemma1": (_ref_lemma1, lambda trials: trials),
    "lemma3": (_ref_lemma3, lambda trials: trials),
    "ssa": (_ref_ssa, lambda trials: trials),
    "crosscheck": (_ref_crosscheck, lambda trials: 12 + trials),
    "marginal_bounds": (_ref_marginal_bounds, lambda trials: 2 * trials),
}
# trial counts per campaign: the stacked campaigns run a stack of one, one
# block of small stacks, and several blocks (over both workers when two)
DRIVER_TRIALS = {"thm1": (1, 9, 130), "lemma1": (9,), "lemma3": (4,), "ssa": (1, 13, 200),
                 "crosscheck": (3,), "marginal_bounds": (1, 6, 70)}


def _signed_zero_trial(seed, t):
    return [0.0 if t % 2 == 0 else -0.0]


def _raising_trial(seed, t):
    if t == 5:
        raise ValueError(f"trial {t} failed")
    return [1.0]


def _two_failing_checks_trial(seed, t):
    return [-1.0, 0.5, -2.0] if t == 3 else [1.0]


@pytest.fixture
def two_workers(monkeypatch):
    """Use a pool of two workers whatever the CPU count of the host."""
    monkeypatch.setattr(camp, "_workers", lambda trials: min(2, trials))


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs and no BLAS thread setting in the environment."""
    monkeypatch.setattr(camp.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


class TestWorkers:
    @pytest.mark.parametrize("env, trials, workers", [
        ({}, 100, 1),                                   # BLAS default: a thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 100, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 100, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 100, 1),
        ({"OMP_NUM_THREADS": "1"}, 100, 4),
        ({"OMP_NUM_THREADS": "2,1"}, 100, 2),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 100, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 100, 4),
        ({"OPENBLAS_NUM_THREADS": "many"}, 100, 1),
    ])
    def test_cpus_shared_with_blas_threads(self, four_cpus, env, trials, workers):
        for var, value in env.items():
            four_cpus.setenv(var, value)
        assert camp._workers(trials) == workers

    def test_threaded_caller_runs_trials_in_process(self, four_cpus):
        # forking a process that runs other threads is unsafe
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        thread.start()
        try:
            assert camp._workers(100) == 1
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert camp._workers(100) == 4

    @pytest.mark.parametrize("platform", ["no fork", "darwin"])
    def test_no_safe_fork_runs_trials_in_process(self, four_cpus, platform):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        if platform == "no fork":
            four_cpus.delattr(camp.os, "fork")
        else:
            four_cpus.setattr(camp.sys, "platform", platform)
        assert camp._workers(100) == 1


class TestDriver:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", CAMPAIGNS)
    def test_pool_summary_equals_serial_fold(self, monkeypatch, name, seed):
        reference, indices = REFERENCES[name]
        for trials in DRIVER_TRIALS[name]:
            n = indices(trials)
            worst, failures = camp._fold(camp._check(slack) for t in range(n)
                                         for slack in reference(trials, seed, t))
            expected = {"campaign": name, "trials": n, "failures": failures,
                        "worst_slack": worst, "tolerance": camp.TOL, "seed": seed}
            for workers in (1, 2):
                monkeypatch.setattr(camp, "_workers", lambda k: min(workers, k))
                summary = RUNNERS[name](trials=trials, seed=seed)
                summary.pop("elapsed_s")
                assert summary == expected, (trials, workers)

    @pytest.mark.parametrize("name", ["marginal_bounds", "ssa", "thm1"])
    def test_block_pairs_in_trial_order(self, name):
        # at 6 trials, marginal_bounds trials 2-5 are random states and 6-10
        # combs: the block stacks them apart and returns each trial's slacks,
        # in check order, bit for bit and in trial order
        trials, ts = 6, range(2, 11)
        reference, _ = REFERENCES[name]
        block = getattr(camp, f"_{name}_block")
        if name == "marginal_bounds":
            block = partial(block, trials)
        assert block(7, ts) == [tuple(reference(trials, 7, t)) for t in ts]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_failing_check_of_a_trial_counts(self, monkeypatch, workers):
        monkeypatch.setattr(camp, "_workers", lambda k: min(workers, k))
        summary = camp._run("two_fail", partial(camp._one_by_one, _two_failing_checks_trial),
                            trials=8, seed=0)
        assert (summary["worst_slack"], summary["failures"]) == (-2.0, 2)

    @pytest.mark.parametrize("nan_in, failures", [((0,), 12), ((1,), 12), ((0, 1), 24)],
                             ids=["i1", "i2", "both"])
    def test_nan_marginal_witness_fails_every_check(self, monkeypatch, nan_in, failures):
        # each witness is checked alone, so a NaN in either one fails: 4
        # states x 2 orders and 4 combs give 12 checks per witness
        witnesses = camp.marginal_witnesses

        def nan_witnesses(state, order):
            values = list(witnesses(state, order))
            for k in nan_in:
                values[k] = values[k] * math.nan
            return tuple(values)

        monkeypatch.setattr(camp, "marginal_witnesses", nan_witnesses)
        summary = run_marginal_bounds(trials=4, seed=0)
        assert summary["failures"] == failures
        assert math.isnan(summary["worst_slack"])

    def test_thm1_detects_a_bound_raised_by_1e_5(self, monkeypatch):
        # thm1's seed-0 worst slack is 2.57e-6, so raising every bound by
        # 1e-5 fails the trials within 1e-5 of theirs.  A shift of 1e-3 is
        # not seen at seed 0 by lemma1 (worst slack 0.0329), ssa (0.128) or
        # marginal_bounds (0.358)
        dp = camp.dp_witness

        def raised(state, order, spec):
            value, bound = dp(state, order, spec)
            return value, bound + 1e-5

        monkeypatch.setattr(camp, "dp_witness", raised)
        summary = run_thm1(seed=0)
        assert summary["failures"] == 3
        assert summary["worst_slack"] == pytest.approx(2.572851643067864e-06 - 1e-5, abs=1e-12)

    def test_blocks_are_bounded_and_fill_the_workers(self, monkeypatch):
        monkeypatch.setattr(camp, "_workers", lambda k: min(2, k))
        for n in (1, 5, 64, 65, 130, 1000, 1001):
            blocks, workers = camp._blocks(n, 64)
            assert [t for ts in blocks for t in ts] == list(range(n))
            assert max(map(len, blocks)) <= 64
            assert workers == (1 if n <= 64 else 2)
            assert len(blocks) % workers == 0
            assert max(map(len, blocks)) - min(map(len, blocks)) <= 1

    def test_one_by_one_blocks_are_small_on_the_pool_of_the_trial_count(self, monkeypatch):
        # blocks of at most n // (workers * BLOCKS_PER_WORKER) trials, none
        # empty, on _workers(trials): crosscheck's 13 trials at --trials 1
        # stay in this process
        seen = []
        monkeypatch.setattr(camp, "_workers", lambda k: min(2, k))
        monkeypatch.setattr(camp, "_map", lambda fn, blocks, workers:
                            seen.append((blocks, workers)) or [])
        for run, trials in ((run_lemma3, 100), (run_lemma1, 3), (run_crosscheck, 1)):
            run(trials=trials, seed=0)
        (lemma3, two), (lemma1, also_two), (crosscheck, one) = seen
        assert (two, also_two, one) == (2, 2, 1)
        assert [len(ts) for ts in lemma3] == [2] + [3] * 16 + [2] + [3] * 16
        assert lemma1 == [range(0, 1), range(1, 2), range(2, 3)]
        assert crosscheck == [range(t, t + 1) for t in range(13)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_state_in_a_stack_names_the_trial(self, monkeypatch, workers):
        # trial 70 of seed 3 (sample seed 73) draws a matrix with eigenvalue
        # -1 in a block of 50 trials; the error names that trial
        wishart = camp._wishart

        def bad_draw(d, rank, rng):
            m = wishart(d, rank, rng)
            if rng.bit_generator.seed_seq.entropy == 73:
                return np.diag([2.0, -1.0] + [0.0] * (d - 2))
            return m

        monkeypatch.setattr(camp, "_workers", lambda k: min(workers, k))
        monkeypatch.setattr(camp, "_wishart", bad_draw)
        with pytest.raises(ValueError) as info:
            run_ssa(trials=200, seed=3)
        message = str(info.value)
        assert message.startswith("ssa campaign, seed 3, trial 70 (sample seed 73): ")
        assert "not positive semidefinite" in message
        assert "slice" not in message

    def test_stacked_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        # in-process, so tracemalloc sees every block.  A block is folded
        # where it runs, so 8x the trials add only a pair per block: when
        # measured, ssa (stacked) peaked at 0.36 and 0.38 MB at 500 and 4,000
        # trials and lemma1 (one by one) at 0.0205 and 0.0210 MB at 100 and
        # 800, while one stack of all 4,000 ssa trials peaked at 19.5 MB
        monkeypatch.setattr(camp, "_workers", lambda k: 1)
        for run, sizes in ((run_ssa, (500, 4000)), (run_lemma1, (100, 800))):
            run(trials=sizes[0], seed=0)  # first-call allocations are not the trials'
            peaks = []
            for trials in sizes:
                peaks.append(traced_peak(partial(run, trials=trials, seed=0)))
            assert peaks[1] < 1.2 * peaks[0], (run.__name__, peaks)

    @pytest.mark.parametrize("name", CAMPAIGNS)
    def test_one_trial_builds_no_pool(self, four_cpus, name):
        def no_fork():
            raise AssertionError("a one-trial run forked a worker")

        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        four_cpus.setattr(camp.os, "fork", no_fork)
        assert RUNNERS[name](trials=1, seed=0)["failures"] == 0

    def test_worker_exception_reaches_caller(self, two_workers):
        with pytest.raises(ValueError, match="trial 5 failed"):
            camp._run("raising", partial(camp._one_by_one, _raising_trial), trials=8, seed=0)

    def test_results_fold_in_trial_order(self, two_workers):
        # equal minima of either sign: the first trial's sign must survive
        summary = camp._run("signed_zero", partial(camp._one_by_one, _signed_zero_trial),
                            trials=8, seed=0)
        assert summary["worst_slack"] == 0.0
        assert math.copysign(1.0, summary["worst_slack"]) == 1.0

    def test_one_trial_imports_no_pool_modules(self):
        done = _python("import os, sys\n"
                       "from qcausal.cli import main\n"
                       "assert main(['verify', 'thm1', '--trials', '1', '--out', os.devnull]) == 0\n"
                       "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n",
                       timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def _python(code: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this source tree with BLAS on
    one thread and buffered stdout.  A hung worker or pipe fails the test at
    ``timeout``, and the interpreter's whole process group is killed."""
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONUNBUFFERED", None)
    args = [sys.executable, "-c", code]
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


# run after each driver program: no worker of the map is left unreaped
NO_CHILD_LEFT = """
try:
    os.waitpid(-1, os.WNOHANG)
    print("a worker was left unreaped")
except ChildProcessError:
    pass
"""


class TestForkDriver:
    """``_map`` on two forked workers, each case in a fresh interpreter."""

    def test_results_in_item_order_with_uneven_costs(self):
        # the first items are slowest, so later chunks finish first
        done = _python("import os, time\n"
                       "from qcausal.campaigns import _map\n"
                       "def cost(i):\n"
                       "    time.sleep(0.1 if i < 3 else 0.001 * (i % 4))\n"
                       "    return i * i, os.getpid()\n"
                       "out = _map(cost, range(70), 2)\n"
                       "assert [v for v, _ in out] == [i * i for i in range(70)]\n"
                       "assert len({pid for _, pid in out} - {os.getpid()}) == 2\n"
                       "assert _map(lambda x: -x, [3, 1, 2], 2) == [-3, -1, -2]\n"
                       + NO_CHILD_LEFT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("slow", [0, 1])
    def test_large_results_in_item_order_whichever_worker_finishes_first(self, slow):
        # every result pickles to more than a 64 KiB pipe buffer, so a
        # worker that is done waits on its result pipe until it is read; the
        # pipes are read in fork order, so with worker 0 slow, worker 1 is
        # done first and waits for worker 0's pipe to be read to its end
        done = _python("import os, time\n"
                       "from qcausal.campaigns import _map\n"
                       "forked = []  # in a worker: the pids of the workers forked before it\n"
                       "fork = os.fork\n"
                       "def fork_and_count():\n"
                       "    pid = fork()\n"
                       "    if pid:\n"
                       "        forked.append(pid)\n"
                       "    return pid\n"
                       "os.fork = fork_and_count\n"
                       "started_r, started_w = os.pipe()\n"
                       "waited = []\n"
                       "def big(i):\n"
                       "    worker = len(forked)\n"
                       f"    if worker == {slow}:\n"
                       "        os.write(started_w, b'x')\n"
                       "        time.sleep(0.5)\n"
                       "    elif not waited:  # until the slow worker holds an item\n"
                       "        waited.append(os.read(started_r, 1))\n"
                       "    return worker, time.monotonic(), bytes([i]) * 70_000\n"
                       "out = _map(big, range(8), 2)\n"
                       "assert [r[2] for r in out] == [bytes([i]) * 70_000 for i in range(8)]\n"
                       "last = {w: max(t for v, t, _ in out if v == w) for w in (0, 1)}\n"
                       f"assert last[{1 - slow}] < last[{slow}], last\n"
                       + NO_CHILD_LEFT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""

    def test_first_failing_item_is_raised(self):
        # item 3 fails late in one worker while the other takes the rest,
        # item 40 among them, and fails first
        done = _python("import os, time\n"
                       "from qcausal.campaigns import _map\n"
                       "def fail(i):\n"
                       "    if i == 3:\n"
                       "        time.sleep(0.3)\n"
                       "        raise ValueError(f'item {i} failed in {os.getpid()}')\n"
                       "    if i == 40:\n"
                       "        raise KeyError(i)\n"
                       "    return i\n"
                       "try:\n"
                       "    _map(fail, range(64), 2)\n"
                       "except Exception as exc:\n"
                       "    print(type(exc).__name__, exc)\n"
                       + NO_CHILD_LEFT)
        assert done.returncode == 0, done.stderr
        kind, message = done.stdout.split(" ", 1)
        assert kind == "ValueError"
        assert message.startswith("item 3 failed in ")
        assert int(message.split()[-1]) > 0

    def test_dead_worker_is_a_runtime_error(self):
        done = _python("import os\n"
                       "from qcausal.campaigns import _map\n"
                       "def die(i):\n"
                       "    if i == 5:\n"
                       "        os._exit(3)\n"
                       "    return i\n"
                       "try:\n"
                       "    _map(die, range(64), 2)\n"
                       "except RuntimeError as exc:\n"
                       "    print(exc)\n"
                       + NO_CHILD_LEFT)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("worker ")
        assert "exited with status 3 before reporting" in done.stdout
        assert done.stdout.count("\n") == 1

    def test_dead_worker_in_verify_exits_2(self, tmp_path):
        # a worker killed by a signal, as by the OOM killer, leaves the
        # campaign without a verdict; exit 1 would mean a failed check
        out = tmp_path / "s.json"
        done = _python("import os, signal, sys\n"
                       "from qcausal import campaigns, cli\n"
                       "parent, trial = os.getpid(), campaigns._lemma1_trial\n"
                       "def killed(seed, t):\n"
                       "    if t == 7 and os.getpid() != parent:\n"
                       "        os.kill(os.getpid(), signal.SIGKILL)\n"
                       "    return trial(seed, t)\n"
                       "campaigns._lemma1_trial = killed\n"
                       "campaigns._workers = lambda n: min(2, n)\n"
                       f"rc = cli.main(['verify', 'lemma1', '--trials', '40', '--out', {str(out)!r}])\n"
                       + NO_CHILD_LEFT + "sys.exit(rc)\n")
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert re.fullmatch(r"error: worker \d+ exited with status -9 before reporting "
                            r"its results\n", done.stderr), done.stderr
        assert not out.exists()

    def test_unflushed_stdout_is_written_once(self):
        # stdout is a pipe, so the parent's line stays in its buffer until
        # the map; a worker must not write it out a second time
        done = _python("import os, sys\n"
                       "from qcausal.campaigns import _map\n"
                       "sys.stdout.write('parent line\\n')\n"
                       "assert _map(abs, range(-9, 0), 2) == list(range(9, 0, -1))\n"
                       + NO_CHILD_LEFT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "parent line\n"
