"""Randomized verification campaigns: schema, determinism, small-scale runs,
and the trial driver that spreads a campaign over worker processes."""
import math
import os
import signal
import subprocess
import sys
import threading
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import qcausal.campaigns as camp
from qcausal import (
    CAMPAIGNS,
    DEFAULT_TRIALS,
    RUNNERS,
    TRACE_TOL,
    PureState,
    PurifiedComb,
    dp_witness,
    haar_unitary,
    interventional_state,
    random_pure,
    run_crosscheck,
    run_lemma1,
    run_lemma3,
    run_marginal_bounds,
    run_ssa,
    run_thm1,
    sample_fixed_order_comb,
    sample_purified_comb,
    trace_distance,
)
from qcausal.cli import BACKEND_AGREE_TOL

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


def comb_at_dims(order, dims, dq0, seed):
    """Random purified comb of ``order`` on the given five-part ``dims``,
    built the way ``sample_purified_comb`` builds one."""
    rng = np.random.default_rng(seed)
    first, second = order
    dims = dict(dims, Q0=dq0)
    dims["Q1"] = dims[f"{first}1"] * dq0 // dims[f"{second}0"]
    dims["Q2"] = dims[f"{second}1"] * dims["Q1"] // dims["F"]
    psi = PureState(random_pure(dims[f"{first}0"] * dq0, rng),
                    [(f"{first}0", dims[f"{first}0"]), ("Q0", dq0)])
    u1 = haar_unitary(dims[f"{first}1"] * dq0, rng)
    u2 = haar_unitary(dims[f"{second}1"] * dims["Q1"], rng)
    return PurifiedComb(order, psi, u1, u2, dims)


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
        dims = {"A0": 2, "A1": 2, "B0": 2, "B1": 2, "F": 4}
        comb = comb_at_dims(order, dims, dq0, seed=64 + dq0)
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


# campaign -> (per-trial function of (seed, t), trial indices) at `trials`
def _trial_plan(name, trials):
    if name == "crosscheck":
        return camp._crosscheck_trial, len(camp._SWITCH_GRID) + trials
    if name == "marginal_bounds":
        return partial(camp._marginal_bounds_trial, trials), 2 * trials
    return getattr(camp, f"_{name}_trial"), trials


DRIVER_TRIALS = {"thm1": 9, "lemma1": 9, "lemma3": 4, "ssa": 13, "crosscheck": 3,
                 "marginal_bounds": 6}


def _signed_zero_trial(seed, t):
    return camp._check(0.0 if t % 2 == 0 else -0.0)


def _raising_trial(seed, t):
    if t == 5:
        raise ValueError(f"trial {t} failed")
    return camp._check(1.0)


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
    def test_pool_summary_equals_serial_fold(self, two_workers, name, seed):
        trials = DRIVER_TRIALS[name]
        summary = RUNNERS[name](trials=trials, seed=seed)
        trial, n = _trial_plan(name, trials)
        worst, failures = camp._fold(map(trial, repeat(seed, n), range(n)))
        summary.pop("elapsed_s")
        assert summary == {"campaign": name, "trials": n, "failures": failures,
                           "worst_slack": worst, "tolerance": camp.TOL, "seed": seed}

    @pytest.mark.parametrize("name", CAMPAIGNS)
    def test_one_trial_builds_no_pool(self, four_cpus, name):
        def no_fork():
            raise AssertionError("a one-trial run forked a worker")

        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        four_cpus.setattr(camp.os, "fork", no_fork)
        assert RUNNERS[name](trials=1, seed=0)["failures"] == 0

    def test_worker_exception_reaches_caller(self, two_workers):
        with pytest.raises(ValueError, match="trial 5 failed"):
            camp._run("raising", _raising_trial, trials=8, seed=0)

    def test_results_fold_in_trial_order(self, two_workers):
        # equal minima of either sign: the first trial's sign must survive
        summary = camp._run("signed_zero", _signed_zero_trial, trials=8, seed=0)
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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
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
