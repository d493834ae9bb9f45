"""Mutation check of the test suite: each mutant of ``src/qcausal`` in the
corpus must be caught by the tests named beside it.

A corpus entry is ``(file, old, new, tests)``: ``old``, which must occur
exactly once in ``src/qcausal/<file>``, is replaced by ``new``, and
``tests`` are the pytest node ids that must catch the change.  For each
entry this tree is copied to a temporary directory, the mutation is applied
there and the named tests run on the copy with ``OPENBLAS_NUM_THREADS=1``.
The mutant is caught when every named test fails; a test that passes, is
skipped or cannot run leaves it surviving, and so does a run that exceeds
``TIMEOUT_S``.  One line is printed per mutant, and the exit status is 1 if
any mutant survived.  Needs only the standard library, numpy and pytest::

    python tools/mutants.py
"""
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

CORPUS = [
    # a NaN slack must count as a failed check
    ("campaigns.py", "int(not slack >= -TOL)", "int(slack < -TOL)", [
        "tests/test_campaigns.py::TestFold::test_nan_slack_is_a_failure",
        "tests/test_campaigns.py::TestDriver::test_nan_marginal_witness_fails_every_check",
    ]),
    # worker results are joined back in item order
    ("campaigns.py", "results.sort(key=lambda r: r[0])",
     "results.sort(key=lambda r: r[0], reverse=True)", [
        "tests/test_campaigns.py::TestDriver::test_results_fold_in_trial_order",
        "tests/test_campaigns.py::TestForkDriver::test_results_in_item_order_with_uneven_costs",
        "tests/test_cli.py::TestGridPool::test_one_point_imports_no_pool_modules",
    ]),
    # the dilation's index gather undoes the axis permutation
    ("process.py", "index.transpose(np.argsort(perm))", "index.transpose(perm)", [
        "tests/test_process.py::TestPurifiedComb::test_unitaries_match_dense_permutation",
    ]),
    # a violation must clear 1e-7, which keeps upsilon2's interval edges
    ("witness.py", "VIOLATION_TOL = 1e-7", "VIOLATION_TOL = 1e-2", [
        "tests/test_acceptance.py::test_criterion_06_upsilon2_certified_interval_edges",
        "tests/test_witness.py::TestVerdictLogic::test_violation_tolerance",
    ]),
    # the five-part dimension cap of sampled combs
    ("campaigns.py", "TAU_DIM_CAP = 64", "TAU_DIM_CAP = 72", [
        "tests/test_campaigns.py::TestDimensionCap",
    ]),
    # the switch's control amplitudes swapped in the statevector backend
    ("process.py", "np.sqrt(lam) * b0, np.sqrt(1.0 - lam) * b1",
     "np.sqrt(1.0 - lam) * b0, np.sqrt(lam) * b1", [
        "tests/test_acceptance.py::test_criterion_05_interior_violation_switch_full_and_upsilon1",
        "tests/test_process.py::TestInterventionalState::test_switch_backends_agree",
    ]),
    # a forked worker would write the parent's buffered output again
    ("campaigns.py", "sys.stdout.flush()\n    sys.stderr.flush()\n    mask", "mask", [
        "tests/test_campaigns.py::TestForkDriver::test_unflushed_stdout_is_written_once",
    ]),
    # workers would take SIGINT as the caller does; test_interrupt_exits_130
    # sees it only when a worker runs Python code before it is killed
    ("campaigns.py", "signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})",
     "signal.pthread_sigmask(signal.SIG_BLOCK, set())", [
        "tests/test_campaigns.py::TestForkDriver::test_workers_keep_the_sigint_block",
    ]),
    # after a failed stdout write the flush at exit fails again
    ("cli.py", "os.dup2(null.fileno(), sys.stdout.fileno())", "pass", [
        "tests/test_cli.py::test_stdout_write_failure_exits_2[verify]",
        "tests/test_cli.py::test_stdout_write_failure_exits_2[short sweep]",
    ]),
    # --out is no longer created, and so checked, before the work
    ("cli.py", 'open(out, "a").close()', "pass", [
        "tests/test_cli.py::TestSweep::test_unwritable_out_exits_2",
        "tests/test_cli.py::TestVerify::test_unwritable_out_exits_2",
        "tests/test_cli.py::TestReproduce::test_every_file_is_checked_before_the_grid",
    ]),
    # NaN must fail the unitarity and positivity checks
    ("channels.py", "if not dev <= UNITARY_TOL:", "if dev > UNITARY_TOL:", [
        "tests/test_channels.py::TestKrausChannel::test_from_unitary_validates",
    ]),
    ("labeled.py", "if not lam[0] >= -PSD_TOL:", "if lam[0] < -PSD_TOL:", [
        "tests/test_labeled.py::TestDensityOperator::test_negative_rejected",
    ]),
    # memory bounds, measured as traced peaks
    ("process.py", "TOMOGRAPHY_BLOCK_BYTES = 8 * 2**20", "TOMOGRAPHY_BLOCK_BYTES = 64 * 2**20", [
        "tests/test_process.py::TestBlockedTomography::test_peak_memory_at_dimension_512",
        "tests/test_process.py::TestBlockedTomography::test_contraction_peak_memory_at_dimension_512",
        "tests/test_process.py::TestBlockedTomography::test_peak_memory_at_dimension_128",
    ]),
    ("campaigns.py", "BLOCK_ITEMS = 64", "BLOCK_ITEMS = 4096", [
        "tests/test_stack.py::test_sweep_memory_does_not_grow_with_the_grid",
        "tests/test_campaigns.py::TestDriver::test_stacked_peak_memory_does_not_grow_with_trials",
    ]),
    ("labeled.py", "_HERM_BLOCK_BYTES = 1 << 20", "_HERM_BLOCK_BYTES = 1 << 30", [
        "tests/test_labeled.py::TestOneEigensolvePerSlice::test_stack_memory_is_per_slice",
    ]),
    # the console script's arguments are not read
    ("cli.py", "build_parser().parse_args(argv)", "build_parser().parse_args(argv or [])", [
        "tests/test_cli.py::TestConsoleScript::test_stdout_emission",
    ]),
    # a module imported on the first figures call
    ("cli.py", "def csv_text(rows) -> str:\n", "def csv_text(rows) -> str:\n    import csv\n", [
        "tests/test_cli.py::TestGridPool::test_first_figures_call_imports_nothing",
    ]),
]


def not_caught(file: str, old: str, new: str, tests: list[str]) -> list[str]:
    """Apply one mutation to a copy of this tree and run ``tests`` on it;
    return the pytest summary lines of the tests that did not fail, or the
    reason the run did not finish, empty when the mutant is caught."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info", ".bench_out"))
        path = tree / "src" / "qcausal" / file
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{old!r} occurs {text.count(old)} times in {file}, not once")
        path.write_text(text.replace(old, new))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
        args = [sys.executable, "-m", "pytest", "-q", "-rps", "-p", "no:cacheprovider", *tests]
        with subprocess.Popen(args, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              start_new_session=True) as proc:
            try:
                out = proc.communicate(timeout=TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return [f"timed out after {TIMEOUT_S} s"]
    left = re.findall(r"^(?:PASSED|SKIPPED) .*$", out, re.M)
    if proc.returncode != 1 and not left:
        left = [f"pytest exited {proc.returncode}:", *out.splitlines()[-5:]]
    return left


def main() -> int:
    survived = 0
    for file, old, new, tests in CORPUS:
        start = time.monotonic()
        left = not_caught(file, old, new, tests)
        survived += bool(left)
        print(f"{'survived' if left else 'caught':8}  {file}: {old.strip()!r} -> "
              f"{new.strip()!r}  ({time.monotonic() - start:.1f} s)",
              flush=True)
        for line in left:
            print(f"          {line}", flush=True)
    print(f"{len(CORPUS) - survived} of {len(CORPUS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
