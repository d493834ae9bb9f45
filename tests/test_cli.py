"""Command-line contract: CSV schema, determinism, exit codes, figure files,
and sub-grids on the worker driver."""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcausal.campaigns as camp
import qcausal.cli as cli
from qcausal import MAX_ENTROPY, MIN_ENTROPY, VON_NEUMANN, WitnessReport
from qcausal.cli import (
    CSV_COLUMNS,
    FIGURES,
    PROCESS_TAGS,
    csv_text,
    main,
    parse_entropy,
    sweep_reports,
)

ROOT = Path(__file__).resolve().parent.parent
SWEEP_ARGS = ["sweep", "--process", "upsilon1", "--lambda-steps", "3"]
# a path whose directory os.access reports writable to root, where no file
# can be created
PROC_OUT = ["/proc/qcausal-x.csv"] if sys.platform.startswith("linux") else []
VERDICTS = {"BeyondFixedOrder", "ExcludesOnlyAB", "ExcludesOnlyBA", "Inconclusive"}
# sha256 of the default 101-point sweep CSV of each case study: per backend,
# the figure file of bench/reference.json that the statevector route writes,
# and the contraction route's own bytes, which no figure file covers
SWEEP_DIGESTS = {
    "switch_full": (("3a", "fig3a.csv"),
                    "d6a80ec9f3cca63638e7503dcdec09255de98bf2441b587f98b2a2dd4536d65c"),
    "upsilon1": (("3b", "fig3b.csv"),
                 "ba291ea7c602d06c34c756cbf10a5a3fd357dc6129bb7748d8f5159fa7df28f0"),
    "upsilon2": (("3c", "fig3c.csv"),
                 "cde0c82bf4c2ad1ff50d0e46413a3712df19b8cbee5124de9b39e923d2c74e80"),
}


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestParseEntropy:
    def test_tokens(self):
        assert parse_entropy("vn") is VON_NEUMANN
        assert parse_entropy("min") is MIN_ENTROPY
        assert parse_entropy("max") is MAX_ENTROPY
        assert parse_entropy("renyi:2").alpha == 2.0
        assert parse_entropy("renyi:inf") is MIN_ENTROPY

    @pytest.mark.parametrize("bad", ["renyi", "renyi:x", "renyi:-1", "shannon"])
    def test_rejects(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_entropy(bad)


class TestCsvFormat:
    def test_full_report_row(self):
        r = WitnessReport(tag="t", family=MIN_ENTROPY, dp_ab=0.5, bound_ab=0.0,
                          dp_ba=-1.0, bound_ba=0.0, violated_ab=False,
                          violated_ba=True, verdict="ExcludesOnlyBA",
                          i1_ab=1 / 3, i2_ab=2.0, i1_ba=-0.25, i2_ba=1e-13)
        text = csv_text([(0.5, r)])
        line = text.splitlines()[1]
        assert line == ("0.5,0.5,0,-1,0,0,1,0.333333333333,2,-0.25,1e-13,"
                        "ExcludesOnlyBA")

    def test_report_needs_its_marginals(self):
        with pytest.raises(TypeError, match="i1_ab"):
            WitnessReport(tag="t", family=MIN_ENTROPY, dp_ab=0.5, bound_ab=0.0,
                          dp_ba=-1.0, bound_ba=0.0, violated_ab=False,
                          violated_ba=True, verdict="ExcludesOnlyBA")

    def test_header(self):
        assert csv_text([]).splitlines()[0] == ",".join(CSV_COLUMNS)


class TestSweep:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--process", "upsilon1", "--lambda-steps", "11",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 11
        for row in rows:
            assert row["violated_ab"] in ("0", "1")
            assert row["verdict"] in VERDICTS
            float(row["dp_ab"])  # parses

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--process", "upsilon2", "--lambda-steps", "7"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_order_swap_symmetry(self, tmp_path):
        out = tmp_path / "sym.csv"
        main(["sweep", "--process", "switch_full", "--lambda-steps", "21",
              "--out", str(out)])
        _, rows = read_csv(out)
        for i, row in enumerate(rows):
            mirror = rows[len(rows) - 1 - i]
            assert abs(float(row["dp_ab"]) - float(mirror["dp_ba"])) < 1e-9
            assert abs(float(row["i1_ab"]) - float(mirror["i1_ba"])) < 1e-9

    def test_both_backends_agree(self, tmp_path):
        out = tmp_path / "both.csv"
        rc = main(["sweep", "--process", "upsilon1", "--lambda-steps", "5",
                   "--backend", "both", "--out", str(out)])
        assert rc == 0

    def test_entropy_flag_changes_values(self, tmp_path):
        f1, f2 = tmp_path / "vn.csv", tmp_path / "r2.csv"
        main(["sweep", "--process", "upsilon1", "--lambda-steps", "3",
              "--out", str(f1)])
        main(["sweep", "--process", "upsilon1", "--lambda-steps", "3",
              "--entropy", "renyi:2", "--out", str(f2)])
        _, r1 = read_csv(f1)
        _, r2 = read_csv(f2)
        assert float(r1[1]["dp_ab"]) != float(r2[1]["dp_ab"])
        # marginal columns stay von Neumann regardless of the DP family
        assert r1[1]["i1_ab"] == r2[1]["i1_ab"]

    @pytest.mark.parametrize("process", PROCESS_TAGS)
    def test_csv_digests_of_every_backend(self, process, capsys):
        (figure, name), contraction = SWEEP_DIGESTS[process]
        figures = json.loads((ROOT / "bench" / "reference.json").read_text())["figures"]
        want = {"statevector": figures[figure][name], "both": figures[figure][name],
                "contraction": contraction}
        for backend, digest in want.items():
            assert main(["sweep", "--process", process, "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, backend

    @pytest.mark.parametrize("family", ["vn", "renyi:0.3", "renyi:2", "min", "max"])
    def test_every_family_prints_nothing_on_stderr(self, family, capsys):
        assert main(SWEEP_ARGS + ["--entropy", family]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = sweep_reports("upsilon1", np.linspace(0.0, 1.0, 3), parse_entropy(family))
        assert out == csv_text(rows)

    @pytest.mark.parametrize("process", PROCESS_TAGS)
    def test_small_alpha_sweep_gets_verdicts(self, process, tmp_path, capsys):
        # Renyi 0.3 certifies at every interior point and excludes one order
        # at each end, as the other families do
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--process", process, "--entropy", "renyi:0.3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        verdicts = [row["verdict"] for row in read_csv(out)[1]]
        assert verdicts == ["ExcludesOnlyAB"] + ["BeyondFixedOrder"] * 99 + ["ExcludesOnlyBA"]

    def test_bad_range_exits_2(self, capsys):
        rc = main(["sweep", "--process", "upsilon1", "--lambda-min", "0.8",
                   "--lambda-max", "0.2"])
        assert rc == 2
        assert "lambda" in capsys.readouterr().err

    def test_bad_steps_exits_2(self):
        assert main(["sweep", "--process", "upsilon1", "--lambda-steps", "1"]) == 2

    # numpy refuses 10**12 weights (7.28 TiB) with MemoryError before
    # touching any memory, 2**61 and 10**20 with ValueError and 2**63 with
    # IndexError
    @pytest.mark.parametrize("steps", [10**12, 2**61, 2**63, 10**20])
    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys, steps):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--process", "upsilon1", "--lambda-steps", str(steps),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: no memory for {steps} control weights")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_process_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--process", "bogus"])
        assert exc.value.code == 2

    def test_unknown_entropy_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--process", "upsilon1", "--entropy", "shannon"])
        assert exc.value.code == 2

    def test_large_alpha_prints_finite_cells(self, capsys):
        # the direct Renyi power sum underflows at alpha = 2000
        assert main(["sweep", "--process", "upsilon2", "--entropy", "renyi:2000"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 101
        for row in rows:
            for cell in row.split(",")[:-1]:
                assert cell == "" or np.isfinite(float(cell)), row

    @pytest.mark.parametrize("family", ["renyi:nan", "renyi:-inf"])
    def test_nan_and_negative_infinity_alpha_usage_error(self, family):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--process", "switch_full", "--entropy", family])
        assert exc.value.code == 2

    def test_unwritable_out_exits_2(self, monkeypatch, tmp_path, capsys):
        # the path is checked before the grid, so no grid point is evaluated
        def never(*args, **kwargs):
            raise AssertionError("the grid ran before --out was checked")
        monkeypatch.setattr(cli, "_grid_reports", never)
        (tmp_path / "file").write_text("")
        for out in [tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv"] + PROC_OUT:
            assert main(SWEEP_ARGS + ["--out", str(out)]) == 2
            assert f"cannot write {out}: " in capsys.readouterr().err
        for out in (str(tmp_path), f"{tmp_path}{os.sep}"):
            assert main(SWEEP_ARGS + ["--out", out]) == 2
            assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"

    def test_out_created_before_and_removed_unless_written(self, monkeypatch, tmp_path):
        seen = []

        def mismatch(*args, **kwargs):
            seen.append(out.exists())
            raise cli.BackendMismatch("backends disagree")
        monkeypatch.setattr(cli, "_grid_reports", mismatch)
        out = tmp_path / "x.csv"
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 1
        assert seen == [True] and not out.exists()
        # a file that was there before is neither removed nor emptied
        out.write_text("kept\n")
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 1
        assert out.read_text() == "kept\n"

    def test_seed_is_not_a_sweep_option(self):
        # sweeps are deterministic, so they take no seed
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--process", "upsilon1", "--seed", "1"])
        assert exc.value.code == 2


class TestVerify:
    def test_clean_run_exit_0(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["verify", "lemma3", "--trials", "3", "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["campaign"] == "lemma3"
        assert summary["failures"] == 0

    @pytest.mark.parametrize("campaign", camp.CAMPAIGNS)
    def test_default_trials_match_runner(self, campaign, monkeypatch, capsys):
        # record the trial count each path hands to the driver instead of running it
        seen = []

        def fake_run(name, block, trials, seed, n=None, cap=None):
            seen.append(trials)
            return {"campaign": name, "trials": trials, "failures": 0}

        monkeypatch.setattr(camp, "_run", fake_run)
        camp.RUNNERS[campaign]()
        assert main(["verify", campaign]) == 0
        assert seen == [camp.DEFAULT_TRIALS[campaign]] * 2
        assert json.loads(capsys.readouterr().out)["trials"] == seen[0]

    def test_failure_exit_1(self, monkeypatch, capsys, tmp_path):
        import qcausal.campaigns as camp
        fake = dict(camp.RUNNERS)
        fake["thm1"] = lambda trials, seed: {
            "campaign": "thm1", "trials": trials, "failures": 2,
            "worst_slack": -1.0, "tolerance": 1e-9, "seed": seed,
            "elapsed_s": 0.0}
        monkeypatch.setattr(camp, "RUNNERS", fake)
        rc = main(["verify", "thm1", "--trials", "1",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1
        assert "failures" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, monkeypatch, tmp_path, capsys):
        # the path is checked before the campaign, so the runner never starts
        import qcausal.campaigns as camp

        def never(trials, seed):
            raise AssertionError("campaign ran before --out was checked")
        monkeypatch.setattr(camp, "RUNNERS", {**camp.RUNNERS, "ssa": never})
        (tmp_path / "file").write_text("")
        for out in [tmp_path / "missing" / "s.json", tmp_path / "file" / "s.json"] + PROC_OUT:
            assert main(["verify", "ssa", "--trials", "1", "--out", str(out)]) == 2
            assert f"cannot write {out}" in capsys.readouterr().err
        for out in (str(tmp_path), f"{tmp_path}{os.sep}"):
            assert main(["verify", "ssa", "--trials", "1", "--out", out]) == 2
            assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"

    def test_out_removed_when_the_campaign_raises(self, monkeypatch, tmp_path):
        def broken(trials, seed):
            assert out.exists()
            raise RuntimeError("campaign broke")
        monkeypatch.setattr(camp, "RUNNERS", {**camp.RUNNERS, "ssa": broken})
        out = tmp_path / "s.json"
        with pytest.raises(RuntimeError, match="campaign broke"):
            main(["verify", "ssa", "--trials", "1", "--out", str(out)])
        assert not out.exists()

    def test_trials_floor(self):
        assert main(["verify", "ssa", "--trials", "0"]) == 2

    def test_negative_seed_usage_error(self, capsys):
        assert main(["verify", "thm1", "--seed", "-5"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_unknown_campaign_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestReproduce:
    def test_figure_4(self, tmp_path):
        rc = main(["reproduce", "4", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig4.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 101
        assert rows[0]["lambda"] == "0" and rows[-1]["lambda"] == "1"

    @pytest.mark.parametrize("figure, families", [
        ("5a", {"fig5a_vn.csv": "vn", "fig5a_alpha0.5.csv": "renyi:0.5",
                "fig5a_alpha0.65.csv": "renyi:0.65", "fig5a_alpha0.8.csv": "renyi:0.8"}),
        ("5b", {"fig5b_vn.csv": "vn", "fig5b_alpha2.csv": "renyi:2",
                "fig5b_alpha3.csv": "renyi:3", "fig5b_alpha4.csv": "renyi:4",
                "fig5b_alphainf.csv": "min"}),
    ])
    def test_shared_states_match_single_family_sweeps(self, tmp_path, figure, families):
        assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
        for name, family in families.items():
            swept = tmp_path / f"sweep_{name}"
            assert main(["sweep", "--process", "upsilon2", "--entropy", family,
                         "--out", str(swept)]) == 0
            assert (tmp_path / name).read_bytes() == swept.read_bytes()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"  # a file where the directory should go
        taken.write_text("")
        for out, unwritable in ((taken, taken / "fig4.csv"), (taken / "sub", taken / "sub")):
            assert main(["reproduce", "4", "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: cannot write {unwritable}: Not a directory\n"
        assert taken.read_text() == ""
        (tmp_path / "fig4.csv").mkdir()  # a directory where a CSV should go
        assert main(["reproduce", "4", "--out", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path / 'fig4.csv'}" in capsys.readouterr().err

    def test_every_file_is_checked_before_the_grid(self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the grid ran before the output files were checked")
        monkeypatch.setattr(cli, "_grid_reports", never)
        (tmp_path / "fig5b_vn.csv").write_text("kept\n")
        (tmp_path / "fig5b_alpha3.csv").mkdir()
        assert main(["reproduce", "5b", "--out", str(tmp_path)]) == 2
        taken = tmp_path / "fig5b_alpha3.csv"
        assert capsys.readouterr().err == f"error: cannot write {taken}: Is a directory\n"
        # fig5b_alpha2.csv was created by the command and is removed again;
        # the file that was there before is neither removed nor emptied
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig5b_alpha3.csv", "fig5b_vn.csv"]
        assert (tmp_path / "fig5b_vn.csv").read_text() == "kept\n"

    def test_files_removed_when_the_grid_raises(self, monkeypatch, tmp_path):
        names = ["fig5a_vn.csv", "fig5a_alpha0.5.csv", "fig5a_alpha0.65.csv",
                 "fig5a_alpha0.8.csv"]

        def broken(*args, **kwargs):
            assert all((tmp_path / name).exists() for name in names)
            raise RuntimeError("grid broke")
        monkeypatch.setattr(cli, "_grid_reports", broken)
        with pytest.raises(RuntimeError, match="grid broke"):
            main(["reproduce", "5a", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_unknown_figure_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "9z"])
        assert exc.value.code == 2

    def test_csv_digests_match_bench_reference(self, tmp_path):
        # the 13 figure CSVs are the output contract that bench/reference.json pins
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())["figures"]
        assert sorted(reference) == sorted(FIGURES)
        for figure, files in reference.items():
            out = tmp_path / figure
            assert main(["reproduce", figure, "--out", str(out)]) == 0
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            assert got == files, figure


def _run_in_pool(monkeypatch, workers, argv, points=camp.BLOCK_ITEMS):
    """``main(argv)`` with ``workers`` capped per run of the driver and at
    most ``points`` control weights per sub-grid."""
    monkeypatch.setattr(camp, "_workers", lambda n: min(workers, n))
    monkeypatch.setattr(camp, "BLOCK_ITEMS", points)
    return main(argv)


# (workers, points per sub-grid): one point per stack in this process, as
# grids were evaluated before they were stacked; several sub-grids per
# worker, joined back in grid order; the default cut on two workers; the
# whole grid as one stack
GRID_CUTS = ((1, 1), (2, 16), (2, camp.BLOCK_ITEMS), (1, 101))


class TestGridPool:
    """Sub-grids on the campaigns' worker driver give the bytes of the
    in-process run, however the grid is cut."""

    def test_reproduce_files_equal_in_process_run(self, monkeypatch, tmp_path):
        for workers, points in GRID_CUTS:
            out = tmp_path / f"{workers}x{points}"
            for figure in FIGURES:
                assert _run_in_pool(monkeypatch, workers, ["reproduce", figure, "--out",
                                                           str(out)], points) == 0
        first, *others = (tmp_path / f"{w}x{p}" for w, p in GRID_CUTS)
        names = sorted(p.name for p in first.iterdir())
        assert len(names) == 13
        for other in others:
            assert names == sorted(p.name for p in other.iterdir())
            for name in names:
                assert (other / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("process", PROCESS_TAGS)
    def test_sweep_both_backends_equal_in_process_run(self, monkeypatch, capsys, process):
        text = {}
        for workers, points in GRID_CUTS:
            assert _run_in_pool(monkeypatch, workers, ["sweep", "--process", process,
                                                       "--backend", "both"], points) == 0
            text[workers, points] = capsys.readouterr().out
        assert len(text[GRID_CUTS[0]].splitlines()) == 102
        assert len(set(text.values())) == 1

    def test_one_point_builds_no_pool(self, monkeypatch):
        # a grid of at most BLOCK_ITEMS weights is one sub-grid, run here
        def no_fork():
            raise AssertionError("a sweep of one sub-grid forked a worker")

        monkeypatch.setattr(camp.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(camp.os, "fork", no_fork)
        assert camp._workers(2) == 2
        [(lam, report)] = sweep_reports("switch_full", [0.3], VON_NEUMANN)
        assert lam == 0.3 and report.tag == "switch_full@0.3"
        n = camp.BLOCK_ITEMS
        rows = sweep_reports("switch_full", np.linspace(0.0, 1.0, n), VON_NEUMANN)
        assert [r.tag for _, r in rows[::n - 1]] == ["switch_full@0", "switch_full@1"]
        with pytest.raises(AssertionError, match="forked a worker"):
            sweep_reports("switch_full", np.linspace(0.0, 1.0, n + 1), VON_NEUMANN)

    def test_one_point_imports_no_pool_modules(self):
        # a two-worker map of sub-grids forks without the pool modules and
        # starts no thread
        code = ("import sys, threading\n"
                "from qcausal import VON_NEUMANN\n"
                "from qcausal.campaigns import BLOCK_ITEMS, _map\n"
                "from qcausal.cli import sweep_reports\n"
                "lams = [k / (2 * BLOCK_ITEMS) for k in range(2 * BLOCK_ITEMS + 1)]\n"
                "assert len(sweep_reports('switch_full', lams, VON_NEUMANN)) == len(lams)\n"
                "threads = threading.active_count()\n"
                "assert _map(abs, [-1, -2, -3], 2) == [1, 2, 3]\n"
                "assert threading.active_count() == threads\n"
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_first_figures_call_imports_nothing(self):
        # the benchmark's figures first call runs right after import; a module
        # that numpy loads lazily (numpy.ma, for np.unique) would land there,
        # or in the first stacked sub-grid
        code = ("import sys\n"
                "from qcausal import VON_NEUMANN, cli, renyi\n"
                "before = set(sys.modules)\n"
                "cli.csv_text(cli.sweep_reports('switch_full', [0.3], VON_NEUMANN))\n"
                "cli.csv_text(cli.sweep_reports('switch_full', [0.1, 0.3, 0.5], renyi(2.0)))\n"
                "print(sorted(set(sys.modules) - before))\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_backend_mismatch_in_a_worker_exits_1(self, monkeypatch, capsys):
        # the backends disagree only in processes other than this one
        parent = os.getpid()
        monkeypatch.setattr(cli, "trace_distance", lambda a, b: np.full(
            a.matrix.shape[0], 0.0 if os.getpid() == parent else 1.0))
        # two sub-grids, one in each of two workers
        steps = str(2 * camp.BLOCK_ITEMS)
        rc = _run_in_pool(monkeypatch, 2, ["sweep", "--process", "upsilon1",
                                           "--lambda-steps", steps, "--backend", "both"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: backends disagree at upsilon1 lambda=0: ")
        # the error names the weight of the slice that disagrees
        monkeypatch.setattr(cli, "trace_distance",
                            lambda a, b: 1.0 * (np.arange(a.matrix.shape[0]) == 2))
        rc = _run_in_pool(monkeypatch, 1, ["sweep", "--process", "upsilon1",
                                           "--lambda-steps", "5", "--backend", "both"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: backends disagree at upsilon1 lambda=0.5: ")


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcausal.cli"], capture_output=True, text=True)
        assert proc.returncode == 2  # no subcommand is a usage error

    def test_stdout_emission(self):
        # run the [project.scripts] entry the way the wrapper pip installs does
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["qcausal"]
        module, func = target.split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, *SWEEP_ARGS], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)

    @pytest.mark.skipif(shutil.which("qcausal") is None,
                        reason="qcausal console script not installed")
    def test_installed_script_stdout(self):
        proc = subprocess.run([shutil.which("qcausal"), *SWEEP_ARGS],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, closed", [
    (["verify", "lemma1", "--trials", "3"], False),
    (SWEEP_ARGS, False),
    (["sweep", "--process", "upsilon1", "--lambda-steps", "2001"], False),
    (["verify", "ssa", "--trials", "2"], True),
    (SWEEP_ARGS, True),
], ids=["verify", "short sweep", "long sweep", "verify, stdout closed",
        "sweep, stdout closed"])
def test_stdout_write_failure_exits_2(argv, closed):
    # every write to /dev/full fails; exit 1 would mean a tolerance failure
    # of verify or a backend mismatch of sweep.  Stdout is buffered, as in a
    # shell: a short text then stays in the buffer after the failed flush.
    # A child started with stdout closed, as by the shell's >&-, has no
    # sys.stdout, and print to it writes nothing without an error
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "qcausal.cli", *argv]
    if closed:
        command = ["sh", "-c", 'exec "$0" "$@" >&-', *command]
    with open("/dev/full", "w") as full:
        done = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: cannot write <stdout>: ")


@pytest.mark.parametrize("argv, module, name", [
    (["verify", "ssa", "--trials", "2"], camp, "_blocks"),
    (SWEEP_ARGS, cli, "_grid_reports"),
], ids=["verify", "sweep"])
def test_no_memory_exits_2(argv, module, name, monkeypatch, tmp_path, capsys):
    # a trial count or grid too large to plan; exit 1 would mean a failed check
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(module, name, no_memory)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: not enough memory to run {argv[0]}\n"
    assert not out.exists()


def test_sweep_reports_rejects_unknown_process():
    with pytest.raises(ValueError):
        sweep_reports("sampler", np.array([0.5]), VON_NEUMANN)
