"""Command-line contract: CSV schema, determinism, exit codes, figure files,
and grid points on the worker driver."""
import argparse
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
VERDICTS = {"BeyondFixedOrder", "ExcludesOnlyAB", "ExcludesOnlyBA", "Inconclusive"}


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
    def test_none_serializes_empty(self):
        r = WitnessReport(tag="t", family=MIN_ENTROPY, dp_ab=0.5, bound_ab=0.0,
                          dp_ba=-1.0, bound_ba=0.0, violated_ab=False,
                          violated_ba=True, verdict="ExcludesOnlyBA")
        text = csv_text([(0.5, r)])
        line = text.splitlines()[1]
        assert line == "0.5,0.5,0,-1,0,0,1,,,,,ExcludesOnlyBA"

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

    def test_bad_range_exits_2(self, capsys):
        rc = main(["sweep", "--process", "upsilon1", "--lambda-min", "0.8",
                   "--lambda-max", "0.2"])
        assert rc == 2
        assert "lambda" in capsys.readouterr().err

    def test_bad_steps_exits_2(self):
        assert main(["sweep", "--process", "upsilon1", "--lambda-steps", "1"]) == 2

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
        for out in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv"):
            assert main(SWEEP_ARGS + ["--out", str(out)]) == 2
            assert f"cannot write {out}: " in capsys.readouterr().err
        for out in (str(tmp_path), f"{tmp_path}{os.sep}"):
            assert main(SWEEP_ARGS + ["--out", out]) == 2
            assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"

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

        def fake_run(name, trial, trials, seed, n=None):
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
        for out in (tmp_path / "missing" / "s.json", tmp_path / "file" / "s.json"):
            assert main(["verify", "ssa", "--trials", "1", "--out", str(out)]) == 2
            assert f"cannot write {out}" in capsys.readouterr().err
        for out in (str(tmp_path), f"{tmp_path}{os.sep}"):
            assert main(["verify", "ssa", "--trials", "1", "--out", out]) == 2
            assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"

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
        assert main(["reproduce", "4", "--out", str(taken)]) == 2
        assert f"cannot write {taken}" in capsys.readouterr().err
        (tmp_path / "fig4.csv").mkdir()  # a directory where a CSV should go
        assert main(["reproduce", "4", "--out", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path / 'fig4.csv'}" in capsys.readouterr().err

    def test_unknown_figure_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "9z"])
        assert exc.value.code == 2


def _run_in_pool(monkeypatch, workers, argv):
    """``main(argv)`` with ``workers`` capped per run of the driver."""
    monkeypatch.setattr(camp, "_workers", lambda n: min(workers, n))
    return main(argv)


class TestGridPool:
    """Grid points on the campaigns' worker driver give the in-process bytes."""

    def test_reproduce_files_equal_in_process_run(self, monkeypatch, tmp_path):
        for workers in (1, 2):
            for figure in FIGURES:
                out = tmp_path / str(workers)
                assert _run_in_pool(monkeypatch, workers, ["reproduce", figure,
                                                           "--out", str(out)]) == 0
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 13
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    @pytest.mark.parametrize("process", PROCESS_TAGS)
    def test_sweep_both_backends_equal_in_process_run(self, monkeypatch, capsys, process):
        text = {}
        for workers in (1, 2):
            assert _run_in_pool(monkeypatch, workers, ["sweep", "--process", process,
                                                       "--backend", "both"]) == 0
            text[workers] = capsys.readouterr().out
        assert len(text[1].splitlines()) == 102
        assert text[2] == text[1]

    def test_one_point_builds_no_pool(self, monkeypatch):
        def no_fork():
            raise AssertionError("a one-point sweep forked a worker")

        monkeypatch.setattr(camp.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(camp.os, "fork", no_fork)
        assert camp._workers(2) == 2
        [(lam, report)] = sweep_reports("switch_full", [0.3], VON_NEUMANN)
        assert lam == 0.3 and report.tag == "switch_full@0.3"

    def test_one_point_imports_no_pool_modules(self):
        # a two-worker map forks without the pool modules and starts no thread
        code = ("import sys, threading\n"
                "from qcausal import VON_NEUMANN\n"
                "from qcausal.campaigns import _map\n"
                "from qcausal.cli import sweep_reports\n"
                "sweep_reports('switch_full', [0.3], VON_NEUMANN)\n"
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

    def test_backend_mismatch_in_a_worker_exits_1(self, monkeypatch, capsys):
        # the backends disagree only in processes other than this one
        parent = os.getpid()
        monkeypatch.setattr(cli, "trace_distance",
                            lambda a, b: 0.0 if os.getpid() == parent else 1.0)
        rc = _run_in_pool(monkeypatch, 2, ["sweep", "--process", "upsilon1",
                                           "--lambda-steps", "5", "--backend", "both"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: backends disagree at upsilon1 lambda=")


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


def test_sweep_reports_rejects_unknown_process():
    with pytest.raises(ValueError):
        sweep_reports("sampler", np.array([0.5]), VON_NEUMANN)
