"""Self-tests of the benchmark: ``python3 -m pytest bench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import qcausal  # noqa: E402
from qcausal import VON_NEUMANN, cli  # noqa: E402
from shim import NUMPY_KERNELS, Shim, Tracer  # noqa: E402
from workloads import digest_mismatches, load_reference  # noqa: E402


def _bindings() -> dict:
    """Every binding the shim may touch, by identity."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "qcausal" or name.startswith("qcausal."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = id(value)
                if isinstance(value, type):
                    seen[(name, attr, "__init__")] = id(vars(value).get("__init__"))
                elif isinstance(value, dict) and attr != "__builtins__":
                    for key, item in value.items():
                        seen[(name, attr, key)] = id(item)
    for owner, attr, _ in NUMPY_KERNELS:
        seen[(owner.__name__, attr)] = id(getattr(owner, attr))
    return seen


def test_probe_counts_one_switch_point():
    # run in a fresh interpreter so BLAS is pinned as in the benchmark
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--probe"],
                          capture_output=True, text=True, check=True, timeout=120)
    counts = json.loads(done.stdout.strip().splitlines()[-1])
    assert counts["density_validations"] == 3
    assert counts["eigh_calls"] == 19
    assert counts["distinct_marginals"] == 10


def test_shim_rebinds_every_copy_and_restores_originals():
    before = _bindings()
    original = qcausal.labeled.partial_trace
    original_eigh = np.linalg.eigh
    tracer = Tracer()
    with Shim(tracer):
        wrapped = qcausal.labeled.partial_trace
        assert wrapped is not original
        # the copies made by "from .labeled import partial_trace" are rebound too
        # (the package attribute "entropy" is the function, not the module)
        assert sys.modules["qcausal.entropy"].partial_trace is wrapped
        assert qcausal.partial_trace is wrapped
        assert qcausal.campaigns.RUNNERS["thm1"] is qcausal.campaigns.run_thm1
        assert np.linalg.eigh is not original_eigh
        cli.sweep_reports("switch_full", [0.3], VON_NEUMANN)
    assert _bindings() == before
    assert qcausal.labeled.partial_trace is original
    assert np.linalg.eigh is original_eigh
    stats = tracer.stats()
    assert stats["cli.sweep_reports"]["calls"] == 1
    assert stats["witness.evaluate"]["calls"] == 1
    # self time excludes children, so it never exceeds inclusive time
    for entry in stats.values():
        assert entry["s"] <= sum(entry["durations"]) + 1e-12


def test_digest_check_fails_on_a_perturbed_csv(tmp_path):
    expected = load_reference()["figures"]["3b"]
    assert cli.main(["reproduce", "3b", "--out", str(tmp_path)]) == 0
    assert digest_mismatches(tmp_path, expected) == []
    path = tmp_path / "fig3b.csv"
    text = path.read_text()
    path.write_text(text.replace("0.", "1.", 1))
    assert digest_mismatches(tmp_path, expected) == ["fig3b.csv"]
    path.unlink()
    assert digest_mismatches(tmp_path, expected) == ["fig3b.csv"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
