"""Command-line front end: witness sweeps, property campaigns, figure data.

Three subcommands:

* ``sweep``      one CSV row of witness values per control weight, for one of
                 the switch case studies;
* ``verify``     run a seeded property campaign and emit a JSON summary, exit
                 status 1 on any tolerance failure;
* ``reproduce``  write the CSV data behind the standard sweep figures.

``sweep`` and ``reproduce`` cut their grid of control weights into
contiguous sub-grids of at most ``campaigns.BLOCK_ITEMS`` weights, the
campaigns' block size.  Each sub-grid is built, validated and evaluated as
one stack of states, which gives every point's values bit for bit, and the
sub-grids run on the campaigns' worker driver.

Output goes to ``--out`` (or stdout); an output that cannot be written,
stdout among them, exits 2.  Diagnostics go to stderr.  Identical
command lines produce byte-identical files at a fixed BLAS thread count:
sweeps are deterministic and campaigns derive every sample from explicit
per-trial seeds.  Another thread count can move the last bits of a result;
``verify lemma3 --seed 0`` reports ``worst_slack`` -1.3322676295501878e-15
with ``OPENBLAS_NUM_THREADS=1`` and -1.2212453270876722e-15 with it unset.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import campaigns
from .entropy import MAX_ENTROPY, MIN_ENTROPY, VON_NEUMANN, EntropySpec, renyi
from .labeled import trace_distance
from .process import SwitchSpec, interventional_state
from .witness import evaluate

_FUTURE_OF = {
    "switch_full": "full",
    "upsilon1": "trace_control",
    "upsilon2": "trace_target",
}
PROCESS_TAGS = tuple(_FUTURE_OF)
_NAMED_ENTROPIES = {"vn": VON_NEUMANN, "min": MIN_ENTROPY, "max": MAX_ENTROPY}
BACKEND_AGREE_TOL = 1e-9
# "lambda", then the witness report field of each later name
CSV_COLUMNS = ("lambda", "dp_ab", "bound_ab", "dp_ba", "bound_ba",
               "violated_ab", "violated_ba", "i1_ab", "i2_ab", "i1_ba", "i2_ba",
               "verdict")


class BackendMismatch(Exception):
    """The two interventional-state backends disagreed beyond tolerance."""


def parse_entropy(text: str) -> EntropySpec:
    """Parse ``vn``, ``renyi:<alpha>`` (``inf`` allowed), ``min`` or ``max``."""
    if text in _NAMED_ENTROPIES:
        return _NAMED_ENTROPIES[text]
    if text.startswith("renyi:"):
        raw = text.split(":", 1)[1]
        try:
            alpha = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad Renyi parameter {raw!r}") from None
        try:
            return renyi(alpha)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"entropy must be vn, renyi:<alpha>, min or max, got {text!r}"
    )


def _sub_grid(process: str, specs, backend: str, lams: list[float]) -> list[list]:
    """Witness reports of one case study at each control weight of ``lams``:
    per weight, one report per entropy family in ``specs``, all evaluated on
    the same state.

    The states of all the weights are built, validated and evaluated as one
    stack, which gives each point's values bit for bit.  ``backend="both"``
    builds the stack with both backends, checks that they agree at every
    weight and evaluates the statevector one.
    """
    s = SwitchSpec(lams, future_mode=_FUTURE_OF[process])
    if backend == "both":
        tau = interventional_state(s, "statevector")
        other = interventional_state(s, "contraction")
        for lam, dist in zip(lams, trace_distance(tau, other)):
            if dist > BACKEND_AGREE_TOL:
                raise BackendMismatch(
                    f"backends disagree at {process} lambda={lam:.6g}: "
                    f"trace distance {dist:.3e} > {BACKEND_AGREE_TOL}"
                )
    else:
        tau = interventional_state(s, backend)
    families = [evaluate(tau, spec=spec) for spec in specs]
    return [[replace(r, tag=f"{process}@{lam:.6g}") for r in reports]
            for lam, reports in zip(lams, zip(*families))]


def _grid_reports(process: str, lams, specs, backend: str = "statevector"):
    """``(lambda, [report per family of specs])`` at each control weight, in
    grid order.

    The grid is cut into contiguous sub-grids of at most
    ``campaigns.BLOCK_ITEMS`` weights, as many as fill every worker equally,
    which run on the campaigns' worker driver.  A sub-grid's stack is
    bounded, so memory does not grow with the grid.
    """
    lams = [float(lam) for lam in lams]
    if not lams:
        return []
    parts, workers = campaigns._blocks(len(lams), campaigns.BLOCK_ITEMS)
    sub_grids = [lams[part.start:part.stop] for part in parts]
    work = partial(_sub_grid, process, tuple(specs), backend)
    reports = campaigns._map(work, sub_grids, workers)
    return list(zip(lams, (point for sub in reports for point in sub)))


def sweep_reports(process: str, lams, spec: EntropySpec,
                  backend: str = "statevector") -> list[tuple[float, object]]:
    """Evaluate the witness report at each control weight of one case study."""
    if process not in PROCESS_TAGS:
        raise ValueError(f"process must be one of {PROCESS_TAGS}, got {process!r}")
    return [(lam, report) for lam, (report,) in _grid_reports(process, lams, [spec], backend)]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return "%.12g" % value


def csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for lam, r in rows:
        lines.append(",".join([_fmt(lam)] + [_fmt(getattr(r, name))
                                             for name in CSV_COLUMNS[1:]]))
    return "\n".join(lines) + "\n"


def _cannot_write(path: str | Path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _write_after(outs: list | None, work) -> int:
    """Write the texts returned by ``work()`` to the files ``outs``, one
    each in order, or their one text to stdout if ``outs`` is None.

    Every file is created before the work, which can take seconds, so a
    path that cannot be written exits 2 at once, after an error message on
    stderr; so does a failed write of stdout, after the work.  The files
    are closed again before ``work`` runs, since the work may fork, and an
    existing file is not emptied until the texts are ready.  The files
    created here are removed if the command ends without writing them all,
    also when ``work`` raises.  Returns the exit status.
    """
    if outs is None:
        text = "".join(work())
        try:
            print(text, end="", flush=True)
        except OSError as exc:
            # the unwritten text stays in stdout's buffer: point stdout at the
            # null device, or the flush at exit fails again
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            return _cannot_write("<stdout>", exc)
        return 0
    created = [out for out in outs if not os.path.lexists(out)]
    try:
        for out in outs:
            try:
                open(out, "a").close()
            except OSError as exc:
                return _cannot_write(out, exc)
        for out, text in zip(outs, work()):
            try:
                with open(out, "w", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                return _cannot_write(out, exc)
        created = []
        return 0
    finally:
        for out in created:
            with contextlib.suppress(OSError):
                os.remove(out)


def cmd_sweep(args) -> int:
    if not 0.0 <= args.lambda_min <= args.lambda_max <= 1.0:
        print("error: need 0 <= lambda-min <= lambda-max <= 1", file=sys.stderr)
        return 2
    if args.lambda_steps < 2:
        print("error: lambda-steps must be at least 2", file=sys.stderr)
        return 2
    try:
        lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    # with the bounds checked, numpy raises each of these for a grid too
    # large to allocate: ValueError from 2**60 - 64 weights, IndexError at 2**63
    except (MemoryError, ValueError, IndexError) as exc:
        print(f"error: no memory for {args.lambda_steps} control weights: {exc}",
              file=sys.stderr)
        return 2

    def work() -> str:
        return [csv_text(sweep_reports(args.process, lams, args.entropy, args.backend))]

    try:
        return _write_after(None if args.out is None else [args.out], work)
    except BackendMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_verify(args) -> int:
    trials = args.trials or campaigns.DEFAULT_TRIALS[args.campaign]
    summary = {}

    def run() -> list[str]:
        summary.update(campaigns.RUNNERS[args.campaign](trials=trials, seed=args.seed))
        return [json.dumps(summary, indent=2, sort_keys=True) + "\n"]

    status = _write_after(None if args.out is None else [args.out], run)
    if status:
        return status
    if summary["failures"]:
        print(f"error: campaign {args.campaign} had {summary['failures']} "
              f"tolerance failures (worst slack {summary['worst_slack']:.3e})",
              file=sys.stderr)
        return 1
    return 0


# figure tag -> (process, [(file name, entropy spec)])
_FIGURE_PLAN = {
    "3a": ("switch_full", [("fig3a.csv", VON_NEUMANN)]),
    "3b": ("upsilon1", [("fig3b.csv", VON_NEUMANN)]),
    "3c": ("upsilon2", [("fig3c.csv", VON_NEUMANN)]),
    "4": ("upsilon1", [("fig4.csv", VON_NEUMANN)]),
    "5a": ("upsilon2", [("fig5a_vn.csv", VON_NEUMANN),
                        ("fig5a_alpha0.5.csv", renyi(0.5)),
                        ("fig5a_alpha0.65.csv", renyi(0.65)),
                        ("fig5a_alpha0.8.csv", renyi(0.8))]),
    "5b": ("upsilon2", [("fig5b_vn.csv", VON_NEUMANN),
                        ("fig5b_alpha2.csv", renyi(2.0)),
                        ("fig5b_alpha3.csv", renyi(3.0)),
                        ("fig5b_alpha4.csv", renyi(4.0)),
                        ("fig5b_alphainf.csv", MIN_ENTROPY)]),
}
FIGURES = tuple(_FIGURE_PLAN)


def cmd_reproduce(args) -> int:
    outdir = Path(args.out or ".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(outdir, exc)
    process, files = _FIGURE_PLAN[args.figure]
    paths = [outdir / name for name, _ in files]

    def work() -> list[str]:
        # each grid state is built once and evaluated in every file's family
        grid = _grid_reports(process, np.linspace(0.0, 1.0, 101), [spec for _, spec in files])
        return [csv_text((lam, reports[k]) for lam, reports in grid) for k in range(len(files))]

    status = _write_after(paths, work)
    if not status:
        for path in paths:
            print(f"wrote {path}", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcausal",
        description="Entropic witnesses of indefinite causal order: sweeps, "
                    "property campaigns, figure data.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="witness values over a control-weight grid")
    sw.add_argument("--process", choices=PROCESS_TAGS, required=True,
                    help="which case-study process to sweep")
    sw.add_argument("--lambda-min", type=float, default=0.0)
    sw.add_argument("--lambda-max", type=float, default=1.0)
    sw.add_argument("--lambda-steps", type=int, default=101)
    sw.add_argument("--entropy", type=parse_entropy, default=VON_NEUMANN,
                    metavar="vn|renyi:<alpha>|min|max",
                    help="entropy family for the DP columns (default vn)")
    sw.add_argument("--backend", choices=("statevector", "contraction", "both"),
                    default="statevector",
                    help="'both' cross-checks the backends at every grid point")
    sw.add_argument("--out", default=None, help="CSV path (default stdout)")
    sw.set_defaults(func=cmd_sweep)

    ve = sub.add_parser("verify", help="run a property campaign")
    ve.add_argument("campaign", choices=campaigns.CAMPAIGNS)
    ve.add_argument("--trials", type=int, default=None,
                    help="trial count (default per campaign)")
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--out", default=None, help="JSON path (default stdout)")
    ve.set_defaults(func=cmd_verify)

    rp = sub.add_parser("reproduce", help="write figure-data CSV files")
    rp.add_argument("figure", choices=FIGURES)
    rp.add_argument("--out", default=".", help="output directory (default .)")
    rp.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trials", None) is not None and args.trials < 1:
        print("error: trials must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "seed", 0) < 0:
        print("error: seed must be non-negative", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
