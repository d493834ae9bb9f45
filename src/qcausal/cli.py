"""Command-line front end: witness sweeps, property campaigns, figure data.

Three subcommands:

* ``sweep``      one CSV row of witness values per control weight, for one of
                 the switch case studies;
* ``verify``     run a seeded property campaign and emit a JSON summary;
* ``reproduce``  write the CSV data behind the standard sweep figures.

The exit status is the verdict: 0 when every check held; 1 when one did
not, a campaign's tolerance or the backends' agreement in ``sweep --backend
both``; 2 when the command could not run or write: a usage error, a bad
value, not enough memory, a worker that died before reporting, or an output
that cannot be written, stdout among them, also when closed; 130 on SIGINT
(Ctrl-C).  Commands raise ``Failure`` for 1 and 2, and ``main`` alone
prints the one ``error:`` line and returns the status.

``sweep`` and ``reproduce`` cut their grid of control weights into
contiguous sub-grids of at most ``campaigns.BLOCK_ITEMS`` weights, the
campaigns' block size.  Each sub-grid is built, validated and evaluated as
one stack of states, which gives every point's values bit for bit, and the
sub-grids run on the campaigns' worker driver.

Output goes to ``--out`` (or stdout), diagnostics to stderr.  Identical
command lines produce byte-identical files at a fixed BLAS thread count:
sweeps are deterministic and campaigns derive every sample from explicit
per-trial seeds.  Another thread count can move the last bits of a result;
``verify lemma3 --seed 0`` reports ``worst_slack`` -1.3322676295501878e-15
with ``OPENBLAS_NUM_THREADS=1`` and -1.2212453270876722e-15 with it unset.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import replace
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


class Failure(Exception):
    """The command could not run or could not write: exit status 2."""
    status = 2


class BackendMismatch(Failure):
    """A check did not hold, such as the two interventional-state backends'
    agreement or a campaign's tolerance: exit status 1."""
    status = 1


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


def _grid_reports(process: str, lams, specs, backend: str = "statevector"):
    """``(lambda, [report per family of specs])`` at each control weight, in
    grid order.

    The grid is cut into contiguous sub-grids of at most
    ``campaigns.BLOCK_ITEMS`` weights, as many as fill every worker equally,
    which run on the campaigns' worker driver, each as one stack of states;
    ``backend="both"`` builds each stack with both backends, checks that they
    agree at every weight and evaluates the statevector one.  Only a
    sub-grid's stack is bounded: the weights and one report per point and
    family stay in memory until the caller writes them.
    """
    lams = [float(lam) for lam in lams]
    if not lams:
        return []

    def sub_grid(part: range) -> list[tuple]:
        sub = lams[part.start:part.stop]
        s = SwitchSpec(sub, future_mode=_FUTURE_OF[process])
        if backend == "both":
            tau = interventional_state(s, "statevector")
            other = interventional_state(s, "contraction")
            for lam, dist in zip(sub, trace_distance(tau, other)):
                if dist > BACKEND_AGREE_TOL:
                    raise BackendMismatch(f"backends disagree at {process} lambda={lam:.6g}: "
                                          f"trace distance {dist:.3e} > {BACKEND_AGREE_TOL}")
        else:
            tau = interventional_state(s, backend)
        families = [evaluate(tau, spec=spec) for spec in specs]
        return [(lam, [replace(r, tag=f"{process}@{lam:.6g}") for r in reports])
                for lam, reports in zip(sub, zip(*families))]

    parts, workers = campaigns._blocks(len(lams), campaigns.BLOCK_ITEMS)
    return [point for sub in campaigns._map(sub_grid, parts, workers) for point in sub]


def sweep_reports(process: str, lams, spec: EntropySpec,
                  backend: str = "statevector") -> list[tuple[float, object]]:
    """Evaluate the witness report at each control weight of one case study."""
    if process not in PROCESS_TAGS:
        raise ValueError(f"process must be one of {PROCESS_TAGS}, got {process!r}")
    return [(lam, report) for lam, (report,) in _grid_reports(process, lams, [spec], backend)]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return "%.12g" % value


def csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for lam, r in rows:
        lines.append(",".join([_fmt(lam)] + [_fmt(getattr(r, name))
                                             for name in CSV_COLUMNS[1:]]))
    return "\n".join(lines) + "\n"


def _cannot_write(path: str | Path, exc: OSError) -> Failure:
    return Failure(f"cannot write {path}: {exc.strerror or exc}")


def _write_after(outs: list | None, work) -> None:
    """Write the texts returned by ``work()`` to the files ``outs``, one
    each in order, or their one text to stdout if ``outs`` is None.

    Every file is created before the work, which can take seconds, so a
    path that cannot be written raises ``Failure`` at once, as does a closed
    stdout; a failed write of stdout raises it after the work.  The files
    are closed before ``work`` runs, since the work may fork, and an existing
    file is not emptied until the texts are ready.  Files created here are
    removed unless the command writes them all, also when ``work`` raises.
    """
    if outs is None:
        if sys.stdout is None:  # Python starts with no stdout when fd 1 is closed
            raise _cannot_write("<stdout>", OSError(errno.EBADF, os.strerror(errno.EBADF)))
        text = "".join(work())
        try:
            print(text, end="", flush=True)
        except OSError as exc:
            # the unwritten text stays in stdout's buffer: point stdout at the
            # null device, or the flush at exit fails again
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise _cannot_write("<stdout>", exc) from None
        return
    created = [out for out in outs if not os.path.lexists(out)]
    try:
        for out in outs:
            try:
                open(out, "a").close()
            except OSError as exc:
                raise _cannot_write(out, exc) from None
        for out, text in zip(outs, work()):
            try:
                with open(out, "w", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _cannot_write(out, exc) from None
        created = []
    finally:
        for out in created:
            with contextlib.suppress(OSError):
                os.remove(out)


def cmd_sweep(args) -> None:
    if not 0.0 <= args.lambda_min <= args.lambda_max <= 1.0:
        raise Failure("need 0 <= lambda-min <= lambda-max <= 1")
    if args.lambda_steps < 2:
        raise Failure("lambda-steps must be at least 2")
    try:
        lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    # with the bounds checked, numpy raises each of these for a grid too
    # large to allocate: ValueError from 2**60 - 64 weights, IndexError at 2**63
    except (MemoryError, ValueError, IndexError) as exc:
        raise Failure(f"no memory for {args.lambda_steps} control weights: {exc}") from None
    _write_after(None if args.out is None else [args.out], lambda: [
        csv_text(sweep_reports(args.process, lams, args.entropy, args.backend))])


def cmd_verify(args) -> None:
    if args.trials is not None and args.trials < 1:
        raise Failure("trials must be at least 1")
    if args.seed < 0:
        raise Failure("seed must be non-negative")
    trials = args.trials or campaigns.DEFAULT_TRIALS[args.campaign]
    summary = {}

    def run() -> list[str]:
        summary.update(campaigns.RUNNERS[args.campaign](trials=trials, seed=args.seed))
        return [json.dumps(summary, indent=2, sort_keys=True) + "\n"]

    _write_after(None if args.out is None else [args.out], run)
    if summary["failures"]:
        raise BackendMismatch(f"campaign {args.campaign} had {summary['failures']} tolerance "
                              f"failures (worst slack {summary['worst_slack']:.3e})")


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


def cmd_reproduce(args) -> None:
    outdir = Path(args.out or ".")
    try:
        with contextlib.suppress(FileExistsError):  # a file: its CSVs are "Not a directory"
            outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(outdir, exc) from None
    process, files = _FIGURE_PLAN[args.figure]
    paths = [outdir / name for name, _ in files]

    def work() -> list[str]:
        # each grid state is built once and evaluated in every file's family
        grid = _grid_reports(process, np.linspace(0.0, 1.0, 101), [spec for _, spec in files])
        return [csv_text((lam, reports[k]) for lam, reports in grid) for k in range(len(files))]

    _write_after(paths, work)
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)


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
    try:
        args.func(args)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except campaigns.WorkerDied as exc:  # no verdict without every result
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is often empty
        print(f"error: not enough memory to run {args.command}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
