"""Acceptance gate: one test per numbered criterion, pinned tolerances.

Criterion 5 checks the two case studies whose five-part state is pure.  With
the full future kept (``switch_full``, ``d_F = 4``) the bound of both orders
is ``log2(d_B1 / d_F) = -1``, and purity gives ``dp_ba = -H(A1 F)`` and
``dp_ab(lam) = dp_ba(1 - lam)``.  For any pure target ``rho_{A1F}`` has the
eigenvalue ``lam/4`` three times plus the two roots of

    mu**2 - (1 - 3*lam/4)*mu + lam*(1 - lam)/8,

so ``dp_ba`` rises continuously from -2 to 0 as lam falls from 1 to 0 and
stays above -1 on ``(0, lam*)``, where ``H(A1 F)(lam*) = 1`` gives
``lam* ~ 0.1982528``.  For ``switch_full`` criterion 5 asserts the endpoint
anchors (-2, 0) and (0, -2), both witnesses equal to this closed form at
every grid point, and a both-violated set of exactly the grid points in
``(lam*, 1 - lam*)``.  For the control-traced ``upsilon1`` it asserts the
same anchors and a both-order violation at every interior grid point.

Criterion 6 reduces the target-traced ``upsilon2`` to the same closed form.
In both branches of the switch the target output ``T1`` holds half of a
maximally entangled pair.  With the control traced out the cross terms
between the branches vanish, so ``rho_T1 = lam I/2 + (1 - lam) I/2 = I/2``.
The six-part state with target and control is pure, so the five-part state
of ``upsilon2`` (control kept, target traced) has the spectrum of ``rho_T1``
and ``H_alpha(all five) = 1`` in every entropy family, where it is 0 for
``switch_full``.  The past marginal ``A0 A1 B0`` (or ``B0 B1 A0``) is the
same for both, so ``dp(upsilon2) = dp(switch_full) + 1`` in both orders,
while the bound rises from ``log2(2/4) = -1`` to ``log2(2/2) = 0``.  The
slack ``dp - bound`` is therefore that of ``switch_full``, and criterion 6
asserts the certified set of exactly the grid points in
``(lam*, 1 - lam*)``.
"""
import math
import time

import numpy as np
import pytest

from qcausal import (
    MAX_ENTROPY,
    MIN_ENTROPY,
    VON_NEUMANN,
    dp_witness,
    entropy,
    entropy_from_spectrum,
    is_violated,
    marginal_witnesses,
    purify,
    random_density,
    renyi,
    run_crosscheck,
    run_lemma1,
    run_lemma3,
    run_ssa,
    run_thm1,
)
from qcausal.cli import sweep_reports

SLACK_TOL = 1e-9
ANCHOR_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9
RUNTIME_BUDGET_S = 120.0
GRID = np.linspace(0.0, 1.0, 101)

_sweeps = {}


def sweep(process, spec=VON_NEUMANN):
    key = (process, spec.label)
    if key not in _sweeps:
        _sweeps[key] = sweep_reports(process, GRID, spec)
    return _sweeps[key]


def certified_indices(rows):
    return {i for i, (_, r) in enumerate(rows) if r.violated_ab and r.violated_ba}


def test_criterion_01_theorem1_dp_bound_holds_on_500_combs():
    t0 = time.perf_counter()
    out = run_thm1(trials=500, seed=0)  # von Neumann + Renyi 0.5/0.8/2/inf
    elapsed = time.perf_counter() - t0
    assert out["failures"] == 0, f"{out['failures']} bound violations"
    assert out["worst_slack"] >= -SLACK_TOL
    assert elapsed < RUNTIME_BUDGET_S, f"took {elapsed:.1f}s"


def test_criterion_02_factorizable_entropy_gain_on_500_channels():
    out = run_lemma1(trials=500, seed=0)
    assert out["failures"] == 0, f"{out['failures']} gain violations"
    assert out["worst_slack"] >= -SLACK_TOL


def test_criterion_03_purified_comb_evaluation_matches_on_100_combs():
    out = run_lemma3(trials=100, seed=0)
    assert out["failures"] == 0, f"{out['failures']} mismatches"
    assert out["worst_slack"] >= -SLACK_TOL


def test_criterion_04_backend_crosscheck_switch_grid_plus_50_combs():
    out = run_crosscheck(trials=50, seed=0)
    assert out["failures"] == 0, f"{out['failures']} backend disagreements"
    assert out["trials"] == 62  # 3 future modes x 4 weights + 50 combs
    assert out["worst_slack"] >= -SLACK_TOL


def switch_full_h_a1f(lam):
    """H(A1 F) of the full-future switch with a pure target, in bits."""
    s, p = 1.0 - 0.75 * lam, lam * (1.0 - lam) / 8.0
    root = math.sqrt(s * s - 4.0 * p)
    spectrum = [lam / 4.0] * 3 + [(s + root) / 2.0, (s - root) / 2.0]
    return -sum(x * math.log2(x) for x in spectrum if x > 0.0)


def switch_full_lambda_star():
    """Root of H(A1 F) = 1 on [0, 1/2], where H(A1 F) increases from 0."""
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if switch_full_h_a1f(mid) < 1.0 else (lo, mid)
    return lo


def test_criterion_05_interior_violation_switch_full_and_upsilon1():
    rows = sweep("upsilon1")
    r0, r1 = rows[0][1], rows[-1][1]
    assert abs(r0.dp_ab + 2.0) < ANCHOR_TOL
    assert abs(r0.dp_ba) < ANCHOR_TOL
    problems = []
    for i, (lam, r) in enumerate(rows):
        both = r.violated_ab and r.violated_ba
        if 0 < i < len(rows) - 1 and not both:
            problems.append(
                f"upsilon1 lambda={lam:.2f}: dp_ab={r.dp_ab:.6f} "
                f"dp_ba={r.dp_ba:.6f} vs bound {r.bound_ab:.0f} "
                f"(both-violated required at interior points)")
        if i in (0, len(rows) - 1) and both:
            problems.append(f"upsilon1 lambda={lam:.0f}: endpoint certifies")
    assert not r0.violated_ba and not r1.violated_ab
    assert r1.verdict != "BeyondFixedOrder" and r0.verdict != "BeyondFixedOrder"

    full = sweep("switch_full")
    f0, f1 = full[0][1], full[-1][1]
    assert abs(f0.dp_ab + 2.0) < ANCHOR_TOL and abs(f0.dp_ba) < ANCHOR_TOL
    assert abs(f1.dp_ab) < ANCHOR_TOL and abs(f1.dp_ba + 2.0) < ANCHOR_TOL
    lam_star = switch_full_lambda_star()
    assert abs(lam_star - 0.1982528) < 1e-7
    expected = set()
    for i, (lam, r) in enumerate(full):
        assert r.bound_ab == r.bound_ba == -1.0
        for name, value, closed in (
                ("dp_ab", r.dp_ab, -switch_full_h_a1f(1.0 - lam)),
                ("dp_ba", r.dp_ba, -switch_full_h_a1f(lam))):
            if abs(value - closed) > CLOSED_FORM_TOL:
                problems.append(f"switch_full lambda={lam:.2f}: {name}={value:.12f}"
                                f" vs closed form {closed:.12f}")
        if lam_star < lam < 1.0 - lam_star:
            expected.add(i)
    got = certified_indices(full)
    if got != expected:
        problems.append(
            f"switch_full both-violated set vs closed form interval "
            f"({lam_star:.7f}, {1 - lam_star:.7f}): missing lambda "
            f"{[f'{GRID[i]:.2f}' for i in sorted(expected - got)]}, extra "
            f"{[f'{GRID[i]:.2f}' for i in sorted(got - expected)]}")
    assert not problems, (
        f"{len(problems)} criterion 5 clauses fail:\n"
        + "\n".join(problems[:12])
        + ("\n..." if len(problems) > 12 else ""))


def test_criterion_06_upsilon2_certified_interval_edges():
    rows = sweep("upsilon2")
    lam_star = switch_full_lambda_star()
    expected = {i for i, lam in enumerate(GRID) if lam_star < lam < 1.0 - lam_star}
    got = certified_indices(rows)
    assert got == expected, (
        f"upsilon2 both-violated set vs closed form interval "
        f"({lam_star:.7f}, {1 - lam_star:.7f}): missing lambda "
        f"{[f'{GRID[i]:.2f}' for i in sorted(expected - got)]}, extra "
        f"{[f'{GRID[i]:.2f}' for i in sorted(got - expected)]}")
    for i, (_, r) in enumerate(rows):
        assert r.bound_ab == r.bound_ba == 0.0
        assert (r.verdict == "BeyondFixedOrder") == (i in expected)


def test_criterion_07_marginal_witnesses_dip_and_containment():
    rows = sweep("upsilon1")
    interior = rows[1:-1]
    for field in ("i1_ab", "i2_ab", "i1_ba", "i2_ba"):
        # a dip must clear the numerical-zero band around the bound
        dips = [lam for lam, r in interior if getattr(r, field) < -SLACK_TOL]
        assert dips, f"{field} never goes negative on the interior grid"
        idx = [i for i, (_, r) in enumerate(rows)
               if getattr(r, field) < -SLACK_TOL]
        assert idx == list(range(idx[0], idx[-1] + 1)), f"{field} dip not an interval"
    dp_cert = certified_indices(rows)
    marg_cert = set()
    for i, (lam, r) in enumerate(rows):
        marg_ab = (is_violated(r.i1_ab, r.bound_ab)
                   or is_violated(r.i2_ab, r.bound_ab))
        marg_ba = (is_violated(r.i1_ba, r.bound_ba)
                   or is_violated(r.i2_ba, r.bound_ba))
        if marg_ab and marg_ba:
            marg_cert.add(i)
            assert i in dp_cert, (
                f"marginals certify at lambda={lam:.2f} but DP does not")
    ordered = sorted(marg_cert)
    assert ordered, "marginal witnesses never certify both orders"
    assert 0 < ordered[0] and ordered[-1] < len(rows) - 1
    assert ordered == list(range(ordered[0], ordered[-1] + 1))


def test_criterion_08_renyi_certification_region_nesting():
    vn = certified_indices(sweep("upsilon2"))
    wide = certified_indices(sweep("upsilon2", renyi(0.5)))
    assert wide >= vn and wide != vn, (
        f"alpha=0.5 region ({len(wide)} pts) must strictly contain "
        f"von Neumann ({len(vn)} pts)")
    for spec in (renyi(2.0), renyi(3.0), renyi(4.0), MIN_ENTROPY):
        narrow = certified_indices(sweep("upsilon2", spec))
        assert narrow <= vn, (
            f"{spec.label} region ({len(narrow)} pts) escapes von Neumann")


def test_criterion_09_entropy_suite():
    rng = np.random.default_rng(90)
    for t in range(30):
        d = int(rng.integers(2, 7))
        rho = random_density(d, int(rng.integers(1, d + 1)), 9000 + t,
                             dims=[("A", d)])
        psi = purify(rho, "B").density()
        for spec in (VON_NEUMANN, renyi(0.5), renyi(2.0), MIN_ENTROPY,
                     MAX_ENTROPY):
            assert abs(entropy(psi, ["A"], spec)
                       - entropy(psi, ["B"], spec)) < SLACK_TOL
    out = run_ssa(trials=1000, seed=0)
    assert out["failures"] == 0 and out["worst_slack"] >= -SLACK_TOL
    for t in range(50):
        lam = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
        h = entropy_from_spectrum(lam)
        assert abs(entropy_from_spectrum(lam, renyi(1 + 1e-4)) - h) < 1e-3
        assert abs(entropy_from_spectrum(lam, renyi(1 - 1e-4)) - h) < 1e-3
        hmin = entropy_from_spectrum(lam, MIN_ENTROPY)
        hmax = entropy_from_spectrum(lam, MAX_ENTROPY)
        for a in (0.5, 0.8, 2.0, 4.0):
            v = entropy_from_spectrum(lam, renyi(a))
            assert hmin - 1e-10 <= v <= hmax + 1e-10


def test_criterion_10_marginal_witnesses_dominate_dp_on_arbitrary_states():
    labels = ("A0", "A1", "B0", "B1", "F")
    rng = np.random.default_rng(100)
    for t in range(500):
        df = int(rng.choice((2, 3)))
        dims = [(l, 2) for l in labels[:4]] + [("F", df)]
        total = 16 * df
        tau = random_density(total, int(rng.integers(1, total + 1)),
                             10_000 + t, dims=dims)
        for order in ("AB", "BA"):
            dp, _ = dp_witness(tau, order)
            i1, i2, _ = marginal_witnesses(tau, order)
            assert i1 >= dp - SLACK_TOL, f"trial {t} {order}: i1={i1} < dp={dp}"
            assert i2 >= dp - SLACK_TOL, f"trial {t} {order}: i2={i2} < dp={dp}"
