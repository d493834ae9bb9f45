"""Seeded property campaigns behind the ``verify`` command.

Each campaign returns a summary dict with a uniform slack convention: a trial
fails when its slack drops below ``-tolerance``.  For inequality campaigns
the slack is ``value - bound``; for agreement campaigns it is minus the
observed distance.  All randomness derives from per-trial seeds ``seed + t``
so trials are order-independent and reproducible.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .labeled import herm_eig, trace_distance
from .channels import (
    apply_channel,
    completely_factorizable,
    ensure_rng,
    haar_unitary,
    random_channel,
    random_density,
    random_pure,
)
from .entropy import MIN_ENTROPY, VON_NEUMANN, entropy_from_spectrum, renyi
from .process import (
    FUTURE_MODES,
    PureState,
    PurifiedComb,
    SwitchSpec,
    FixedOrderComb,
    as_fixed_order,
    comb_apply,
    interventional_state,
    purify_comb,
)
from .witness import dp_witness, marginal_witnesses

TOL = 1e-9
SLOT_DIMS = (2, 3)
TAU_DIM_CAP = 64
# entropy families exercised by the inequality campaigns (validated range)
DP_FAMILIES = (VON_NEUMANN, renyi(0.5), renyi(0.8), renyi(2.0), MIN_ENTROPY)

CAMPAIGNS = ("thm1", "lemma1", "lemma3", "ssa", "crosscheck", "marginal_bounds")


def _summary(campaign: str, trials: int, failures: int, worst: float,
             seed: int, t0: float) -> dict:
    return {
        "campaign": campaign,
        "trials": trials,
        "failures": failures,
        "worst_slack": worst,
        "tolerance": TOL,
        "seed": seed,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def _sample_slot_dims(rng) -> dict[str, int]:
    # five slot dims from {2,3}, capped so the five-system state fits in 64
    while True:
        dims = {l: int(rng.choice(SLOT_DIMS)) for l in ("A0", "A1", "B0", "B1", "F")}
        if math.prod(dims.values()) <= TAU_DIM_CAP:
            return dims


def sample_purified_comb(seed, order: str | None = None) -> PurifiedComb:
    """Random purified comb under the campaign dimension policy."""
    rng = ensure_rng(seed)
    if order is None:
        order = "AB" if int(rng.integers(2)) == 0 else "BA"
    first, second = order[0], order[1]
    while True:
        dims = _sample_slot_dims(rng)
        dq0 = int(rng.choice((2, 3, 4)))
        if (dims[f"{first}1"] * dq0) % dims[f"{second}0"]:
            continue
        dq1 = dims[f"{first}1"] * dq0 // dims[f"{second}0"]
        if (dims[f"{second}1"] * dq1) % dims["F"]:
            continue
        dq2 = dims[f"{second}1"] * dq1 // dims["F"]
        break
    dims.update(Q0=dq0, Q1=dq1, Q2=dq2)
    psi = PureState(random_pure(dims[f"{first}0"] * dq0, rng),
                    [(f"{first}0", dims[f"{first}0"]), ("Q0", dq0)])
    u1 = haar_unitary(dims[f"{first}1"] * dq0, rng)
    u2 = haar_unitary(dims[f"{second}1"] * dq1, rng)
    return PurifiedComb(order, psi, u1, u2, dims)


def sample_fixed_order_comb(seed, order: str | None = None) -> FixedOrderComb:
    """Random comb with mixed state, noisy channels, env dims from {1,2,3}."""
    rng = ensure_rng(seed)
    if order is None:
        order = "AB" if int(rng.integers(2)) == 0 else "BA"
    first, second = order[0], order[1]
    dims = _sample_slot_dims(rng)
    de0, de1, de2 = (int(rng.choice((1, 2, 3))) for _ in range(3))
    d_rho = dims[f"{first}0"] * de0
    rho = random_density(d_rho, rank=int(rng.integers(1, d_rho + 1)), seed=rng,
                         dims=[(f"{first}0", dims[f"{first}0"]), ("E0", de0)])

    def chan(in_pairs, out_pairs):
        din = math.prod(d for _, d in in_pairs)
        dout = math.prod(d for _, d in out_pairs)
        rank = max(int(rng.integers(1, 4)), -(-din // dout))
        return random_channel(in_pairs, out_pairs, kraus_rank=rank, seed=rng)

    lam1 = chan([(f"{first}1", dims[f"{first}1"]), ("E0", de0)],
                [(f"{second}0", dims[f"{second}0"]), ("E1", de1)])
    lam2 = chan([(f"{second}1", dims[f"{second}1"]), ("E1", de1)],
                [("F", dims["F"]), ("E2", de2)])
    return FixedOrderComb(order, rho, lam1, lam2)


def run_thm1(trials: int = 500, seed: int = 0) -> dict:
    """Matching-order DP witness >= its dimension bound on random purified
    combs, across all validated entropy families (shared spectra)."""
    t0 = time.perf_counter()
    worst = math.inf
    failures = 0
    for t in range(trials):
        order = "AB" if t % 2 == 0 else "BA"
        pc = sample_purified_comb(seed + t, order=order)
        tau = interventional_state(pc, "statevector")
        for spec in DP_FAMILIES:
            value, bound = dp_witness(tau, order, spec)
            slack = value - bound
            worst = min(worst, slack)
            if slack < -TOL:
                failures += 1
    return _summary("thm1", trials, failures, worst, seed, t0)


def run_lemma1(trials: int = 500, seed: int = 0) -> dict:
    """Entropy gain of completely factorizable channels >= log2 dim ratio."""
    t0 = time.perf_counter()
    worst = math.inf
    failures = 0
    for t in range(trials):
        rng = ensure_rng(seed + t)
        while True:
            dn = int(rng.choice((2, 3)))
            din = int(rng.choice((2, 3, 4)))
            dtr = int(rng.choice((2, 3)))
            if (dn * din) % dtr == 0:
                break
        dout = dn * din // dtr
        u = haar_unitary(dn * din, rng)
        chan = completely_factorizable(u, dim_noise=dn, dim_in=din, dim_traced=dtr)
        rho = random_density(din, rank=int(rng.integers(1, din + 1)), seed=rng,
                             dims=[("Q1", din)])
        out = apply_channel(chan, rho)
        lam_in = herm_eig(rho)[0]
        lam_out = herm_eig(out)[0]
        bound = math.log2(dout / din)
        for spec in DP_FAMILIES:
            gain = entropy_from_spectrum(lam_out, spec) - entropy_from_spectrum(lam_in, spec)
            slack = gain - bound
            worst = min(worst, slack)
            if slack < -TOL:
                failures += 1
    return _summary("lemma1", trials, failures, worst, seed, t0)


def run_lemma3(trials: int = 100, seed: int = 0) -> dict:
    """comb_apply agrees with the purified form on random channel pairs."""
    t0 = time.perf_counter()
    worst = math.inf
    failures = 0
    for t in range(trials):
        rng = ensure_rng(seed + t)
        comb = sample_fixed_order_comb(rng)
        flat = as_fixed_order(purify_comb(comb))

        def slot(x0, x1):
            din, dout = comb.slot_dim(x0), comb.slot_dim(x1)
            rank = max(int(rng.integers(1, 4)), -(-din // dout))
            return random_channel([(x0, din)], [(x1, dout)], kraus_rank=rank, seed=rng)

        a, b = slot("A0", "A1"), slot("B0", "B1")
        diff = comb_apply(comb, a, b).matrix - comb_apply(flat, a, b).matrix
        slack = -float(np.max(np.abs(diff)))
        worst = min(worst, slack)
        if slack < -TOL:
            failures += 1
    return _summary("lemma3", trials, failures, worst, seed, t0)


def run_ssa(trials: int = 1000, seed: int = 0) -> dict:
    """Strong subadditivity gap >= 0 on random three-qubit states."""
    from .entropy import ssa_gap

    t0 = time.perf_counter()
    worst = math.inf
    failures = 0
    for t in range(trials):
        rng = ensure_rng(seed + t)
        rho = random_density(8, rank=int(rng.integers(1, 9)), seed=rng,
                             dims=[("X", 2), ("Y", 2), ("Z", 2)])
        slack = ssa_gap(rho, ["X"], ["Y"], ["Z"])
        worst = min(worst, slack)
        if slack < -TOL:
            failures += 1
    return _summary("ssa", trials, failures, worst, seed, t0)


def run_crosscheck(trials: int = 50, seed: int = 0) -> dict:
    """Statevector and contraction backends agree in trace distance: the
    switch over all future modes and a grid of control weights, plus random
    purified combs."""
    t0 = time.perf_counter()
    worst = math.inf
    failures = 0
    count = 0

    def check(source):
        nonlocal worst, failures, count
        sv = interventional_state(source, "statevector").tau
        ct = interventional_state(source, "contraction").tau
        slack = -trace_distance(sv, ct)
        worst = min(worst, slack)
        count += 1
        if slack < -TOL:
            failures += 1

    for mode in FUTURE_MODES:
        for lam in (0.0, 0.3, 0.7, 1.0):
            check(SwitchSpec(lam, future_mode=mode))
    for t in range(trials):
        check(sample_purified_comb(seed + t))
    return _summary("crosscheck", count, failures, worst, seed, t0)


def run_marginal_bounds(trials: int = 500, seed: int = 0) -> dict:
    """Two-part soundness of the marginal witnesses: I1 and I2 upper-bound
    the DP witness on arbitrary five-system states, and meet the dimension
    bound of the matching order on random fixed-order processes."""
    t0 = time.perf_counter()
    worst = math.inf
    failures = 0
    for t in range(trials):
        rng = ensure_rng(seed + t)
        dims = _sample_slot_dims(rng)
        total = math.prod(dims.values())
        rho = random_density(total, rank=int(rng.integers(1, total + 1)), seed=rng,
                             dims=list(dims.items()))
        for order in ("AB", "BA"):
            dp, _ = dp_witness(rho, order)
            i1, i2, _ = marginal_witnesses(rho, order)
            slack = min(i1 - dp, i2 - dp)
            worst = min(worst, slack)
            if slack < -TOL:
                failures += 1
    for t in range(trials):
        order = "AB" if t % 2 == 0 else "BA"
        pc = sample_purified_comb(seed + 500_000 + t, order=order)
        tau = interventional_state(pc, "statevector")
        i1, i2, bound = marginal_witnesses(tau, order)
        slack = min(i1 - bound, i2 - bound)
        worst = min(worst, slack)
        if slack < -TOL:
            failures += 1
    return _summary("marginal_bounds", 2 * trials, failures, worst, seed, t0)


RUNNERS = {
    "thm1": run_thm1,
    "lemma1": run_lemma1,
    "lemma3": run_lemma3,
    "ssa": run_ssa,
    "crosscheck": run_crosscheck,
    "marginal_bounds": run_marginal_bounds,
}

DEFAULT_TRIALS = {
    "thm1": 500,
    "lemma1": 500,
    "lemma3": 100,
    "ssa": 1000,
    "crosscheck": 50,
    "marginal_bounds": 500,
}
