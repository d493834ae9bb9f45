"""Witnesses: bounds, closed-form anchors, verdict logic, report plumbing."""
import csv
import dataclasses
import functools
import math

import numpy as np
import pytest

from qcausal import (
    MAX_ENTROPY,
    MIN_ENTROPY,
    ORDERS,
    SLOTS,
    VERDICT_BEYOND,
    VERDICT_NONE,
    VERDICT_NOT_AB,
    VERDICT_NOT_BA,
    VON_NEUMANN,
    DensityOperator,
    PureState,
    PurifiedComb,
    SwitchSpec,
    dp_witness,
    entropy,
    entropy_from_spectrum,
    evaluate,
    haar_unitary,
    interventional_state,
    is_violated,
    marginal_witnesses,
    renyi,
    sample_fixed_order_comb,
    sample_purified_comb,
    trace_distance,
    verdict_token,
)
from qcausal.campaigns import DP_FAMILIES
from qcausal.cli import _FUTURE_OF, BACKEND_AGREE_TOL, main

FIVE_QUBITS = [("A0", 2), ("A1", 2), ("B0", 2), ("B1", 2), ("F", 2)]


def upsilon1(lam):
    return interventional_state(SwitchSpec(lam, future_mode="trace_control"))


class TestClosedFormAnchors:
    def test_maximally_mixed(self):
        # every entropy is the log of the retained dimension
        tau = DensityOperator(np.eye(32) / 32, FIVE_QUBITS)
        for order in ("AB", "BA"):
            value, bound = dp_witness(tau, order)
            assert np.isclose(value, 2.0, atol=1e-10)
            assert bound == 0.0
            i1, i2, mb = marginal_witnesses(tau, order)
            assert np.isclose(i1, 2.0, atol=1e-10)
            assert np.isclose(i2, 2.0, atol=1e-10)
            assert mb == 0.0

    def test_pure_product_is_all_zero(self):
        m = np.zeros((32, 32))
        m[0, 0] = 1.0
        tau = DensityOperator(m, FIVE_QUBITS)
        for order in ("AB", "BA"):
            value, _ = dp_witness(tau, order)
            i1, i2, _ = marginal_witnesses(tau, order)
            assert abs(value) < 1e-10
            assert abs(i1) < 1e-10 and abs(i2) < 1e-10

    def test_bound_tracks_dimensions(self):
        tau = interventional_state(SwitchSpec(0.5))  # F keeps both wires
        _, bound = dp_witness(tau, "AB")
        assert np.isclose(bound, math.log2(2 / 4))
        tau1 = upsilon1(0.5)
        _, bound1 = dp_witness(tau1, "AB")
        assert bound1 == 0.0


class TestCaseStudyAnchors:
    def test_endpoint_values(self):
        r = evaluate(upsilon1(0.0))
        assert np.isclose(r.dp_ab, -2.0, atol=1e-6)
        assert np.isclose(r.dp_ba, 0.0, atol=1e-6)
        assert r.verdict == VERDICT_NOT_AB

    def test_endpoint_marginals_respect_bound(self):
        # a genuinely second-first process keeps its matching-order witnesses
        r = evaluate(upsilon1(0.0))
        assert r.i1_ba >= -1e-9 and r.i2_ba >= -1e-9

    def test_midpoint_certifies(self):
        r = evaluate(upsilon1(0.5))
        assert r.verdict == VERDICT_BEYOND
        assert np.isclose(r.dp_ab, -0.862304732525, atol=1e-9)
        assert np.isclose(r.dp_ab, r.dp_ba, atol=1e-12)

    def test_midpoint_marginals_negative(self):
        r = evaluate(upsilon1(0.5))
        for v in (r.i1_ab, r.i2_ab, r.i1_ba, r.i2_ba):
            assert v < 0.0
        assert np.isclose(r.i1_ab, -0.099821548761, atol=1e-9)
        assert np.isclose(r.i2_ab, -0.156774630359, atol=1e-9)

    def test_fixed_order_sample_obeys_bound(self):
        pc = sample_purified_comb(5, order="AB")
        tau = interventional_state(pc)
        for spec in (VON_NEUMANN, renyi(0.5), renyi(2.0), MIN_ENTROPY):
            value, bound = dp_witness(tau, "AB", spec)
            assert value >= bound - 1e-9


GRID = np.linspace(0.0, 1.0, 101)


def switch_state(lam, mode):
    return interventional_state(SwitchSpec(float(lam), future_mode=mode))


def closed(p, spec):
    """Entropy in the family ``spec`` of the probability vector ``p``,
    evaluated by hand, not by entropy_from_spectrum."""
    p = [x for x in p if x > 0.0]
    if spec.kind == "von_neumann":
        return -sum(x * math.log2(x) for x in p)
    if spec.kind == "min":
        return -math.log2(max(p))
    if spec.kind == "max":
        return math.log2(len(p))
    return math.log2(sum(x ** spec.alpha for x in p)) / (1.0 - spec.alpha)


def roots(s, p):
    """The two roots of mu**2 - s mu + p."""
    root = math.sqrt(max(s * s - 4.0 * p, 0.0))
    return [(s + root) / 2.0, (s - root) / 2.0]


class TestSwitchClosedForms:
    """With a pure target the whole switch (target and control kept) is pure,
    and tracing the target leaves ``H_alpha(all five) = H_alpha(T1) = 1``
    while the past marginal is unchanged; see criterion 6."""

    def test_upsilon2_is_switch_full_shifted_by_one(self):
        specs = (VON_NEUMANN, renyi(0.5), renyi(2.0), MIN_ENTROPY)
        for lam in GRID:
            full = switch_state(lam, "full")
            traced = switch_state(lam, "trace_target")
            for order in ("AB", "BA"):
                for spec in specs:
                    value_full, bound_full = dp_witness(full, order, spec)
                    value, bound = dp_witness(traced, order, spec)
                    assert abs(value - value_full - 1.0) <= 1e-12, (lam, order, spec.label)
                    assert (bound_full, bound) == (-1.0, 0.0)

    def test_switch_full_every_family_from_five_eigenvalues(self):
        # dp_ba(lam) = dp_ab(1 - lam) = -H_alpha(A1 F), whose spectrum is lam/4
        # three times plus the roots of mu**2 - (1 - 3 lam/4) mu + lam (1 - lam)/8
        def dp_ba(lam, spec):
            spectrum = [lam / 4.0] * 3 + roots(1.0 - 0.75 * lam, lam * (1.0 - lam) / 8.0)
            return -entropy_from_spectrum(np.array(spectrum), spec)

        for lam in GRID:
            tau = switch_state(lam, "full")
            for spec in (VON_NEUMANN, renyi(0.5), renyi(2.0), MIN_ENTROPY):
                assert abs(dp_witness(tau, "BA", spec)[0] - dp_ba(lam, spec)) <= 1e-9
                assert abs(dp_witness(tau, "AB", spec)[0] - dp_ba(1.0 - lam, spec)) <= 1e-9

    def test_switch_full_marginal_witnesses_from_closed_spectra(self):
        # the nonzero spectra of every marginal that i1 and i2 take, with
        # q = 1 - lam; measured at most 1.0e-14 from the program
        def h(spectrum):
            return entropy_from_spectrum(np.array(spectrum), VON_NEUMANN)

        for lam in GRID:
            q = 1.0 - lam
            h_pair = h([0.25] * 4)  # A1 B1
            h_pair_f = h([0.5, q / 2.0, lam / 2.0])  # A1 B1 F
            h_four = h([q / 2.0, lam / 2.0] + roots(0.5, 3.0 * lam * q / 16.0))  # A0 A1 B0 B1
            by_order = {  # order: (past x0 x1 y0, x0 x1 y1 F, A1 B1 y0)
                "AB": (h([q / 4.0] * 3 + roots(1.0 - 0.75 * q, lam * q / 8.0)),
                       h([1.0 - lam / 2.0, lam / 2.0]),
                       h([q / 4.0] * 2 + roots((1.0 + lam) / 4.0, lam * q / 16.0) * 2)),
                "BA": (h([lam / 4.0] * 3 + roots(1.0 - 0.75 * lam, lam * q / 8.0)),
                       h([(1.0 + lam) / 2.0, q / 2.0]),
                       h([lam / 4.0] * 2 + roots((2.0 - lam) / 4.0, lam * q / 16.0) * 2)),
            }
            tau = switch_state(lam, "full")
            for order, (h_past, h_tail, h_mid) in by_order.items():
                i1, i2, _ = marginal_witnesses(tau, order)
                assert abs(i1 - (h_four - h_past + h_pair_f - h_pair)) <= 1e-9, (lam, order)
                assert abs(i2 - (h_tail + h_mid - h_pair - h_past)) <= 1e-9, (lam, order)

    def test_upsilon1_full_state_closed_form(self):
        # with the control traced the five-part state has rank 2 and
        # eigenvalues (1 ± r) / 2, r = sqrt(1 - 15 lam (1 - lam) / 4); each
        # family is evaluated here by hand, not by entropy_from_spectrum
        specs = (VON_NEUMANN, renyi(0.5), renyi(0.8), renyi(2.0), renyi(3.0),
                 MIN_ENTROPY, MAX_ENTROPY)
        for lam in GRID:
            tau = switch_state(lam, "trace_control").tau
            r = math.sqrt(1.0 - 15.0 * lam * (1.0 - lam) / 4.0)
            p = [(1.0 + r) / 2.0, (1.0 - r) / 2.0]
            # measured at most 1.0e-15 from the eigensolver's spectrum
            assert np.abs(tau.spectrum() - np.pad(p, (0, 30))).max() <= 1e-14, lam
            for spec in specs:
                assert abs(entropy(tau, None, spec) - closed(p, spec)) <= 1e-9, (lam, spec.label)

    def test_switch_full_max_entropy_is_minus_log2_5_inside(self):
        # rho_{A1 F} has rank 5 on all of (0, 1): lam/4 three times plus two roots
        for lam in GRID[1:-1]:
            tau = switch_state(lam, "full")
            for order in ("AB", "BA"):
                assert dp_witness(tau, order, MAX_ENTROPY)[0] == -math.log2(5), (lam, order)


# every reproduce file: figure -> {file name: (case study, entropy family)}
FIGURE_FILES = {
    "3a": {"fig3a.csv": ("switch_full", VON_NEUMANN)},
    "3b": {"fig3b.csv": ("upsilon1", VON_NEUMANN)},
    "3c": {"fig3c.csv": ("upsilon2", VON_NEUMANN)},
    "4": {"fig4.csv": ("upsilon1", VON_NEUMANN)},
    "5a": {f"fig5a_{tag}.csv": ("upsilon2", spec) for tag, spec in (
        ("vn", VON_NEUMANN), ("alpha0.5", renyi(0.5)), ("alpha0.65", renyi(0.65)),
        ("alpha0.8", renyi(0.8)))},
    "5b": {f"fig5b_{tag}.csv": ("upsilon2", spec) for tag, spec in (
        ("vn", VON_NEUMANN), ("alpha2", renyi(2.0)), ("alpha3", renyi(3.0)),
        ("alpha4", renyi(4.0)), ("alphainf", MIN_ENTROPY))},
}
# each case study's DP bound log2(dim y1 / dim F), the same for both orders
CASE_BOUNDS = {"switch_full": -1.0, "upsilon1": 0.0, "upsilon2": 0.0}


def case_study_spectra(process, lam):
    """Nonzero spectrum of every marginal a figure cell takes, by label set
    ("all" for the five parts), with q = 1 - lam.  A label set without F has
    the same marginal in all three case studies."""
    q = 1.0 - lam
    r = math.sqrt(1.0 - 15.0 * lam * q / 4.0)
    own = {
        "switch_full": {
            "all": [1.0],
            "A1 B1 F": [0.5, q / 2.0, lam / 2.0],
            "A0 A1 B1 F": [1.0 - lam / 2.0, lam / 2.0],
            "B0 B1 A1 F": [(1.0 + lam) / 2.0, q / 2.0],
        },
        "upsilon1": {  # F = T1
            "all": [(1.0 + r) / 2.0, (1.0 - r) / 2.0],
            "A1 B1 F": roots(0.5, 3.0 * lam * q / 16.0) * 2,
            "A0 A1 B1 F": [lam / 2.0] + roots(1.0 - lam / 2.0, 7.0 * lam * q / 16.0),
            "B0 B1 A1 F": [q / 2.0] + roots((1.0 + lam) / 2.0, 7.0 * lam * q / 16.0),
        },
        "upsilon2": {  # F = C1
            "all": [0.5, 0.5],
            "A1 B1 F": [0.25, 0.25, q / 4.0, q / 4.0, lam / 4.0, lam / 4.0],
            "A0 A1 B1 F": [(2.0 - lam) / 4.0] * 2 + [lam / 4.0] * 2,
            "B0 B1 A1 F": [(1.0 + lam) / 4.0] * 2 + [q / 4.0] * 2,
        },
    }
    return {
        "A1 B1": [0.25] * 4,
        "A0 A1 B0 B1": [q / 2.0, lam / 2.0] + roots(0.5, 3.0 * lam * q / 16.0),
        "A0 A1 B0": [q / 4.0] * 3 + roots(1.0 - 0.75 * q, lam * q / 8.0),
        "B0 B1 A0": [lam / 4.0] * 3 + roots(1.0 - 0.75 * lam, lam * q / 8.0),
        "A1 B1 B0": [q / 4.0] * 2 + roots((1.0 + lam) / 4.0, lam * q / 16.0) * 2,
        "A1 B1 A0": [lam / 4.0] * 2 + roots((2.0 - lam) / 4.0, lam * q / 16.0) * 2,
        **own[process],
    }


def closed_form_row(process, spec, lam):
    """The reproduce CSV row of one case study at ``lam`` in the family
    ``spec``, from the closed-form spectra, by column name."""
    spectra = case_study_spectra(process, lam)
    h = lambda labels, family=VON_NEUMANN: closed(spectra[labels], family)
    bound = CASE_BOUNDS[process]
    dp_ab = h("all", spec) - h("A0 A1 B0", spec)
    dp_ba = h("all", spec) - h("B0 B1 A0", spec)
    violated_ab, violated_ba = is_violated(dp_ab, bound), is_violated(dp_ba, bound)
    return {
        "lambda": lam, "dp_ab": dp_ab, "bound_ab": bound, "dp_ba": dp_ba, "bound_ba": bound,
        "violated_ab": str(int(violated_ab)), "violated_ba": str(int(violated_ba)),
        "i1_ab": h("A0 A1 B0 B1") - h("A0 A1 B0") + h("A1 B1 F") - h("A1 B1"),
        "i2_ab": h("A0 A1 B1 F") + h("A1 B1 B0") - h("A1 B1") - h("A0 A1 B0"),
        "i1_ba": h("A0 A1 B0 B1") - h("B0 B1 A0") + h("A1 B1 F") - h("A1 B1"),
        "i2_ba": h("B0 B1 A1 F") + h("A1 B1 A0") - h("A1 B1") - h("B0 B1 A0"),
        "verdict": verdict_token(violated_ab, violated_ba),
    }


class TestFigureCellsFromClosedForms:
    """Every cell of the 13 reproduce CSVs, rebuilt from closed-form spectra
    and entropies evaluated by hand: the numbers within 1e-9 (largest gap
    measured 5.0e-12, in fig3a.csv), the violation flags and verdicts
    exactly.  The program's eigenvalues match every spectrum here within
    3.8e-15."""

    def test_every_reproduce_cell(self, tmp_path):
        for figure, files in FIGURE_FILES.items():
            assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            name for files in FIGURE_FILES.values() for name in files)
        for files in FIGURE_FILES.values():
            for name, (process, spec) in files.items():
                with open(tmp_path / name, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert len(rows) == len(GRID), name
                for lam, row in zip(GRID, rows):
                    want = closed_form_row(process, spec, lam)
                    assert list(row) == list(want), name
                    for column, value in want.items():
                        where = (name, lam, column)
                        if isinstance(value, str):
                            assert row[column] == value, where
                        else:
                            assert abs(float(row[column]) - value) <= 1e-9, where


class TestNearEndpoints:
    """Control weights within 1e-9 of 0 and 1, for each case study."""

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12])
    @pytest.mark.parametrize("process", _FUTURE_OF)
    def test_backends_agree_and_von_neumann_verdict_is_the_endpoint_one(self, process, lam):
        s = SwitchSpec(lam, future_mode=_FUTURE_OF[process])
        sv = interventional_state(s, "statevector")
        ct = interventional_state(s, "contraction")
        # measured gaps of at most 1.7e-15
        assert trace_distance(sv, ct) <= BACKEND_AGREE_TOL
        verdict = VERDICT_NOT_AB if lam < 0.5 else VERDICT_NOT_BA
        assert evaluate(sv).verdict == evaluate(ct).verdict == verdict

    @pytest.mark.parametrize("lam, verdict", [
        (2e-9, VERDICT_NOT_AB), (4e-9, VERDICT_BEYOND),
        (1.0 - 4e-9, VERDICT_BEYOND), (1.0 - 1e-9, VERDICT_NOT_BA)])
    @pytest.mark.parametrize("backend", ["statevector", "contraction"])
    def test_switch_full_max_entropy_verdict_flips_at_the_rank_cutoff(self, backend, lam,
                                                                      verdict):
        # In exact arithmetic rho_{A1 F} has rank 5 on all of (0, 1), so the
        # verdict is BeyondFixedOrder there.  Its three eigenvalues lam / 4 (or
        # their mirror near 1) fall below the RANK_REL_TOL cutoff within about
        # 4e-9 of an endpoint, and the verdict becomes the endpoint's.  This
        # pins the fragile region as it is; it is not a tolerance to loosen.
        tau = interventional_state(SwitchSpec(lam), backend)
        assert evaluate(tau, spec=MAX_ENTROPY).verdict == verdict


class TestVerdictLogic:
    def test_truth_table(self):
        assert verdict_token(True, True) == VERDICT_BEYOND
        assert verdict_token(True, False) == VERDICT_NOT_AB
        assert verdict_token(False, True) == VERDICT_NOT_BA
        assert verdict_token(False, False) == VERDICT_NONE

    def test_violation_tolerance(self):
        assert not is_violated(0.0, 0.0)
        assert not is_violated(-5e-8, 0.0)  # inside the guard band
        assert is_violated(-2e-7, 0.0)
        assert is_violated(0.9, 1.0)


class TestEvaluatePlumbing:
    def test_every_family_reports_von_neumann_marginals(self):
        vn = evaluate(upsilon1(0.3))
        assert vn.i1_ab is not None
        for spec in (renyi(0.3), renyi(2.0), MIN_ENTROPY, MAX_ENTROPY):
            r = evaluate(upsilon1(0.3), spec=spec)
            assert r.dp_ab != vn.dp_ab, spec.label
            assert (r.i1_ab, r.i2_ab, r.i1_ba, r.i2_ba) == (vn.i1_ab, vn.i2_ab, vn.i1_ba, vn.i2_ba)

    def test_out_of_range_family_withholds_verdict(self):
        r = evaluate(upsilon1(0.5), spec=renyi(0.3))
        assert r.verdict == VERDICT_NONE
        assert any("validated range" in w for w in r.warnings)
        assert math.isfinite(r.dp_ab)

    @pytest.mark.parametrize("lam", [0.3, np.linspace(0.0, 1.0, 5)], ids=["one", "stack"])
    def test_marginal_witnesses_match_entropy_oracle(self, lam):
        # the combinations of the witness.py docstring, the conditional
        # entropies expanded as H(X Y) - H(Y), labels written out per order
        tau = upsilon1(lam).tau
        h = lambda *labels: entropy(tau, list(labels))
        oracle = {
            "AB": (h("A0", "A1", "B0", "B1") - h("A0", "A1", "B0") + h("A1", "B1", "F") - h("A1", "B1"),
                   h("A0", "A1", "B1", "F") + h("A1", "B1", "B0") - h("A1", "B1") - h("A0", "A1", "B0")),
            "BA": (h("B0", "B1", "A0", "A1") - h("B0", "B1", "A0") + h("A1", "B1", "F") - h("A1", "B1"),
                   h("B0", "B1", "A1", "F") + h("A1", "B1", "A0") - h("A1", "B1") - h("B0", "B1", "A0")),
        }
        for order, (i1_want, i2_want) in oracle.items():
            i1, i2, _ = marginal_witnesses(tau, order)
            assert np.shape(i1) == np.shape(lam)
            assert np.array_equal(i1, i1_want), order
            assert np.array_equal(i2, i2_want), order

    def test_order_token_checked(self):
        with pytest.raises(ValueError):
            dp_witness(upsilon1(0.5), "CA")

    def test_report_is_frozen(self):
        r = evaluate(upsilon1(0.4), tag="probe")
        assert r.tag == "probe"
        assert r.family is VON_NEUMANN
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.dp_ab = 0.0

    def test_switch_symmetry(self):
        # swapping the control weight mirrors the two orders
        ra = evaluate(upsilon1(0.25))
        rb = evaluate(upsilon1(0.75))
        assert np.isclose(ra.dp_ab, rb.dp_ba, atol=1e-9)
        assert np.isclose(ra.i2_ab, rb.i2_ba, atol=1e-9)


class TestSharedSpectra:
    def test_one_eigensolve_per_distinct_marginal(self, monkeypatch):
        state = interventional_state(SwitchSpec(0.3))
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        evaluate(state)
        # 16 entropies, 10 distinct marginals
        assert len(calls) == 10
        evaluate(state, spec=renyi(2.0))
        assert len(calls) == 10


ORACLE_TOL = 1e-12
# swapping the parties relabels each order's slot wires as the other order's
SWAP = dict(zip(SLOTS["AB"], SLOTS["BA"]))
OTHER = dict(zip(ORDERS, ORDERS[::-1]))


def mirrored(pc):
    """The comb of the other order that is ``pc`` with parties A and B
    swapped: the same amplitudes and unitaries on the relabeled wires."""
    psi = PureState(pc.psi.amplitudes, [(SWAP.get(l, l), d) for l, d in pc.psi.dims])
    return PurifiedComb(OTHER[pc.order], psi, pc.u1, pc.u2,
                        {SWAP.get(l, l): d for l, d in pc.dims.items()})


def assert_same_witnesses(tau, other, orders):
    """``tau``'s DP witness in every campaign family and its marginal
    witnesses for each order equal ``other``'s for ``orders[order]``, the
    values within ORACLE_TOL and the bounds exactly."""
    for order in ORDERS:
        for spec in DP_FAMILIES:
            (value, bound), (want, want_bound) = (dp_witness(tau, order, spec),
                                                  dp_witness(other, orders[order], spec))
            assert abs(value - want) <= ORACLE_TOL and bound == want_bound, (order, spec.label)
        *values, bound = marginal_witnesses(tau, order)
        *wants, want_bound = marginal_witnesses(other, orders[order])
        assert np.abs(np.subtract(values, wants)).max() <= ORACLE_TOL and bound == want_bound


class TestMetamorphicOracles:
    """Relations that hold whatever the two backends share: a party swap
    maps each order's witnesses to the other order's, and a unitary on each
    wire changes no witness."""

    def test_party_swap_gives_the_other_orders_witnesses(self):
        for seed in range(40):
            pc = sample_purified_comb(seed)
            assert_same_witnesses(interventional_state(pc, "statevector"),
                                  interventional_state(mirrored(pc), "contraction"), OTHER)

    def test_witnesses_invariant_under_a_unitary_on_each_wire(self):
        for seed in range(40):
            comb = (sample_purified_comb if seed % 2 else sample_fixed_order_comb)(seed)
            tau = interventional_state(comb)
            rng = np.random.default_rng(10_000 + seed)
            u = functools.reduce(np.kron, [haar_unitary(d, rng) for _, d in tau.dims])
            rotated = DensityOperator(u @ tau.matrix @ u.conj().T, tau.dims)
            assert_same_witnesses(tau, rotated, dict(zip(ORDERS, ORDERS)))
