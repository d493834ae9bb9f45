"""Witnesses: bounds, closed-form anchors, verdict logic, report plumbing."""
import dataclasses
import math

import numpy as np
import pytest

from qcausal import (
    MAX_ENTROPY,
    MIN_ENTROPY,
    VERDICT_BEYOND,
    VERDICT_NONE,
    VERDICT_NOT_AB,
    VERDICT_NOT_BA,
    VON_NEUMANN,
    DensityOperator,
    SwitchSpec,
    dp_witness,
    entropy,
    entropy_from_spectrum,
    evaluate,
    interventional_state,
    is_violated,
    marginal_witnesses,
    renyi,
    sample_purified_comb,
    trace_distance,
    verdict_token,
)
from qcausal.cli import _FUTURE_OF, BACKEND_AGREE_TOL

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
        def closed(lam, spec):
            s, p = 1.0 - 0.75 * lam, lam * (1.0 - lam) / 8.0
            root = math.sqrt(s * s - 4.0 * p)
            spectrum = [lam / 4.0] * 3 + [(s + root) / 2.0, (s - root) / 2.0]
            return -entropy_from_spectrum(np.array(spectrum), spec)

        for lam in GRID:
            tau = switch_state(lam, "full")
            for spec in (VON_NEUMANN, renyi(0.5), renyi(2.0), MIN_ENTROPY):
                assert abs(dp_witness(tau, "BA", spec)[0] - closed(lam, spec)) <= 1e-9
                assert abs(dp_witness(tau, "AB", spec)[0] - closed(1.0 - lam, spec)) <= 1e-9

    def test_upsilon1_full_state_closed_form(self):
        # with the control traced the five-part state has rank 2 and
        # eigenvalues (1 ± r) / 2, r = sqrt(1 - 15 lam (1 - lam) / 4); each
        # family is evaluated here by hand, not by entropy_from_spectrum
        def closed(p, spec):
            p = [x for x in p if x > 0.0]
            if spec.kind == "von_neumann":
                return -sum(x * math.log2(x) for x in p)
            if spec.kind == "min":
                return -math.log2(max(p))
            if spec.kind == "max":
                return math.log2(len(p))
            return math.log2(sum(x ** spec.alpha for x in p)) / (1.0 - spec.alpha)

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
