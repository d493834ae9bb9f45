"""A stack of states is its slices, bit for bit: switch states, validation,
marginal spectra and witness reports over a leading stack axis."""
import numpy as np
import pytest

import qcausal.campaigns as camp
from qcausal import (
    FUTURE_MODES,
    VON_NEUMANN,
    DensityOperator,
    InterventionalState,
    SwitchSpec,
    evaluate,
    interventional_state,
    renyi,
)
from qcausal.cli import sweep_reports

from conftest import traced_peak

# the 101 figure weights plus the edges of the control weight
EDGE_LAMS = [0.0, 1e-15, 1e-9, 1.0 - 1e-9, 1.0]
LAMS = np.concatenate([np.linspace(0.0, 1.0, 101), EDGE_LAMS])


@pytest.mark.parametrize("mode", FUTURE_MODES)
class TestStackEqualsSingles:
    def test_statevector_state_spectra_and_reports(self, mode):
        stack = interventional_state(SwitchSpec(LAMS, future_mode=mode))
        assert stack.tau.matrix.shape[0] == len(LAMS)
        reports = evaluate(stack)
        renyi_reports = evaluate(stack, renyi(2.0))
        assert len(stack.tau._spectra) == 10
        for k, lam in enumerate(LAMS):
            one = interventional_state(SwitchSpec(lam, future_mode=mode))
            assert np.array_equal(stack.tau.matrix[k], one.tau.matrix), lam
            assert evaluate(one) == reports[k]
            assert evaluate(one, renyi(2.0)) == renyi_reports[k]
            assert one.tau._spectra.keys() == stack.tau._spectra.keys()
            for key, lam_one in one.tau._spectra.items():
                assert np.array_equal(stack.tau._spectra[key][k], lam_one), (lam, key)

    def test_contraction_state(self, mode):
        stack = interventional_state(SwitchSpec(LAMS, future_mode=mode), "contraction")
        for k, lam in enumerate(LAMS):
            one = interventional_state(SwitchSpec(lam, future_mode=mode), "contraction")
            assert np.array_equal(stack.tau.matrix[k], one.tau.matrix), lam

    def test_stack_of_one_equals_single(self, mode):
        one = interventional_state(SwitchSpec(0.3, future_mode=mode))
        stack = interventional_state(SwitchSpec([0.3], future_mode=mode))
        assert one.tau.matrix.ndim == 2
        assert np.array_equal(stack.tau.matrix[0], one.tau.matrix)
        assert evaluate(stack) == [evaluate(one)]


def _good_stack(n=4):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    m = g @ np.swapaxes(g.conj(), -1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


BAD_SLICES = {
    "not Hermitian": lambda m: m + np.triu(np.ones((4, 4)), 1),
    "trace": lambda m: 2.0 * m,
    "not positive semidefinite": lambda m: np.diag([1.2, 0.1, -0.3, 0.0]).astype(complex),
    "nan": lambda m: np.where(np.eye(4, dtype=bool), np.nan, m),
}


class TestBadSlice:
    @pytest.mark.parametrize("kind", BAD_SLICES)
    @pytest.mark.parametrize("k", [0, 2])
    def test_density_error_names_the_slice(self, kind, k):
        m = _good_stack()
        DensityOperator(m, [("X", 2), ("Y", 2)])
        m[k] = BAD_SLICES[kind](m[k])
        message = "not Hermitian" if kind == "nan" else kind
        with pytest.raises(ValueError, match=f"^slice {k}: .*{message}"):
            DensityOperator(m, [("X", 2), ("Y", 2)])

    def test_interventional_marginal_error_names_the_slice(self):
        tau = interventional_state(SwitchSpec([0.2, 0.4, 0.6])).tau
        m = tau.matrix.copy()
        # a product state whose retained pair halves are pure, not maximally mixed
        m[1] = 0.0
        m[1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="^slice 1: marginal on the retained pair"):
            InterventionalState(m, tau.dims)

    @pytest.mark.parametrize("lam", [[0.5, 1.5], [[0.5]], [], [0.5, np.nan]])
    def test_switch_rejects_bad_weights(self, lam):
        with pytest.raises(ValueError, match="control weight"):
            SwitchSpec(lam)


def _sweep_peak(points: int) -> int:
    rows = []
    peak = traced_peak(lambda: rows.extend(
        sweep_reports("switch_full", np.linspace(0.0, 1.0, points), VON_NEUMANN)))
    assert len(rows) == points
    return peak


def test_sweep_memory_does_not_grow_with_the_grid(monkeypatch):
    # in-process, so that tracemalloc sees every sub-grid
    monkeypatch.setattr(camp, "_workers", lambda n: 1)
    small = _sweep_peak(101)
    large = _sweep_peak(2001)
    assert large <= 2 * small, (small, large)
