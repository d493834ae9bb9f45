"""Entropy families: formulas, ordering, duality, SSA."""
import math

import numpy as np
import pytest

from qcausal import (
    MAX_ENTROPY,
    MIN_ENTROPY,
    VON_NEUMANN,
    DensityOperator,
    EntropySpec,
    LabeledOperator,
    entropy,
    entropy_from_spectrum,
    purify,
    random_density,
    renyi,
    ssa_gap,
)
from qcausal.labeled import RANK_REL_TOL

RNG = np.random.default_rng(17)
ALL_SPECS = (VON_NEUMANN, renyi(0.5), renyi(0.8), renyi(2.0), renyi(3.0),
             MIN_ENTROPY, MAX_ENTROPY)


def rand_spectrum(d):
    p = RNG.dirichlet(np.ones(d))
    return np.sort(p)[::-1]


class TestSpec:
    def test_labels(self):
        assert VON_NEUMANN.label == "vn"
        assert renyi(0.5).label == "renyi(0.5)"
        assert MIN_ENTROPY.label == "min"
        assert MAX_ENTROPY.label == "max"

    def test_validated_range(self):
        assert renyi(0.5).validated
        assert renyi(7.0).validated
        assert not renyi(0.3).validated
        assert VON_NEUMANN.validated and MIN_ENTROPY.validated

    def test_renyi_inf_is_min(self):
        assert renyi(math.inf) is MIN_ENTROPY

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            EntropySpec("renyi")
        with pytest.raises(ValueError):
            renyi(-1.0)
        for alpha in (math.nan, -math.inf):  # only +inf is the min-entropy
            with pytest.raises(ValueError):
                renyi(alpha)
        with pytest.raises(ValueError):
            EntropySpec("von_neumann", alpha=2.0)
        with pytest.raises(ValueError):
            EntropySpec("linear")


class TestSpectrumFormulas:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_uniform(self, spec):
        d = 8
        assert np.isclose(entropy_from_spectrum(np.full(d, 1 / d), spec),
                          math.log2(d), atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_pure(self, spec):
        assert np.isclose(entropy_from_spectrum([1.0, 0.0, 0.0], spec), 0.0,
                          atol=1e-12)

    @pytest.mark.parametrize("p", np.linspace(0.05, 0.95, 7))
    def test_binary_von_neumann(self, p):
        expect = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert np.isclose(entropy_from_spectrum([p, 1 - p]), expect)

    def test_renyi2_formula(self):
        lam = rand_spectrum(5)
        assert np.isclose(entropy_from_spectrum(lam, renyi(2.0)),
                          -math.log2(float(np.sum(lam ** 2))))

    def test_min_formula(self):
        lam = rand_spectrum(5)
        assert np.isclose(entropy_from_spectrum(lam, MIN_ENTROPY),
                          -math.log2(float(lam.max())))

    def test_max_is_log_rank(self):
        assert np.isclose(entropy_from_spectrum([0.7, 0.3, 0.0], MAX_ENTROPY),
                          1.0)

    def test_max_entropy_rank_cutoff(self):
        # an eigenvalue counts toward the rank only above RANK_REL_TOL * lambda_max
        top = 0.5
        above = [top, top - 2e-9, 1.001 * RANK_REL_TOL * top]
        below = [top, top - 2e-9, 0.999 * RANK_REL_TOL * top]
        assert entropy_from_spectrum(above, MAX_ENTROPY) == math.log2(3)
        assert entropy_from_spectrum(below, MAX_ENTROPY) == 1.0

    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValueError):
            entropy_from_spectrum([1.1, -0.1])

    def test_alpha_near_one_continuity(self):
        for _ in range(20):
            lam = rand_spectrum(6)
            h = entropy_from_spectrum(lam)
            assert abs(entropy_from_spectrum(lam, renyi(1 + 1e-4)) - h) < 1e-3
            assert abs(entropy_from_spectrum(lam, renyi(1 - 1e-4)) - h) < 1e-3

    def test_min_renyi_max_ordering(self):
        for _ in range(20):
            lam = rand_spectrum(6)
            hmin = entropy_from_spectrum(lam, MIN_ENTROPY)
            hmax = entropy_from_spectrum(lam, MAX_ENTROPY)
            prev = hmax + 1e-12
            # Renyi entropies decrease with alpha, pinched by min and max
            for a in (0.4, 0.6, 1.0, 1.7, 3.0, 10.0):
                h = entropy_from_spectrum(lam, renyi(a))
                assert hmin - 1e-10 <= h <= hmax + 1e-10
                assert h <= prev + 1e-10
                prev = h


class TestStateEntropy:
    def test_subsystem_selection(self):
        rho = random_density(12, 5, 3, dims=[("A", 3), ("B", 4)])
        ha = entropy(rho, ["A"])
        assert 0.0 <= ha <= math.log2(3) + 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_pure_state_duality(self, spec):
        # both halves of a purification carry the same spectrum
        rho = random_density(5, 3, 23, dims=[("A", 5)])
        psi = purify(rho, "B").density()
        assert np.isclose(entropy(psi, ["A"], spec), entropy(psi, ["B"], spec),
                          atol=1e-9)

    def test_bare_labeled_operator_rejected(self):
        rho = random_density(4, 2, 7, dims=[("A", 2), ("B", 2)])
        bare = LabeledOperator(rho.matrix, rho.dims)
        with pytest.raises(TypeError, match="DensityOperator"):
            entropy(bare)
        with pytest.raises(TypeError, match="DensityOperator"):
            entropy(bare, ["A"])
        with pytest.raises(TypeError, match="DensityOperator"):
            ssa_gap(bare, ["A"], [], ["B"])


class TestSSA:
    def test_gap_nonnegative_random(self):
        for s in range(50):
            rho = random_density(8, int(RNG.integers(1, 9)), 1000 + s,
                                 dims=[("X", 2), ("Y", 2), ("Z", 2)])
            assert ssa_gap(rho, ["X"], ["Y"], ["Z"]) >= -1e-9

    def test_disjointness_enforced(self):
        rho = random_density(8, 8, 2, dims=[("X", 2), ("Y", 2), ("Z", 2)])
        with pytest.raises(ValueError):
            ssa_gap(rho, ["X"], ["X"], ["Z"])

    def test_product_state_gap(self):
        # X:Y product against Z product: gap collapses to zero
        a = random_density(2, 2, 31, dims=[("X", 2)])
        b = random_density(2, 2, 32, dims=[("Y", 2)])
        c = random_density(2, 2, 33, dims=[("Z", 2)])
        rho = DensityOperator(
            np.kron(np.kron(a.matrix, b.matrix), c.matrix),
            [("X", 2), ("Y", 2), ("Z", 2)])
        assert abs(ssa_gap(rho, ["X"], ["Y"], ["Z"])) < 1e-9
