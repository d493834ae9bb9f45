"""Entropy families: formulas, ordering, duality, SSA."""
import itertools
import math
import re

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
from qcausal.entropy import RENYI_VN_EPS
from qcausal.labeled import RANK_REL_TOL, TRACE_TOL

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

    @pytest.mark.parametrize("spec", ALL_SPECS + (renyi(2000.0),), ids=lambda s: s.label)
    @pytest.mark.parametrize("lam", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.inf], [np.inf],
                                     [0.5, 0.5, -np.inf]],
                             ids=["nan", "inf", "only_inf", "minus_inf"])
    def test_non_finite_spectrum_rejected(self, lam, spec):
        # a NaN used to drop out of the support (H = 1 bit for the first
        # spectrum), and +inf gave -inf or NaN; a RuntimeWarning fails too
        with pytest.raises(ValueError):
            entropy_from_spectrum(lam, spec)

    @pytest.mark.parametrize("spec", ALL_SPECS + (renyi(2000.0),), ids=lambda s: s.label)
    def test_weight_above_one_rejected(self, spec):
        # a validated state's trace is within TRACE_TOL of 1; far above it
        # s * log2(s) overflows, from about 1.8e305
        assert abs(entropy_from_spectrum([1 + TRACE_TOL], spec)) < 1e-7
        for lam in ([1 + 2 * TRACE_TOL], [1e306, 0.5], [0.5, 1e306]):
            with pytest.raises(ValueError, match=re.escape(f"eigenvalue {max(lam):.12g} > 1")):
                entropy_from_spectrum(lam, spec)

    def test_alpha_near_one_continuity(self):
        for _ in range(20):
            lam = rand_spectrum(6)
            h = entropy_from_spectrum(lam)
            assert abs(entropy_from_spectrum(lam, renyi(1 + 1e-4)) - h) < 1e-3
            assert abs(entropy_from_spectrum(lam, renyi(1 - 1e-4)) - h) < 1e-3

    @pytest.mark.parametrize("alpha", [1100.0, 1e4, 1e300])
    def test_large_alpha_closed_form(self, alpha):
        # H_alpha([1/2, 1/4, 1/4]) = alpha/(alpha-1) + log2(1 + 2^(1-alpha))/(1-alpha);
        # the direct sum 2^-alpha + 2^(1-2 alpha) underflows to 0 for these alpha
        expect = alpha / (alpha - 1.0) + math.log2(1.0 + 2.0 ** (1.0 - alpha)) / (1.0 - alpha)
        got = entropy_from_spectrum([0.5, 0.25, 0.25], renyi(alpha))
        assert math.isfinite(got)
        assert abs(got - expect) <= 1e-12

    def test_large_alpha_eigenvalue_above_one(self):
        # a pure state's eigenvalue may round to just above 1; its power
        # sum overflows at large alpha, where the entropy is the min-entropy
        lam = [1.0 + 4 * np.finfo(float).eps, 0.0]
        hmin = entropy_from_spectrum(lam, MIN_ENTROPY)
        assert abs(entropy_from_spectrum(lam, renyi(1e300)) - hmin) <= 1e-12

    def test_large_alpha_monotone_toward_min_entropy(self):
        for lam in ([0.5, 0.25, 0.25], rand_spectrum(6), [0.4, 0.4, 0.2]):
            hmin = entropy_from_spectrum(lam, MIN_ENTROPY)
            values = [entropy_from_spectrum(lam, renyi(a))
                      for a in (2.0, 10.0, 100.0, 1000.0, 1100.0, 1e4, 1e6, 1e300)]
            assert all(math.isfinite(h) for h in values)
            assert all(later <= earlier for earlier, later in zip(values, values[1:]))
            assert all(h >= hmin for h in values)
            assert abs(values[-1] - hmin) <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_renyi_dispatches_to_von_neumann_within_eps(self, sign):
        lam = [0.5, 0.3, 0.2]
        h = entropy_from_spectrum(lam, VON_NEUMANN)
        assert entropy_from_spectrum(lam, renyi(1.0 + sign * 0.5 * RENYI_VN_EPS)) == h
        near = entropy_from_spectrum(lam, renyi(1.0 + sign * 10 * RENYI_VN_EPS))
        assert near != h
        assert abs(near - h) <= 1e-4

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


class TestEntropyFromSpectra:
    """Each entropy is its family's value on the state's memoized spectrum."""

    def test_same_value_in_any_label_order(self):
        rho = random_density(24, 6, 5, dims=[("A", 2), ("B", 3), ("C", 4)])
        for spec in ALL_SPECS:
            first = entropy(rho, ["A", "C"], spec)
            for labels in (["C", "A"], ("A", "C"), ["C", "A", "C"]):
                assert entropy(rho, labels, spec) == first
            assert entropy(rho, spec=spec) == entropy(rho, ["C", "B", "A"], spec)

    def test_families_never_collide(self):
        rho = random_density(24, 6, 9, dims=[("A", 2), ("B", 3), ("C", 4)])
        specs = ALL_SPECS + (renyi(0.5000001), renyi(1.0), EntropySpec("renyi", math.inf))
        for labels in (["A", "B"], ["B", "C"], None):
            lam = rho.spectrum(labels)
            for _ in range(2):
                for spec in specs:
                    assert entropy(rho, labels, spec) == entropy_from_spectrum(lam, spec)
            values = [entropy(rho, labels, spec) for spec in ALL_SPECS]
            assert len(set(values)) == len(ALL_SPECS)


# every family, and Renyi on both sides of the von Neumann dispatch and far
# past the point where the direct power sum underflows
STACK_SPECS = (VON_NEUMANN, MIN_ENTROPY, MAX_ENTROPY, renyi(0.5), renyi(2.0),
               renyi(1.0 + RENYI_VN_EPS / 2), renyi(1.0 - RENYI_VN_EPS / 2),
               renyi(1100.0), renyi(1e300))
BAD_SPECTRA = {"nan": [0.5, np.nan, 0.5], "negative": [0.6, 0.5, -0.1],
               "no_support": [1e-13, 0.0, -1e-17], "inf": [0.5, np.inf, 0.5],
               "minus_inf": [0.5, 0.5, -np.inf], "above_one": [1e306, 0.5, 0.0]}


def _spectra(rng, d: int, n: int, order: str) -> np.ndarray:
    """``n`` spectra of length ``d``: the first pure, the others of random
    rank, each padded with zeros and ``±1e-17`` and then sorted or shuffled."""
    rows = []
    for i in range(n):
        rank = 1 if i == 0 else int(rng.integers(1, d + 1))
        row = np.concatenate([rng.dirichlet(np.full(rank, 0.5)),
                              rng.choice([0.0, 1e-17, -1e-17], size=d - rank)])
        if order == "shuffled":
            rng.shuffle(row)
        else:
            row = np.sort(row)[::-1] if order == "descending" else np.sort(row)
        rows.append(row)
    return np.array(rows)


class TestStackedSpectra:
    """A 2-D array of spectra gives each row's own entropy, bit for bit."""

    # numpy's pairwise sum works in blocks of 8 and splits above 128
    @pytest.mark.parametrize("d", [*range(1, 10), 15, 16, 17, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda s: s.label)
    def test_rows_bit_for_bit(self, spec, d):
        rng = np.random.default_rng(d)
        for order in ("descending", "ascending", "shuffled"):
            stack = _spectra(rng, d, 12, order)
            got = entropy_from_spectrum(stack, spec)
            want = np.array([entropy_from_spectrum(row, spec) for row in stack])
            assert np.array_equal(got, want)
            # a pure row's entropy is -0.0 in some families
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("first, second", list(itertools.permutations(BAD_SPECTRA, 2)))
    def test_first_bad_row_raises_its_own_error(self, first, second):
        good = [0.5, 0.3, 0.2]
        stack = np.array([good, BAD_SPECTRA[first], good, BAD_SPECTRA[second]])
        for spec in STACK_SPECS:
            with pytest.raises(ValueError) as own:
                entropy_from_spectrum(BAD_SPECTRA[first], spec)
            with pytest.raises(ValueError) as stacked:
                entropy_from_spectrum(stack, spec)
            assert str(stacked.value) == str(own.value)

    def test_stacked_state_gives_one_array(self):
        dims = [("A", 2), ("B", 4)]
        matrices = [random_density(8, rank, 40 + rank, dims=dims).matrix for rank in (1, 3, 8)]
        stack = DensityOperator(np.stack(matrices), dims)
        slices = [DensityOperator(m, dims) for m in matrices]
        for spec in ALL_SPECS:
            for labels in (["B"], None):
                value = entropy(stack, labels, spec)
                assert value.shape == (3,)
                assert value.tolist() == [entropy(rho, labels, spec) for rho in slices]


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
