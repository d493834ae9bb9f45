"""Labeled tensor core: dims bookkeeping, permutation, traces, purification."""
import itertools
import re

import numpy as np
import pytest

import qcausal.labeled as labeled
from qcausal import (
    HERM_TOL,
    MAX_ENTROPY,
    MIN_ENTROPY,
    VON_NEUMANN,
    DensityOperator,
    LabeledDims,
    LabeledOperator,
    PureState,
    as_dims,
    entropy,
    herm_eig,
    partial_trace,
    permute,
    purify,
    renyi,
    ssa_gap,
    trace_distance,
)
from qcausal.campaigns import BLOCK_ITEMS, TAU_DIM_CAP
from qcausal.cli import _grid_reports

from conftest import traced_peak

RNG = np.random.default_rng(7)


def rand_herm(d):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return (m + m.conj().T) / 2


def rand_density_matrix(d, rank=None):
    rank = rank or d
    g = RNG.normal(size=(d, rank)) + 1j * RNG.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m)


def clip_rebuild_reference(m):
    """Eigenvalues clipped at zero and renormalized, rebuilt through a
    conjugate copy of the eigenvectors."""
    lam, v = np.linalg.eigh(m)
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    return (v * lam) @ v.conj().T


class TestLabeledDims:
    def test_basic_accessors(self):
        d = LabeledDims([("A", 2), ("B", 3), ("C", 4)])
        assert d.labels == ("A", "B", "C")
        assert d.dims == (2, 3, 4)
        assert d.total == 24
        assert LabeledDims([]).total == 1
        assert d.dim("B") == 3
        assert d.index("C") == 2

    def test_restrict_keeps_original_order(self):
        d = LabeledDims([("A", 2), ("B", 3), ("C", 4)])
        r = d.restrict(["C", "A"])
        assert r.labels == ("A", "C")
        assert r.dims == (2, 4)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledDims([("A", 2), ("A", 3)])

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            LabeledDims([("A", 0)])

    def test_missing_label(self):
        d = LabeledDims([("A", 2)])
        with pytest.raises(KeyError):
            d.dim("B")

    def test_as_dims_passthrough(self):
        d = LabeledDims([("A", 2)])
        assert as_dims(d) is d
        assert as_dims([("A", 2)]).labels == ("A",)


class TestLabelSetContract:
    """Every label set is checked once, by ``LabeledDims.restrict``."""

    TAU_DIMS = [("A0", 2), ("A1", 2), ("B0", 2), ("B1", 2), ("F", 2)]

    @pytest.mark.parametrize("call, labels", [
        (entropy, "A0"),
        (DensityOperator.spectrum, "A0"),
        (partial_trace, "F"),
        (lambda tau, s: tau.dims.restrict(s), "A0"),
    ], ids=["entropy", "spectrum", "partial_trace", "restrict"])
    def test_bare_string_raises_type_error(self, call, labels):
        tau = DensityOperator(rand_density_matrix(32), self.TAU_DIMS)
        with pytest.raises(TypeError, match=f"string '{labels}'"):
            call(tau, labels)

    def test_string_of_labels_is_not_a_label_set(self):
        # once read as the set {"A", "B"}
        rho = DensityOperator(rand_density_matrix(8), [("A", 2), ("B", 2), ("C", 2)])
        with pytest.raises(TypeError, match="string 'AB'"):
            rho.dims.restrict("AB")
        with pytest.raises(TypeError, match="string 'AB'"):
            entropy(rho, "AB")

    def test_permute_rejects_a_string(self):
        # once sorted into ["A", "B"], a permutation of the labels
        op = LabeledOperator(rand_herm(4), [("A", 2), ("B", 2)])
        with pytest.raises(TypeError, match="string 'AB'"):
            permute(op, "AB")
        with pytest.raises(ValueError, match="not a permutation"):
            permute(op, ["A", "C"])

    @pytest.mark.parametrize("groups, string", [
        (("AB", "C", "D"), "AB"),  # once the gap for labels A and B
        (("A0", ["B"], ["C"]), "A0"),  # once KeyError: labels ['0']
    ], ids=["AB", "A0"])
    def test_ssa_gap_rejects_a_string(self, groups, string):
        rho = DensityOperator(rand_density_matrix(16),
                              [("A", 2), ("B", 2), ("C", 2), ("D", 2)])
        with pytest.raises(TypeError, match=f"string '{string}'"):
            ssa_gap(rho, *groups)

    def test_ssa_gap_missing_label_and_overlap(self):
        rho = DensityOperator(rand_density_matrix(8), [("X", 2), ("Y", 2), ("Z", 2)])
        with pytest.raises(KeyError, match=re.escape("labels ['W'] not present")):
            ssa_gap(rho, ["X"], ["Y"], ["W"])
        with pytest.raises(ValueError, match="pairwise disjoint"):
            ssa_gap(rho, ["X", "Y"], ["Y"], ["Z"])

    @pytest.mark.parametrize("call", [
        partial_trace,
        DensityOperator.spectrum,
        entropy,
        lambda rho, keep: rho.dims.restrict(keep),
    ], ids=["partial_trace", "spectrum", "entropy", "restrict"])
    @pytest.mark.parametrize("keep", [["Z"], ["X", "Z"]])
    def test_missing_label_raises_key_error(self, call, keep):
        rho = DensityOperator(rand_density_matrix(6), [("X", 2), ("Y", 3)])
        with pytest.raises(KeyError, match=re.escape("labels ['Z'] not present in ('X', 'Y')")):
            call(rho, keep)

    def test_full_label_set_is_the_operator_itself(self):
        rho = DensityOperator(rand_density_matrix(6), [("X", 2), ("Y", 3)])
        kept = partial_trace(rho, ["Y", "X", "Y"])
        assert kept.dims == rho.dims
        assert kept.matrix is rho.matrix


class TestPermute:
    def test_kron_swap_oracle(self):
        a = rand_herm(2)
        b = rand_herm(3)
        op = LabeledOperator(np.kron(a, b), [("A", 2), ("B", 3)])
        swapped = permute(op, ["B", "A"])
        assert swapped.labels == ("B", "A")
        assert np.allclose(swapped.matrix, np.kron(b, a))

    def test_round_trip(self):
        m = rand_herm(24)
        op = LabeledOperator(m, [("A", 2), ("B", 3), ("C", 4)])
        back = permute(permute(op, ["C", "A", "B"]), ["A", "B", "C"])
        assert np.allclose(back.matrix, m)

    def test_non_permutation_rejected(self):
        op = LabeledOperator(np.eye(2), [("A", 2)])
        with pytest.raises(ValueError):
            permute(op, ["A", "B"])


class TestPartialTrace:
    def test_product_oracle(self):
        a = rand_herm(2)
        b = rand_herm(3)
        op = LabeledOperator(np.kron(a, b), [("A", 2), ("B", 3)])
        ta = partial_trace(op, ["A"])
        assert np.allclose(ta.matrix, a * np.trace(b))

    def test_keep_order_is_operator_order(self):
        # the keep argument is a set selection, not a reordering
        m = rand_herm(6)
        op = LabeledOperator(m, [("A", 2), ("B", 3)])
        t1 = partial_trace(op, ["A", "B"])
        t2 = partial_trace(op, ["B", "A"])
        assert t1.labels == t2.labels == ("A", "B")
        assert np.allclose(t1.matrix, t2.matrix)

    def test_trace_consistency(self):
        m = rand_density_matrix(12)
        op = LabeledOperator(m, [("A", 3), ("B", 4)])
        assert np.isclose(np.trace(partial_trace(op, ["B"]).matrix), np.trace(m))

    def test_entangled_marginal(self):
        phi = PureState(np.eye(3).reshape(-1) / np.sqrt(3), [("A", 3), ("B", 3)])
        marg = partial_trace(phi.density(), ["A"])
        assert np.allclose(marg.matrix, np.eye(3) / 3)


class TestHermEig:
    def test_reconstruction_and_order(self):
        m = rand_herm(9)
        lam, v = herm_eig(m)
        assert np.all(np.diff(lam) <= 1e-12)
        assert np.allclose(v @ np.diag(lam) @ v.conj().T, m)

    def test_non_hermitian_rejected(self):
        for m in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="not Hermitian"):
                herm_eig(m)


def near_hermitian(shape, dev, seed):
    """Random matrix or stack whose deviation ``|m - m†|`` peaks at about
    ``dev``; exactly Hermitian for ``dev = 0``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = (g + g.conj().swapaxes(-1, -2)) / 2
    k = (g - g.conj().swapaxes(-1, -2)) / 2
    return h + k * (dev / (2 * np.abs(k).max())) if k.size else h


class TestHermitian:
    """``_hermitian`` takes its deviation over row blocks and sums in its
    result buffer; both give the values of the one-expression form."""

    SHAPES = [(1, 1), (4, 4), (64, 64), (512, 512), (3, 8, 8), (40, 64, 64), (0, 5, 5)]

    @pytest.mark.parametrize("block_bytes", [1, labeled._HERM_BLOCK_BYTES])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_symmetrized_sum_bit_for_bit(self, shape, block_bytes, monkeypatch):
        # one byte forces one row per block; the default reduces the
        # (512, 512) matrix and the 2.5 MiB stack in several blocks
        monkeypatch.setattr(labeled, "_HERM_BLOCK_BYTES", block_bytes)
        for seed, dev in enumerate((0.0, 1e-14, 0.99 * HERM_TOL)):
            m = near_hermitian(shape, dev, seed)
            before = m.copy()
            h = labeled._hermitian(m)
            assert np.array_equal(h, (m + m.conj().swapaxes(-1, -2)) * 0.5)
            assert h.flags.c_contiguous
            assert np.array_equal(m, before)

    @pytest.mark.parametrize("block_bytes", [1, 2048, labeled._HERM_BLOCK_BYTES])
    def test_failing_stack_names_first_slice_and_its_deviation(self, block_bytes, monkeypatch):
        monkeypatch.setattr(labeled, "_HERM_BLOCK_BYTES", block_bytes)
        m = near_hermitian((6, 16, 16), 1e-14, seed=3)
        m[4, 2, 9] += 5e-7     # larger, but in a later slice
        m[2, 13, 1] += 3e-8    # the first failing slice, in its last rows
        m[2, 0, 5] += 2e-8
        dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
        assert list(np.flatnonzero(dev > HERM_TOL)) == [2, 4]
        message = f"slice 2: matrix is not Hermitian: max deviation {dev[2]:.3e} > {HERM_TOL}"
        with pytest.raises(ValueError, match=re.escape(message)):
            labeled._hermitian(m)
        with pytest.raises(ValueError, match=re.escape(f"max deviation {dev[4]:.3e} >")):
            labeled._hermitian(m[4])
        # a NaN on the diagonal fails its slice whether its row block comes
        # first or last
        for row in (0, 15):
            bad = m.copy()
            bad[1, row, row] = np.nan
            with pytest.raises(ValueError, match="slice 1: .* max deviation nan"):
                labeled._hermitian(bad)


class TestDensityOperator:
    def test_validation(self):
        rho = DensityOperator(rand_density_matrix(4), [("A", 2), ("B", 2)])
        assert np.isclose(np.trace(rho.matrix), 1.0)

    def test_bad_trace_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2), [("A", 2)])
        # a NaN entry fails the Hermiticity check first; bypassed, the trace
        # check rejects a NaN trace on its own
        monkeypatch.setattr(labeled, "_hermitian", lambda m, what="matrix": m)
        with pytest.raises(ValueError, match="trace nan"):
            DensityOperator(np.diag([np.nan, 1.0]), [("A", 2)])

    def test_negative_rejected(self, monkeypatch):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityOperator(m, [("A", 2)])
        # unit trace with NaN off the diagonal: eigh returns NaN, which
        # the positivity check rejects once the Hermiticity check is bypassed
        monkeypatch.setattr(labeled, "_hermitian", lambda m, what="matrix": m)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityOperator(np.array([[0.5, np.nan], [np.nan, 0.5]]), [("A", 2)])

    def test_non_hermitian_rejected(self):
        for m in (np.array([[0.5, 0.3], [0.0, 0.5]]), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityOperator(m, [("A", 2)])

    def test_tiny_negative_clipped(self):
        eps = 1e-12
        m = np.diag([1.0 + eps, -eps])
        rho = DensityOperator(m, [("A", 2)])
        lam, _ = herm_eig(rho)
        assert lam[-1] >= 0.0
        assert np.isclose(np.trace(rho.matrix), 1.0)

    @pytest.mark.parametrize("d", [8, 64, 512])
    def test_clip_rebuild_is_the_conjugate_copy_bit_for_bit(self, d):
        # rank d/4: the zero eigenvalues come out of eigh with rounding of
        # either sign, so some matrices are clipped and rebuilt
        rng = np.random.default_rng(d)
        g = rng.normal(size=(4, d, d // 4)) + 1j * rng.normal(size=(4, d, d // 4))
        m = g @ g.conj().swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
        h = labeled._hermitian(m)
        clip = np.linalg.eigh(h)[0][:, 0] < 0.0
        assert clip.any()
        expected = np.stack([clip_rebuild_reference(x) if c else x for x, c in zip(h, clip)])
        k = int(np.argmax(clip))
        single = h[k].copy()
        labeled._clip_rebuild(single, *np.linalg.eigh(single))
        assert np.array_equal(single, expected[k])
        assert np.array_equal(DensityOperator(m[k], [("X", d)]).matrix, expected[k])
        assert np.array_equal(DensityOperator(m, [("X", d)]).matrix, expected)


def count_eigensolves(monkeypatch) -> dict[str, int]:
    """Count the calls of ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` from
    here on; the counts are read from the returned dict."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestOneEigensolvePerSlice:
    """Validation decomposes each slice once, with eigh: the eigenvalue that
    decides the clip comes from the decomposition that rebuilds it."""

    @staticmethod
    def mixed_stack():
        """Six unit-trace matrices of side 8, the first three of rank 2, and
        which of them validation clips: rounding leaves zero eigenvalues of
        either sign, and full rank leaves none."""
        rng = np.random.default_rng(11)
        g = rng.normal(size=(6, 8, 8)) + 1j * rng.normal(size=(6, 8, 8))
        g[:3, :, 2:] = 0.0
        m = g @ g.conj().swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
        clip = np.linalg.eigh(labeled._hermitian(m))[0][:, 0] < 0.0
        assert clip.any() and not clip.all()
        return m, clip

    @pytest.mark.parametrize("clipped", [True, False])
    def test_single_matrix(self, monkeypatch, clipped):
        m, clip = self.mixed_stack()
        counts = count_eigensolves(monkeypatch)
        DensityOperator(m[np.flatnonzero(clip == clipped)[0]], [("X", 8)])
        assert counts == {"eigh": 1, "eigvalsh": 0}

    def test_stack(self, monkeypatch):
        m, _ = self.mixed_stack()
        counts = count_eigensolves(monkeypatch)
        DensityOperator(m, [("X", 8)])
        assert counts == {"eigh": len(m), "eigvalsh": 0}

    def test_first_failing_slice_raises_before_it_is_rebuilt(self, monkeypatch):
        # slices 1 and 3 have only negative eigenvalues, which the trace
        # check would catch first, so it is bypassed. Clipped, such a slice
        # sums to zero, and renormalizing it would warn (an error here)
        monkeypatch.setattr(labeled, "_hermitian_with_trace",
                            lambda m, target, what="matrix": labeled._hermitian(m, what))
        m = np.stack([rand_density_matrix(8, rank=2) for _ in range(5)])
        m[1] = -np.eye(8) / 2
        m[3] = -np.eye(8) / 4
        counts = count_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=r"^slice 1: matrix is not positive semidefinite: "
                                             r"min eigenvalue -5\.000e-01$"):
            DensityOperator(m, [("X", 8)])
        # no slice after the failing one is decomposed
        assert counts == {"eigh": 2, "eigvalsh": 0}

    def test_stack_memory_is_per_slice(self):
        # a full sub-grid of the largest campaign states: the traced peak
        # stays well below the 2x of decomposing the stack in one eigh
        rng = np.random.default_rng(3)
        shape = (BLOCK_ITEMS, TAU_DIM_CAP, TAU_DIM_CAP)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m = g @ g.conj().swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
        del g
        peak = traced_peak(lambda: DensityOperator(m, [("X", TAU_DIM_CAP)]))
        assert peak <= 1.6 * m.nbytes, peak / m.nbytes

    @pytest.mark.parametrize("specs", [
        (VON_NEUMANN,),
        (VON_NEUMANN, renyi(0.5), renyi(0.65), renyi(0.8)),
        (VON_NEUMANN, renyi(2.0), renyi(3.0), renyi(4.0), MIN_ENTROPY, MAX_ENTROPY),
    ], ids=["vn", "renyi_below_1", "renyi_above_1_min_max"])
    @pytest.mark.parametrize("process", ["switch_full", "upsilon2"])
    def test_one_switch_point(self, monkeypatch, process, specs):
        # three validations (the switch's target, then the state as a
        # DensityOperator and as an InterventionalState), the purification
        # of the target and the ten marginal spectra, which every entropy
        # family shares; no eigvalsh at all
        counts = count_eigensolves(monkeypatch)
        (_, reports), = _grid_reports(process, [0.3], specs)
        assert [r.family for r in reports] == list(specs)
        assert counts == {"eigh": 14, "eigvalsh": 0}


class TestSpectrumMemo:
    DIMS = [("X", 2), ("Y", 3), ("Z", 2)]

    def rho(self):
        return DensityOperator(rand_density_matrix(12), self.DIMS)

    def test_matches_direct_eigensolve_on_every_subset(self):
        rho = self.rho()
        for r in range(len(rho.labels) + 1):
            for keep in itertools.combinations(rho.labels, r):
                expected = herm_eig(partial_trace(rho, keep))[0]
                assert np.array_equal(rho.spectrum(keep), expected)
        assert np.array_equal(rho.spectrum(), herm_eig(rho)[0])

    def test_label_order_and_none_share_entries(self):
        rho = self.rho()
        assert rho.spectrum(["X", "Y"]) is rho.spectrum(["Y", "X"])
        assert rho.spectrum() is rho.spectrum(["Z", "X", "Y"])

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            self.rho().spectrum(["W"])

    def test_matrix_and_spectra_are_read_only(self):
        rho = self.rho()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        with pytest.raises(ValueError):
            rho.spectrum(["X"])[0] = 0.0


class TestPureState:
    def test_density(self):
        v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        v = v / np.linalg.norm(v)
        psi = PureState(v, [("A", 2), ("B", 2)])
        assert np.allclose(psi.density().matrix, np.outer(v, v.conj()))

    def test_norm_validation(self):
        for v in ([1.0, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="squared norm"):
                PureState(np.array(v), [("A", 2)])


class TestPurify:
    def test_marginal_recovery(self):
        rho = DensityOperator(rand_density_matrix(4, rank=3), [("A", 2), ("B", 2)])
        psi = purify(rho)
        assert psi.labels[-1] == "REF"
        back = partial_trace(psi.density(), ["A", "B"])
        assert np.allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_purifier_dim_is_rank(self):
        rho = DensityOperator(rand_density_matrix(4, rank=2), [("A", 4)])
        psi = purify(rho, "E")
        assert dict(zip(psi.labels, psi.dims.dims))["E"] == 2

    def test_label_collision_rejected(self):
        rho = DensityOperator(rand_density_matrix(2), [("A", 2)])
        with pytest.raises(ValueError):
            purify(rho, "A")

    def test_stack_rejected(self):
        rho = DensityOperator(np.stack([rand_density_matrix(2)] * 3), [("A", 2)])
        with pytest.raises(ValueError, match=re.escape("stack of shape (3, 2, 2)")):
            purify(rho)


class TestMisc:
    def test_trace_distance_commuting_oracle(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.2, 0.6])
        a = DensityOperator(np.diag(p), [("A", 3)])
        b = DensityOperator(np.diag(q), [("A", 3)])
        assert np.isclose(trace_distance(a, b), 0.5 * np.abs(p - q).sum())

    def test_trace_distance_label_mismatch(self):
        a = DensityOperator(np.eye(2) / 2, [("A", 2)])
        b = DensityOperator(np.eye(2) / 2, [("B", 2)])
        with pytest.raises(ValueError):
            trace_distance(a, b)

    @pytest.mark.parametrize("a_dims, b_dims", [
        ([("A", 2), ("B", 3)], [("A", 3), ("B", 2)]),  # same total dimension
        ([("A", 2)], [("A", 3)]),
    ], ids=["same_total", "other_total"])
    def test_trace_distance_dimension_mismatch(self, a_dims, b_dims):
        a_dims, b_dims = LabeledDims(a_dims), LabeledDims(b_dims)
        a = DensityOperator(np.eye(a_dims.total) / a_dims.total, a_dims)
        b = DensityOperator(np.eye(b_dims.total) / b_dims.total, b_dims)
        with pytest.raises(ValueError, match=re.escape(f"dimensions differ: {a_dims} vs {b_dims}")):
            trace_distance(a, b)

    def test_trace_distance_stack_against_one_state(self):
        dims = [("A", 2), ("B", 3)]
        states = [rand_density_matrix(6) for _ in range(3)]
        one = DensityOperator(rand_density_matrix(6), dims)
        got = trace_distance(DensityOperator(np.stack(states), dims), one)
        assert got.tolist() == [trace_distance(DensityOperator(m, dims), one) for m in states]
