"""Channels: Kraus representation, application, random ensembles."""
import re

import numpy as np
import pytest

from qcausal import (
    TRACE_TOL,
    DensityOperator,
    KrausChannel,
    LabeledOperator,
    apply_channel,
    completely_factorizable,
    ensure_rng,
    haar_unitary,
    random_channel,
    random_density,
    random_pure,
)
from qcausal import channels

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def damp_kraus(g):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]])
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
    return [k0, k1]


def is_tp(c):
    """``sum_t K_t† K_t`` is the identity within ``TRACE_TOL``."""
    gram = sum(k.conj().T @ k for k in c.kraus)
    return np.abs(gram - np.eye(c.in_dims.total)).max() <= TRACE_TOL


class TestKrausChannel:
    def test_tp_detection(self):
        c = KrausChannel([("A", 2)], [("A", 2)], damp_kraus(0.3))
        assert is_tp(c) and len(c.kraus) == 2

    def test_tni_flagged(self):
        # every channel is CPTP: a trace-decreasing or NaN Kraus list is refused
        for kraus in ([damp_kraus(0.3)[0]], [np.full((2, 2), np.nan)]):
            with pytest.raises(ValueError, match="not trace preserving"):
                KrausChannel([("A", 2)], [("A", 2)], kraus)

    def test_overcomplete_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel([("A", 2)], [("A", 2)], [np.eye(2), np.eye(2)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel([("A", 2)], [("A", 3)], [np.eye(2)])

    def test_from_unitary_validates(self):
        for u in (np.ones((2, 2)), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="not unitary"):
                KrausChannel.from_unitary(u, [("A", 2)], [("B", 2)])

    def test_kraus_is_one_array(self):
        c = KrausChannel([("A", 2)], [("A", 2)], damp_kraus(0.3))
        assert isinstance(c.kraus, np.ndarray) and c.kraus.shape == (2, 2, 2)
        assert np.array_equal(c.kraus, np.stack(damp_kraus(0.3)))
        # a stacked array is accepted as the Kraus list
        again = KrausChannel([("A", 2)], [("A", 2)], c.kraus)
        assert np.array_equal(again.kraus, c.kraus)

    @pytest.mark.parametrize("kraus", [[np.eye(2), np.eye(3)], np.eye(2), [np.eye(2)[0]]],
                             ids=["ragged", "one_matrix", "rows"])
    def test_kraus_list_not_one_array_rejected(self, kraus):
        with pytest.raises(ValueError):
            KrausChannel([("A", 2)], [("A", 2)], kraus)

    def test_kraus_is_a_copy(self):
        ks = np.stack(damp_kraus(0.3))
        c = KrausChannel([("A", 2)], [("A", 2)], ks)
        ks[:] = np.nan
        assert np.array_equal(c.kraus, np.stack(damp_kraus(0.3)))

    @pytest.mark.parametrize("empty", [[], (), np.zeros((0, 2, 2))])
    def test_empty_kraus_list_rejected(self, empty):
        with pytest.raises(ValueError, match="needs at least one Kraus operator"):
            KrausChannel([("A", 2)], [("A", 2)], empty)


class TestChoi:
    """The Choi operator ``J[i, a, j, b] = sum_t K_t[a, i] conj(K_t[b, j])``,
    on ``in ⊗ out`` with the input first, built from the Kraus array."""

    @staticmethod
    def choi(c):
        return np.einsum("tai,tbj->iajb", c.kraus, c.kraus.conj())

    def test_identity_choi_is_unnormalized_max_entangled(self):
        d = 3
        c = KrausChannel.from_unitary(np.eye(d), [("I", d)], [("O", d)])
        bell = np.eye(d).reshape(-1)  # sum_i |i>|i>
        assert np.allclose(self.choi(c).reshape(d * d, d * d), np.outer(bell, bell))

    def test_gauge_invariance(self):
        # Kraus lists mixed by an isometry on the index describe the same map
        c = random_channel([("I", 3)], [("O", 2)], kraus_rank=3, seed=11)
        u = haar_unitary(3, 12)
        mixed = [sum(u[s, t] * c.kraus[t] for t in range(3)) for s in range(3)]
        c2 = KrausChannel([("I", 3)], [("O", 2)], mixed)
        assert np.allclose(self.choi(c), self.choi(c2))
        rho = random_density([("I", 3)], 3, 13)
        assert np.allclose(apply_channel(c, rho).matrix, apply_channel(c2, rho).matrix)

    @pytest.mark.parametrize("seed, din, dout, rank", [
        (0, 2, 2, 1), (1, 2, 3, 2), (2, 3, 2, 3), (3, 3, 3, 4), (4, 6, 2, 3)])
    def test_input_marginal_is_identity(self, seed, din, dout, rank):
        # trace preservation, checked once when the Kraus list is built
        c = random_channel([("I", din)], [("O", dout)], kraus_rank=rank, seed=seed)
        marg = np.einsum("iaja->ij", self.choi(c))
        assert np.abs(marg - np.eye(din)).max() <= TRACE_TOL


class TestApply:
    def test_subsystem_splice(self):
        a = random_density([("A", 2)], 2, 1)
        b = random_density([("B", 2)], 2, 2)
        c = random_density([("C", 2)], 2, 3)
        rho = DensityOperator(np.kron(np.kron(a.matrix, b.matrix), c.matrix),
                              [("A", 2), ("B", 2), ("C", 2)])
        flip = KrausChannel.from_unitary(X, [("B", 2)], [("B", 2)])
        out = apply_channel(flip, rho)
        assert out.labels == ("A", "B", "C")
        expect = np.kron(np.kron(a.matrix, X @ b.matrix @ X), c.matrix)
        assert np.allclose(out.matrix, expect)

    def test_identity_is_noop(self):
        rho = random_density([("A", 2), ("B", 3)], 4, 5)
        ident = KrausChannel.from_unitary(np.eye(3), [("B", 3)], [("B", 3)])
        out = apply_channel(ident, rho)
        assert out.labels == rho.labels
        assert np.allclose(out.matrix, rho.matrix)

    def test_stack_rejected(self):
        rho = DensityOperator(np.stack([np.eye(2) / 2] * 3), [("A", 2)])
        ident = KrausChannel.from_unitary(np.eye(2), [("A", 2)], [("A", 2)])
        with pytest.raises(ValueError, match=re.escape("stack of shape (3, 2, 2)")):
            apply_channel(ident, rho)

    def test_missing_input_label_raises_key_error(self):
        rho = random_density([("A", 2), ("B", 2)], 4, 7)
        ident = KrausChannel.from_unitary(np.eye(2), [("X", 2)], [("X", 2)])
        with pytest.raises(KeyError, match=re.escape("labels ['X'] not present in ('A', 'B')")):
            apply_channel(ident, rho)

    def test_input_dimension_mismatch_names_both(self):
        rho = random_density([("A", 2), ("B", 3)], 6, 8)
        ident = KrausChannel.from_unitary(np.eye(2), [("B", 2)], [("B", 2)])
        with pytest.raises(ValueError, match=re.escape(
                "channel input LabeledDims(B:2) does not match the state's LabeledDims(B:3)")):
            apply_channel(ident, rho)

    def test_state_operator_maps_to_density_operator(self):
        rho = random_density([("A", 2), ("B", 3)], 4, 5)
        flip = KrausChannel.from_unitary(X, [("A", 2)], [("A", 2)])
        out = apply_channel(flip, LabeledOperator(rho.matrix, rho.dims))
        assert type(out) is DensityOperator
        assert np.array_equal(out.matrix, apply_channel(flip, rho).matrix)

    def test_operator_that_is_no_state_raises(self):
        op = LabeledOperator(np.diag([1.5, -0.5]), [("A", 2)])
        ident = KrausChannel.from_unitary(np.eye(2), [("A", 2)], [("A", 2)])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            apply_channel(ident, op)

    def test_tni_refused(self):
        # a truncated Kraus list never reaches apply_channel: it is no channel
        c = random_channel([("A", 2)], [("A", 2)], kraus_rank=2, seed=6)
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausChannel(c.in_dims, c.out_dims, c.kraus[:1])


class TestRandomEnsembles:
    def test_haar_deterministic_and_unitary(self):
        u1 = haar_unitary(5, 42)
        u2 = haar_unitary(5, 42)
        assert np.array_equal(u1, u2)
        assert np.allclose(u1 @ u1.conj().T, np.eye(5))

    def test_haar_seed_sensitivity(self):
        assert not np.allclose(haar_unitary(5, 1), haar_unitary(5, 2))

    def test_random_density_rank(self):
        rho = random_density([("A", 6)], 2, 7)
        lam = np.linalg.eigvalsh(rho.matrix)
        assert np.isclose(lam.sum(), 1.0)
        assert lam.min() > -1e-12
        assert (lam > 1e-10).sum() == 2

    def test_random_density_rank_above_dimension_rejected(self):
        with pytest.raises(ValueError, match=re.escape("rank must lie in [1, 6], got 7")):
            random_density([("A", 2), ("B", 3)], 7, 0)

    def test_random_pure_normalized(self):
        v = random_pure(4, 9)
        assert np.isclose(np.vdot(v, v).real, 1.0)

    def test_random_channel_tp(self):
        c = random_channel([("I", 2)], [("O", 3)], kraus_rank=2, seed=3)
        assert is_tp(c)
        rho = random_density([("I", 2)], 2, 4)
        assert np.isclose(apply_channel(c, rho).matrix.trace(), 1.0)

    def test_ensure_rng(self):
        g = ensure_rng(0)
        assert isinstance(g, np.random.Generator)
        assert ensure_rng(g) is g


def _count_gram_checks(monkeypatch) -> list:
    """Record the shape of each matrix that ``channels._gram_deviation`` checks."""
    checked = []
    gram = channels._gram_deviation
    monkeypatch.setattr(channels, "_gram_deviation", lambda a: checked.append(a.shape) or gram(a))
    return checked


class TestCompletelyFactorizable:
    def test_unital_and_tp(self):
        # preserves the maximally mixed state whatever the unitary
        dn, din, dtr = 2, 3, 2
        dout = dn * din // dtr
        u = haar_unitary(dn * din, 13)
        c = completely_factorizable(u, dim_noise=dn, dim_in=din, dim_traced=dtr)
        assert is_tp(c)
        omega = DensityOperator(np.eye(din) / din, [("Q1", din)])
        out = apply_channel(c, omega)
        assert out.dims.total == dout
        assert np.allclose(out.matrix, np.eye(dout) / dout, atol=1e-10)

    @pytest.mark.parametrize("dn, din, dtr", [(2, 3, 2), (3, 4, 2), (2, 2, 4)])
    def test_one_gram_check_and_the_block_kraus(self, monkeypatch, dn, din, dtr):
        # the unitary check implies sum K†K = I, so it is the only Gram check
        checked = _count_gram_checks(monkeypatch)
        u = haar_unitary(dn * din, 15)
        c = completely_factorizable(u, dim_noise=dn, dim_in=din, dim_traced=dtr)
        assert checked == [u.shape]
        dout = dn * din // dtr
        blocks = u.reshape(dtr, dout, dn, din)
        want = [1.0 / np.sqrt(dn) * blocks[f, :, b, :] for f in range(dtr) for b in range(dn)]
        assert c.kraus.shape == (dtr * dn, dout, din)
        assert c.kraus.tobytes() == np.stack(want).tobytes()
        assert is_tp(c)

    def test_from_unitary_checks_once_and_copies(self, monkeypatch):
        checked = _count_gram_checks(monkeypatch)
        u = haar_unitary(3, 16)
        c = KrausChannel.from_unitary(u, [("A", 3)], [("B", 3)])
        assert checked == [(3, 3)]
        assert np.array_equal(c.kraus, u[None]) and not np.shares_memory(c.kraus, u)
        for bad, dims in ((np.eye(4)[:, :3], [("B", 4)]), (np.eye(2), [("B", 3)])):
            with pytest.raises(ValueError):
                KrausChannel.from_unitary(bad, [("A", 3)], dims)

    def test_dimension_bookkeeping(self):
        u = haar_unitary(4, 14)
        c = completely_factorizable(u, dim_noise=2, dim_in=2, dim_traced=2)
        assert c.in_dims.labels == ("Q1",)
        assert c.out_dims.labels == ("Q2",)
        assert c.out_dims.total == 2
