"""Process core: link product, combs, switch, process matrices, backends."""
import math

import numpy as np
import pytest

from qcausal import (
    FUTURE_MODES,
    TAU_LABELS,
    DensityOperator,
    FixedOrderComb,
    InterventionalState,
    KrausChannel,
    LabeledOperator,
    ProcessMatrix,
    SwitchSpec,
    apply_channel,
    apply_process,
    as_fixed_order,
    choi_from_kraus,
    comb_apply,
    entropy,
    haar_unitary,
    herm_eig,
    interventional_state,
    kron,
    link,
    partial_trace,
    permute,
    process_matrix_of,
    purify,
    purify_comb,
    random_channel,
    random_density,
    sample_fixed_order_comb,
    sample_purified_comb,
    switch_apply,
    trace_distance,
)
from qcausal.cli import BACKEND_AGREE_TOL
from qcausal.process import _dilation_unitary

KET0 = DensityOperator(np.diag([1.0, 0.0]), [("T0", 2)])


def qubit_unitary_channel(seed, labels):
    u = haar_unitary(2, seed)
    return KrausChannel.from_unitary(u, [(labels[0], 2)], [(labels[1], 2)])


def slot_channels_for(comb, seed):
    a = random_channel([("A0", comb.dims["A0"])], [("A1", comb.dims["A1"])],
                       kraus_rank=2, seed=seed)
    b = random_channel([("B0", comb.dims["B0"])], [("B1", comb.dims["B1"])],
                       kraus_rank=2, seed=seed + 1)
    return a, b


def comb_apply_dense(comb, a, b):
    """Independent route: chain apply_channel calls and trace the environment."""
    first = comb.order[0]
    chain = {"A": (a, b), "B": (b, a)}[first]
    s = apply_channel(chain[0], comb.rho)
    s = apply_channel(comb.lambda1, s)
    s = apply_channel(chain[1], s)
    s = apply_channel(comb.lambda2, s)
    return partial_trace(s, ["F"])


def phi_tilde(d, l0, l1, scale=1.0):
    """``scale * sum_ij |ii><jj|`` on two fresh labels."""
    e = np.eye(d, dtype=complex).reshape(-1)
    return LabeledOperator(scale * np.outer(e, e), [(l0, d), (l1, d)])


def link_contraction(w):
    """Five-part state by linking ``w`` with Φ̃ on the slot inputs and Φ⁺ on
    the slot outputs, tracing ``F`` and relabeling the retained copies."""
    ja = kron(phi_tilde(w.dim("A0"), "A0", "A0m"),
              phi_tilde(w.dim("A1"), "A1", "A1m", 1.0 / w.dim("A1")))
    jb = kron(phi_tilde(w.dim("B0"), "B0", "B0m"),
              phi_tilde(w.dim("B1"), "B1", "B1m", 1.0 / w.dim("B1")))
    t = partial_trace(link(link(w, ja), jb), ["F", "A0m", "A1m", "B0m", "B1m"])
    t = permute(t.relabel({"A0m": "A0", "A1m": "A1", "B0m": "B0", "B1m": "B1"}), TAU_LABELS)
    return InterventionalState(DensityOperator(t.matrix, t.dims))


def dense_purified_unitaries(comb):
    """``u1`` and ``u2`` of :func:`purify_comb`, with the wire reordering done
    by multiplying with dense permutation matrices."""
    first, second = comb.order
    d = comb.dims
    df0 = purify(comb.rho, "F0").dims.dim("F0")
    u1d, danc1, denv1 = _dilation_unitary(comb.lambda1)
    u2d, danc2, _ = _dilation_unitary(comb.lambda2)

    def permutation(dims, perm):
        n, total = len(dims), math.prod(dims)
        e = np.eye(total).reshape(dims + dims)
        return e.transpose(perm + list(range(n, 2 * n))).reshape(total, total)

    u1 = np.kron(u1d, np.eye(df0 * danc2)) @ permutation(
        [d[f"{first}1"], d["E0"], df0, danc1, danc2], [0, 1, 3, 2, 4])
    u2 = np.kron(u2d, np.eye(denv1 * df0)) @ permutation(
        [d[f"{second}1"], d["E1"], denv1, df0, danc2], [0, 1, 4, 2, 3])
    return u1, u2


EDGE_LAMS = (0.0, 1e-15, 1e-9, 1.0 - 1e-9, 1.0)
# (future mode, control weight, seed of a mixed target or None); the plain
# per-mode cases at 0.3 carry the bare mode name as their id
SWITCH_CASES = (
    [pytest.param(m, 0.3, None, id=m) for m in FUTURE_MODES]
    + [pytest.param(m, lam, None, id=f"{m}-{lam!r}") for m in FUTURE_MODES for lam in EDGE_LAMS]
    + [pytest.param(m, lam, seed, id=f"{m}-mixed{seed}-{lam!r}")
       for m in FUTURE_MODES for seed in range(3) for lam in (0.0, 0.3, 0.7, 1.0)]
)


class TestLink:
    def test_disjoint_is_tensor(self):
        x = random_density(2, 2, 1, dims=[("A", 2)])
        y = random_density(3, 3, 2, dims=[("B", 3)])
        out = link(x, y)
        assert np.allclose(out.matrix, kron(x, y).matrix)

    def test_state_through_choi(self):
        c = random_channel([("I", 2)], [("O", 3)], kraus_rank=2, seed=3)
        j = choi_from_kraus(c)
        rho = random_density(2, 2, 4, dims=[("I", 2)])
        out = link(rho, j)
        assert out.labels == ("O",)
        assert np.allclose(out.matrix, apply_channel(c, rho).matrix)

    def test_choi_composition(self):
        c1 = random_channel([("I", 2)], [("M", 3)], kraus_rank=2, seed=5)
        c2 = random_channel([("M", 3)], [("O", 2)], kraus_rank=2, seed=6)
        j12 = link(choi_from_kraus(c1), choi_from_kraus(c2))
        composed = KrausChannel([("I", 2)], [("O", 2)],
                                [k2 @ k1 for k1 in c1.kraus for k2 in c2.kraus])
        jc = choi_from_kraus(composed)
        assert set(j12.labels) == {"I", "O"}
        from qcausal import permute
        assert np.allclose(permute(j12, jc.labels).matrix, jc.matrix)


class TestValidatedOperatorsAreLabeled:
    """States, process matrices and Choi operators are LabeledOperators, so
    the label algebra takes them as they are."""

    def operators(self):
        rho = random_density(6, 3, 8, dims=[("X", 2), ("Y", 3)])
        w = process_matrix_of(SwitchSpec(0.4))
        j = choi_from_kraus(random_channel([("I", 2)], [("O", 3)], kraus_rank=2, seed=9))
        return rho, w, j

    def test_subclasses(self):
        for op in self.operators():
            assert isinstance(op, LabeledOperator)
            assert op.dim(op.labels[-1]) == op.dims.dims[-1]

    def test_permute_and_partial_trace(self):
        for op in self.operators():
            rev = permute(op, op.labels[::-1])
            assert np.allclose(permute(rev, op.labels).matrix, op.matrix)
            keep = op.labels[:1]
            plain = LabeledOperator(op.matrix, op.dims)
            assert np.array_equal(partial_trace(op, keep).matrix,
                                  partial_trace(plain, keep).matrix)

    def test_kron_and_link(self):
        rho, w, j = self.operators()
        anc = random_density(2, 2, 10, dims=[("Z", 2)])
        for op in (rho, w, j):
            plain = LabeledOperator(op.matrix, op.dims)
            assert np.array_equal(kron(op, anc).matrix, kron(plain, anc).matrix)
            assert np.array_equal(link(op, anc).matrix, link(plain, anc).matrix)
        state = random_density(2, 2, 11, dims=[("I", 2)])
        assert np.allclose(link(state, j).matrix,
                           link(LabeledOperator(state.matrix, state.dims), j).matrix)


class TestFixedOrderComb:
    def test_label_contract_enforced(self):
        comb = sample_fixed_order_comb(0, order="AB")
        wrong = DensityOperator(np.eye(2) / 2, [("X", 2)])
        with pytest.raises(ValueError):
            FixedOrderComb("AB", wrong, comb.lambda1, comb.lambda2)

    def test_order_token_validated(self):
        comb = sample_fixed_order_comb(1)
        with pytest.raises(ValueError):
            FixedOrderComb("XY", comb.rho, comb.lambda1, comb.lambda2)

    @pytest.mark.parametrize("seed,order", [(10, "AB"), (11, "BA")])
    def test_apply_matches_dense_route(self, seed, order):
        comb = sample_fixed_order_comb(seed, order=order)
        a, b = slot_channels_for(comb, seed + 100)
        fast = comb_apply(comb, a, b)
        slow = comb_apply_dense(comb, a, b)
        assert np.allclose(fast.matrix, slow.matrix, atol=1e-10)

    def test_slot_dim_table(self):
        # one dims table per comb, read by the evaluators and the purification
        for order in ("AB", "BA"):
            comb = sample_fixed_order_comb(2, order=order)
            pieces = (comb.rho.dims, comb.lambda1.in_dims, comb.lambda1.out_dims,
                      comb.lambda2.in_dims, comb.lambda2.out_dims)
            for dims in pieces:
                for label, d in dims:
                    assert comb.dims[label] == d
            assert set(comb.dims) == {"A0", "A1", "B0", "B1", "F", "E0", "E1", "E2"}


class TestPurifiedComb:
    @pytest.mark.parametrize("seed,order", [(20, "AB"), (21, "BA")])
    def test_purification_round_trip(self, seed, order):
        comb = sample_fixed_order_comb(seed, order=order)
        back = as_fixed_order(purify_comb(comb))
        a, b = slot_channels_for(comb, seed + 100)
        assert np.allclose(comb_apply(comb, a, b).matrix,
                           comb_apply(back, a, b).matrix, atol=1e-9)

    def test_sampled_dims_policy(self):
        for seed in range(5):
            pc = sample_purified_comb(seed)
            dims = pc.dims
            for label in ("A0", "A1", "B0", "B1", "F"):
                assert dims[label] in (2, 3)
            tau_dim = int(np.prod([dims[l] for l in ("A0", "A1", "B0", "B1", "F")]))
            assert tau_dim <= 64

    def test_unitaries_match_dense_permutation(self):
        # the index gather equals right-multiplying by the permutation matrix
        for seed in range(50):
            comb = sample_fixed_order_comb(seed)
            pc = purify_comb(comb)
            u1, u2 = dense_purified_unitaries(comb)
            assert np.array_equal(pc.u1, u1) and np.array_equal(pc.u2, u2)


class TestSwitch:
    def test_pure_order_endpoints(self):
        a = qubit_unitary_channel(40, ("A0", "A1"))
        b = qubit_unitary_channel(41, ("B0", "B1"))
        rho = KET0.matrix
        ka, kb = a.kraus[0], b.kraus[0]
        # weight 1 on the control's |0> branch runs the A slot first
        first_a = switch_apply(SwitchSpec(1.0, future_mode="trace_control"), a, b)
        assert np.allclose(first_a.matrix, kb @ ka @ rho @ ka.conj().T @ kb.conj().T)
        first_b = switch_apply(SwitchSpec(0.0, future_mode="trace_control"), a, b)
        assert np.allclose(first_b.matrix, ka @ kb @ rho @ kb.conj().T @ ka.conj().T)

    def test_full_future_keeps_control_coherence(self):
        ident = KrausChannel.from_unitary(np.eye(2), [("A0", 2)], [("A1", 2)])
        identb = KrausChannel.from_unitary(np.eye(2), [("B0", 2)], [("B1", 2)])
        out = switch_apply(SwitchSpec(0.5), ident, identb)
        lam, _ = herm_eig(out)
        assert np.isclose(lam[0], 1.0, atol=1e-12)  # pure: branches interfere
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        expect = np.kron(np.diag([1.0, 0.0]), np.outer(plus, plus))
        assert np.allclose(out.matrix, expect)

    def test_future_mode_dims(self):
        assert SwitchSpec(0.3).future_dim == 4
        assert SwitchSpec(0.3, future_mode="trace_target").future_dim == 2
        out = switch_apply(SwitchSpec(0.3, future_mode="trace_target"),
                           qubit_unitary_channel(1, ("A0", "A1")),
                           qubit_unitary_channel(2, ("B0", "B1")))
        assert out.labels == ("C1",)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchSpec(1.5)
        with pytest.raises(ValueError):
            SwitchSpec(0.5, future_mode="partial")
        with pytest.raises(ValueError):
            SwitchSpec(0.5, target=DensityOperator(np.eye(3) / 3, [("T0", 3)]))


class TestProcessMatrix:
    def test_trace_and_hermiticity(self):
        comb = sample_fixed_order_comb(50, order="AB")
        w = process_matrix_of(comb)
        d_expected = comb.dims["A1"] * comb.dims["B1"]  # trivial P
        assert np.isclose(w.matrix.trace().real, d_expected, atol=1e-8)
        assert np.allclose(w.matrix, w.matrix.conj().T)

    def test_switch_matrix_is_rank_one(self):
        w = process_matrix_of(SwitchSpec(0.37))
        lam, _ = herm_eig(w)
        assert lam[0] > 1e-6
        assert abs(lam[1:]).max() < 1e-9

    def test_born_rule_reproduces_comb(self):
        comb = sample_fixed_order_comb(51, order="BA")
        a, b = slot_channels_for(comb, 151)
        w = process_matrix_of(comb)
        ja, jb = choi_from_kraus(a), choi_from_kraus(b)
        out = apply_process(w, ja, jb)
        assert out.in_labels == ("P",) and out.out_labels == ("F",)
        assert np.allclose(out.matrix, comb_apply(comb, a, b).matrix, atol=1e-9)

    def test_born_rule_reproduces_switch(self):
        s = SwitchSpec(0.42)
        a = random_channel([("A0", 2)], [("A1", 2)], kraus_rank=2, seed=52)
        b = random_channel([("B0", 2)], [("B1", 2)], kraus_rank=2, seed=53)
        out = apply_process(process_matrix_of(s), choi_from_kraus(a), choi_from_kraus(b))
        direct = switch_apply(s, a, b)
        assert np.allclose(out.matrix, direct.matrix, atol=1e-9)

    def test_choi_label_contract(self):
        w = process_matrix_of(SwitchSpec(0.5))
        wrong = choi_from_kraus(random_channel([("X", 2)], [("Y", 2)],
                                               kraus_rank=1, seed=56))
        good = choi_from_kraus(random_channel([("B0", 2)], [("B1", 2)],
                                              kraus_rank=1, seed=57))
        with pytest.raises(ValueError):
            apply_process(w, wrong, good)


class TestInterventionalState:
    @pytest.mark.parametrize("mode, lam, target_seed", SWITCH_CASES)
    def test_switch_backends_agree(self, mode, lam, target_seed):
        # control weights at and next to 0 and 1, and mixed targets, which
        # no sweep varies and for which no closed form is pinned
        target = None
        if target_seed is not None:
            target = random_density(2, 2, target_seed, dims=[("T0", 2)])
        s = SwitchSpec(lam, target=target, future_mode=mode)
        sv = interventional_state(s, "statevector")
        ct = interventional_state(s, "contraction")
        assert trace_distance(sv.tau, ct.tau) < BACKEND_AGREE_TOL

    def test_comb_backends_agree(self):
        pc = sample_purified_comb(60)
        sv = interventional_state(pc, "statevector")
        ct = interventional_state(pc, "contraction")
        assert trace_distance(sv.tau, ct.tau) < 1e-9

    def test_slot_outputs_maximally_mixed(self):
        # trace-preserving slots leave their stored partners mixed
        pc = sample_purified_comb(61)
        tau = interventional_state(pc).tau
        d = tau.dims.dim("A1") * tau.dims.dim("B1")
        assert np.isclose(entropy(tau, ["A1", "B1"]), math.log2(d), atol=1e-9)

    def test_switch_state_is_pure(self):
        tau = interventional_state(SwitchSpec(0.7)).tau
        lam, _ = herm_eig(tau)
        assert np.isclose(lam[0], 1.0, atol=1e-10)

    def test_label_order_canonical(self):
        st = interventional_state(SwitchSpec(0.2, future_mode="trace_target"))
        assert st.labels == ("A0", "A1", "B0", "B1", "F")

    def test_invalid_marginal_rejected(self):
        m = np.zeros((32, 32))
        m[0, 0] = 1.0
        bad = DensityOperator(m, [("A0", 2), ("A1", 2), ("B0", 2), ("B1", 2), ("F", 2)])
        with pytest.raises(ValueError):
            InterventionalState(bad)

    def test_statevector_needs_wiring(self):
        w = process_matrix_of(SwitchSpec(0.5))
        with pytest.raises(ValueError):
            interventional_state(w, "statevector")
        ct = interventional_state(w, "contraction")
        sv = interventional_state(SwitchSpec(0.5), "statevector")
        assert trace_distance(ct.tau, sv.tau) < 1e-9


class TestContractionConvention:
    """The contraction backend is ``W / (d_A1 d_B1)``; the link contraction
    with the intervention Choi operators gives the same validated state."""

    @pytest.mark.parametrize("mode", ["full", "trace_control", "trace_target"])
    def test_switch_equals_link_contraction(self, mode):
        s = SwitchSpec(0.3, future_mode=mode)
        expect = link_contraction(process_matrix_of(s)).tau.matrix
        assert np.array_equal(interventional_state(s, "contraction").tau.matrix, expect)

    def test_combs_equal_link_contraction(self):
        combs = [sample_purified_comb(seed) for seed in (0, 1, 5, 7, 13)]
        # 3-dimensional slot outputs on both sides are covered
        assert any(pc.dims["A1"] == 3 for pc in combs)
        assert any(pc.dims["B1"] == 3 for pc in combs)
        for pc in combs:
            expect = link_contraction(process_matrix_of(pc)).tau.matrix
            assert np.array_equal(interventional_state(pc, "contraction").tau.matrix, expect)

    def test_nontrivial_past_rejected(self):
        w = process_matrix_of(SwitchSpec(0.4))
        w2 = ProcessMatrix(LabeledOperator(np.kron(np.eye(2), w.matrix),
                                           [("P", 2)] + list(w.dims)[1:]))
        with pytest.raises(ValueError, match="trace 2.0 is not 1"):
            interventional_state(w2, "contraction")


class TestCausalSeparability:
    """``upsilon1`` (control traced) is the mixture ``λ W(1) + (1-λ) W(0)`` of
    two fixed-order processes, so it is causally separable; ``upsilon2`` and
    ``switch_full`` keep the control coherence and are no such mixture."""

    LAMS = (0.1, 0.3, 0.5, 0.77)

    @staticmethod
    def w(lam, mode):
        return process_matrix_of(SwitchSpec(lam, future_mode=mode)).matrix

    def test_upsilon1_process_matrix_is_a_mixture(self):
        w0, w1 = self.w(0.0, "trace_control"), self.w(1.0, "trace_control")
        for lam in self.LAMS:
            mix = lam * w1 + (1.0 - lam) * w0
            assert np.abs(self.w(lam, "trace_control") - mix).max() <= 1e-15

    @pytest.mark.parametrize("backend", ["statevector", "contraction"])
    def test_upsilon1_state_is_the_same_mixture(self, backend):
        # the five-part state is W / (d_A1 d_B1), linear in W
        w0, w1 = self.w(0.0, "trace_control"), self.w(1.0, "trace_control")
        for lam in self.LAMS:
            mix = (lam * w1 + (1.0 - lam) * w0) / 4.0
            tau = interventional_state(SwitchSpec(lam, future_mode="trace_control"), backend)
            assert np.abs(tau.tau.matrix - mix).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["full", "trace_target"])
    def test_coherent_control_is_no_mixture(self, mode):
        w0, w1 = self.w(0.0, mode), self.w(1.0, mode)
        for lam in self.LAMS:
            gap = np.abs(self.w(lam, mode) - (lam * w1 + (1.0 - lam) * w0)).max()
            assert gap > 0.25
