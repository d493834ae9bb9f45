"""Process core: combs, switch, process matrices, Born rule, backends."""
import itertools
import math
import re
import sys

import numpy as np
import pytest

from qcausal import (
    FUTURE_MODES,
    ORDERS,
    SLOTS,
    TAU_LABELS,
    DensityOperator,
    FixedOrderComb,
    InterventionalState,
    KrausChannel,
    LabeledDims,
    LabeledOperator,
    ProcessMatrix,
    PureState,
    PurifiedComb,
    SwitchSpec,
    apply_channel,
    as_fixed_order,
    comb_apply,
    entropy,
    haar_unitary,
    herm_eig,
    interventional_state,
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
import qcausal.campaigns as camp
import qcausal.labeled as labeled
import qcausal.process as process
from qcausal.process import _dilation_unitary

from conftest import purified_comb_of_shape, traced_peak

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


def relabeled(chan, old, new):
    """The channel with subsystem ``old`` renamed ``new`` on either side."""
    rename = lambda dims: [(new if label == old else label, d) for label, d in dims]
    return KrausChannel(rename(chan.in_dims), rename(chan.out_dims), chan.kraus)


def comb_apply_dense(comb, a, b):
    """Independent route: chain apply_channel calls and trace the environment."""
    first = comb.order[0]
    chain = {"A": (a, b), "B": (b, a)}[first]
    s = apply_channel(chain[0], comb.rho)
    s = apply_channel(comb.lambda1, s)
    s = apply_channel(chain[1], s)
    s = apply_channel(comb.lambda2, s)
    return partial_trace(s, ["F"])


def choi(c):
    """Choi operator of a channel as ``J[i, a, j, b]``: input then output
    index, rows before columns."""
    return np.einsum("tai,tbj->iajb", c.kraus, c.kraus.conj())


def born_rule(w, a, b):
    """``Tr_{A0 A1 B0 B1}[W (J_a ⊗ J_b)^T]``: the link product of the process
    matrix with the slot channels' Choi operators, by one einsum."""
    return np.einsum("ijklfpqrsg,ijpq,klrs->fg", w.tensor(), choi(a), choi(b))


def phi_tilde(d):
    """``sum_ij |ii><jj|`` on an original and a retained copy, as
    ``[row, row copy, column, column copy]``."""
    e = np.eye(d, dtype=complex)
    return np.einsum("ij,kl->ijkl", e, e)


def link_contraction(w):
    """Five-part state by linking ``w`` with Φ̃ on the slot inputs and Φ⁺ on
    the slot outputs; the retained copies take the slot labels."""
    da0, da1, db0, db1, _ = w.dims.dims
    t = np.einsum("ijklfpqrsg,iIpP,jJqQ,kKrR,lLsS->IJKLfPQRSg", w.tensor(), phi_tilde(da0),
                  phi_tilde(da1) / da1, phi_tilde(db0), phi_tilde(db1) / db1)
    # validated twice, as the backends validate their states
    return InterventionalState(DensityOperator(t.reshape(w.matrix.shape), w.dims).matrix, w.dims)


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
    """The link product with a channel's Choi operator, as an einsum."""

    def test_state_through_choi(self):
        c = random_channel([("I", 2)], [("O", 3)], kraus_rank=2, seed=3)
        rho = random_density(2, 2, 4, dims=[("I", 2)])
        out = np.einsum("ij,iajb->ab", rho.matrix, choi(c))
        assert np.allclose(out, apply_channel(c, rho).matrix)


class TestValidatedOperatorsAreLabeled:
    """States and process matrices are LabeledOperators, so the label
    algebra takes them as they are."""

    def operators(self):
        rho = random_density(6, 3, 8, dims=[("X", 2), ("Y", 3)])
        w = process_matrix_of(SwitchSpec(0.4))
        return rho, w

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


class TestFixedOrderComb:
    def test_label_contract_enforced(self):
        comb = sample_fixed_order_comb(0, order="AB")
        wrong = DensityOperator(np.eye(2) / 2, [("X", 2)])
        with pytest.raises(ValueError):
            FixedOrderComb("AB", wrong, comb.lambda1, comb.lambda2)

    @pytest.mark.parametrize("order", ["AB", "BA"])
    @pytest.mark.parametrize("which,old,new", [
        ("link", "E0", "X"), ("link", "E1", "E2"), ("closing", "E1", "E0"), ("closing", "F", "X"),
    ])
    def test_channel_label_contract_enforced(self, order, which, old, new):
        comb = sample_fixed_order_comb(3, order=order)
        lambda1, lambda2 = comb.lambda1, comb.lambda2
        if which == "link":
            lambda1 = relabeled(lambda1, old, new)
        else:
            lambda2 = relabeled(lambda2, old, new)
        with pytest.raises(ValueError, match=f"{which} channel must map"):
            FixedOrderComb(order, comb.rho, lambda1, lambda2)
        # the first party's slot output is not the link's input
        first, second = order
        with pytest.raises(ValueError, match="link channel must map"):
            FixedOrderComb(order, comb.rho, relabeled(comb.lambda1, f"{first}1", f"{second}1"),
                           comb.lambda2)

    def test_order_token_validated(self):
        comb = sample_fixed_order_comb(1)
        with pytest.raises(ValueError):
            FixedOrderComb("XY", comb.rho, comb.lambda1, comb.lambda2)

    def test_stacked_state_rejected(self):
        comb = sample_fixed_order_comb(0, order="AB")
        stack = DensityOperator(np.stack([comb.rho.matrix] * 2), comb.rho.dims)
        with pytest.raises(ValueError, match=re.escape(f"stack of shape {stack.matrix.shape}")):
            FixedOrderComb("AB", stack, comb.lambda1, comb.lambda2)

    def test_slots_name_each_orders_wires(self):
        assert ORDERS == tuple(SLOTS) == ("AB", "BA")
        for order, (x0, x1, y0, y1) in SLOTS.items():
            comb = sample_fixed_order_comb(4, order=order)
            assert comb.rho.labels == (x0, "E0")
            assert (comb.lambda1.in_dims.labels, comb.lambda1.out_dims.labels) == \
                ((x1, "E0"), (y0, "E1"))
            assert comb.lambda2.in_dims.labels == (y1, "E1")
            pc = purify_comb(comb)
            assert pc.psi.labels == (x0, "Q0") and list(pc.dims)[:5] == [x0, x1, y0, y1, "F"]

    @pytest.mark.parametrize("seed,order", [(10, "AB"), (11, "BA")])
    def test_apply_matches_dense_route(self, seed, order):
        comb = sample_fixed_order_comb(seed, order=order)
        a, b = slot_channels_for(comb, seed + 100)
        fast = comb_apply(comb, a, b)
        slow = comb_apply_dense(comb, a, b)
        assert np.allclose(fast.matrix, slow.matrix, atol=1e-10)

    @pytest.mark.parametrize("order", ["AB", "BA"])
    def test_apply_rejects_slot_channels_on_wrong_labels(self, order):
        comb = sample_fixed_order_comb(12, order=order)
        a, b = slot_channels_for(comb, 5)
        for bad_a, bad_b in ((relabeled(a, "A1", "X"), b), (a, relabeled(b, "B0", "A0")), (b, a)):
            with pytest.raises(ValueError, match="slot channel . must map"):
                comb_apply(comb, bad_a, bad_b)

    @pytest.mark.parametrize("label", ["A0", "A1", "B0", "B1"])
    def test_apply_rejects_slot_dimensions_off_the_comb(self, label):
        # slot dimensions are 2 or 3; swap the one under test
        comb = sample_fixed_order_comb(13, order="AB")
        dims = {**comb.dims, label: 5 - comb.dims[label]}
        a = random_channel([("A0", dims["A0"])], [("A1", dims["A1"])], kraus_rank=2, seed=6)
        b = random_channel([("B0", dims["B0"])], [("B1", dims["B1"])], kraus_rank=2, seed=7)
        with pytest.raises(ValueError, match=f"slot channel {label[0].lower()} must map"):
            comb_apply(comb, a, b)

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

    @pytest.mark.parametrize("psi_dims", [
        [("X", 2), ("Q0", 2)],  # wrong label
        [("Q0", 2), ("A0", 2)],  # right labels, wrong order
        [("A0", 4), ("Q0", 1)],  # right labels, wrong dimensions
    ], ids=["label", "order", "dims"])
    def test_psi_dims_checked_once(self, psi_dims):
        pc = purified_comb_of_shape("AB", (2, 2, 2, 2, 2), 30)
        psi = PureState(pc.psi.amplitudes, psi_dims)
        message = f"psi must live on LabeledDims(A0:2, Q0:2), got {psi.dims}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PurifiedComb("AB", psi, pc.u1, pc.u2, pc.dims)

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

    def test_stacked_target_rejected(self):
        stack = DensityOperator(np.stack([KET0.matrix] * 2), KET0.dims)
        with pytest.raises(ValueError, match=re.escape("stack of shape (2, 2, 2)")):
            SwitchSpec(0.5, target=stack)

    def test_future_mode_dims(self):
        assert SwitchSpec(0.3).dims["F"] == 4
        assert SwitchSpec(0.3, future_mode="trace_target").dims["F"] == 2
        out = switch_apply(SwitchSpec(0.3, future_mode="trace_target"),
                           qubit_unitary_channel(1, ("A0", "A1")),
                           qubit_unitary_channel(2, ("B0", "B1")))
        assert out.labels == ("C1",)

    @pytest.mark.parametrize("mode", FUTURE_MODES)
    def test_dims_and_output_wires_follow_the_future_mode(self, mode):
        s = SwitchSpec(0.3, future_mode=mode)
        wires = FUTURE_MODES[mode]
        assert s.dims == {"A0": 2, "A1": 2, "B0": 2, "B1": 2, "F": 2 ** len(wires)}
        out = switch_apply(s, qubit_unitary_channel(1, ("A0", "A1")),
                           qubit_unitary_channel(2, ("B0", "B1")))
        assert out.dims == LabeledDims((w, 2) for w in wires)
        for backend in ("statevector", "contraction"):
            tau = interventional_state(s, backend)
            assert dict(tau.dims) == s.dims
        assert dict(process_matrix_of(s).dims) == s.dims

    def test_future_modes_and_unknown_mode_message(self):
        assert list(FUTURE_MODES) == ["full", "trace_control", "trace_target"]
        message = ("future_mode must be one of ('full', 'trace_control', 'trace_target'), "
                   "got 'trace_both'")
        with pytest.raises(ValueError, match=re.escape(message)):
            SwitchSpec(0.3, future_mode="trace_both")

    def test_apply_rejects_slot_channels_off_qubits(self):
        qubit_a = qubit_unitary_channel(3, ("A0", "A1"))
        qubit_b = qubit_unitary_channel(4, ("B0", "B1"))
        qutrit_in_a = random_channel([("A0", 3)], [("A1", 2)], kraus_rank=2, seed=8)
        qutrit_out_b = random_channel([("B0", 2)], [("B1", 3)], kraus_rank=2, seed=9)
        for a, b, name in ((qutrit_in_a, qubit_b, "a"), (qubit_a, qutrit_out_b, "b"),
                           (qubit_a, relabeled(qubit_b, "B1", "F"), "b")):
            with pytest.raises(ValueError, match=f"slot channel {name} must map"):
                switch_apply(SwitchSpec(0.4), a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchSpec(1.5)
        with pytest.raises(ValueError):
            SwitchSpec(0.5, future_mode="partial")
        for dims in ([("T0", 3)], [("T1", 3)]):
            with pytest.raises(ValueError, match=re.escape(
                    f"target must be a state on LabeledDims(T0:2), got {LabeledDims(dims)}")):
                SwitchSpec(0.5, target=DensityOperator(np.eye(3) / 3, dims))


class TestProcessMatrix:
    def test_trace_and_hermiticity(self, monkeypatch):
        comb = sample_fixed_order_comb(50, order="AB")
        w = process_matrix_of(comb)
        d_expected = comb.dims["A1"] * comb.dims["B1"]
        assert np.isclose(w.matrix.trace().real, d_expected, atol=1e-8)
        assert np.allclose(w.matrix, w.matrix.conj().T)
        nan = np.full(w.matrix.shape, np.nan)
        with pytest.raises(ValueError, match="not Hermitian"):
            ProcessMatrix(nan, w.dims)
        # with the Hermiticity check bypassed, the trace check rejects NaN
        monkeypatch.setattr(labeled, "_hermitian", lambda m, what="matrix": m)
        with pytest.raises(ValueError, match="trace nan"):
            ProcessMatrix(nan, w.dims)

    @pytest.mark.parametrize("cls", [ProcessMatrix, InterventionalState])
    def test_labels_out_of_order_are_rejected(self, cls):
        s = SwitchSpec(0.3)
        op = process_matrix_of(s) if cls is ProcessMatrix else interventional_state(s)
        swapped = permute(op, ("B0", "B1", "A0", "A1", "F"))
        message = f"needs labels {TAU_LABELS} in that order, got {swapped.labels}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(swapped.matrix, swapped.dims)

    @pytest.mark.parametrize("mode", FUTURE_MODES)
    def test_stacked_switch_is_its_weights_stacked_and_validated_once(self, mode, monkeypatch):
        lams = np.linspace(0.0, 1.0, 101)
        each = np.stack([process_matrix_of(SwitchSpec(lam, future_mode=mode)).matrix
                         for lam in lams])
        built = []
        init = ProcessMatrix.__init__
        monkeypatch.setattr(ProcessMatrix, "__init__",
                            lambda self, *args: built.append(init(self, *args)))
        w = process_matrix_of(SwitchSpec(lams, future_mode=mode))
        assert len(built) == 1
        assert np.array_equal(w.matrix, each)

    def test_switch_matrix_is_rank_one(self):
        w = process_matrix_of(SwitchSpec(0.37))
        lam, _ = herm_eig(w)
        assert lam[0] > 1e-6
        assert abs(lam[1:]).max() < 1e-9

    def test_born_rule_reproduces_comb(self):
        comb = sample_fixed_order_comb(51, order="BA")
        a, b = slot_channels_for(comb, 151)
        out = born_rule(process_matrix_of(comb), a, b)
        assert np.isclose(np.trace(out).real, 1.0, atol=1e-9)
        assert np.allclose(out, comb_apply(comb, a, b).matrix, atol=1e-9)

    def test_born_rule_reproduces_switch(self):
        s = SwitchSpec(0.42)
        a = random_channel([("A0", 2)], [("A1", 2)], kraus_rank=2, seed=52)
        b = random_channel([("B0", 2)], [("B1", 2)], kraus_rank=2, seed=53)
        out = born_rule(process_matrix_of(s), a, b)
        direct = switch_apply(s, a, b)
        assert np.allclose(out, direct.matrix, atol=1e-9)


def one_shot_process_matrix(source):
    """Tomography with every basis-map pair in a single batch."""
    if isinstance(source, PurifiedComb):
        source = as_fixed_order(source)
    if isinstance(source, SwitchSpec):
        da0 = da1 = db0 = db1 = 2
        df = source.dims["F"]
        evaluate = process._switch_pair_out
    else:
        da0, da1, db0, db1, df = (source.dims[l] for l in ("A0", "A1", "B0", "B1", "F"))
        evaluate = process._comb_pair_out
    na, nb = da0 * da1, db0 * db1
    ka = np.zeros((na, da1, da0), dtype=complex)
    ka[np.arange(na), np.arange(na) % da1, np.arange(na) // da1] = 1.0
    kb = np.zeros((nb, db1, db0), dtype=complex)
    kb[np.arange(nb), np.arange(nb) % db1, np.arange(nb) // db1] = 1.0
    out = evaluate(source, ka.reshape(na, 1, 1, 1, 1, da1, da0),
                   ka.reshape(1, na, 1, 1, 1, da1, da0),
                   kb.reshape(1, 1, nb, 1, 1, db1, db0),
                   kb.reshape(1, 1, 1, nb, 1, db1, db0))
    w = out.transpose(0, 2, 4, 1, 3, 5).reshape(na * nb * df, na * nb * df)
    dims = zip(TAU_LABELS, (da0, da1, db0, db1, df))
    return ProcessMatrix(w, dims).matrix


class TestBlockedTomography:
    @pytest.fixture
    def comb_blocks(self, monkeypatch):
        """The ``(K, L)`` pairs of A-slot basis maps that each tomography
        block evaluates through ``_comb_pair_out``, one list per block."""
        blocks = []
        inner = process._comb_pair_out

        def recording(c, ka, la, kb, lb):
            # a basis map is a matrix unit, named by the flat index of its one
            k = np.argmax(ka.reshape(ka.shape[0], -1), axis=1)
            l = np.argmax(la.reshape(la.shape[1], -1), axis=1)
            blocks.append([(i, j) for i in k for j in l])
            return inner(c, ka, la, kb, lb)

        monkeypatch.setattr(process, "_comb_pair_out", recording)
        return blocks

    @staticmethod
    def assert_tiles(blocks, na):
        pairs = [pair for block in blocks for pair in block]
        assert len(pairs) == len(set(pairs)) == na * na

    @pytest.mark.parametrize("mode, lam, target_seed", SWITCH_CASES)
    def test_switch_equals_one_shot(self, mode, lam, target_seed):
        target = None
        if target_seed is not None:
            target = random_density(2, 2, target_seed, dims=[("T0", 2)])
        s = SwitchSpec(lam, target=target, future_mode=mode)
        assert np.array_equal(process_matrix_of(s).matrix, one_shot_process_matrix(s))

    def test_campaign_combs_are_one_block_and_equal_one_shot(self, comb_blocks):
        sources = ([sample_purified_comb(seed, order=order)
                    for seed in range(20) for order in ("AB", "BA")]
                   + [sample_fixed_order_comb(seed) for seed in range(40)])
        for source in sources:
            del comb_blocks[:]
            w = process_matrix_of(source).matrix
            assert len(comb_blocks) == 1
            assert np.array_equal(w, one_shot_process_matrix(source))

    def test_every_campaign_shape_fits_one_block(self):
        # every slot, environment and Q dimension that the two samplers can
        # draw: crosscheck's bit-identical W rests on each being one block
        def slot_dims():
            for dims in itertools.product(camp.SLOT_DIMS, repeat=5):
                if math.prod(dims) <= camp.TAU_DIM_CAP:
                    yield dict(zip(("A0", "A1", "B0", "B1", "F"), dims))

        shapes = []
        for order in ("AB", "BA"):
            first, second = order
            for d in slot_dims():
                for e in itertools.product(camp.ENV_DIMS, repeat=3):
                    shapes.append((order, {**d, **dict(zip(("E0", "E1", "E2"), e))}))
                for q0 in camp.Q0_DIMS:
                    q1, r1 = divmod(d[f"{first}1"] * q0, d[f"{second}0"])
                    q2, r2 = divmod(d[f"{second}1"] * q1, d["F"])
                    if not r1 and not r2:
                        shapes.append((order, {**d, "E0": q0, "E1": q1, "E2": q2}))
        assert len(shapes) > 2 * 6 * 27
        for order, d in shapes:
            na = d["A0"] * d["A1"]
            assert process._comb_block_pairs(order, d) >= na * na, (order, d)

    @pytest.mark.parametrize("order", ["AB", "BA"])
    def test_comb_above_budget_is_blocked_and_equals_one_shot(self, order, comb_blocks):
        pc = purified_comb_of_shape(order, (2, 4, 2, 4, 2), seed=7)
        w = process_matrix_of(pc).matrix
        assert len(comb_blocks) > 1
        self.assert_tiles(comb_blocks, pc.dims["A0"] * pc.dims["A1"])
        assert np.array_equal(w, one_shot_process_matrix(pc))

    @pytest.mark.parametrize("budget_pairs", [1, 3, 8, 24])
    def test_blocks_of_any_size_tile_the_pairs(self, budget_pairs, comb_blocks, monkeypatch):
        # na = 8: blocks of 3 pairs cut each row into 3 + 3 + 2, blocks of
        # 24 pairs are three rows, with two rows left for the last block
        pc = purified_comb_of_shape("BA", (2, 4, 2, 4, 2), seed=8)
        pairs = process._comb_block_pairs("BA", as_fixed_order(pc).dims)
        monkeypatch.setattr(process, "TOMOGRAPHY_BLOCK_BYTES",
                            process.TOMOGRAPHY_BLOCK_BYTES * budget_pairs // pairs)
        w = process_matrix_of(pc).matrix
        assert max(len(block) for block in comb_blocks) == budget_pairs
        self.assert_tiles(comb_blocks, 8)
        assert np.array_equal(w, one_shot_process_matrix(pc))

    def test_peak_memory_at_dimension_512(self):
        # one batch of all slot-map pairs peaks at 256 MiB here, blocks that
        # bounded only their largest intermediate at 35.5 MiB, and the
        # validation of the 4 MiB W at 14.0 MiB while it held W, W†, W - W†
        # and |W - W†|; now it holds W and its result, and a block is the peak
        pc = purified_comb_of_shape("AB", (4, 4, 4, 4, 2), seed=512)
        assert traced_peak(lambda: process_matrix_of(pc)) <= 12.5 * 2**20

    def test_contraction_peak_memory_at_dimension_512(self):
        # 20.1 MiB while W stayed alive beside its rescaled copy; now W is
        # rescaled in place and released before the second validation
        pc = purified_comb_of_shape("AB", (4, 4, 4, 4, 2), seed=512)
        assert traced_peak(lambda: interventional_state(pc, "contraction")) <= 17 * 2**20

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="Python 3.10 keeps a call's arguments until it returns")
    def test_statevector_peak_memory_at_dimension_512(self):
        # the wired matrix is let go before the second validation, which
        # holds the first one's result; keeping it would add 4 MiB
        pc = purified_comb_of_shape("AB", (4, 4, 4, 4, 2), seed=512)
        assert traced_peak(lambda: interventional_state(pc, "statevector")) <= 17 * 2**20

    def test_trace_distance_peak_memory_at_dimension_512(self):
        # the difference and its adjoint, summed in place; 12.1 MiB when the
        # sum and its half were new arrays.  Any two matrices make the same
        # temporaries as two five-part states.
        rng = np.random.default_rng(512)
        a, b = (LabeledOperator(rng.normal(size=(512, 512)), [("X", 512)]) for _ in range(2))
        assert traced_peak(lambda: trace_distance(a, b)) <= 8.5 * 2**20

    def test_peak_memory_at_dimension_128(self):
        # one block of the 8 MiB budget and the 256 KiB W; 32.1 MiB when
        # the budget bounded only a block's largest intermediate
        pc = purified_comb_of_shape("AB", (2, 4, 2, 4, 2), seed=128)
        assert traced_peak(lambda: process_matrix_of(pc)) <= 10 * 2**20


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

    def test_is_the_density_operator_it_validates(self):
        st = interventional_state(sample_purified_comb(3))
        assert isinstance(st, DensityOperator)
        assert st.tau is st
        assert repr(st) == f"InterventionalState({st.dims})"
        assert not st.matrix.flags.writeable

    def test_invalid_marginal_rejected(self, monkeypatch):
        m = np.zeros((32, 32))
        m[0, 0] = 1.0
        five = [("A0", 2), ("A1", 2), ("B0", 2), ("B1", 2), ("F", 2)]
        with pytest.raises(ValueError, match="maximally mixed"):
            InterventionalState(m, five)
        # a NaN marginal fails the marginal check itself once the state's
        # own validation, which rejects any NaN entry first, is bypassed
        monkeypatch.setattr(DensityOperator, "__init__", LabeledOperator.__init__)
        with pytest.raises(ValueError, match="maximally mixed"):
            InterventionalState(np.full((32, 32), np.nan), five)

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

    def test_caller_process_matrix_is_left_as_it_was(self):
        # only a W reconstructed inside the call is rescaled in place; a
        # caller's is copied, and both routes give the out-of-place rescale
        for source in (sample_purified_comb(5), SwitchSpec(np.array([0.0, 0.3, 1.0]))):
            w = process_matrix_of(source)
            before = w.matrix.copy()
            ct = interventional_state(w, "contraction").tau.matrix
            assert np.array_equal(w.matrix, before)
            assert np.array_equal(ct, interventional_state(source, "contraction").tau.matrix)
            scale = w.dim("A1") * w.dim("B1")
            expect = DensityOperator(before / scale, w.dims).matrix
            expect = InterventionalState(expect, w.dims).tau.matrix
            assert np.array_equal(ct, expect)

    def test_nontrivial_past_rejected(self):
        # a process matrix lives on the five slot and future labels only
        w = process_matrix_of(SwitchSpec(0.4))
        with pytest.raises(ValueError, match="process matrix needs labels"):
            ProcessMatrix(np.kron(np.eye(2), w.matrix), [("P", 2)] + list(w.dims))


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
