"""Two-slot quantum processes and their entangled-intervention states.

The slot wires are labeled ``A0 -> A1`` and ``B0 -> B1`` (input/output of the
two local laboratories), ``F`` is the global future and ``P`` the global past
(one-dimensional throughout this module).  A fixed-order comb threads an
environment ``E0 -> E1 -> E2`` between the slots; its purified form carries
``Q0 -> Q1 -> Q2`` instead, with pure global state and unitary links.

The entangled intervention keeps a copy of each slot input under its own name
(``A0``, ``B0``) and feeds each slot output wire with half of a maximally
entangled pair whose other half is retained under the slot-output name
(``A1``, ``B1``).  The resulting five-system state on
``A0 ⊗ A1 ⊗ B0 ⊗ B1 ⊗ F`` is produced by two independent backends: exact
statevector wiring, and the process matrix reconstructed by basis-channel
tomography.  Linking that matrix with the interventions' Choi operators
(Φ̃ on the inputs, Φ⁺ on the outputs) only divides it by ``d_A1 d_B1``, so
the contraction backend is that rescale; the backends stay independent
because tomography never touches the statevector wiring.
"""
from __future__ import annotations

import numpy as np

from .labeled import (
    RECON_TOL,
    TRACE_TOL,
    DensityOperator,
    LabeledDims,
    LabeledOperator,
    PureState,
    _hermitian,
    partial_trace,
    permute,
    purify,
)
from .channels import ChoiOperator, KrausChannel, _check_unitary

ORDERS = ("AB", "BA")
TAU_LABELS = ("A0", "A1", "B0", "B1", "F")
FUTURE_MODES = ("full", "trace_control", "trace_target")
# Byte budget for the largest intermediate of one tomography block.  One
# batch of all na² nb² slot-map pairs peaks at 256 MB at five-part dimension
# 512; above this budget process_matrix_of splits the first batch axis into
# blocks.  Every switch and every comb of the campaign dimension policy fits
# in one block, so its W is the one-shot evaluation bit for bit; splitting
# every batch would slow small combs and move the last bit of some
# multi-Kraus ones.
TOMOGRAPHY_BLOCK_BYTES = 8 * 2**20


def _check_order(order: str) -> tuple[str, str]:
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    return order[0], order[1]


class FixedOrderComb:
    """Two-slot comb: state, link channel, and closing channel in a fixed order.

    For ``order="AB"`` the pieces are a density operator on ``(A0, E0)``, a
    channel ``(A1, E0) -> (B0, E1)`` and a channel ``(B1, E1) -> (F, E2)``;
    for ``order="BA"`` the roles of the two parties swap.  ``dims`` maps
    each of ``A0 A1 B0 B1 F E0 E1 E2`` to its dimension.
    """

    __slots__ = ("order", "rho", "lambda1", "lambda2", "dims")

    def __init__(self, order: str, rho: DensityOperator,
                 lambda1: KrausChannel, lambda2: KrausChannel):
        first, second = _check_order(order)
        want_rho = (f"{first}0", "E0")
        if rho.labels != want_rho:
            raise ValueError(f"comb state must live on {want_rho}, got {rho.labels}")
        want_in1 = (f"{first}1", "E0")
        want_out1 = (f"{second}0", "E1")
        if lambda1.in_dims.labels != want_in1 or lambda1.out_dims.labels != want_out1:
            raise ValueError(
                f"link channel must map {want_in1} -> {want_out1}, got "
                f"{lambda1.in_dims.labels} -> {lambda1.out_dims.labels}"
            )
        want_in2 = (f"{second}1", "E1")
        want_out2 = ("F", "E2")
        if lambda2.in_dims.labels != want_in2 or lambda2.out_dims.labels != want_out2:
            raise ValueError(
                f"closing channel must map {want_in2} -> {want_out2}, got "
                f"{lambda2.in_dims.labels} -> {lambda2.out_dims.labels}"
            )
        if rho.dim("E0") != lambda1.in_dims.dim("E0"):
            raise ValueError("E0 dimension differs between the comb state and the link channel")
        if lambda1.out_dims.dim("E1") != lambda2.in_dims.dim("E1"):
            raise ValueError("E1 dimension differs between the two channels")
        self.order = order
        self.rho = rho
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.dims = {**dict(rho.dims), **dict(lambda1.in_dims), **dict(lambda1.out_dims),
                     **dict(lambda2.in_dims), **dict(lambda2.out_dims)}

    def __repr__(self) -> str:
        return f"FixedOrderComb(order={self.order})"


class PurifiedComb:
    """Comb in purified form: pure ``psi`` on ``(first0, Q0)`` plus unitaries
    ``u1: first1 ⊗ Q0 -> second0 ⊗ Q1`` and ``u2: second1 ⊗ Q1 -> F ⊗ Q2``.

    ``dims`` maps each of ``A0 A1 B0 B1 F Q0 Q1 Q2`` to its dimension; the
    chain forces ``dim(second1) * dim(Q1) = dim(F) * dim(Q2)``.
    """

    __slots__ = ("order", "psi", "u1", "u2", "dims")

    def __init__(self, order: str, psi: PureState, u1: np.ndarray, u2: np.ndarray,
                 dims: dict[str, int]):
        first, second = _check_order(order)
        needed = {"A0", "A1", "B0", "B1", "F", "Q0", "Q1", "Q2"}
        if set(dims) != needed:
            raise ValueError(f"dims must have keys {sorted(needed)}, got {sorted(dims)}")
        if psi.labels != (f"{first}0", "Q0"):
            raise ValueError(f"psi must live on ({first}0, Q0), got {psi.labels}")
        if psi.dims.dim(f"{first}0") != dims[f"{first}0"] or psi.dims.dim("Q0") != dims["Q0"]:
            raise ValueError("psi dimensions disagree with the dims table")
        d1 = dims[f"{first}1"] * dims["Q0"]
        d2 = dims[f"{second}0"] * dims["Q1"]
        if d1 != d2:
            raise ValueError(f"u1 endpoint dimensions differ: {d1} vs {d2}")
        d3 = dims[f"{second}1"] * dims["Q1"]
        d4 = dims["F"] * dims["Q2"]
        if d3 != d4:
            raise ValueError(f"u2 endpoint dimensions differ: {d3} vs {d4}")
        u1 = np.asarray(u1, dtype=complex)
        u2 = np.asarray(u2, dtype=complex)
        for name, u, d in (("u1", u1, d1), ("u2", u2, d3)):
            if u.shape != (d, d):
                raise ValueError(f"{name} has shape {u.shape}, expected {(d, d)}")
            _check_unitary(u, name)
        self.order = order
        self.psi = psi
        self.u1 = u1
        self.u2 = u2
        self.dims = dict(dims)

    def __repr__(self) -> str:
        return f"PurifiedComb(order={self.order}, dims={self.dims})"


class SwitchSpec:
    """Coherent-control process on qubits: target routed through the two slots
    in an order controlled by ``sqrt(lam)|0> + sqrt(1-lam)|1>``.

    ``future_mode`` selects the declared global future: ``"full"`` keeps target
    and control (``F`` of dimension 4, target most significant),
    ``"trace_control"`` keeps only the target, ``"trace_target"`` only the
    control.
    """

    __slots__ = ("lam", "target", "future_mode")

    def __init__(self, lam: float, target: DensityOperator | None = None,
                 future_mode: str = "full"):
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"control weight must lie in [0, 1], got {lam!r}")
        if future_mode not in FUTURE_MODES:
            raise ValueError(f"future_mode must be one of {FUTURE_MODES}, got {future_mode!r}")
        if target is None:
            m = np.zeros((2, 2), dtype=complex)
            m[0, 0] = 1.0
            target = DensityOperator(m, [("T0", 2)])
        if target.labels != ("T0",) or target.dim("T0") != 2:
            raise ValueError(f"target must be a qubit state on ('T0',), got {target.labels}")
        self.lam = float(lam)
        self.target = target
        self.future_mode = future_mode

    @property
    def future_dim(self) -> int:
        return 4 if self.future_mode == "full" else 2

    def __repr__(self) -> str:
        return f"SwitchSpec(lam={self.lam}, future_mode={self.future_mode!r})"


class ProcessMatrix(LabeledOperator):
    """Two-slot process matrix on ``(P, A0, A1, B0, B1, F)``.

    Hermitian within ``HERM_TOL`` (then symmetrized) with
    ``Tr W = dim(A1) * dim(B1) * dim(P)``.
    """

    __slots__ = ()

    LABELS = ("P", "A0", "A1", "B0", "B1", "F")

    def __init__(self, op: LabeledOperator):
        if set(op.labels) != set(self.LABELS):
            raise ValueError(f"process matrix needs labels {self.LABELS}, got {op.labels}")
        op = permute(op, self.LABELS)
        m = _hermitian(op.matrix, "process matrix")
        target = op.dim("A1") * op.dim("B1") * op.dim("P")
        tr = float(np.trace(m).real)
        if abs(tr - target) > TRACE_TOL * target:
            raise ValueError(f"process matrix trace {tr!r} differs from {target}")
        super().__init__(m, op.dims)


class InterventionalState:
    """Five-system state left by the entangled interventions.

    Labels are ``(A0, A1, B0, B1, F)`` where ``A0``/``B0`` are the stored slot
    inputs and ``A1``/``B1`` the retained halves of the entangled pairs fed to
    the slot outputs; their marginal is exactly maximally mixed.
    """

    __slots__ = ("tau",)

    def __init__(self, tau: DensityOperator):
        if set(tau.labels) != set(TAU_LABELS):
            raise ValueError(f"expected labels {TAU_LABELS}, got {tau.labels}")
        tau = permute(tau, TAU_LABELS)
        tau = DensityOperator(tau.matrix, tau.dims)
        marg = partial_trace(tau, ["A1", "B1"]).matrix
        d = marg.shape[0]
        dev = float(np.max(np.abs(marg - np.eye(d) / d)))
        if dev > RECON_TOL:
            raise ValueError(
                f"marginal on the retained pair halves deviates from maximally "
                f"mixed by {dev:.3e}"
            )
        self.tau = tau

    @property
    def labels(self) -> tuple[str, ...]:
        return self.tau.labels

    def dim(self, label: str) -> int:
        return self.tau.dim(label)

    def __repr__(self) -> str:
        return f"InterventionalState({self.tau.dims})"


# ---------------------------------------------------------------------------
# link product


def link(x: LabeledOperator, y: LabeledOperator) -> LabeledOperator:
    """Link product: contract the shared labels of two labeled operators.

    Shared row indices are matched with shared row indices and columns with
    columns, which realizes ``Tr_S[x^{T_S} y]`` on the common subsystems while
    leaving all other labels free.  ``link(rho, J)`` therefore evaluates a
    channel from its Choi operator, and chaining links evaluates a process.
    """
    shared = [l for l in x.labels if l in set(y.labels)]
    for l in shared:
        if x.dim(l) != y.dim(l):
            raise ValueError(f"shared label {l!r} has dimension {x.dim(l)} vs {y.dim(l)}")
    x_only = [l for l in x.labels if l not in set(shared)]
    y_only = [l for l in y.labels if l not in set(shared)]
    counter = iter(range(4 * (len(x.labels) + len(y.labels))))
    x_row = {l: next(counter) for l in x.labels}
    x_col = {l: next(counter) for l in x.labels}
    y_row = {l: (x_row[l] if l in shared else next(counter)) for l in y.labels}
    y_col = {l: (x_col[l] if l in shared else next(counter)) for l in y.labels}
    out = ([x_row[l] for l in x_only] + [y_row[l] for l in y_only]
           + [x_col[l] for l in x_only] + [y_col[l] for l in y_only])
    subs_x = [x_row[l] for l in x.labels] + [x_col[l] for l in x.labels]
    subs_y = [y_row[l] for l in y.labels] + [y_col[l] for l in y.labels]
    res = np.einsum(x.tensor(), subs_x, y.tensor(), subs_y, out, optimize=True)
    dims = LabeledDims([(l, x.dim(l)) for l in x_only] + [(l, y.dim(l)) for l in y_only])
    return LabeledOperator(res.reshape(dims.total, dims.total), dims)


# ---------------------------------------------------------------------------
# direct (Kraus) evaluation of combs and the switch

def _slot_channel_stacks(a: KrausChannel, b: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    for chan, labels in ((a, ("A0", "A1")), (b, ("B0", "B1"))):
        if chan.in_dims.labels != (labels[0],) or chan.out_dims.labels != (labels[1],):
            raise ValueError(
                f"slot channel must map ({labels[0]},) -> ({labels[1]},), got "
                f"{chan.in_dims.labels} -> {chan.out_dims.labels}"
            )
    return a.kraus, b.kraus


def _comb_pair_out(c: FixedOrderComb, ka: np.ndarray, la: np.ndarray,
                   kb: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Evaluate the comb on generalized slot maps ``X -> sum_t K_t X L_t†``.

    ``ka``/``la`` act on the A slot and ``kb``/``lb`` on the B slot; all four
    carry a trailing ``(r, d_out, d_in)`` block and optional broadcastable
    batch axes.  Returns the future-space result with the batch axes leading.
    """
    first, second = _check_order(c.order)
    k1, l1, k2, l2 = (ka, la, kb, lb) if c.order == "AB" else (kb, lb, ka, la)
    d = c.dims
    d10, d11, d20, d21 = d[f"{first}0"], d[f"{first}1"], d[f"{second}0"], d[f"{second}1"]
    de0, de1, de2, df = d["E0"], d["E1"], d["E2"], d["F"]

    rho4 = c.rho.matrix.reshape(d10, de0, d10, de0)
    x = np.einsum("...rxa,aebf,...ryb->...xeyf", k1, rho4, l1.conj(), optimize=True)
    m1 = c.lambda1.kraus
    x = x.reshape(x.shape[:-4] + (d11 * de0, d11 * de0))
    x = np.einsum("tpq,...qs,tus->...pu", m1, x, m1.conj(), optimize=True)
    x = x.reshape(x.shape[:-2] + (d20, de1, d20, de1))
    x = np.einsum("...rxa,...aebf,...ryb->...xeyf", k2, x, l2.conj(), optimize=True)
    m2 = c.lambda2.kraus
    x = x.reshape(x.shape[:-4] + (d21 * de1, d21 * de1))
    x = np.einsum("tpq,...qs,tus->...pu", m2, x, m2.conj(), optimize=True)
    x = x.reshape(x.shape[:-2] + (df, de2, df, de2))
    return np.einsum("...iaja->...ij", x)


def _switch_pair_out(s: SwitchSpec, ka: np.ndarray, la: np.ndarray,
                     kb: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Evaluate the switch on generalized slot maps (same calling convention
    as :func:`_comb_pair_out`)."""
    lam = s.lam
    rho_t = s.target.matrix
    amp = np.sqrt(lam * (1.0 - lam))
    ctrl = np.array([[lam, amp], [amp, 1.0 - lam]], dtype=complex)
    # branch 0 (control |0>): B_i A_j ; branch 1: A_j B_i
    ba_k = np.einsum("...izw,...jwy->...ijzy", kb, ka, optimize=True)
    ab_k = np.einsum("...jzw,...iwy->...ijzy", ka, kb, optimize=True)
    brk = np.stack(np.broadcast_arrays(ba_k, ab_k), axis=-3)
    if la is ka and lb is kb:
        brl = brk
    else:
        ba_l = np.einsum("...izw,...jwy->...ijzy", lb, la, optimize=True)
        ab_l = np.einsum("...jzw,...iwy->...ijzy", la, lb, optimize=True)
        brl = np.stack(np.broadcast_arrays(ba_l, ab_l), axis=-3)
    out = np.einsum("...ijczy,yw,...ijdvw,cd->...zcvd", brk, rho_t, brl.conj(), ctrl,
                    optimize=True)
    if s.future_mode == "full":
        return out.reshape(out.shape[:-4] + (4, 4))
    if s.future_mode == "trace_control":
        return np.einsum("...zcvc->...zv", out)
    return np.einsum("...zczd->...cd", out)


def comb_apply(c: FixedOrderComb, a: KrausChannel, b: KrausChannel) -> DensityOperator:
    """Feed CPTP channels ``a: A0 -> A1`` and ``b: B0 -> B1`` through the comb."""
    ka, kb = _slot_channel_stacks(a, b)
    if a.in_dims.dim("A0") != c.dims["A0"] or a.out_dims.dim("A1") != c.dims["A1"]:
        raise ValueError("channel a does not match the comb's A-slot dimensions")
    if b.in_dims.dim("B0") != c.dims["B0"] or b.out_dims.dim("B1") != c.dims["B1"]:
        raise ValueError("channel b does not match the comb's B-slot dimensions")
    out = _comb_pair_out(c, ka, ka, kb, kb)
    return DensityOperator(out, [("F", c.dims["F"])])


def switch_apply(s: SwitchSpec, a: KrausChannel, b: KrausChannel) -> DensityOperator:
    """Feed CPTP qubit channels through the switch; the output lives on the
    declared future (``(T1, C1)``, ``(T1,)`` or ``(C1,)``)."""
    ka, kb = _slot_channel_stacks(a, b)
    for chan, name in ((a, "a"), (b, "b")):
        if chan.in_dims.total != 2 or chan.out_dims.total != 2:
            raise ValueError(f"switch slot channel {name} must act on qubits")
    out = _switch_pair_out(s, ka, ka, kb, kb)
    if s.future_mode == "full":
        return DensityOperator(out, [("T1", 2), ("C1", 2)])
    label = "T1" if s.future_mode == "trace_control" else "C1"
    return DensityOperator(out, [(label, 2)])


# ---------------------------------------------------------------------------
# purification of a fixed-order comb

def _axis_gather(dims: list[int], perm: list[int]) -> np.ndarray:
    """Column indices ``g`` with ``m[:, g] = m @ P``, where the permutation
    matrix ``P`` reorders a composite basis so that position ``k`` of the
    output multi-index holds component ``perm[k]`` of the input multi-index."""
    index = np.arange(int(np.prod(dims))).reshape([dims[p] for p in perm])
    return index.transpose(np.argsort(perm)).reshape(-1)


def _dilation_unitary(chan: KrausChannel) -> tuple[np.ndarray, int, int]:
    """Unitary ``U: in ⊗ anc -> out ⊗ env`` whose ``|0>``-ancilla sector is the
    Stinespring isometry of the channel (environment least significant).

    The environment size is the Kraus count, padded with zero operators until
    ``dim(out) * env`` is divisible by ``dim(in)``.  Returns ``(U, anc, env)``.
    """
    din = chan.in_dims.total
    dout = chan.out_dims.total
    env = len(chan.kraus)
    while (dout * env) % din:
        env += 1
    danc = (dout * env) // din
    ks = np.zeros((env, dout, din), dtype=complex)
    ks[: len(chan.kraus)] = chan.kraus
    v = ks.transpose(1, 0, 2).reshape(dout * env, din)
    total = dout * env
    u = np.zeros((total, total), dtype=complex)
    cols0 = np.arange(din) * danc
    u[:, cols0] = v
    if danc > 1:
        w = np.linalg.svd(v, full_matrices=True)[0]
        rest = np.setdiff1d(np.arange(total), cols0)
        u[:, rest] = w[:, din:]
    return u, danc, env


def purify_comb(c: FixedOrderComb) -> PurifiedComb:
    """Purified form: pure global state, unitary links, same slot behavior.

    The comb state is purified into ``F0`` (dimension = its rank) and each
    channel is replaced by a unitary dilation with a ``|0>``-initialized
    ancilla; inert wires ride along so that ``Q0 = E0 F0 anc1 anc2``,
    ``Q1 = E1 G1 F0 anc2`` and ``Q2 = E2 G2 G1 F0``.
    """
    first, second = _check_order(c.order)
    d = c.dims
    d10, d11, d21 = d[f"{first}0"], d[f"{first}1"], d[f"{second}1"]
    de0, de1, de2 = d["E0"], d["E1"], d["E2"]

    phi0 = purify(c.rho, "F0")
    df0 = phi0.dims.dim("F0")
    u1d, danc1, denv1 = _dilation_unitary(c.lambda1)
    u2d, danc2, denv2 = _dilation_unitary(c.lambda2)

    dq0 = de0 * df0 * danc1 * danc2
    dq1 = de1 * denv1 * df0 * danc2
    dq2 = de2 * denv2 * denv1 * df0

    # u1 acts on (first1, E0, anc1); F0 and anc2 ride along.
    g1 = _axis_gather([d11, de0, df0, danc1, danc2], [0, 1, 3, 2, 4])
    u1 = np.kron(u1d, np.eye(df0 * danc2))[:, g1]
    # u2 acts on (second1, E1, anc2); G1 and F0 ride along.
    g2 = _axis_gather([d21, de1, denv1, df0, danc2], [0, 1, 4, 2, 3])
    u2 = np.kron(u2d, np.eye(denv1 * df0))[:, g2]

    amp = np.zeros((d10, de0, df0, danc1, danc2), dtype=complex)
    amp[:, :, :, 0, 0] = phi0.amplitudes.reshape(d10, de0, df0)
    psi = PureState(amp.reshape(-1), [(f"{first}0", d10), ("Q0", dq0)])

    dims = {l: d[l] for l in (f"{first}0", f"{first}1", f"{second}0", f"{second}1", "F")}
    return PurifiedComb(c.order, psi, u1, u2, {**dims, "Q0": dq0, "Q1": dq1, "Q2": dq2})


def as_fixed_order(pc: PurifiedComb) -> FixedOrderComb:
    """View a purified comb as a fixed-order comb with environments ``Q0 Q1 Q2``."""
    first, second = _check_order(pc.order)
    d = pc.dims
    rho = DensityOperator(pc.psi.density().matrix,
                          [(f"{first}0", d[f"{first}0"]), ("E0", d["Q0"])])
    lambda1 = KrausChannel([(f"{first}1", d[f"{first}1"]), ("E0", d["Q0"])],
                           [(f"{second}0", d[f"{second}0"]), ("E1", d["Q1"])],
                           [pc.u1])
    lambda2 = KrausChannel([(f"{second}1", d[f"{second}1"]), ("E1", d["Q1"])],
                           [("F", d["F"]), ("E2", d["Q2"])],
                           [pc.u2])
    return FixedOrderComb(pc.order, rho, lambda1, lambda2)


# ---------------------------------------------------------------------------
# process-matrix tomography and the Born rule

def process_matrix_of(source) -> ProcessMatrix:
    """Process matrix on ``(P, A0, A1, B0, B1, F)`` by basis-channel tomography.

    The source is evaluated on the matrix-unit basis of generalized slot maps;
    one code path serves combs, purified combs, and the switch.  ``P`` is
    one-dimensional.  The basis maps are evaluated in blocks along the A-slot
    Kraus index so that no intermediate exceeds ``TOMOGRAPHY_BLOCK_BYTES``.
    The switch and every comb whose full batch fits that budget, which
    includes all combs of the campaign dimension policy, run as one block and
    give exactly the one-shot matrix.
    """
    if isinstance(source, ProcessMatrix):
        return source
    if isinstance(source, PurifiedComb):
        source = as_fixed_order(source)
    if isinstance(source, FixedOrderComb):
        d = source.dims
        da0, da1, db0, db1, df = (d[l] for l in ("A0", "A1", "B0", "B1", "F"))
        na, nb = da0 * da1, db0 * db1
        evaluate = lambda *stacks: _comb_pair_out(source, *stacks)
        # per row of the first batch axis, the largest intermediates of
        # _comb_pair_out are na·nb² operators on (second, E1) or (F, E2)
        second = source.order[1]
        side = max(d[f"{second}0"] * d["E1"], d[f"{second}1"] * d["E1"], df * d["E2"])
        row_bytes = na * nb * nb * side * side * np.dtype(complex).itemsize
        rows = max(1, TOMOGRAPHY_BLOCK_BYTES // row_bytes)
    elif isinstance(source, SwitchSpec):
        da0 = da1 = db0 = db1 = 2
        df = source.future_dim
        na = nb = 4
        evaluate = lambda *stacks: _switch_pair_out(source, *stacks)
        rows = na
    else:
        raise TypeError(f"cannot reconstruct a process matrix from {type(source).__name__}")

    ka_base = np.zeros((na, da1, da0), dtype=complex)
    idx = np.arange(na)
    ka_base[idx, idx % da1, idx // da1] = 1.0
    kb_base = np.zeros((nb, db1, db0), dtype=complex)
    idx = np.arange(nb)
    kb_base[idx, idx % db1, idx // db1] = 1.0

    ka = ka_base.reshape(na, 1, 1, 1, 1, da1, da0)
    la = ka_base.reshape(1, na, 1, 1, 1, da1, da0)
    kb = kb_base.reshape(1, 1, nb, 1, 1, db1, db0)
    lb = kb_base.reshape(1, 1, 1, nb, 1, db1, db0)
    out = np.concatenate([evaluate(ka[i:i + rows], la, kb, lb) for i in range(0, na, rows)])
    w = out.transpose(0, 2, 4, 1, 3, 5).reshape(na * nb * df, na * nb * df)
    dims = [("P", 1), ("A0", da0), ("A1", da1), ("B0", db0), ("B1", db1), ("F", df)]
    return ProcessMatrix(LabeledOperator(w, dims))


def apply_process(w: ProcessMatrix, ja: ChoiOperator, jb: ChoiOperator) -> ChoiOperator:
    """Contract a process matrix with Choi operators of the slot channels.

    Returns the Choi operator of the induced ``P -> F`` channel.
    """
    if ja.in_labels != ("A0",) or ja.out_labels != ("A1",):
        raise ValueError(f"Choi for slot A must map ('A0',) -> ('A1',), got {ja}")
    if jb.in_labels != ("B0",) or jb.out_labels != ("B1",):
        raise ValueError(f"Choi for slot B must map ('B0',) -> ('B1',), got {jb}")
    for label in ("A0", "A1"):
        if ja.dim(label) != w.dim(label):
            raise ValueError(f"Choi dimension mismatch on {label!r}")
    for label in ("B0", "B1"):
        if jb.dim(label) != w.dim(label):
            raise ValueError(f"Choi dimension mismatch on {label!r}")
    out = permute(link(link(w, ja), jb), ["P", "F"])
    tr = float(np.trace(out.matrix).real)
    dp = w.dim("P")
    if abs(tr - dp) > TRACE_TOL * max(1.0, dp):
        raise ValueError(f"trace of the contracted process is {tr!r}, expected {dp}")
    return ChoiOperator(out, ("P",), ("F",))


# ---------------------------------------------------------------------------
# interventional states

def _apply_iso(arr: np.ndarray, labels: list[str], dims: list[int], u: np.ndarray,
               in_labels: list[str], out_pairs: list[tuple[str, int]]):
    """Apply an isometry to the named axes of a state tensor (new axes first)."""
    axes = [labels.index(l) for l in in_labels]
    din = int(np.prod([dims[a] for a in axes]))
    arr = np.moveaxis(arr, axes, range(len(axes)))
    rest_labels = [l for l in labels if l not in set(in_labels)]
    rest_dims = [dims[labels.index(l)] for l in rest_labels]
    res = u @ arr.reshape(din, -1)
    out_dims = [d for _, d in out_pairs]
    res = res.reshape(out_dims + rest_dims)
    return res, [l for l, _ in out_pairs] + rest_labels, out_dims + rest_dims


def _rdm(arr: np.ndarray, labels: list[str], dims: list[int],
         keep: list[str]) -> tuple[np.ndarray, list[int]]:
    """Density matrix on ``keep`` (in that order), tracing the rest."""
    traced = [l for l in labels if l not in set(keep)]
    perm = [labels.index(l) for l in keep] + [labels.index(l) for l in traced]
    keep_dims = [dims[labels.index(l)] for l in keep]
    dkeep = int(np.prod(keep_dims)) if keep_dims else 1
    v = arr.transpose(perm).reshape(dkeep, -1)
    return v @ v.conj().T, keep_dims


def _tau_statevector_purified(pc: PurifiedComb) -> InterventionalState:
    first, second = _check_order(pc.order)
    d = pc.dims
    da1, db1 = d["A1"], d["B1"]
    arr = pc.psi.amplitudes.reshape(d[f"{first}0"], d["Q0"])
    labels = [f"{first}0", "Q0"]
    dims = [d[f"{first}0"], d["Q0"]]
    arr = np.multiply.outer(arr, np.eye(da1) / np.sqrt(da1))
    labels += ["A1s", "A1"]
    dims += [da1, da1]
    arr = np.multiply.outer(arr, np.eye(db1) / np.sqrt(db1))
    labels += ["B1s", "B1"]
    dims += [db1, db1]
    arr, labels, dims = _apply_iso(
        arr, labels, dims, pc.u1, [f"{first}1s", "Q0"],
        [(f"{second}0", d[f"{second}0"]), ("Q1", d["Q1"])])
    arr, labels, dims = _apply_iso(
        arr, labels, dims, pc.u2, [f"{second}1s", "Q1"],
        [("F", d["F"]), ("Q2", d["Q2"])])
    m, keep_dims = _rdm(arr, labels, dims, list(TAU_LABELS))
    tau = DensityOperator(m, list(zip(TAU_LABELS, keep_dims)))
    return InterventionalState(tau)


def _tau_statevector_switch(s: SwitchSpec) -> InterventionalState:
    tpure = purify(s.target, "G")
    dg = tpure.dims.dim("G")
    t_arr = tpure.amplitudes.reshape(2, dg)
    pair = np.eye(2) / np.sqrt(2.0)

    def branch(first_store: str, mid_store: str, mid_pair: str, last_pair: str):
        arr = np.multiply.outer(np.multiply.outer(t_arr, pair), pair)
        labels = [first_store, "G", mid_store, mid_pair, "T1", last_pair]
        order = ["A0", "A1", "B0", "B1", "T1", "G"]
        return arr.transpose([labels.index(l) for l in order])

    # control |0>: A acts first (stores the target), B stores A's pair half
    b0 = branch("A0", "B0", "A1", "B1")
    # control |1>: B acts first, A stores B's pair half
    b1 = branch("B0", "A0", "B1", "A1")
    v = np.zeros(b0.shape + (2,), dtype=complex)
    v[..., 0] = np.sqrt(s.lam) * b0
    v[..., 1] = np.sqrt(1.0 - s.lam) * b1
    labels = ["A0", "A1", "B0", "B1", "T1", "G", "C1"]
    dims = [2, 2, 2, 2, 2, dg, 2]
    if s.future_mode == "full":
        m, _ = _rdm(v, labels, dims, ["A0", "A1", "B0", "B1", "T1", "C1"])
        tau = DensityOperator(m, list(zip(TAU_LABELS, [2, 2, 2, 2, 4])))
    else:
        future = "T1" if s.future_mode == "trace_control" else "C1"
        m, keep_dims = _rdm(v, labels, dims, ["A0", "A1", "B0", "B1", future])
        tau = DensityOperator(m, list(zip(TAU_LABELS, keep_dims)))
    return InterventionalState(tau)


def _tau_contraction(w: ProcessMatrix) -> InterventionalState:
    """Five-part state ``W / (d_A1 d_B1)`` of a process matrix.

    Linking ``W`` with Φ̃ on each slot input and Φ⁺ on each slot output, then
    relabeling the retained halves, gives exactly this rescale (link-product
    algebra, Chiribella, D'Ariano and Perinotti, PRA 80, 022339, 2009).
    Tracing out a nontrivial ``P`` leaves trace ``d_P``, which validation rejects.
    """
    t = partial_trace(w, TAU_LABELS)
    return InterventionalState(DensityOperator(t.matrix / (w.dim("A1") * w.dim("B1")), t.dims))


def interventional_state(source, backend: str = "statevector") -> InterventionalState:
    """State retained after the entangled interventions of the causal witness.

    ``backend="statevector"`` wires the purified comb or switch directly;
    ``backend="contraction"`` reconstructs the process matrix by tomography
    and divides it by ``d_A1 d_B1``, which is its link with the intervention
    Choi operators.  The two routes are independent and must agree to
    numerical precision.
    """
    if backend == "statevector":
        if isinstance(source, PurifiedComb):
            return _tau_statevector_purified(source)
        if isinstance(source, FixedOrderComb):
            return _tau_statevector_purified(purify_comb(source))
        if isinstance(source, SwitchSpec):
            return _tau_statevector_switch(source)
        if isinstance(source, ProcessMatrix):
            raise ValueError("a bare process matrix has no statevector route; "
                             "use backend='contraction'")
        raise TypeError(f"cannot build an interventional state from {type(source).__name__}")
    if backend == "contraction":
        return _tau_contraction(process_matrix_of(source))
    raise ValueError(f"backend must be 'statevector' or 'contraction', got {backend!r}")
