"""Two-slot quantum processes and their entangled-intervention states.

The slot wires are labeled ``A0 -> A1`` and ``B0 -> B1`` (input/output of the
two local laboratories) and ``F`` is the global future; no process here has
a global past.  ``SLOTS`` names each causal order's slot wires once, in
causal order.  A fixed-order comb threads an environment ``E0 -> E1 -> E2``
between the slots; its purified form carries ``Q0 -> Q1 -> Q2`` instead,
with pure global state and unitary links.

The entangled intervention keeps a copy of each slot input under its own name
(``A0``, ``B0``) and feeds each slot output wire with half of a maximally
entangled pair whose other half is retained under the slot-output name
(``A1``, ``B1``).  The resulting five-system state on
``A0 ⊗ A1 ⊗ B0 ⊗ B1 ⊗ F`` is produced by two independent backends: exact
statevector wiring, and the process matrix ``W`` reconstructed by
basis-channel tomography.  The interventions (Φ̃ on the slot inputs, Φ⁺ on
the slot outputs) turn ``W`` into ``W / (d_A1 d_B1)``, so the contraction
backend is that rescale; the backends stay independent because tomography
never touches the statevector wiring.
"""
from __future__ import annotations

import numpy as np

from .labeled import (
    RECON_TOL,
    DensityOperator,
    LabeledDims,
    LabeledOperator,
    PureState,
    _hermitian_with_trace,
    _require,
    as_dims,
    partial_trace,
    purify,
)
from .channels import KrausChannel, _check_unitary

TAU_LABELS = ("A0", "A1", "B0", "B1", "F")
# each causal order -> the first party's slot input and output, then the second's
SLOTS = {"AB": ("A0", "A1", "B0", "B1"), "BA": ("B0", "B1", "A0", "A1")}
ORDERS = tuple(SLOTS)
# each switch future mode -> the output wires its declared future keeps
FUTURE_MODES = {"full": ("T1", "C1"), "trace_control": ("T1",), "trace_target": ("C1",)}
# Byte budget for the traced peak of one tomography block.  One batch of all
# na² nb² slot-map pairs peaks at 256 MiB at five-part dimension 512;
# _tomography cuts the pairs of basis maps on the A slot into blocks
# whose peak in _comb_pair_out stays within this budget.  Every switch and
# every comb of the campaign dimension policy fits in one block, so its W is
# the one-shot evaluation bit for bit; splitting every batch would slow
# small combs and move the last bit of some multi-Kraus ones.
TOMOGRAPHY_BLOCK_BYTES = 8 * 2**20


def _slots(order: str) -> tuple[str, str, str, str]:
    """The slot wires ``SLOTS[order]``; an order not in ``ORDERS`` raises ``ValueError``."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    return SLOTS[order]


class FixedOrderComb:
    """Two-slot comb: state, link channel, and closing channel in a fixed order.

    With slot wires ``x0, x1, y0, y1 = SLOTS[order]`` the pieces are a
    density operator on ``(x0, E0)``, a channel ``(x1, E0) -> (y0, E1)`` and
    a channel ``(y1, E1) -> (F, E2)``.  ``dims`` maps each of
    ``A0 A1 B0 B1 F E0 E1 E2`` to its dimension.
    """

    __slots__ = ("order", "rho", "lambda1", "lambda2", "dims")

    def __init__(self, order: str, rho: DensityOperator,
                 lambda1: KrausChannel, lambda2: KrausChannel):
        x0, x1, y0, y1 = _slots(order)
        want_rho = (x0, "E0")
        if rho.labels != want_rho:
            raise ValueError(f"comb state must live on {want_rho}, got {rho.labels}")
        for name, chan, want_in, want_out in (
                ("link", lambda1, (x1, "E0"), (y0, "E1")),
                ("closing", lambda2, (y1, "E1"), ("F", "E2"))):
            if chan.in_dims.labels != want_in or chan.out_dims.labels != want_out:
                raise ValueError(
                    f"{name} channel must map {want_in} -> {want_out}, got "
                    f"{chan.in_dims.labels} -> {chan.out_dims.labels}"
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
    """Comb in purified form: pure ``psi`` on ``(x0, Q0)`` plus unitaries
    ``u1: x1 ⊗ Q0 -> y0 ⊗ Q1`` and ``u2: y1 ⊗ Q1 -> F ⊗ Q2``, with
    ``x0, x1, y0, y1 = SLOTS[order]``.

    ``dims`` maps each of ``A0 A1 B0 B1 F Q0 Q1 Q2`` to its dimension; the
    chain forces ``dim(y1) * dim(Q1) = dim(F) * dim(Q2)``.
    """

    __slots__ = ("order", "psi", "u1", "u2", "dims")

    def __init__(self, order: str, psi: PureState, u1: np.ndarray, u2: np.ndarray,
                 dims: dict[str, int]):
        x0, x1, y0, y1 = _slots(order)
        needed = {"A0", "A1", "B0", "B1", "F", "Q0", "Q1", "Q2"}
        if set(dims) != needed:
            raise ValueError(f"dims must have keys {sorted(needed)}, got {sorted(dims)}")
        if psi.labels != (x0, "Q0"):
            raise ValueError(f"psi must live on ({x0}, Q0), got {psi.labels}")
        if psi.dims.dim(x0) != dims[x0] or psi.dims.dim("Q0") != dims["Q0"]:
            raise ValueError("psi dimensions disagree with the dims table")
        d1 = dims[x1] * dims["Q0"]
        d2 = dims[y0] * dims["Q1"]
        if d1 != d2:
            raise ValueError(f"u1 endpoint dimensions differ: {d1} vs {d2}")
        d3 = dims[y1] * dims["Q1"]
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

    ``future_mode`` selects the declared global future, the wires that
    :data:`FUTURE_MODES` maps it to: ``"full"`` keeps target and control
    (``F`` of dimension 4, target most significant), ``"trace_control"``
    keeps only the target, ``"trace_target"`` only the control.  ``dims``
    maps each of ``A0 A1 B0 B1 F`` to its dimension, as a comb's does.

    ``lam`` may also be a one-dimensional array of control weights: the spec
    then stands for one switch per weight, and
    :func:`interventional_state` returns their states as a stack.
    """

    __slots__ = ("lam", "target", "future_mode", "dims")

    def __init__(self, lam: float | np.ndarray, target: DensityOperator | None = None,
                 future_mode: str = "full"):
        lams = np.array(lam, dtype=float)
        if lams.ndim > 1 or lams.size == 0 or not (np.all(0.0 <= lams) and np.all(lams <= 1.0)):
            raise ValueError(f"control weight must lie in [0, 1], got {lam!r}")
        if future_mode not in FUTURE_MODES:
            raise ValueError(f"future_mode must be one of {tuple(FUTURE_MODES)}, "
                             f"got {future_mode!r}")
        if target is None:
            m = np.zeros((2, 2), dtype=complex)
            m[0, 0] = 1.0
            target = DensityOperator(m, [("T0", 2)])
        if target.labels != ("T0",) or target.dim("T0") != 2:
            raise ValueError(f"target must be a qubit state on ('T0',), got {target.labels}")
        if lams.ndim:
            lams.flags.writeable = False
        self.lam = float(lams) if lams.ndim == 0 else lams
        self.target = target
        self.future_mode = future_mode
        self.dims = {**dict.fromkeys(("A0", "A1", "B0", "B1"), 2),
                     "F": 2 ** len(FUTURE_MODES[future_mode])}

    def __repr__(self) -> str:
        return f"SwitchSpec(lam={self.lam}, future_mode={self.future_mode!r})"


def _tau_dims(dims, what: str) -> LabeledDims:
    """``dims``, whose labels must be ``TAU_LABELS`` in that order."""
    dims = as_dims(dims)
    if dims.labels != TAU_LABELS:
        raise ValueError(f"{what} needs labels {TAU_LABELS} in that order, got {dims.labels}")
    return dims


class ProcessMatrix(LabeledOperator):
    """Two-slot process matrix on ``TAU_LABELS = (A0, A1, B0, B1, F)``, in
    that order; built from ``(matrix, dims)`` like a :class:`DensityOperator`.

    Hermitian within ``HERM_TOL`` (then symmetrized) with
    ``Tr W = dim(A1) * dim(B1)``; in a stack, each slice.
    """

    __slots__ = ()

    def __init__(self, matrix: np.ndarray, dims):
        super().__init__(matrix, _tau_dims(dims, "process matrix"))
        self.matrix = _hermitian_with_trace(self.matrix, self.dim("A1") * self.dim("B1"),
                                            "process matrix")


class InterventionalState(DensityOperator):
    """Five-system state left by the entangled interventions, or a stack of them.

    Labels are ``TAU_LABELS = (A0, A1, B0, B1, F)``, in that order, where
    ``A0``/``B0`` are the stored slot inputs and ``A1``/``B1`` the retained
    halves of the entangled pairs fed to the slot outputs; their marginal is
    exactly maximally mixed.  Built from ``(matrix, dims)`` and validated as
    a :class:`DensityOperator`.
    """

    __slots__ = ()

    def __init__(self, matrix: np.ndarray, dims):
        super().__init__(matrix, _tau_dims(dims, "interventional state"))
        marg = partial_trace(self, ["A1", "B1"]).matrix
        d = marg.shape[-1]
        dev = np.max(np.abs(marg - np.eye(d) / d), axis=(-2, -1))
        _require(dev <= RECON_TOL, dev,
                 lambda x: f"marginal on the retained pair halves deviates from "
                           f"maximally mixed by {x:.3e}")

    @property
    def tau(self) -> "InterventionalState":
        return self


# ---------------------------------------------------------------------------
# direct (Kraus) evaluation of combs and the switch

def _slot_channel_stacks(a: KrausChannel, b: KrausChannel,
                         dims: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Kraus stacks of the slot channels ``a: A0 -> A1`` and ``b: B0 -> B1``,
    after checking their labels and dimensions against ``dims``."""
    for name, chan, party in (("a", a, "A"), ("b", b, "B")):
        want_in = LabeledDims([(f"{party}0", dims[f"{party}0"])])
        want_out = LabeledDims([(f"{party}1", dims[f"{party}1"])])
        if chan.in_dims != want_in or chan.out_dims != want_out:
            raise ValueError(
                f"slot channel {name} must map {want_in} -> {want_out}, got "
                f"{chan.in_dims} -> {chan.out_dims}"
            )
    return a.kraus, b.kraus


def _comb_pair_out(c: FixedOrderComb, ka: np.ndarray, la: np.ndarray,
                   kb: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Evaluate the comb on generalized slot maps ``X -> sum_t K_t X L_t†``.

    ``ka``/``la`` act on the A slot and ``kb``/``lb`` on the B slot; all four
    carry a trailing ``(r, d_out, d_in)`` block and optional broadcastable
    batch axes.  Returns the future-space result with the batch axes leading.
    """
    d = c.dims
    d10, d11, d20, d21 = (d[l] for l in _slots(c.order))
    k1, l1, k2, l2 = (ka, la, kb, lb) if c.order == "AB" else (kb, lb, ka, la)
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

    def branches(a, b):
        # branch 0 (control |0>): B_i A_j; branch 1, its party swap A_j B_i, is the
        # same product with the operands exchanged and the axes i, j put back
        product = lambda x, y: np.einsum("...izw,...jwy->...ijzy", x, y, optimize=True)
        return np.stack(np.broadcast_arrays(product(b, a), product(a, b).swapaxes(-4, -3)),
                        axis=-3)

    brk, brl = branches(ka, kb), branches(la, lb)
    out = np.einsum("...ijczy,yw,...ijdvw,cd->...zcvd", brk, rho_t, brl.conj(), ctrl,
                    optimize=True)
    # row and column axes of each output wire; the wires the future drops are traced
    keep = FUTURE_MODES[s.future_mode]
    axes = {"T1": "zv", "C1": "cd"}
    cols = "".join(axes[l][1] if l in keep else axes[l][0] for l in axes)
    kept = "".join(axes[l][0] for l in keep) + "".join(axes[l][1] for l in keep)
    out = np.einsum(f"...zc{cols}->...{kept}", out)
    return out.reshape(out.shape[:-2 * len(keep)] + (s.dims["F"], s.dims["F"]))


def comb_apply(c: FixedOrderComb, a: KrausChannel, b: KrausChannel) -> DensityOperator:
    """Feed CPTP channels ``a: A0 -> A1`` and ``b: B0 -> B1`` through the comb."""
    ka, kb = _slot_channel_stacks(a, b, c.dims)
    out = _comb_pair_out(c, ka, ka, kb, kb)
    return DensityOperator(out, [("F", c.dims["F"])])


def switch_apply(s: SwitchSpec, a: KrausChannel, b: KrausChannel) -> DensityOperator:
    """Feed CPTP qubit channels through the switch; the output lives on the
    wires that :data:`FUTURE_MODES` keeps for its future mode."""
    if np.ndim(s.lam):
        raise ValueError("switch_apply needs a single control weight, got a stack")
    ka, kb = _slot_channel_stacks(a, b, s.dims)
    out = _switch_pair_out(s, ka, ka, kb, kb)
    return DensityOperator(out, [(l, 2) for l in FUTURE_MODES[s.future_mode]])


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
    x0, x1, y0, y1 = _slots(c.order)
    d = c.dims
    d10, d11, d21 = d[x0], d[x1], d[y1]
    de0, de1, de2 = d["E0"], d["E1"], d["E2"]

    phi0 = purify(c.rho, "F0")
    df0 = phi0.dims.dim("F0")
    u1d, danc1, denv1 = _dilation_unitary(c.lambda1)
    u2d, danc2, denv2 = _dilation_unitary(c.lambda2)

    dq0 = de0 * df0 * danc1 * danc2
    dq1 = de1 * denv1 * df0 * danc2
    dq2 = de2 * denv2 * denv1 * df0

    # u1 acts on (x1, E0, anc1); F0 and anc2 ride along.
    g1 = _axis_gather([d11, de0, df0, danc1, danc2], [0, 1, 3, 2, 4])
    u1 = np.kron(u1d, np.eye(df0 * danc2))[:, g1]
    # u2 acts on (y1, E1, anc2); G1 and F0 ride along.
    g2 = _axis_gather([d21, de1, denv1, df0, danc2], [0, 1, 4, 2, 3])
    u2 = np.kron(u2d, np.eye(denv1 * df0))[:, g2]

    amp = np.zeros((d10, de0, df0, danc1, danc2), dtype=complex)
    amp[:, :, :, 0, 0] = phi0.amplitudes.reshape(d10, de0, df0)
    psi = PureState(amp.reshape(-1), [(x0, d10), ("Q0", dq0)])

    dims = {l: d[l] for l in (x0, x1, y0, y1, "F")}
    return PurifiedComb(c.order, psi, u1, u2, {**dims, "Q0": dq0, "Q1": dq1, "Q2": dq2})


def as_fixed_order(pc: PurifiedComb) -> FixedOrderComb:
    """View a purified comb as a fixed-order comb with environments ``Q0 Q1 Q2``."""
    x0, x1, y0, y1 = _slots(pc.order)
    d = pc.dims
    rho = DensityOperator(pc.psi.density().matrix, [(x0, d[x0]), ("E0", d["Q0"])])
    # PurifiedComb checked both unitaries, so the channels skip that check
    lambda1 = KrausChannel._of_checked(pc.u1[None], [(x1, d[x1]), ("E0", d["Q0"])],
                                       [(y0, d[y0]), ("E1", d["Q1"])])
    lambda2 = KrausChannel._of_checked(pc.u2[None], [(y1, d[y1]), ("E1", d["Q1"])],
                                       [("F", d["F"]), ("E2", d["Q2"])])
    return FixedOrderComb(pc.order, rho, lambda1, lambda2)


# ---------------------------------------------------------------------------
# process-matrix tomography

def _comb_block_pairs(order: str, d: dict[str, int]) -> int:
    """Pairs ``(K, L)`` of A-slot basis maps in one tomography block of a
    comb with dims ``d`` (environments ``E0 E1 E2``), each evaluated with
    all ``nb²`` pairs of B-slot basis maps.

    The largest intermediates of :func:`_comb_pair_out` are operators on
    ``(y, E1)`` with ``y`` a second-party wire, or ``(F, E2)``, and at most
    four of them per slot-map pair are alive at once: an einsum's input and
    output, and the copies that its contraction and the next reshape make.
    """
    _, _, y0, y1 = _slots(order)
    side = max(d[y0] * d["E1"], d[y1] * d["E1"], d["F"] * d["E2"])
    nb = d["B0"] * d["B1"]
    pair_bytes = 4 * side * side * np.dtype(complex).itemsize
    return max(1, TOMOGRAPHY_BLOCK_BYTES // (nb * nb * pair_bytes))


def _tomography(source: FixedOrderComb | SwitchSpec) -> np.ndarray:
    """Unvalidated ``W`` on ``TAU_LABELS`` of a comb, or of a switch with
    one control weight, from the source evaluated on the matrix-unit basis
    of generalized slot maps.  The pairs ``(K, L)`` of A-slot basis maps
    are evaluated in blocks, cut over both, whose traced peak stays within
    ``TOMOGRAPHY_BLOCK_BYTES``, and each block is written into ``W`` in
    place."""
    da0, da1, db0, db1, df = (source.dims[l] for l in TAU_LABELS)
    na, nb = da0 * da1, db0 * db1
    if isinstance(source, FixedOrderComb):
        evaluate = lambda *stacks: _comb_pair_out(source, *stacks)
        pairs = _comb_block_pairs(source.order, source.dims)
    else:
        evaluate = lambda *stacks: _switch_pair_out(source, *stacks)
        pairs = na * na
    rows, cols = max(1, pairs // na), min(na, pairs)

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
    w = np.empty((na, nb, df, na, nb, df), dtype=complex)
    # the blocks' (K, L, K_B, L_B, F, F') axes as a view of W's layout
    out = w.transpose(0, 3, 1, 4, 2, 5)
    for i in range(0, na, rows):
        for j in range(0, na, cols):
            out[i:i + rows, j:j + cols] = evaluate(ka[i:i + rows], la[:, j:j + cols], kb, lb)
    return w.reshape(na * nb * df, na * nb * df)


def process_matrix_of(source) -> ProcessMatrix:
    """Process matrix of a comb, a purified comb or a switch by the
    basis-channel tomography of :func:`_tomography`, validated once.

    A switch with a stack of control weights gets the stack of its
    per-weight matrices.  At five-part dimension 128 / 256 / 512 the traced
    peak of tomography is 8.3 / 9.0 / 12.0 MiB; validating ``W`` holds ``W``
    and its symmetrized copy, and is the peak from dimension 1024 on.
    """
    if isinstance(source, ProcessMatrix):
        return source
    if isinstance(source, PurifiedComb):
        source = as_fixed_order(source)
    if isinstance(source, SwitchSpec) and np.ndim(source.lam):
        w = np.stack([_tomography(SwitchSpec(lam, source.target, source.future_mode))
                      for lam in source.lam])
    elif isinstance(source, (FixedOrderComb, SwitchSpec)):
        w = _tomography(source)
    else:
        raise TypeError(f"cannot reconstruct a process matrix from {type(source).__name__}")
    return ProcessMatrix(w, [(l, source.dims[l]) for l in TAU_LABELS])


# ---------------------------------------------------------------------------
# interventional states

def _apply_iso(arr: np.ndarray, labels: list[str], u: np.ndarray,
               in_labels: list[str], out_pairs: list[tuple[str, int]]):
    """Apply an isometry to the named axes of a state tensor (new axes first);
    each axis's dimension is the array's own."""
    axes = [labels.index(l) for l in in_labels]
    arr = np.moveaxis(arr, axes, range(len(axes)))
    res = u @ arr.reshape(int(np.prod(arr.shape[:len(axes)])), -1)
    res = res.reshape(tuple(d for _, d in out_pairs) + arr.shape[len(axes):])
    return res, [l for l, _ in out_pairs] + [l for l in labels if l not in set(in_labels)]


def _rdm(arr: np.ndarray, labels: list[str], keep: list[str]) -> np.ndarray:
    """Density matrix on ``keep`` (in that order), tracing the rest; one per
    slice when ``arr`` has a leading stack axis before the labeled ones."""
    traced = [l for l in labels if l not in set(keep)]
    b = arr.ndim - len(labels)
    v = arr.transpose(list(range(b)) + [b + labels.index(l) for l in keep + traced])
    v = v.reshape(arr.shape[:b] + (int(np.prod(v.shape[b:b + len(keep)])), -1))
    return v @ v.conj().swapaxes(-1, -2)


def _wire_purified(pc: PurifiedComb) -> np.ndarray:
    """Matrix of the five-part state of a purified comb on ``TAU_LABELS``,
    wired but not yet validated."""
    x0, x1, y0, y1 = _slots(pc.order)
    d = pc.dims
    da1, db1 = d["A1"], d["B1"]
    arr = pc.psi.amplitudes.reshape(d[x0], d["Q0"])
    arr = np.multiply.outer(arr, np.eye(da1) / np.sqrt(da1))
    arr = np.multiply.outer(arr, np.eye(db1) / np.sqrt(db1))
    labels = [x0, "Q0", "A1s", "A1", "B1s", "B1"]
    arr, labels = _apply_iso(arr, labels, pc.u1, [x1 + "s", "Q0"],
                             [(y0, d[y0]), ("Q1", d["Q1"])])
    arr, labels = _apply_iso(arr, labels, pc.u2, [y1 + "s", "Q1"],
                             [("F", d["F"]), ("Q2", d["Q2"])])
    return _rdm(arr, labels, list(TAU_LABELS))


def _interventional(matrix: np.ndarray, dims) -> InterventionalState:
    """Validate a wired five-part matrix, or a stack of them, on the labeled
    ``dims`` as a density operator, then as an interventional state.  From
    Python 3.11 on, a matrix passed straight from the call that makes it is
    let go in between."""
    tau = DensityOperator(matrix, dims)
    del matrix
    return InterventionalState(tau.matrix, tau.dims)


def _tau_statevector_switch(s: SwitchSpec) -> InterventionalState:
    """Wire the switch; a stack of control weights scales the two fixed
    branch tensors per weight and takes every slice's marginal in one
    batched product."""
    tpure = purify(s.target, "G")
    t_arr = tpure.amplitudes.reshape(2, -1)
    pair = np.eye(2) / np.sqrt(2.0)
    # control |0>: A acts first and stores the target, B stores A's pair half;
    # the outer product's axes (A0, G, B0, A1, T1, B1) go to A0 A1 B0 B1 T1 G
    b0 = np.multiply.outer(np.multiply.outer(t_arr, pair), pair).transpose(0, 3, 2, 5, 4, 1)
    # control |1>: the party swap of control |0>
    b1 = b0.transpose(2, 3, 0, 1, 4, 5)
    stack = np.shape(s.lam)
    lam = np.reshape(s.lam, stack + (1,) * b0.ndim)
    v = np.stack([np.sqrt(lam) * b0, np.sqrt(1.0 - lam) * b1], axis=-1)
    labels = ["A0", "A1", "B0", "B1", "T1", "G", "C1"]
    keep = ["A0", "A1", "B0", "B1", *FUTURE_MODES[s.future_mode]]
    return _interventional(_rdm(v, labels, keep), [(l, s.dims[l]) for l in TAU_LABELS])


def _tau_contraction(source) -> InterventionalState:
    """Five-part state ``W / (d_A1 d_B1)`` of the process matrix of ``source``.

    Linking ``W`` with Φ̃ on each slot input and Φ⁺ on each slot output, then
    relabeling the retained halves, gives exactly this rescale (link-product
    algebra, Chiribella, D'Ariano and Perinotti, PRA 80, 022339, 2009).
    A ``W`` built here is rescaled in place and let go before the second
    validation; a :class:`ProcessMatrix` passed in is copied first.
    """
    w = process_matrix_of(source)
    m = w.matrix.copy() if w is source else w.matrix
    m /= w.dim("A1") * w.dim("B1")
    tau = DensityOperator(m, w.dims)
    del w, m
    return InterventionalState(tau.matrix, tau.dims)


def interventional_state(source, backend: str = "statevector") -> InterventionalState:
    """State retained after the entangled interventions of the causal witness.

    ``backend="statevector"`` wires the purified comb or switch directly;
    ``backend="contraction"`` reconstructs the process matrix by tomography
    and divides it by ``d_A1 d_B1``, which is its link with the
    interventions.  The two routes are independent and must agree to
    numerical precision.
    """
    if backend == "statevector":
        if isinstance(source, FixedOrderComb):
            source = purify_comb(source)
        if isinstance(source, PurifiedComb):
            return _interventional(_wire_purified(source),
                                   [(l, source.dims[l]) for l in TAU_LABELS])
        if isinstance(source, SwitchSpec):
            return _tau_statevector_switch(source)
        if isinstance(source, ProcessMatrix):
            raise ValueError("a bare process matrix has no statevector route; "
                             "use backend='contraction'")
        raise TypeError(f"cannot build an interventional state from {type(source).__name__}")
    if backend == "contraction":
        return _tau_contraction(source)
    raise ValueError(f"backend must be 'statevector' or 'contraction', got {backend!r}")
