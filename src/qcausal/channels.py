"""Kraus channels, their action on labeled states, and random sampling.

Random sampling uses numpy's seeded PCG64 generators, so every sampled object
is reproducible from an explicit integer seed.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .labeled import (
    TRACE_TOL,
    DensityOperator,
    LabeledDims,
    LabeledOperator,
    as_dims,
    permute,
)

UNITARY_TOL = 1e-10


def ensure_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _gram_deviation(a: np.ndarray) -> float:
    """``max |A† A - I|``: how far the columns of ``a`` are from orthonormal."""
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))


def _check_unitary(u: np.ndarray, name: str = "matrix") -> None:
    """Raise unless ``u† u`` is the identity within ``UNITARY_TOL``."""
    dev = _gram_deviation(u)
    if not dev <= UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: max deviation {dev:.3e} > {UNITARY_TOL}")


class KrausChannel:
    """CPTP map given by a list of Kraus operators.

    ``sum_t K_t† K_t`` must equal the identity within ``TRACE_TOL``; every
    channel is trace preserving, so nothing downstream checks it again.
    ``kraus`` holds the operators as one ``(r, d_out, d_in)`` array.
    """

    __slots__ = ("in_dims", "out_dims", "kraus")

    def __init__(self, in_dims, out_dims, kraus: Sequence[np.ndarray]):
        in_dims = as_dims(in_dims)
        out_dims = as_dims(out_dims)
        if len(kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for k in kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != (out_dims.total, in_dims.total):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"{out_dims.total} x {in_dims.total} for {in_dims} -> {out_dims}"
                )
            ops.append(k)
        ks = np.stack(ops)
        dev = _gram_deviation(ks.reshape(-1, in_dims.total))
        if not dev <= TRACE_TOL:
            raise ValueError(
                f"Kraus operators are not trace preserving: sum K†K deviates "
                f"from the identity by {dev:.3e} > {TRACE_TOL}"
            )
        self.in_dims = in_dims
        self.out_dims = out_dims
        self.kraus = ks

    @classmethod
    def from_unitary(cls, u: np.ndarray, in_dims, out_dims) -> "KrausChannel":
        in_dims = as_dims(in_dims)
        out_dims = as_dims(out_dims)
        u = np.array(u, dtype=complex)
        if u.shape != (out_dims.total, in_dims.total) or in_dims.total != out_dims.total:
            raise ValueError(f"unitary channel {in_dims} -> {out_dims} needs equal "
                             f"dimensions and a matching square matrix, got {u.shape}")
        _check_unitary(u)
        return cls._of_checked(u[None], in_dims, out_dims)

    @classmethod
    def _of_checked(cls, kraus: np.ndarray, in_dims, out_dims) -> "KrausChannel":
        """Channel of a complex ``(r, d_out, d_in)`` array whose ``sum K†K``
        the caller has checked within ``UNITARY_TOL``, stricter than the
        constructor's ``TRACE_TOL``, so the constructor's check cannot fail."""
        chan = cls.__new__(cls)
        chan.in_dims = as_dims(in_dims)
        chan.out_dims = as_dims(out_dims)
        chan.kraus = kraus
        return chan

    def __repr__(self) -> str:
        return f"KrausChannel({self.in_dims} -> {self.out_dims}, {len(self.kraus)} Kraus)"


def apply_channel(c: KrausChannel, rho: LabeledOperator) -> LabeledOperator:
    """Apply a CPTP channel to a state, possibly on a subsystem of it.

    The channel's input labels must all appear in ``rho``; untouched labels
    ride along unchanged.  The output labels replace the input labels at the
    position of the first consumed label, so an identity channel returns the
    state unchanged.  A :class:`DensityOperator` maps to a
    :class:`DensityOperator`.
    """
    consumed = list(c.in_dims.labels)
    for l in consumed:
        if l not in rho.labels:
            raise KeyError(f"channel input label {l!r} not present in state labels {rho.labels}")
        if rho.dim(l) != c.in_dims.dim(l):
            raise ValueError(
                f"dimension mismatch on {l!r}: state has {rho.dim(l)}, "
                f"channel expects {c.in_dims.dim(l)}"
            )
    rest = [l for l in rho.labels if l not in set(consumed)]
    collide = set(c.out_dims.labels) & set(rest)
    if collide:
        raise ValueError(f"channel output labels {sorted(collide)} collide with untouched labels")
    front = permute(rho, consumed + rest)
    din = c.in_dims.total
    drest = front.dims.total // din
    t4 = front.matrix.reshape(din, drest, din, drest)
    out4 = np.einsum("tax,xrys,tby->arbs", c.kraus, t4, c.kraus.conj())
    dout = c.out_dims.total
    out_dims = LabeledDims(list(c.out_dims) + [(l, rho.dim(l)) for l in rest])
    out_op = LabeledOperator(out4.reshape(dout * drest, dout * drest), out_dims)
    # splice the output labels where the consumed block began
    pos = min(rho.dims.index(l) for l in consumed)
    before = [l for l in rho.labels[:pos] if l not in set(consumed)]
    after = [l for l in rho.labels[pos:] if l not in set(consumed)]
    out_op = permute(out_op, before + list(c.out_dims.labels) + after)
    if isinstance(rho, DensityOperator):
        return DensityOperator(out_op.matrix, out_op.dims)
    return out_op


def haar_unitary(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-random unitary via the QR decomposition with phase correction."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = ensure_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-random unit vector of dimension ``d`` (plain ndarray)."""
    rng = ensure_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _wishart(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-trace ``d x d`` Wishart matrix of the given rank drawn from
    ``rng``, not yet validated: the draw behind :func:`random_density`."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def random_density(d: int, rank: int, seed: int | np.random.Generator,
                   dims=None) -> DensityOperator:
    """Wishart-distributed density operator of the given rank and dimension."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    m = _wishart(d, rank, ensure_rng(seed))
    if dims is None:
        dims = [("S", d)]
    dims = as_dims(dims)
    if dims.total != d:
        raise ValueError(f"dims {dims} do not multiply to {d}")
    return DensityOperator(m, dims)


def random_channel(in_dims, out_dims, kraus_rank: int,
                   seed: int | np.random.Generator) -> KrausChannel:
    """Random CPTP channel sampled from a Haar isometry dilation."""
    in_dims = as_dims(in_dims)
    out_dims = as_dims(out_dims)
    din, dout = in_dims.total, out_dims.total
    if kraus_rank < 1 or dout * kraus_rank < din:
        raise ValueError(
            f"need kraus_rank >= 1 and out*rank >= in, got rank {kraus_rank} "
            f"for {din} -> {dout}"
        )
    u = haar_unitary(dout * kraus_rank, seed)
    v = u[:, :din]
    ks = v.reshape(dout, kraus_rank, din).transpose(1, 0, 2)
    return KrausChannel(in_dims, out_dims, list(ks))


def completely_factorizable(u2: np.ndarray, dim_noise: int, dim_in: int,
                            dim_traced: int) -> KrausChannel:
    """Channel ``Q1 -> Q2``, ``X -> Tr_F[U2 (ω_noise ⊗ X) U2†]``, built from
    a unitary.

    ``u2`` acts on ``noise ⊗ in -> traced ⊗ out`` (noise/traced most
    significant), so ``dim_out = dim_noise * dim_in / dim_traced`` must be an
    integer.  The noise register enters maximally mixed.
    """
    u2 = np.asarray(u2, dtype=complex)
    d = dim_noise * dim_in
    if u2.shape != (d, d):
        raise ValueError(f"unitary shape {u2.shape} does not match {d} x {d}")
    if d % dim_traced:
        raise ValueError(
            f"traced dimension {dim_traced} does not divide {dim_noise} x {dim_in}"
        )
    _check_unitary(u2)
    dim_out = d // dim_traced
    # K_(f,b) = U2[f, :, b, :] / sqrt(dim_noise): sum K†K averages diagonal blocks of U2†U2
    blocks = u2.reshape(dim_traced, dim_out, dim_noise, dim_in).transpose(0, 2, 1, 3)
    kraus = (1.0 / np.sqrt(dim_noise) * blocks).reshape(-1, dim_out, dim_in)
    return KrausChannel._of_checked(kraus, [("Q1", dim_in)], [("Q2", dim_out)])
