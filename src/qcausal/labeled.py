"""Labeled operators on tensor products of finite-dimensional systems.

Every operator in this package carries an ordered tuple of ``(label, dim)``
pairs naming its subsystems.  Composite indices are row-major with the first
label most significant, as in ``numpy.kron``, so a matrix on labels
``("X", "Y")`` reshapes to a 4-index tensor as ``m.reshape(dx, dy, dx, dy)``
with row axes first.

All structural operations (permutation, partial trace, purification) are
label-driven; callers never handle raw axis arithmetic.

An operator's matrix may carry one leading stack axis: ``(n, d, d)`` holds n
operators on the same labels, for example the states of a grid of control
weights.  Validation, permutation, partial traces, eigensolves and the trace
distance act on each slice with the same numpy kernel as on a single
matrix, so a stack gives bit for bit the results of its slices one by one.
A validation error in a stack names the index of the first failing slice.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Numerical contract shared across the package.
PSD_TOL = 1e-9      # eigenvalues below -PSD_TOL are a hard error
TRACE_TOL = 1e-8    # allowed deviation of traces / norms from their target
HERM_TOL = 1e-8     # allowed max-norm deviation from Hermiticity
RECON_TOL = 1e-9    # entrywise tolerance for reconstruction identities
RANK_REL_TOL = 1e-9  # eigenvalues below RANK_REL_TOL * lambda_max do not count toward rank


class LabeledDims:
    """Ordered collection of uniquely labeled subsystem dimensions."""

    __slots__ = ("_labels", "_dims", "_total")

    def __init__(self, entries: Iterable[tuple[str, int]]):
        labels = []
        dims = []
        for label, dim in entries:
            if not isinstance(label, str) or not label:
                raise ValueError(f"subsystem label must be a non-empty string, got {label!r}")
            if int(dim) != dim or dim < 1:
                raise ValueError(f"dimension of {label!r} must be a positive integer, got {dim!r}")
            labels.append(label)
            dims.append(int(dim))
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        self._labels = tuple(labels)
        self._dims = tuple(dims)
        self._total = math.prod(dims)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def total(self) -> int:
        return self._total

    def dim(self, label: str) -> int:
        return self._dims[self.index(label)]

    def index(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"no subsystem labeled {label!r} in {self._labels}") from None

    def restrict(self, labels: Sequence[str]) -> "LabeledDims":
        """Sub-collection containing ``labels``, kept in this object's order;
        a bare string raises ``TypeError`` and a missing label ``KeyError``."""
        wanted = set(_label_list(labels))
        missing = wanted - set(self._labels)
        if missing:
            raise KeyError(f"labels {sorted(missing)} not present in {self._labels}")
        return LabeledDims((l, d) for l, d in self if l in wanted)

    def __iter__(self):
        return iter(zip(self._labels, self._dims))

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDims):
            return NotImplemented
        return self._labels == other._labels and self._dims == other._dims

    def __hash__(self) -> int:
        return hash((self._labels, self._dims))

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}:{d}" for l, d in self)
        return f"LabeledDims({inner})"


def _label_list(labels: Sequence[str]) -> list[str]:
    """``labels`` as a list; a bare string raises ``TypeError``, not one label per character."""
    if isinstance(labels, str):
        raise TypeError(f"expected a sequence of labels, got the string {labels!r}")
    return list(labels)


def as_dims(entries: LabeledDims | Iterable[tuple[str, int]]) -> LabeledDims:
    return entries if isinstance(entries, LabeledDims) else LabeledDims(entries)


class LabeledOperator:
    """Square matrix acting on the tensor product described by ``dims``."""

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix: np.ndarray, dims: LabeledDims | Iterable[tuple[str, int]]):
        dims = as_dims(dims)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (dims.total, dims.total):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match total dimension {dims.total} of {dims}"
            )
        self.matrix = matrix
        self.dims = dims

    @property
    def labels(self) -> tuple[str, ...]:
        return self.dims.labels

    def dim(self, label: str) -> int:
        return self.dims.dim(label)

    def tensor(self) -> np.ndarray:
        """Reshape to one row axis and one column axis per subsystem, after
        the stack axis if there is one."""
        shape = self.dims.dims
        return self.matrix.reshape(self.matrix.shape[:-2] + shape + shape)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dims})"


def _require(ok: np.ndarray, values: np.ndarray, message) -> None:
    """Raise ``ValueError(message(value))`` unless ``ok`` holds.

    ``ok`` and ``values`` are numpy scalars for a single matrix and arrays
    over the stack axis for a stack; then the message names the first
    failing slice.  Checks are written so that NaN fails them.
    """
    if ok.ndim == 0:
        if not ok:
            raise ValueError(message(float(values)))
    elif not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"slice {k}: {message(float(values[k]))}")


# The Hermiticity deviation is taken over row blocks of at most this many
# bytes of ``m - m†``; a smaller matrix or stack is one block.
_HERM_BLOCK_BYTES = 1 << 20


def _hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``(m + m†) / 2``, after checking that ``m`` is Hermitian within ``HERM_TOL``.

    ``m†`` is written once, into the C-contiguous result, and ``m`` is added
    in place, so besides ``m`` the one full-size array is the result; the
    values are those of ``(m + m†) * 0.5`` bit for bit.
    """
    out = np.conjugate(m.swapaxes(-1, -2), order="C")
    # the maximum is exact and passes NaN through, so blocks change no value
    rows = max(1, _HERM_BLOCK_BYTES * m.shape[-1] // max(1, out.nbytes))
    dev = 0.0
    for r in range(0, m.shape[-1], rows):
        dev = np.maximum(dev, np.max(np.abs(m[..., r:r + rows, :] - out[..., r:r + rows, :]),
                                     axis=(-2, -1)))
    _require(dev <= HERM_TOL, dev,
             lambda d: f"{what} is not Hermitian: max deviation {d:.3e} > {HERM_TOL}")
    out += m
    out *= 0.5
    return out


def _hermitian_with_trace(m: np.ndarray, target: float, what: str = "matrix") -> np.ndarray:
    """:func:`_hermitian` of ``m``, after checking that the trace of the
    result, of each slice in a stack, is ``target`` within
    ``TRACE_TOL * target``."""
    out = _hermitian(m, what)
    tr = np.trace(out, axis1=-2, axis2=-1).real
    _require(abs(tr - target) <= TRACE_TOL * target, tr,
             lambda t: f"{what} trace {t!r} is not {target} within {TRACE_TOL * target:g}")
    return out


class DensityOperator(LabeledOperator):
    """Unit-trace positive semidefinite :class:`LabeledOperator`, or a stack
    of them.

    Construction enforces Hermiticity (within ``HERM_TOL``, then symmetrizes),
    unit trace (within ``TRACE_TOL``) and positivity: eigenvalues in
    ``[-PSD_TOL, 0)`` are clipped to zero and the spectrum renormalized, while
    anything more negative is a hard error.  Each slice is decomposed once,
    by ``eigh``: its smallest eigenvalue decides the check and the clip, and
    its eigenpairs rebuild it.  In a stack each check holds per slice, a
    failing slice raises before it is rebuilt or a later slice decomposed,
    and only the slices with a negative eigenvalue are rebuilt.

    The stored matrix is read-only, so the marginal spectra that
    :meth:`spectrum` memoizes can never go stale.
    """

    __slots__ = ("_spectra",)

    def __init__(self, matrix: np.ndarray, dims: LabeledDims | Iterable[tuple[str, int]]):
        super().__init__(matrix, dims)
        m = _hermitian_with_trace(self.matrix, 1)
        # one eigh per slice, so a stack allocates no stack-sized
        # eigenvectors; a single matrix is the one slice of this view of m
        slices = m.reshape(-1, *m.shape[-2:])
        for k, s in enumerate(slices):
            lam, v = np.linalg.eigh(s)
            if not lam[0] >= -PSD_TOL:  # NaN fails too
                where = f"slice {k}: " if m.ndim == 3 else ""
                raise ValueError(f"{where}matrix is not positive semidefinite: "
                                 f"min eigenvalue {float(lam[0]):.3e}")
            if lam[0] < 0.0:
                _clip_rebuild(s, lam, v)
        m.flags.writeable = False
        self.matrix = m
        self._spectra: dict[tuple[str, ...], np.ndarray] = {}

    def spectrum(self, keep: Sequence[str] | None = None) -> np.ndarray:
        """Descending spectrum of the marginal on ``keep`` (all labels if None),
        one row per slice of a stack.

        Each label set, checked by :meth:`LabeledDims.restrict`, is decomposed
        once; later calls, in any label order, return the same read-only array.
        """
        key = self.labels if keep is None else self.dims.restrict(keep).labels
        lam = self._spectra.get(key)
        if lam is None:
            # the eigenvalues of herm_eig, without its eigenvector copy
            lam = np.linalg.eigh(_hermitian(partial_trace(self, key).matrix))[0][..., ::-1].copy()
            lam.flags.writeable = False
            self._spectra[key] = lam
        return lam


def _clip_rebuild(m: np.ndarray, lam: np.ndarray, v: np.ndarray) -> None:
    """Clip the eigenvalues ``lam`` of ``m`` at zero, renormalize them to unit
    trace and write ``m`` back from them and the eigenvectors ``v``, in place.

    ``lam, v`` is ``np.linalg.eigh(m)``; ``v`` is overwritten.
    """
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    # m = (v * lam) @ v.conj().T, without a conjugate copy of v or a new result
    w = v * lam
    np.conjugate(v, out=v)
    np.matmul(w, v.T, out=m)


class PureState:
    """Unit-norm state vector on labeled subsystems."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes: np.ndarray,
                 dims: LabeledDims | Iterable[tuple[str, int]]):
        dims = as_dims(dims)
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.shape != (dims.total,):
            raise ValueError(
                f"amplitude vector of length {amplitudes.shape[0]} does not match {dims}"
            )
        nrm2 = float(np.vdot(amplitudes, amplitudes).real)
        if not abs(nrm2 - 1.0) <= TRACE_TOL:
            raise ValueError(f"squared norm {nrm2!r} is not 1 within {TRACE_TOL}")
        self.amplitudes = amplitudes
        self.dims = dims

    @property
    def labels(self) -> tuple[str, ...]:
        return self.dims.labels

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def __repr__(self) -> str:
        return f"PureState({self.dims})"


def permute(a: LabeledOperator, order: Sequence[str]) -> LabeledOperator:
    """Reorder subsystems; ``order`` must be a permutation of the labels,
    and a bare string raises ``TypeError``."""
    order = _label_list(order)
    if sorted(order) != sorted(a.labels):
        raise ValueError(f"{order} is not a permutation of {a.labels}")
    if tuple(order) == a.labels:
        return LabeledOperator(a.matrix, a.dims)
    n = len(a.dims)
    stack = a.matrix.shape[:-2]
    b = len(stack)
    perm = [b + a.dims.index(l) for l in order]
    axes = list(range(b)) + perm + [p + n for p in perm]
    dims = LabeledDims((l, a.dim(l)) for l in order)
    return LabeledOperator(
        a.tensor().transpose(axes).reshape(stack + (dims.total, dims.total)), dims)


def partial_trace(a: LabeledOperator, keep: Sequence[str]) -> LabeledOperator:
    """Trace out everything except ``keep`` (result keeps a's original label order)."""
    dims = a.dims.restrict(keep)
    if len(dims) == len(a.dims):
        return LabeledOperator(a.matrix, a.dims)
    n = len(a.dims)
    row = list(range(n))
    col = [n + i if a.labels[i] in dims.labels else i for i in range(n)]
    out = [i for i in range(n) if a.labels[i] in dims.labels]
    out_axes = out + [n + i for i in out]
    reduced = np.einsum(a.tensor(), [...] + row + col, [...] + out_axes)
    return LabeledOperator(reduced.reshape(a.matrix.shape[:-2] + (dims.total, dims.total)), dims)


def herm_eig(a: LabeledOperator | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors, of a
    matrix or of each slice of a stack.

    The input must be Hermitian within ``HERM_TOL``; it is symmetrized before
    the solve so the decomposition is exactly real.
    """
    m = a if isinstance(a, np.ndarray) else a.matrix
    lam, v = np.linalg.eigh(_hermitian(np.asarray(m, dtype=complex)))
    return lam[..., ::-1].copy(), v[..., ::-1].copy()


def _one_state(rho: LabeledOperator, what: str) -> None:
    """Raise ``ValueError`` naming the shape if ``rho`` is a stack of states."""
    if rho.matrix.ndim != 2:
        raise ValueError(f"{what} must be one state, not a stack of shape {rho.matrix.shape}")


def purify(rho: DensityOperator, purifier_label: str = "REF") -> PureState:
    """Purification with a purifier of dimension equal to ``rank(rho)``.

    The reduced state on the original labels reproduces ``rho`` (after clipping
    eigenvalues below ``RANK_REL_TOL * lambda_max``); a stack raises ``ValueError``.
    """
    _one_state(rho, "the state to purify")
    if purifier_label in rho.labels:
        raise ValueError(f"purifier label {purifier_label!r} collides with {rho.labels}")
    lam, v = herm_eig(rho)
    # lam[0] > 0 for a state, and the support is a prefix of the descending lam
    rank = int(np.count_nonzero(lam > RANK_REL_TOL * float(lam[0])))
    lam = lam[:rank] / lam[:rank].sum()
    # sum_i sqrt(lam_i) |v_i> ⊗ |i>, row-major with the purifier least significant
    amp = (v[:, :rank] * np.sqrt(lam)).reshape(-1)
    dims = LabeledDims(list(rho.dims) + [(purifier_label, rank)])
    return PureState(amp, dims)


def trace_distance(a: LabeledOperator, b: LabeledOperator) -> float | np.ndarray:
    """Half the trace norm of the Hermitian part of ``a - b``, which is
    ``a - b`` itself for Hermitian inputs, after aligning label order: a
    float, or an array over the stack axis for stacks.  Both must have the
    same ``(label, dim)`` pairs, in any order, else one ``ValueError`` names
    both label sets."""
    if dict(a.dims) != dict(b.dims):
        raise ValueError(f"labels or dimensions differ: {a.dims} vs {b.dims}")
    diff = a.matrix - permute(b, a.labels).matrix
    # 0.5 * (diff + diff†) in place; diff is let go before the eigensolve
    h = np.conjugate(diff.swapaxes(-1, -2), order="C")
    h += diff
    del diff
    h *= 0.5
    lam = np.linalg.eigvalsh(h)
    dist = 0.5 * np.sum(np.abs(lam), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
