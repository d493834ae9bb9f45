"""Labeled operators on tensor products of finite-dimensional systems.

Every operator in this package carries an ordered tuple of ``(label, dim)``
pairs naming its subsystems.  Composite indices are row-major with the first
label most significant, so ``kron(a, b)`` agrees with ``numpy.kron`` and a
matrix on labels ``("X", "Y")`` reshapes to a 4-index tensor as
``m.reshape(dx, dy, dx, dy)`` with row axes first.

All structural operations (permutation, partial trace, purification) are
label-driven; callers never handle raw axis arithmetic.
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
        """Sub-collection containing ``labels``, kept in this object's order."""
        wanted = set(labels)
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


def as_dims(entries: LabeledDims | Iterable[tuple[str, int]]) -> LabeledDims:
    return entries if isinstance(entries, LabeledDims) else LabeledDims(entries)


class LabeledOperator:
    """Square matrix acting on the tensor product described by ``dims``."""

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix: np.ndarray, dims: LabeledDims | Iterable[tuple[str, int]]):
        dims = as_dims(dims)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dims.total, dims.total):
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
        """Reshape to one row axis and one column axis per subsystem."""
        shape = self.dims.dims
        return self.matrix.reshape(shape + shape)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def relabel(self, mapping: dict[str, str]) -> "LabeledOperator":
        """Rename subsystems without touching the matrix."""
        new = LabeledDims((mapping.get(l, l), d) for l, d in self.dims)
        return LabeledOperator(self.matrix, new)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dims})"


def _hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``(m + m†) / 2``, after checking that ``m`` is Hermitian within ``HERM_TOL``."""
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > HERM_TOL:
        raise ValueError(f"{what} is not Hermitian: max deviation {dev:.3e} > {HERM_TOL}")
    return 0.5 * (m + m.conj().T)


class DensityOperator(LabeledOperator):
    """Unit-trace positive semidefinite :class:`LabeledOperator`.

    Construction enforces Hermiticity (within ``HERM_TOL``, then symmetrizes),
    unit trace (within ``TRACE_TOL``) and positivity: eigenvalues in
    ``[-PSD_TOL, 0)`` are clipped to zero and the spectrum renormalized, while
    anything more negative is a hard error.

    The stored matrix is read-only, so the marginal spectra that
    :meth:`spectrum` memoizes, and the entropies that
    :func:`qcausal.entropy.entropy` memoizes in ``_entropies`` per label set
    and entropy family, can never go stale.
    """

    __slots__ = ("_spectra", "_entropies")

    def __init__(self, matrix: np.ndarray, dims: LabeledDims | Iterable[tuple[str, int]]):
        super().__init__(matrix, dims)
        m = _hermitian(self.matrix)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {TRACE_TOL}")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lam_min:.3e}")
        if lam_min < 0.0:
            lam, v = np.linalg.eigh(m)
            lam = np.clip(lam, 0.0, None)
            lam /= lam.sum()
            m = (v * lam) @ v.conj().T
        m.flags.writeable = False
        self.matrix = m
        self._spectra: dict[frozenset[str], np.ndarray] = {}
        self._entropies: dict[tuple, float] = {}

    def spectrum(self, keep: Sequence[str] | None = None) -> np.ndarray:
        """Descending spectrum of the marginal on ``keep`` (all labels if None).

        Each label set is decomposed once; later calls, in any label order,
        return the same read-only array.
        """
        key = frozenset(self.labels if keep is None else keep)
        lam = self._spectra.get(key)
        if lam is None:
            lam = herm_eig(partial_trace(self, key))[0]
            lam.flags.writeable = False
            self._spectra[key] = lam
        return lam


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
        if abs(nrm2 - 1.0) > TRACE_TOL:
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


def kron(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Tensor product; label sets must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"kron operands share labels {sorted(overlap)}")
    dims = LabeledDims(list(a.dims) + list(b.dims))
    return LabeledOperator(np.kron(a.matrix, b.matrix), dims)


def permute(a: LabeledOperator, order: Sequence[str]) -> LabeledOperator:
    """Reorder subsystems; ``order`` must be a permutation of the labels."""
    if sorted(order) != sorted(a.labels):
        raise ValueError(f"{list(order)} is not a permutation of {a.labels}")
    if tuple(order) == a.labels:
        return LabeledOperator(a.matrix, a.dims)
    n = len(a.dims)
    perm = [a.dims.index(l) for l in order]
    axes = perm + [p + n for p in perm]
    dims = LabeledDims((l, a.dim(l)) for l in order)
    return LabeledOperator(a.tensor().transpose(axes).reshape(dims.total, dims.total), dims)


def partial_trace(a: LabeledOperator, keep: Sequence[str]) -> LabeledOperator:
    """Trace out everything except ``keep`` (result keeps a's original label order)."""
    kept = set(keep)
    missing = kept - set(a.labels)
    if missing:
        raise KeyError(f"labels {sorted(missing)} not present in {a.labels}")
    if kept == set(a.labels):
        return LabeledOperator(a.matrix, a.dims)
    n = len(a.dims)
    row = list(range(n))
    col = [n + i if a.labels[i] in kept else i for i in range(n)]
    out = [i for i in range(n) if a.labels[i] in kept]
    out_axes = out + [n + i for i in out]
    dims = a.dims.restrict(keep)
    reduced = np.einsum(a.tensor(), row + col, out_axes)
    return LabeledOperator(reduced.reshape(dims.total, dims.total), dims)


def herm_eig(a: LabeledOperator | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    The input must be Hermitian within ``HERM_TOL``; it is symmetrized before
    the solve so the decomposition is exactly real.
    """
    m = a if isinstance(a, np.ndarray) else a.matrix
    lam, v = np.linalg.eigh(_hermitian(np.asarray(m, dtype=complex)))
    return lam[::-1].copy(), v[:, ::-1].copy()


def purify(rho: DensityOperator, purifier_label: str = "REF") -> PureState:
    """Purification with a purifier of dimension equal to ``rank(rho)``.

    The reduced state on the original labels reproduces ``rho`` (after clipping
    eigenvalues below ``RANK_REL_TOL * lambda_max``).
    """
    if purifier_label in rho.labels:
        raise ValueError(f"purifier label {purifier_label!r} collides with {rho.labels}")
    lam, v = herm_eig(rho)
    cut = RANK_REL_TOL * float(lam[0]) if lam.size else 0.0
    support = lam > cut
    lam = np.clip(lam[support], 0.0, None)
    lam /= lam.sum()
    vecs = v[:, support]
    rank = int(lam.size)
    # sum_i sqrt(lam_i) |v_i> ⊗ |i>, row-major with the purifier least significant
    amp = (vecs * np.sqrt(lam)).reshape(-1)
    dims = LabeledDims(list(rho.dims) + [(purifier_label, rank)])
    return PureState(amp, dims)


def identity(dims: LabeledDims | Iterable[tuple[str, int]]) -> LabeledOperator:
    dims = as_dims(dims)
    return LabeledOperator(np.eye(dims.total, dtype=complex), dims)


def trace_distance(a: LabeledOperator, b: LabeledOperator) -> float:
    """Half the trace norm of ``a - b`` after aligning label order."""
    if set(a.labels) != set(b.labels):
        raise ValueError(f"label sets differ: {a.labels} vs {b.labels}")
    diff = a.matrix - permute(b, a.labels).matrix
    lam = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.sum(np.abs(lam)))
