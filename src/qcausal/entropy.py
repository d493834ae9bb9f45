"""Spectral entropies of labeled states: von Neumann, Renyi, min and max.

All logarithms are base 2.  Every quantity is computed from eigenvalues;
values below ``EIG_FLOOR`` are treated as exact zeros before any logarithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labeled import PSD_TOL, RANK_REL_TOL, TRACE_TOL, DensityOperator, _label_list
# not called here: bench/test_bench.py checks that the counting shim rebinds
# this module's copy of a function imported from .labeled
from .labeled import partial_trace  # noqa: F401

EIG_FLOOR = 1e-12
RENYI_VN_EPS = 1e-6  # |alpha - 1| below this dispatches to von Neumann
_TINY = np.finfo(float).tiny
_TOP_MAX = 1.0 + TRACE_TOL + PSD_TOL  # above any marginal of a validated state


@dataclass(frozen=True)
class EntropySpec:
    """Selects an entropy family; ``alpha`` is used by the Renyi family only."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("von_neumann", "renyi", "min", "max"):
            raise ValueError(f"unknown entropy family {self.kind!r}")
        if self.kind == "renyi":
            if self.alpha is None or not self.alpha > 0:
                raise ValueError(f"Renyi entropy needs alpha > 0, got {self.alpha!r}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} entropy takes no alpha")

    @property
    def label(self) -> str:
        if self.kind == "von_neumann":
            return "vn"
        if self.kind == "renyi":
            return f"renyi({self.alpha:g})"
        return self.kind


VON_NEUMANN = EntropySpec("von_neumann")
MIN_ENTROPY = EntropySpec("min")
MAX_ENTROPY = EntropySpec("max")


def renyi(alpha: float) -> EntropySpec:
    """Renyi-``alpha`` spec; ``alpha = +inf`` is the min-entropy."""
    if alpha == math.inf:
        return MIN_ENTROPY
    return EntropySpec("renyi", float(alpha))


def entropy_from_spectrum(lam: Sequence[float] | np.ndarray,
                          spec: EntropySpec = VON_NEUMANN) -> float | np.ndarray:
    """Entropy of a (sub)normalized spectrum under the chosen family: a float
    for one spectrum, one per row in one pass for a 2-D array of spectra.
    Rows are grouped by support size into arrays that keep each row's support
    in its order, so numpy's pairwise sum along the last axis adds the same
    terms in the same order as for the row alone: bit for bit.  A NaN
    eigenvalue, one below ``-PSD_TOL`` or one above ``1 + TRACE_TOL + PSD_TOL``
    raises ``ValueError``; in a stack, the first bad row raises its own error."""
    lam = np.asarray(lam, dtype=float)
    rows = lam if lam.ndim == 2 else lam.reshape(1, -1)
    low, top = rows.min(axis=1, initial=math.inf), rows.max(axis=1, initial=0.0)
    # written so that NaN fails it; a row has support iff top > EIG_FLOOR
    ok = (low >= -PSD_TOL) & (top > EIG_FLOOR) & (top <= _TOP_MAX)
    if not ok.all():
        i = ok.argmin()
        if not low[i] >= -PSD_TOL:
            raise ValueError(f"spectrum has eigenvalue {low[i]:.3e}, not at or above -{PSD_TOL}")
        raise ValueError("spectrum has no weight above the eigenvalue floor" if top[i] <= EIG_FLOOR
                         else f"spectrum has eigenvalue {top[i]:.12g} > 1 + TRACE_TOL + PSD_TOL")
    keep = rows > EIG_FLOOR
    a = spec.alpha
    if spec.kind == "min" or spec.kind == "renyi" and a == math.inf:
        h = -np.log2(top)
    elif spec.kind == "max":  # log2 of the rank
        h = np.log2((rows > RANK_REL_TOL * top[:, None]).sum(axis=1))
    elif spec.kind == "von_neumann" or abs(a - 1.0) <= RENYI_VN_EPS:
        h = -_row_sums(lambda s: s * np.log2(s), rows, keep)
    else:
        with np.errstate(over="ignore"):
            power_sum = _row_sums(lambda s: s ** a, rows, keep)
        if all(_TINY <= p < math.inf for p in power_sum.tolist()):
            h = np.log2(power_sum) / (1.0 - a)
        else:
            # at large alpha the direct sum under- or overflows; factor out
            # lam_max so that the remaining sum lies in [1, rank]
            far = (power_sum < _TINY) | (power_sum == math.inf)
            scaled = _row_sums(lambda s: s ** a, rows / top[:, None], keep)
            h = np.where(far, a / (1.0 - a) * np.log2(top) + np.log2(scaled) / (1.0 - a),
                         np.log2(np.where(far, 1.0, power_sum)) / (1.0 - a))
    return h if lam.ndim == 2 else float(h[0])


def _row_sums(term, rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum of ``term`` over each row's support ``rows[i][keep[i]]``, one pass per size."""
    size = keep.sum(axis=1)
    out = np.empty(len(rows))
    for k in set(size.tolist()):
        at = size == k
        out[at] = term(rows[at][keep[at]].reshape(-1, k)).sum(axis=1)
    return out


def entropy(rho: DensityOperator, subsystem: Sequence[str] | None = None,
            spec: EntropySpec = VON_NEUMANN):
    """Entropy of the state ``rho``, or of its marginal on ``subsystem`` if given.

    A float for a single state; for a stack of states, an array with one
    entropy per slice, from one :func:`entropy_from_spectrum` pass over the
    stack's spectra: each slice's own float, bit for bit.  The spectrum
    comes from the state's memo, so each marginal is decomposed once and
    shared by every entropy family.
    """
    if not isinstance(rho, DensityOperator):
        raise TypeError(f"entropy needs a DensityOperator, got {type(rho).__name__}")
    return entropy_from_spectrum(rho.spectrum(subsystem), spec)


def ssa_gap(rho: DensityOperator,
            x: Sequence[str], y: Sequence[str], z: Sequence[str]) -> float:
    """Strong-subadditivity gap ``H(XY) + H(YZ) - H(XYZ) - H(Y)`` (von Neumann)
    of pairwise disjoint label lists; a bare string raises ``TypeError``."""
    x, y, z = _label_list(x), _label_list(y), _label_list(z)
    groups = x + y + z
    if len(set(groups)) != len(groups):
        raise ValueError(f"x={x}, y={y}, z={z} must be pairwise disjoint")
    return (entropy(rho, x + y) + entropy(rho, y + z)
            - entropy(rho, groups) - (entropy(rho, y) if y else 0.0))
