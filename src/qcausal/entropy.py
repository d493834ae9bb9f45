"""Spectral entropies of labeled states: von Neumann, Renyi, min and max.

All logarithms are base 2.  Every quantity is computed from eigenvalues;
values below ``EIG_FLOOR`` are treated as exact zeros before any logarithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .labeled import PSD_TOL, RANK_REL_TOL, DensityOperator
# not called here: bench/test_bench.py checks that the counting shim rebinds
# this module's copy of a function imported from .labeled
from .labeled import partial_trace  # noqa: F401

EIG_FLOOR = 1e-12
RENYI_VN_EPS = 1e-6  # |alpha - 1| below this dispatches to von Neumann


@dataclass(frozen=True)
class EntropySpec:
    """Selects an entropy family; ``alpha`` is used by the Renyi family only.

    ``validated`` is True when the family is covered by the monotonicity
    argument behind the causal-order bounds: von Neumann, Renyi with
    ``alpha ∈ [1/2, 1) ∪ (1, ∞)``, min, and max.  The max-entropy case rests on
    an external citation and is flagged as such by the witness reports.
    """

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
    def validated(self) -> bool:
        if self.kind != "renyi":
            return True
        return self.alpha >= 0.5

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


def _clean_spectrum(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    low = float(lam.min()) if lam.size else 0.0
    if low < -PSD_TOL:
        raise ValueError(f"spectrum has eigenvalue {low:.3e} below -{PSD_TOL}")
    lam = np.clip(lam, 0.0, None)
    return lam


def entropy_from_spectrum(lam: Sequence[float] | np.ndarray,
                          spec: EntropySpec = VON_NEUMANN) -> float:
    """Entropy of a (sub)normalized spectrum under the chosen family."""
    lam = _clean_spectrum(np.asarray(lam))
    support = lam[lam > EIG_FLOOR]
    if support.size == 0:
        raise ValueError("spectrum has no weight above the eigenvalue floor")
    if spec.kind == "renyi" and abs(spec.alpha - 1.0) <= RENYI_VN_EPS:
        spec = VON_NEUMANN
    if spec.kind == "renyi" and math.isinf(spec.alpha):
        spec = MIN_ENTROPY
    if spec.kind == "von_neumann":
        return float(-np.sum(support * np.log2(support)))
    if spec.kind == "renyi":
        a = spec.alpha
        with np.errstate(over="ignore"):
            power_sum = np.sum(support ** a)
        if np.finfo(float).tiny <= power_sum < math.inf:
            return float(np.log2(power_sum) / (1.0 - a))
        # at large alpha the direct sum under- or overflows; factor out
        # lam_max so that the remaining sum lies in [1, rank]
        top = support.max()
        return float(a / (1.0 - a) * np.log2(top)
                     + np.log2(np.sum((support / top) ** a)) / (1.0 - a))
    if spec.kind == "min":
        return float(-np.log2(support.max()))
    # max-entropy: log2 of the rank
    rank = int(np.sum(lam > RANK_REL_TOL * lam.max()))
    return float(np.log2(rank))


def entropy(rho: DensityOperator, subsystem: Sequence[str] | None = None,
            spec: EntropySpec = VON_NEUMANN) -> float:
    """Entropy of the state ``rho``, or of its marginal on ``subsystem`` if given.

    Each marginal is decomposed once and served from the state's memo of
    spectra in every family; each entropy is computed once per label set and
    family, and a repeat, in any label order, returns the same float.
    """
    if not isinstance(rho, DensityOperator):
        raise TypeError(f"entropy needs a DensityOperator, got {type(rho).__name__}")
    key = (frozenset(rho.labels if subsystem is None else subsystem), spec)
    value = rho._entropies.get(key)
    if value is None:
        value = rho._entropies[key] = entropy_from_spectrum(rho.spectrum(subsystem), spec)
    return value


def ssa_gap(rho: DensityOperator,
            x: Sequence[str], y: Sequence[str], z: Sequence[str]) -> float:
    """Strong-subadditivity gap ``H(XY) + H(YZ) - H(XYZ) - H(Y)`` (von Neumann)."""
    x, y, z = list(x), list(y), list(z)
    groups = x + y + z
    if len(set(groups)) != len(groups):
        raise ValueError(f"x={x}, y={y}, z={z} must be pairwise disjoint")
    return (entropy(rho, x + y) + entropy(rho, y + z)
            - entropy(rho, groups) - (entropy(rho, y) if y else 0.0))
