"""Certification of processes beyond fixed causal order.

The data-processing witness compares the entropy of the full five-system
interventional state with the entropy of the subsystems that are already
fixed once the first party has acted.  For a process where A acts before B,

    DP_AB = H(A0 A1 B0 B1 F) - H(A0 A1 B0) >= log2(dim B1 / dim F),

because everything after the first slot is one trace-preserving channel from
``(B0, env)`` into ``(B0, B1, F)`` and such a channel cannot decrease entropy
by more than the log-dimension offset.  Mirrored for B before A.  A process
violating the bound for BOTH orders is beyond fixed causal order; violating
one order only excludes that order, and satisfying both is inconclusive.

The marginal witnesses trade tightness for locality: strong subadditivity
applied with the retained entangled partners ``(A1, B1)`` as the middle
system turns the DP witness into combinations of at-most-four-system
entropies.  Grouping ``(A0, B0) | (A1, B1) | F`` gives

    I1_AB = H(B1 | A0 A1 B0) + H(F | A1 B1) >= DP_AB,

and grouping ``(A0, F) | (A1, B1) | B0`` gives

    I2_AB = H(A0 A1 B1 F) + H(A1 B1 B0) - H(A1 B1) - H(A0 A1 B0) >= DP_AB,

both for every five-system state, so each inherits the DP bound on
fixed-order processes and certifies through the same dimension bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .labeled import DensityOperator
from .entropy import VON_NEUMANN, EntropySpec, entropy
from .process import TAU_LABELS, InterventionalState, _slots

# A witness counts as violated only when it undercuts its bound by more than
# this; keeps the exact endpoint equalities classified as satisfied.
VIOLATION_TOL = 1e-7

VERDICT_BEYOND = "BeyondFixedOrder"
"""Both orders violated: no fixed order, A before B or B before A, fits.

This does not rule out a convex mixture of fixed orders (a causally
separable process), so it is no certificate of indefinite causal order.
``upsilon1`` is such a mixture, ``W(λ) = λ W(1) + (1 - λ) W(0)``, and still
gets this verdict at every interior grid point."""
VERDICT_NOT_AB = "ExcludesOnlyAB"
VERDICT_NOT_BA = "ExcludesOnlyBA"
VERDICT_NONE = "Inconclusive"


def _as_tau(state: InterventionalState | DensityOperator) -> DensityOperator:
    if not isinstance(state, DensityOperator):
        raise TypeError(f"expected an interventional or five-system state, "
                        f"got {type(state).__name__}")
    if set(state.labels) != set(TAU_LABELS):
        raise ValueError(f"witnesses need the labels {TAU_LABELS}, got {state.labels}")
    return state


def _bound(tau: DensityOperator, y1: str) -> float:
    """``log2(dim y1 / dim F)``, with ``y1`` the second party's retained partner."""
    return math.log2(tau.dim(y1) / tau.dim("F"))


def dp_witness(state: InterventionalState | DensityOperator, order: str,
               spec: EntropySpec = VON_NEUMANN) -> tuple[float, float]:
    """Data-processing witness and its fixed-order bound for one order.

    Returns ``(value, bound)`` with ``value = H(all five) - H(x0 x1 y0)``,
    the first party's past, in the requested entropy family (an array over
    the stack axis for a stack of states) and ``bound = log2(dim y1 / dim F)``,
    where ``x0, x1, y0, y1 = SLOTS[order]``.  Every process with the given
    fixed order satisfies ``value >= bound``; ``value < bound`` excludes it.
    """
    x0, x1, y0, y1 = _slots(order)
    tau = _as_tau(state)
    value = entropy(tau, spec=spec) - entropy(tau, [x0, x1, y0], spec=spec)
    return value, _bound(tau, y1)


def marginal_witnesses(state: InterventionalState | DensityOperator,
                       order: str) -> tuple[float, float, float]:
    """Marginal witnesses ``(i1, i2, bound)`` for one order, in von Neumann
    entropy; ``i1`` and ``i2`` are arrays over the stack axis for a stack of
    states.

    Both quantities upper-bound the DP witness of the same order for every
    five-system state (strong subadditivity with the retained partners as the
    conditioning system), so on fixed-order processes they obey the same
    dimension bound, from at-most-four-system marginals.
    """
    x0, x1, y0, y1 = _slots(order)
    tau = _as_tau(state)
    h = lambda labels: entropy(tau, labels)
    h_pair = h(["A1", "B1"])
    h_past = h([x0, x1, y0])
    i1 = h(["A0", "A1", "B0", "B1"]) - h_past + h(["A1", "B1", "F"]) - h_pair
    i2 = h([x0, x1, y1, "F"]) + h(["A1", "B1", y0]) - h_pair - h_past
    return i1, i2, _bound(tau, y1)


def is_violated(value: float, bound: float) -> bool:
    return value < bound - VIOLATION_TOL


def verdict_token(violated_ab: bool, violated_ba: bool) -> str:
    if violated_ab and violated_ba:
        return VERDICT_BEYOND
    if violated_ab:
        return VERDICT_NOT_AB
    if violated_ba:
        return VERDICT_NOT_BA
    return VERDICT_NONE


@dataclass(frozen=True)
class WitnessReport:
    """Both-order witness values, violation flags, and the verdict.

    ``i1_*``/``i2_*`` are the von Neumann marginal witnesses, which
    :func:`evaluate` fills whatever the DP family; a report built by hand may
    leave them ``None``, which writes empty CSV cells.  A verdict of
    ``Inconclusive`` with a range warning means the entropy family sits
    outside the monotonicity-validated range and the raw values carry no
    certification weight.
    """
    tag: str
    family: EntropySpec
    dp_ab: float
    bound_ab: float
    dp_ba: float
    bound_ba: float
    violated_ab: bool
    violated_ba: bool
    verdict: str
    i1_ab: float | None = None
    i2_ab: float | None = None
    i1_ba: float | None = None
    i2_ba: float | None = None
    warnings: tuple[str, ...] = field(default=())


def evaluate(state: InterventionalState | DensityOperator,
             spec: EntropySpec = VON_NEUMANN,
             tag: str = "") -> WitnessReport | list[WitnessReport]:
    """Full witness report for a state: both orders, verdict, marginals.

    A stack of states gets a list with one report per slice, each equal to
    the report of that slice on its own.

    ``spec`` is the entropy family of the DP witness.  Every report carries
    the von Neumann marginal witnesses whatever that family: strong
    subadditivity derives them for von Neumann entropy only, and with them
    in every report the CSV columns do not depend on the family.
    """
    tau = _as_tau(state)
    dp_ab, bound_ab = dp_witness(tau, "AB", spec)
    dp_ba, bound_ba = dp_witness(tau, "BA", spec)
    warnings: list[str] = []
    if not spec.validated:
        warnings.append(
            f"entropy family {spec.label} is outside the validated range "
            f"(Renyi alpha >= 1/2); verdict withheld"
        )
    if spec.kind == "max":
        warnings.append(
            "max-entropy monotonicity is externally justified and not "
            "exercised by the property campaigns"
        )
    i1_ab, i2_ab, _ = marginal_witnesses(tau, "AB")
    i1_ba, i2_ba, _ = marginal_witnesses(tau, "BA")
    columns = [dp_ab, dp_ba, i1_ab, i2_ab, i1_ba, i2_ba]

    def report(dp_ab, dp_ba, i1_ab, i2_ab, i1_ba, i2_ba):
        violated_ab = is_violated(dp_ab, bound_ab)
        violated_ba = is_violated(dp_ba, bound_ba)
        verdict = verdict_token(violated_ab, violated_ba) if spec.validated else VERDICT_NONE
        return WitnessReport(
            tag=tag, family=spec,
            dp_ab=dp_ab, bound_ab=bound_ab, dp_ba=dp_ba, bound_ba=bound_ba,
            violated_ab=violated_ab, violated_ba=violated_ba, verdict=verdict,
            i1_ab=i1_ab, i2_ab=i2_ab, i1_ba=i1_ba, i2_ba=i2_ba,
            warnings=tuple(warnings),
        )

    if tau.matrix.ndim == 2:
        return report(*columns)
    return [report(*map(float, values)) for values in zip(*columns)]
