"""Entropic witnesses of causal order for quantum processes.

Labeled tensor algebra, channels and combs, entropy families, process
matrices with two independent interventional-state backends, data-processing
and marginal witnesses, and randomized verification campaigns.
"""
from .labeled import (
    HERM_TOL,
    PSD_TOL,
    RECON_TOL,
    TRACE_TOL,
    DensityOperator,
    LabeledDims,
    LabeledOperator,
    PureState,
    as_dims,
    herm_eig,
    partial_trace,
    permute,
    purify,
    trace_distance,
)
from .channels import (
    KrausChannel,
    apply_channel,
    completely_factorizable,
    ensure_rng,
    haar_unitary,
    random_channel,
    random_density,
    random_pure,
)
from .entropy import (
    MAX_ENTROPY,
    MIN_ENTROPY,
    VON_NEUMANN,
    EntropySpec,
    entropy,
    entropy_from_spectrum,
    renyi,
    ssa_gap,
)
from .process import (
    FUTURE_MODES,
    ORDERS,
    SLOTS,
    TAU_LABELS,
    FixedOrderComb,
    InterventionalState,
    ProcessMatrix,
    PurifiedComb,
    SwitchSpec,
    as_fixed_order,
    comb_apply,
    interventional_state,
    process_matrix_of,
    purify_comb,
    switch_apply,
)
from .witness import (
    VERDICT_BEYOND,
    VERDICT_NONE,
    VERDICT_NOT_AB,
    VERDICT_NOT_BA,
    VIOLATION_TOL,
    WitnessReport,
    dp_witness,
    evaluate,
    is_violated,
    marginal_witnesses,
    verdict_token,
)
from .campaigns import (
    CAMPAIGNS,
    DEFAULT_TRIALS,
    RUNNERS,
    run_crosscheck,
    run_lemma1,
    run_lemma3,
    run_marginal_bounds,
    run_ssa,
    run_thm1,
    sample_fixed_order_comb,
    sample_purified_comb,
)

__version__ = "0.1.0"
