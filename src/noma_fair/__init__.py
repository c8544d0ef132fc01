"""Alpha-fair power allocation for 2-user downlink NOMA under imperfect SIC.

Library layout:

* :mod:`noma_fair.rates`     the Strategy enum, closed-form OMA/NOMA SINRs and rates
* :mod:`noma_fair.bounds`    power-split bounds, pairing criterion, beta*
* :mod:`noma_fair.fairness`  alpha-fair utility and throughput metric
* :mod:`noma_fair.allocator` every strategy's decision and the DECISIONS table
* :mod:`noma_fair.pairing`   candidate matching
* :mod:`noma_fair.netsim`    Poisson cellular Monte Carlo harness
* :mod:`noma_fair.report`    CSV/JSON artifact emission
* :mod:`noma_fair.cli`       the ``noma-fair`` command
"""

__version__ = "0.1.0"

from .allocator import (
    AllocationDecision,
    DecisionDiagnostics,
    DecisionMode,
    allocate_fixed_bound,
    solve_optimal,
    solve_suboptimal,
)
from .bounds import (
    AllocationBounds,
    PairingCriterion,
    allocation_bounds,
    beta_star,
    delta_lower_bound,
    delta_upper_bound,
    msd_threshold,
    pairing_criterion,
)
from .fairness import FairnessConfig, alpha_throughput, utility
from .netsim import (
    NetworkConfig,
    PathlossModel,
    TrialMetrics,
    compute_sinrs,
    drop_network,
    run_campaign,
    run_trial,
)
from .pairing import UserChannel
from .rates import (
    PairLink,
    PowerAllocation,
    Strategy,
    db_to_linear,
    linear_to_db,
    noma_rates,
    noma_sinrs,
    oma_rate,
)
from .report import ResultRow, emit_campaign_csv, emit_campaign_json, emit_delta_sweep

__all__ = [
    "__version__",
    "AllocationBounds",
    "AllocationDecision",
    "DecisionDiagnostics",
    "DecisionMode",
    "FairnessConfig",
    "NetworkConfig",
    "PairLink",
    "PairingCriterion",
    "PathlossModel",
    "PowerAllocation",
    "ResultRow",
    "Strategy",
    "TrialMetrics",
    "UserChannel",
    "allocate_fixed_bound",
    "allocation_bounds",
    "alpha_throughput",
    "beta_star",
    "compute_sinrs",
    "db_to_linear",
    "delta_lower_bound",
    "delta_upper_bound",
    "drop_network",
    "emit_campaign_csv",
    "emit_campaign_json",
    "emit_delta_sweep",
    "linear_to_db",
    "msd_threshold",
    "noma_rates",
    "noma_sinrs",
    "oma_rate",
    "pairing_criterion",
    "run_campaign",
    "run_trial",
    "solve_optimal",
    "solve_suboptimal",
    "utility",
]
