"""Equilibrium transaction packaging under Poisson network latency.

Library layout:

- mempool:     the mempool as validated columns, game parameters, fixed mode's
               block rule, JSON ingestion
- equilibrium: closed-form marginals, clamp-threshold solver, profiles
- strategy:    explicit mixed strategies and block samplers
- fees:        endogenous base-fee bounds
- verify:      utilities, best responses, Nash verification oracles
- simulate:    Monte-Carlo latency-window experiments
- cli:         `txpack` command-line entry point
"""

from .equilibrium import (
    MarginalProfile,
    clamp_marginals,
    compute_phat_real,
    solve_equilibrium,
    solve_xhat,
)
from .errors import (
    InvariantViolation,
    MempoolFitsInBlock,
    RejectionBudgetExceeded,
    TxpackError,
    ValidationError,
    ZeroLatencyError,
)
from .fees import FeeBounds, base_fee
from .mempool import GameParams, Mempool, fixed_block_size, load_mempool
from .simulate import ExperimentReport, run_experiment
from .strategy import (
    Block,
    MixedStrategy,
    SegmentSampler,
    corresponding_strategy,
    rejection_sample_block,
    sample_block,
)
from .verify import (
    EquilibriumVerdict,
    UtilityReport,
    best_response,
    brute_force_check,
    expected_utility,
    greedy_profile,
    uniform_profile,
    verify_equilibrium,
)

__version__ = "0.1.0"
