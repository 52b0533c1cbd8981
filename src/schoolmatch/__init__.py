"""School-choice mechanism laboratory.

Four assignment mechanisms (student-proposing deferred acceptance, top
trading cycles, serial dictatorship, rank minimization), rank/envy/
Pareto metrics, closed-form reference values for uniform random
markets, and a seeded simulation harness with a CSV-emitting CLI.
"""

from schoolmatch.market import (
    UNASSIGNED,
    Allocation,
    Market,
    MarketFormatError,
    UndersuppliedMarketError,
    balance_capacities,
    effective_ranks,
    load_market,
    save_market,
    validate_allocation,
    validate_market,
)
from schoolmatch.assignment import (
    AssignmentResult,
    InfeasibleAssignmentError,
    min_cost_assignment,
)
from schoolmatch.mechanisms import (
    MECHANISMS,
    deferred_acceptance,
    random_serial_dictatorship,
    rank_minimizing,
    run_mechanism,
    serial_dictatorship,
    top_trading_cycles,
)
from schoolmatch.metrics import (
    ParetoCheck,
    RankStats,
    is_pareto_optimal,
    justified_envy,
    rank_stats,
    threshold_shares,
)
from schoolmatch.simulate import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    Manipulation,
    MechanismSummary,
    apply_manipulation,
    derive_seed,
    generate_uniform_market,
    run_experiment,
)
from schoolmatch import theory

__version__ = "0.1.0"
