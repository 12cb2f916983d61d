"""Incremental knapsack with all-or-nothing submodular profits.

The pipeline: validate an instance, drop zero-profit singletons, restrict
each profit class to its minimum-weight greedy basis, hand the resulting
modular instance to any downstream solver, and return its chain unchanged.
"""

from .errors import (
    BadFamily,
    BadK,
    BudgetExceeded,
    ChainNotIndependent,
    InfeasibleChain,
    InfeasibleInternal,
    InvalidInstance,
    LimitsExceeded,
    NotDependent,
    NotSubcubic,
    OracleViolation,
    OverlappingClasses,
    SolverFailure,
    UnknownItemId,
)
from .generators import (
    FAMILIES,
    make_family_instance,
    make_graphic_classes_instance,
    make_matroid_rank_instance,
    make_modular_instance,
    make_partition_classes_instance,
    make_uniform_classes_instance,
)
from .hardness import (
    SubcubicGraph,
    VcReductionInstance,
    build_reduction,
    extract_cover,
    generate_subcubic,
    max_k_vertex_cover,
    read_edge_list,
    write_edge_list,
)
from .independence import (
    ClassBasis,
    IndependenceContext,
    check_matroid_exchange,
    find_cycle,
    greedy_matroid_chain,
    min_weight_basis,
    restrict_chain_to_basis,
)
from .instances import (
    Chain,
    Instance,
    Item,
    ProfitPartition,
    ensure_valid,
    is_feasible,
    preprocess_singletons,
    profit_partition,
    profit_phi,
    profit_phi_bar,
    suffix_coefficients,
    validate_instance,
)
from .modularize import (
    ModularizedInstance,
    SolveReport,
    VerificationReport,
    modularize,
    solve_ik_aon,
    verify_solution,
)
from .oracles import (
    AggregationOracle,
    Grower,
    MatroidSpec,
    check_aon_property,
    check_submodularity,
    coverage_oracle,
    grower_for,
    matroid_rank,
    matroid_rank_sum_oracle,
    modular_oracle,
    oracle_from_descriptor,
)
from .serialize import (
    chain_from_obj,
    chain_to_obj,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    report_to_obj,
    save_instance,
)
from .solvers import (
    SolveLimits,
    SolveResult,
    brute_force_chains,
    iter_feasible_chains,
    solve_exact,
    solve_heuristic,
)

__version__ = "0.1.0"
