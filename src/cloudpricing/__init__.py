"""Multi-resource cloud pricing toolkit.

Models user demand under volume discounts, evaluates bundled / resource /
differentiated pricing plans, optimizes weighted fairness-revenue objectives
with a barrier method, extends pricing across deadline-constrained horizons,
and builds market instances from workload traces.
"""

from .demand import (
    DemandPoint,
    UtilityParams,
    demand_by_bisection,
    demand_point,
    demand_power_law,
    demand_sensitivity,
    net_utility,
    optimal_demand,
)
from .pricing import (
    BundledPlan,
    DifferentiatedPlan,
    Instance,
    Outcome,
    ResourceModel,
    ResourcePlan,
    UserType,
    bundle_requirement,
    dominant_info,
    evaluate,
    instance_from_json,
    instance_to_json,
    lift_resource_to_differentiated,
    load_instance,
    per_job_cost,
    save_instance,
)
from .fairness import (
    FairnessSpec,
    beta_fairness,
    beta_lambda_fairness,
    envy_free,
    equitability_efficiency_split,
    pareto_probe,
)
from .optimizer import (
    InfeasibleError,
    ObjectiveSpec,
    SolveResult,
    barrier_optimize,
    bundled_price_bisection,
    concavity_weight_bound,
    discount_line_search,
    grid_oracle,
    objective,
    tradeoff_bound_check,
)
from .deadline import (
    HorizonResult,
    IntervalDemandSpec,
    IntervalMarket,
    Schedule,
    horizon_spec_from_json,
    load_horizon_spec,
    schedule_feasible,
    solve_horizon,
)
from .trace import (
    ClusterModel,
    JobUsage,
    TaskRecord,
    aggregate_and_filter,
    build_instance,
    cluster_report,
    kmeans,
    parse_trace,
    trace_statistics,
)

__version__ = "0.1.0"
