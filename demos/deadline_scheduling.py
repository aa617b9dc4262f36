"""Price a two-interval horizon where deadlines let work spill forward.

Both intervals have one unit of capacity.  Interval-1 jobs may finish in
interval 2, so their price solve sees the whole window and demands more
than one interval can hold; the schedule stage then defers the overflow
and nudges prices up just enough to keep everything schedulable.
"""

from cloudpricing import Instance, ResourceModel, UserType, UtilityParams
from cloudpricing.deadline import (
    IntervalDemandSpec,
    IntervalMarket,
    schedule_feasible,
    solve_horizon,
)


def unit_market(label: str) -> Instance:
    return Instance(
        resources=ResourceModel(names=("slots",), capacities=(1.0,)),
        user_types=(UserType(label, 1, (1.0,), UtilityParams(alpha=0.5, c=1.0)),),
        discount=1.0,
    )


spec = IntervalDemandSpec(
    horizon=2,
    intervals=(
        IntervalMarket(unit_market("earlybird"), deadlines=(2,), nu=0.0),
        IntervalMarket(unit_market("latecomer"), deadlines=(2,), nu=0.0),
    ),
)

print(f"schedule variables (type, submitted, processed): {spec.schedule_vars}")

result = solve_horizon(spec, 2.0)
print(f"price scale applied to restore schedulability: {result.price_scale:.6f}")
for s, plan in enumerate(result.plans, start=1):
    print(f"  interval {s} price: {plan.prices[0]:.6f}")
print("schedule:")
for (j, s, t), amount in sorted(result.schedule.amounts.items()):
    marker = "  (deferred)" if t > s else ""
    print(f"  type {j} submitted in {s}, processed in {t}: {amount:.4f}{marker}")
print(f"total revenue  {result.total_revenue:.4f}")
print(f"total fairness {result.total_fairness:.4f}")
print()

# The feasibility question on its own: 2 jobs, one slot per interval.
ok, witness = schedule_feasible([[2.0], [0.0]], spec)
print(f"can 2 jobs submitted in interval 1 meet a deadline of 2? {ok}")
print(f"  witness: {witness.amounts}")

immediate = IntervalDemandSpec(
    horizon=2,
    intervals=(
        IntervalMarket(unit_market("earlybird"), deadlines=(1,), nu=0.0),
        IntervalMarket(unit_market("latecomer"), deadlines=(2,), nu=0.0),
    ),
)
ok, certificate = schedule_feasible([[2.0], [0.0]], immediate)
print(f"same load with an immediate deadline? {ok}")
print(f"  certificate: {certificate}")
