"""Multi-interval pricing with job deadlines.

Over a horizon of ``T`` intervals, each interval has its own market (user
types, requirements, weights) and the operator posts per-interval prices.
Jobs submitted in interval ``s`` carry a deadline ``tau`` and may be
processed in any mix of intervals ``s..tau``; work is divisible, so a
schedule assigns nonnegative masses ``x[(j, s, t)]`` meeting each cohort's
demand without exceeding any interval's capacities.

Revenue and fairness depend only on the posted prices (jobs are billed at
submission-time prices), so the horizon problem splits into independent
per-interval price optimizations plus a scheduling feasibility check,
solved here as a phase-one linear program.  When the stage-wise optimal
demands cannot be scheduled, prices are scaled up uniformly by the smallest
factor restoring feasibility.

Work is shared where the numbers repeat.  Intervals whose stage-one markets
agree in every number that drives the price solve (capacities after window
relaxation, requirements, counts, utility parameters, discount and revenue
weight; labels do not count) share one ``barrier_optimize`` call, and each
bisection probe evaluates such a group's demand once.  The schedule LP's
matrices are assembled once per horizon from numpy index arrays and kept on
the :class:`IntervalDemandSpec`; each probe changes only the cohort
right-hand sides.  A cohort counts as delivered when its shortfall is at
most ``1e-9 * max(1, demand)`` (:data:`cloudpricing.simplex.FEASIBILITY_RTOL`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fairness import beta_fairness
from .optimizer import (
    InfeasibleError,
    ObjectiveSpec,
    SolveResult,
    SolverConfig,
    barrier_optimize,
    concavity_weight_bound,
)
from .pricing import Instance, ResourceModel, ResourcePlan, evaluate
from .simplex import FEASIBILITY_RTOL, phase_one

__all__ = [
    "IntervalMarket",
    "IntervalDemandSpec",
    "HorizonProgram",
    "Schedule",
    "InfeasibilityCertificate",
    "HorizonResult",
    "build_program",
    "schedule_feasible",
    "solve_horizon",
    "horizon_spec_from_json",
    "load_horizon_spec",
]


@dataclass(frozen=True, eq=False)
class IntervalMarket:
    """One interval's market, per-type deadlines, and revenue weight.

    ``deadlines[j]`` is the last interval (1-based, inclusive) in which jobs
    of type ``j`` submitted here may still be processed.
    """

    instance: Instance
    deadlines: tuple[int, ...]
    nu: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "deadlines", tuple(int(d) for d in self.deadlines))
        if len(self.deadlines) != self.instance.n:
            raise ValueError(
                f"expected {self.instance.n} deadlines (one per user type), "
                f"got {len(self.deadlines)}"
            )
        if self.nu < 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")


@dataclass(frozen=True, eq=False)
class IntervalDemandSpec:
    """A full horizon: one market description per interval."""

    horizon: int
    intervals: tuple[IntervalMarket, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if self.horizon < 1 or len(self.intervals) != self.horizon:
            raise ValueError(
                f"horizon {self.horizon} must be positive and match the "
                f"{len(self.intervals)} interval descriptions"
            )
        names = self.intervals[0].instance.resources.names
        for s, interval in enumerate(self.intervals, start=1):
            if interval.instance.resources.names != names:
                raise ValueError(f"interval {s}: resource names differ from interval 1")
            for j, tau in enumerate(interval.deadlines):
                if not (s <= tau <= self.horizon):
                    label = interval.instance.user_types[j].label
                    raise ValueError(
                        f"interval {s}, type '{label}': deadline {tau} outside "
                        f"[{s}, {self.horizon}]"
                    )

    @cached_property
    def _schedule_lp(self) -> _ScheduleLP:
        return _ScheduleLP(self)


@dataclass(frozen=True, eq=False)
class HorizonProgram:
    """The joint program: per-interval price variables plus schedule variables.

    ``schedule_vars`` enumerates the schedule unknowns as (type index,
    submission interval, processing interval) triples, both intervals
    1-based.  The objective is the weighted per-interval sum
    ``sum_s nu(s) * revenue_s + fairness_s``; capacity couples intervals only
    through the schedule variables.
    """

    spec: IntervalDemandSpec
    beta: float
    schedule_vars: tuple[tuple[int, int, int], ...]

    @property
    def variable_count(self) -> int:
        return len(self.schedule_vars)

    def interval_objectives(self) -> tuple[ObjectiveSpec, ...]:
        return tuple(
            ObjectiveSpec(nu=interval.nu, beta=self.beta) for interval in self.spec.intervals
        )

    def total_objective(self, outcomes) -> float:
        """Weighted objective of per-interval outcomes (prices already chosen)."""
        total = 0.0
        for interval, outcome in zip(self.spec.intervals, outcomes):
            fairness = beta_fairness(
                outcome.net_utilities, self.beta, weights=interval.instance.counts
            )
            total += interval.nu * outcome.revenue + fairness
        return total


@dataclass(frozen=True, eq=False)
class Schedule:
    """Nonnegative processing masses keyed by (type, submitted, processed)."""

    amounts: dict[tuple[int, int, int], float]

    def delivered(self, type_index: int, submitted: int) -> float:
        return sum(
            v for (j, s, _t), v in self.amounts.items() if j == type_index and s == submitted
        )

    def interval_usage(self, spec: IntervalDemandSpec, t: int) -> np.ndarray:
        """Physical usage in interval ``t`` implied by the schedule."""
        m = spec.intervals[0].instance.m
        usage = np.zeros(m)
        for (j, s, when), value in self.amounts.items():
            if when == t:
                usage += spec.intervals[s - 1].instance.user_types[j].requirements * value
        return usage


@dataclass(frozen=True, eq=False)
class InfeasibilityCertificate:
    """Human-readable description of why no schedule exists."""

    violations: tuple[str, ...]

    def __str__(self) -> str:
        return "; ".join(self.violations)


@dataclass(frozen=True, eq=False)
class HorizonResult:
    plans: tuple[ResourcePlan, ...]
    interval_results: tuple[SolveResult, ...]
    schedule: Schedule
    total_revenue: float
    total_fairness: float
    price_scale: float
    feasible: bool


def _schedule_variables(spec: IntervalDemandSpec) -> tuple[tuple[int, int, int], ...]:
    variables: list[tuple[int, int, int]] = []
    for s, interval in enumerate(spec.intervals, start=1):
        for j, tau in enumerate(interval.deadlines):
            for t in range(s, tau + 1):
                variables.append((j, s, t))
    return tuple(variables)


def build_program(spec: IntervalDemandSpec, beta: float) -> HorizonProgram:
    """Assemble the horizon program and enumerate its schedule variables.

    Warns when an interval's revenue weight exceeds the concavity
    certificate for that interval's market (the joint problem is then not
    certified convex).
    """
    if not beta > 0.0 or beta == 1.0:
        raise ValueError(f"beta must be positive and != 1, got {beta}")
    for s, interval in enumerate(spec.intervals, start=1):
        if beta > 1.0 and interval.nu > 0.0:
            certified = concavity_weight_bound(interval.instance, beta)
            if interval.nu > certified:
                warnings.warn(
                    f"interval {s}: revenue weight {interval.nu} exceeds the concavity "
                    f"certificate {certified:.3g}; joint convexity is not guaranteed",
                    stacklevel=2,
                )
    return HorizonProgram(spec=spec, beta=beta, schedule_vars=_schedule_variables(spec))


def _demand_windows(spec: IntervalDemandSpec):
    """All (type, submitted) cohorts with their processing windows."""
    for s, interval in enumerate(spec.intervals, start=1):
        for j, tau in enumerate(interval.deadlines):
            yield j, s, tau, interval


class _ScheduleLP:
    """The schedule feasibility LP of one horizon, assembled once.

    Columns are the schedule variables in ``_schedule_variables`` order; the
    >= rows are the cohorts in (submitted, type) order and the <= rows the
    (interval, resource) capacities.  Only the cohort right-hand sides
    depend on the demands.
    """

    def __init__(self, spec: IntervalDemandSpec) -> None:
        self.variables = _schedule_variables(spec)
        windows = tuple(_demand_windows(spec))
        self.cohorts = tuple((j, s, tau) for j, s, tau, _ in windows)
        self.labels = tuple(interval.instance.user_types[j].label for j, _, _, interval in windows)
        self.m = m = spec.intervals[0].instance.m
        self.names = spec.intervals[0].instance.resources.names
        columns = np.arange(len(self.variables))
        cohort_of = np.repeat(np.arange(len(windows)), [tau - s + 1 for _, s, tau, _ in windows])
        processed = np.array([t for _, _, t in self.variables])
        # per-job requirements of each cohort, (cohort, resource)
        requirements = np.vstack(
            [interval.instance.requirement_matrix.T for interval in spec.intervals]
        )
        self.A_ge = np.zeros((len(windows), columns.size))
        self.A_ge[cohort_of, columns] = 1.0
        self.A_le = np.zeros((spec.horizon * m, columns.size))
        capacity_rows = (processed - 1)[:, None] * m + np.arange(m)
        self.A_le[capacity_rows, columns[:, None]] = requirements[cohort_of]
        self.b_le = np.concatenate(
            [interval.instance.resources.capacities for interval in spec.intervals]
        )

    def solve(self, demands) -> tuple[bool, Schedule | InfeasibilityCertificate]:
        b_ge = np.concatenate(demands)
        result = phase_one(self.A_ge, b_ge, self.A_le, self.b_le)
        if result.feasible:
            positive = np.flatnonzero(result.x > 0.0)
            amounts = {self.variables[k]: float(result.x[k]) for k in positive}
            return True, Schedule(amounts=amounts)

        headroom = self.b_le - self.A_le @ result.x  # per (t, i) row
        saturated = headroom <= 1e-9 * np.maximum(1.0, self.b_le)
        unmet = result.ge_violations > FEASIBILITY_RTOL * np.maximum(1.0, b_ge)
        violations = []
        for k in np.flatnonzero(unmet):
            _, s, tau = self.cohorts[k]
            violations.append(
                f"type '{self.labels[k]}' submitted in interval {s} misses deadline {tau} "
                f"by {result.ge_violations[k]:.6g} jobs"
            )
            for row in np.flatnonzero(saturated[(s - 1) * self.m : tau * self.m]):
                t, i = divmod(int(row), self.m)
                violations.append(
                    f"interval {s + t}: resource '{self.names[i]}' capacity saturated"
                )
        return False, InfeasibilityCertificate(violations=tuple(dict.fromkeys(violations)))


def schedule_feasible(
    demands, spec: IntervalDemandSpec
) -> tuple[bool, Schedule | InfeasibilityCertificate]:
    """Can the demanded job masses be scheduled within deadlines and capacity?

    ``demands[s-1][j]`` is the total demanded mass (jobs times population)
    of type ``j`` submitted in interval ``s``.  Returns a witness schedule
    when feasible; otherwise a certificate naming the unmet cohorts and the
    saturated interval capacities inside their windows.  The LP's matrices
    are built on the first call for ``spec`` and reused after.
    """
    demands = [np.asarray(row, dtype=float).reshape(-1) for row in demands]
    if len(demands) != spec.horizon:
        raise ValueError(f"expected {spec.horizon} demand rows, got {len(demands)}")
    for s, interval in enumerate(spec.intervals, start=1):
        if demands[s - 1].size != interval.instance.n:
            raise ValueError(f"interval {s}: expected {interval.instance.n} demands")
        if np.any(demands[s - 1] < 0.0):
            raise ValueError(f"interval {s}: demands must be nonnegative")
    return spec._schedule_lp.solve(demands)


def _window_relaxed(interval: IntervalMarket, s: int) -> Instance:
    """Interval market with capacity relaxed by its deadline window.

    A cohort submitted in interval ``s`` with deadline ``tau`` may draw on
    every interval in ``[s, tau]``, so the stage-one price solve sees
    ``window`` times the per-interval capacity (the smallest window over the
    interval's types, staying conservative when deadlines differ).  The
    schedule stage restores physical per-interval limits.
    """
    window = min(interval.deadlines) - s + 1
    if window == 1:
        return interval.instance
    resources = interval.instance.resources
    relaxed = ResourceModel(
        names=resources.names, capacities=resources.capacities * window
    )
    return Instance(
        resources=relaxed,
        user_types=interval.instance.user_types,
        discount=interval.instance.discount,
    )


def _stage_one_key(market: Instance, nu: float) -> tuple:
    """The numbers that drive a stage-one price solve; labels do not count."""
    return (
        market.resources.capacities.tobytes(),
        market.requirement_matrix.tobytes(),
        market.counts.tobytes(),
        tuple((user.utility.alpha, user.utility.c) for user in market.user_types),
        market.discount,
        nu,
    )


def _stage_demands(spec: IntervalDemandSpec, plans, keys, scale: float):
    """Total demanded masses per cohort at uniformly scaled prices.

    Intervals with equal stage-one keys share one plan and one demand curve,
    so each key is evaluated once.
    """
    masses: dict[tuple, np.ndarray] = {}
    rows = []
    for key, interval, plan in zip(keys, spec.intervals, plans):
        if key not in masses:
            outcome = evaluate(interval.instance, ResourcePlan(prices=plan.prices * scale))
            masses[key] = interval.instance.counts * outcome.demands
        rows.append(masses[key])
    return rows


def solve_horizon(program: HorizonProgram, config: SolverConfig | None = None) -> HorizonResult:
    """Optimize per-interval prices, then certify or repair schedulability.

    Stage one solves each interval's price problem independently (revenue
    and fairness depend only on prices), once per distinct stage-one market.
    Stage two checks the resulting demands against the deadline/capacity
    system; if unschedulable, all prices are scaled up by the smallest
    uniform factor (bisection to 1e-6 relative) that restores feasibility,
    re-verifying after each probe.
    """
    spec = program.spec
    markets = [_window_relaxed(interval, s) for s, interval in enumerate(spec.intervals, start=1)]
    keys = [_stage_one_key(mk, interval.nu) for mk, interval in zip(markets, spec.intervals)]
    solved: dict[tuple, SolveResult] = {}
    for key, market, obj_spec in zip(keys, markets, program.interval_objectives()):
        if key not in solved:
            solved[key] = barrier_optimize(market, "resource", obj_spec, config)
    interval_results = tuple(solved[key] for key in keys)
    plans = tuple(result.plan for result in interval_results)

    feasible, witness = schedule_feasible(_stage_demands(spec, plans, keys, 1.0), spec)
    scale = 1.0
    if not feasible:
        lo, hi = 1.0, 2.0
        for _ in range(60):
            ok, candidate = schedule_feasible(_stage_demands(spec, plans, keys, hi), spec)
            if ok:
                witness = candidate
                break
            lo = hi
            hi *= 2.0
        else:
            raise InfeasibleError(f"no finite price scaling yields a schedule: {witness}")
        while hi - lo > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            ok, candidate = schedule_feasible(_stage_demands(spec, plans, keys, mid), spec)
            if ok:
                hi, witness = mid, candidate
            else:
                lo = mid
        scale = hi
        plans = tuple(ResourcePlan(prices=p.prices * scale) for p in plans)

    outcomes = [evaluate(interval.instance, plan) for interval, plan in zip(spec.intervals, plans)]
    total_revenue = float(sum(outcome.revenue for outcome in outcomes))
    total_fairness = float(
        sum(
            beta_fairness(outcome.net_utilities, program.beta, weights=interval.instance.counts)
            for interval, outcome in zip(spec.intervals, outcomes)
        )
    )
    return HorizonResult(
        plans=plans,
        interval_results=interval_results,
        schedule=witness,
        total_revenue=total_revenue,
        total_fairness=total_fairness,
        price_scale=scale,
        feasible=True,
    )


# ---------------------------------------------------------------------------
# JSON interface


def horizon_spec_from_json(obj: dict) -> IntervalDemandSpec:
    """Parse {"horizon": T, "intervals": [{"instance", "deadlines", "nu"}...]}."""
    from .pricing import instance_from_json

    if not isinstance(obj, dict):
        raise ValueError("horizon spec: expected a JSON object")
    if "horizon" not in obj or "intervals" not in obj:
        raise ValueError("horizon spec: missing 'horizon' or 'intervals'")
    horizon = obj["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon: expected a positive integer, got {horizon!r}")
    raw_intervals = obj["intervals"]
    if not isinstance(raw_intervals, list):
        raise ValueError("intervals: expected a list")
    intervals = []
    for s, raw in enumerate(raw_intervals, start=1):
        path = f"intervals[{s - 1}]"
        if not isinstance(raw, dict) or "instance" not in raw or "deadlines" not in raw:
            raise ValueError(f"{path}: expected an object with 'instance' and 'deadlines'")
        try:
            instance = instance_from_json(raw["instance"])
        except ValueError as err:
            raise ValueError(f"{path}.{err}") from None
        deadlines = raw["deadlines"]
        if not isinstance(deadlines, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in deadlines
        ):
            raise ValueError(f"{path}.deadlines: expected a list of integers")
        nu = raw.get("nu", 0.0)
        if isinstance(nu, bool) or not isinstance(nu, (int, float)):
            raise ValueError(f"{path}.nu: expected a number, got {nu!r}")
        intervals.append(
            IntervalMarket(instance=instance, deadlines=tuple(deadlines), nu=float(nu))
        )
    return IntervalDemandSpec(horizon=horizon, intervals=tuple(intervals))


def load_horizon_spec(path) -> IntervalDemandSpec:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return horizon_spec_from_json(json.load(fh))
