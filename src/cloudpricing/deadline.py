"""Multi-interval pricing with job deadlines.

Over a horizon of ``T`` intervals, each interval has its own market (user
types, requirements, weights) and the operator posts per-interval prices.
Jobs submitted in interval ``s`` carry a deadline ``tau`` and may be
processed in any mix of intervals ``s..tau``; work is divisible, so a
schedule assigns nonnegative masses ``x[(j, s, t)]`` meeting each cohort's
demand without exceeding any interval's capacities.

Revenue and fairness depend only on the posted prices (jobs are billed at
submission-time prices), so the horizon problem splits into independent
per-interval price optimizations plus a schedulability repair.  Demand is
isoelastic, so at prices scaled by ``sigma = 1 / v`` cohort ``c`` demands
``d_c * v**p_c`` with ``p_c >= 1``, and the smallest schedulable scale is
the convex program

    max v  s.t.  A_ge x >= d * v**p,  A_le x <= b_le,  x >= 0

(cohort rows ``A_ge``, interval capacity rows ``A_le``).  One log barrier,
followed along its central path by the price solver's own barrier loop and
damped Newton, solves it to a relative gap of ``REPAIR_RTOL`` (1e-9); the
same program with every ``p_c = 1`` is a max-concurrent flow and answers
:func:`schedule_feasible`.  Barrier iterates are strictly feasible, so the
final one is a schedule that respects every capacity exactly.

Work is shared where the numbers repeat.  Intervals whose stage-one markets
agree in every number that drives the price solve (capacities after window
relaxation, requirements, counts, utility parameters, discount and revenue
weight; labels do not count) share one ``barrier_optimize`` call, and each
such call warm-starts from the last converged stage-one optimum.  The
schedule constraints are assembled once per horizon from numpy index
arrays and kept on the :class:`IntervalDemandSpec`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fairness import _check_beta, beta_fairness
from .optimizer import (
    ObjectiveSpec,
    SolveResult,
    _barrier_path,
    barrier_optimize,
    concavity_weight_bound,
)
from .pricing import Instance, ResourceModel, ResourcePlan, evaluate

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

#: relative tolerance of the schedule repair: its barrier gap on ``v``, the
#: verdict of :func:`schedule_feasible` and the smallest price scale posted
REPAIR_RTOL = 1e-9
#: barrier-weight rounds the repair may take before it is reported unconverged
REPAIR_ROUNDS = 40


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
                f"deadlines: expected {self.instance.n} (one per user type), "
                f"got {len(self.deadlines)}"
            )
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")


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
    def _schedule_system(self) -> _ScheduleSystem:
        return _ScheduleSystem(self)


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
    converged: bool


def _schedule_variables(spec: IntervalDemandSpec) -> tuple[tuple[int, int, int], ...]:
    variables: list[tuple[int, int, int]] = []
    for s, interval in enumerate(spec.intervals, start=1):
        for j, tau in enumerate(interval.deadlines):
            for t in range(s, tau + 1):
                variables.append((j, s, t))
    return tuple(variables)


def build_program(spec: IntervalDemandSpec, beta: float) -> HorizonProgram:
    """Assemble the horizon program and enumerate its schedule variables.

    Warns once, naming every interval whose revenue weight exceeds the
    concavity certificate for its market (the joint problem is then not
    certified convex).
    """
    _check_beta(beta)
    above = []
    for s, interval in enumerate(spec.intervals, start=1):
        if beta > 1.0 and interval.nu > 0.0:
            certified = concavity_weight_bound(interval.instance, beta)
            if interval.nu > certified:
                above.append(
                    f"interval {s}: revenue weight {interval.nu} exceeds the concavity "
                    f"certificate {certified:.3g}"
                )
    if above:
        warnings.warn(f"{'; '.join(above)}; joint convexity is not guaranteed", stacklevel=2)
    return HorizonProgram(spec=spec, beta=beta, schedule_vars=_schedule_variables(spec))


def _demand_windows(spec: IntervalDemandSpec):
    """All (type, submitted) cohorts with their processing windows."""
    for s, interval in enumerate(spec.intervals, start=1):
        for j, tau in enumerate(interval.deadlines):
            yield j, s, tau, interval


class _ScheduleSystem:
    """The schedule constraints of one horizon, assembled once.

    Columns are the schedule variables in ``_schedule_variables`` order;
    cohorts run in (submitted, type) order and capacity rows in (interval,
    resource) order.  Each column delivers to one cohort and draws its
    cohort's requirements from the capacity rows of one interval.
    """

    def __init__(self, spec: IntervalDemandSpec) -> None:
        self.variables = _schedule_variables(spec)
        windows = tuple(_demand_windows(spec))
        self.cohorts = tuple((j, s, tau) for j, s, tau, _ in windows)
        self.labels = tuple(interval.instance.user_types[j].label for j, _, _, interval in windows)
        self.m = m = spec.intervals[0].instance.m
        self.names = spec.intervals[0].instance.resources.names
        columns = np.arange(len(self.variables))
        self.cohort_of = np.repeat(
            np.arange(len(windows)), [tau - s + 1 for _, s, tau, _ in windows]
        )
        processed = np.array([t for _, _, t in self.variables])
        # per-job requirements of each cohort, (cohort, resource)
        requirements = np.vstack(
            [interval.instance.requirement_matrix.T for interval in spec.intervals]
        )
        self.requirements = requirements[self.cohort_of]  # (column, resource)
        self.capacity_rows = (processed - 1)[:, None] * m + np.arange(m)
        self.A_le = np.zeros((spec.horizon * m, columns.size))
        self.A_le[self.capacity_rows, columns[:, None]] = self.requirements
        self.b_le = np.concatenate(
            [interval.instance.resources.capacities for interval in spec.intervals]
        )
        #: each cohort's demand exponent ``p = -e`` in the price scale
        self.powers = np.concatenate(
            [-interval.instance.utility_kernel().e for interval in spec.intervals]
        )

    def max_scale(self, demands: np.ndarray, powers: np.ndarray) -> _Repair:
        """Largest ``v`` with ``A_ge x >= demands * v**powers``, capacity and ``x >= 0``.

        The program is convex for powers of at least one.  The price
        solver's central-path loop follows a log barrier over ``(x, v)``
        from weight ``t = 1`` for at most :data:`REPAIR_ROUNDS` rounds, until
        the gap bound ``N / (t v)`` is at most :data:`REPAIR_RTOL`.
        Zero-demand cohorts and their columns drop out.
        """
        live = demands > 0.0
        if not live.any():
            nothing = np.zeros_like(demands)
            return _Repair(self, np.zeros(0), np.zeros(0, int), nothing, nothing, math.inf, True)
        d, p = demands[live], powers[live]
        columns = np.flatnonzero(live[self.cohort_of])
        cohort = (np.cumsum(live) - 1)[self.cohort_of[columns]]
        A = self.A_le[:, columns]
        req, rows = self.requirements[columns], self.capacity_rows[columns]
        # the Hessian's x-block couples two columns only when they share a
        # cohort or a processing interval; it is filled at those pairs alone
        ci, cj = np.nonzero(cohort[:, None] == cohort[None, :])
        ti, tj = np.nonzero(rows[:, :1] == rows[:, :1].T)
        L, V = d.size, columns.size
        n_barrier = 2 * L + self.b_le.size + V  # -log v is weighted by L

        def parts(z):
            x, v = z[:-1], z[-1]
            return x, v, np.bincount(cohort, weights=x, minlength=L) - d * v**p, self.b_le - A @ x

        def value(z, t):
            x, v, g, s = parts(z)
            if v <= 0.0 or np.any(x <= 0.0) or np.any(g <= 0.0) or np.any(s <= 0.0):
                return math.inf
            logs = np.sum(np.log(g)) + np.sum(np.log(s)) + np.sum(np.log(x))
            return -t * v - float(logs) - L * math.log(v)

        def derivatives(z, t):
            x, v, g, s = parts(z)
            q = d * p * v ** (p - 1.0)  # slope of d * v**p
            w = 1.0 / g**2
            grad = np.empty(V + 1)
            grad[:-1] = A.T @ (1.0 / s) - (1.0 / g)[cohort] - 1.0 / x
            grad[-1] = -t + np.sum(q / g) - L / v
            hess = np.zeros((V + 1, V + 1))
            hess[ti, tj] = np.sum(req[ti] * req[tj] / s[rows[ti]] ** 2, axis=1)
            hess[ci, cj] += w[cohort[ci]]
            hess[np.arange(V), np.arange(V)] += 1.0 / x**2
            hess[:-1, -1] = hess[-1, :-1] = -(q * w)[cohort]
            curvature = d * p * (p - 1.0) * v ** (p - 2.0) / g
            hess[-1, -1] = np.sum(q**2 * w) + np.sum(curvature) + L / v**2
            return grad, hess

        # start strictly inside: every row at most half used, every cohort
        # delivering twice what it asks at scale v
        x = np.full(V, 0.5 * np.min(self.b_le / np.maximum(A.sum(axis=1), 1e-300)))
        delivered = np.bincount(cohort, weights=x, minlength=L)
        z = np.append(x, np.min((delivered / (2.0 * d)) ** (1.0 / p)))
        z, _, _, message = _barrier_path(
            value, derivatives, z, 1.0, lambda z, t: n_barrier / (t * z[-1]),
            REPAIR_RTOL, REPAIR_ROUNDS,
        )
        x, v = z[:-1], float(z[-1])
        delivered = np.bincount(self.cohort_of[columns], weights=x, minlength=demands.size)
        return _Repair(self, x, columns, delivered, demands * v**powers, v, not message)


@dataclass(frozen=True, eq=False)
class _Repair:
    """The final iterate of :meth:`_ScheduleSystem.max_scale`.

    ``x`` holds the amounts of the live ``columns``.  The iterate is
    strictly feasible: every live cohort gets ``delivered`` more than it
    ``asked`` at scale ``v``, and every capacity row keeps some slack.
    """

    system: _ScheduleSystem
    x: np.ndarray
    columns: np.ndarray
    delivered: np.ndarray
    asked: np.ndarray
    v: float
    converged: bool

    def schedule(self, targets: np.ndarray) -> Schedule:
        """The iterate with each cohort's columns cut to at most its target."""
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = np.minimum(1.0, targets / self.delivered)
        amounts = self.x * cut[self.system.cohort_of[self.columns]]
        variables = self.system.variables
        return Schedule(
            amounts={variables[k]: float(a) for k, a in zip(self.columns, amounts) if a > 0.0}
        )

    def certificate(self, demands: np.ndarray) -> InfeasibilityCertificate:
        """Cohort and capacity rows with slack within 1e-6 of their right-hand side."""
        system = self.system
        tight = (demands > 0.0) & (self.delivered - self.asked <= 1e-6 * self.asked)
        violations = [
            f"type '{system.labels[c]}' submitted in interval {system.cohorts[c][1]} misses "
            f"deadline {system.cohorts[c][2]} by {demands[c] - self.delivered[c]:.6g} jobs"
            for c in np.flatnonzero(tight)
        ]
        usage = system.A_le[:, self.columns] @ self.x
        for row in np.flatnonzero(system.b_le - usage <= 1e-6 * system.b_le):
            t, i = divmod(int(row), system.m)
            violations.append(f"interval {t + 1}: resource '{system.names[i]}' capacity saturated")
        return InfeasibilityCertificate(violations=tuple(violations))


def schedule_feasible(
    demands, spec: IntervalDemandSpec
) -> tuple[bool, Schedule | InfeasibilityCertificate]:
    """Can the demanded job masses be scheduled within deadlines and capacity?

    ``demands[s-1][j]`` is the total demanded mass (jobs times population)
    of type ``j`` submitted in interval ``s``.  This is the repair program
    with every power one, a max-concurrent flow: the demands are schedulable
    when the largest common fraction ``v`` of them that fits is at least
    ``1 / (1 + REPAIR_RTOL)``.  Returns a witness schedule that delivers
    each cohort its demand (short by at most that tolerance) inside every
    capacity; otherwise a certificate naming the cohorts and interval
    capacities that bind at the largest fraction.  The constraint matrices
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
    masses = np.concatenate(demands)
    system = spec._schedule_system
    repair = system.max_scale(masses, np.ones_like(masses))
    if repair.v * (1.0 + REPAIR_RTOL) >= 1.0:
        return True, repair.schedule(masses)
    return False, repair.certificate(masses)


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


def solve_horizon(program: HorizonProgram, tolerance: float = 1e-6) -> HorizonResult:
    """Optimize per-interval prices, then certify or repair schedulability.

    Stage one solves each interval's price problem independently (revenue
    and fairness depend only on prices) to ``tolerance``, once per distinct
    stage-one market, in interval order, each solve starting from the prices
    of the last converged one (a stalled warm ladder falls back to the cold
    start).  Stage two finds the smallest uniform price scale
    ``sigma = 1 / v`` at which the demands fit: at scaled prices cohort
    ``c`` demands ``d_c * v**p_c`` with ``p_c = -e_c >= 1``, so ``max v``
    subject to the schedule constraints is one convex program, solved by a
    log barrier to a gap of :data:`REPAIR_RTOL`.  Prices are scaled by ``sigma`` only when
    it exceeds ``1 + REPAIR_RTOL``; otherwise they stay as solved.  The
    witness is the barrier's final, strictly feasible iterate, each cohort
    cut to its demand at the posted prices.  ``converged`` is false when a
    stage-one solve or the repair did not close its gap; the posted prices
    are then still schedulable, at a scale that may exceed the minimum.
    """
    spec = program.spec
    markets = [_window_relaxed(interval, s) for s, interval in enumerate(spec.intervals, start=1)]
    keys = [_stage_one_key(mk, interval.nu) for mk, interval in zip(markets, spec.intervals)]
    solved: dict[tuple, SolveResult] = {}
    warm = None
    for key, market, obj_spec in zip(keys, markets, program.interval_objectives()):
        if key not in solved:
            solved[key] = barrier_optimize(market, "resource", obj_spec, tolerance, start=warm)
            if solved[key].converged:
                warm = solved[key].plan.prices
    interval_results = tuple(solved[key] for key in keys)
    plans = tuple(result.plan for result in interval_results)

    # demand does not depend on capacity, so the window-relaxed solves'
    # outcomes hold each interval's demand
    masses = np.concatenate(
        [
            interval.instance.counts * result.outcome.demands
            for interval, result in zip(spec.intervals, interval_results)
        ]
    )
    system = spec._schedule_system
    repair = system.max_scale(masses, system.powers)
    scale = 1.0 / repair.v
    if scale > 1.0 + REPAIR_RTOL:
        plans = tuple(ResourcePlan(prices=p.prices * scale) for p in plans)
    else:
        scale = 1.0

    outcomes = [evaluate(interval.instance, plan) for interval, plan in zip(spec.intervals, plans)]
    masses = np.concatenate(
        [
            interval.instance.counts * outcome.demands
            for interval, outcome in zip(spec.intervals, outcomes)
        ]
    )
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
        schedule=repair.schedule(masses),
        total_revenue=total_revenue,
        total_fairness=total_fairness,
        price_scale=scale,
        converged=repair.converged and all(r.converged for r in interval_results),
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
        try:
            intervals.append(
                IntervalMarket(instance=instance, deadlines=tuple(deadlines), nu=float(nu))
            )
        except ValueError as err:
            raise ValueError(f"{path}.{err}") from None
    return IntervalDemandSpec(horizon=horizon, intervals=tuple(intervals))


def load_horizon_spec(path) -> IntervalDemandSpec:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return horizon_spec_from_json(json.load(fh))
