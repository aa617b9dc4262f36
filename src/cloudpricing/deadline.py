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

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fairness import beta_fairness
from .optimizer import (
    ObjectiveSpec,
    SolveResult,
    _DenseSystem,
    _barrier_path,
    _check_nu,
    _tangent_reach,
    barrier_optimize,
    concavity_weight_bound,
)
from .pricing import Instance, ResourcePlan, _number, evaluate, instance_from_json

__all__ = [
    "IntervalMarket",
    "IntervalDemandSpec",
    "Schedule",
    "InfeasibilityCertificate",
    "HorizonResult",
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
        _check_nu(self.nu)


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

    @property
    def schedule_vars(self) -> tuple[tuple[int, int, int], ...]:
        """The schedule unknowns: (type index, submitted, processed), both intervals 1-based."""
        return self._schedule_system.variables


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
    """The outcome of :func:`solve_horizon`.

    ``interval_results`` are the stage-one solves at window-relaxed
    capacities and hold pre-scale prices; ``plans`` hold the posted prices.
    """

    plans: tuple[ResourcePlan, ...]
    interval_results: tuple[SolveResult, ...]
    schedule: Schedule
    total_revenue: float
    total_fairness: float
    price_scale: float
    converged: bool


class _ScheduleSystem:
    """The schedule constraints of one horizon, assembled once.

    The one enumeration of a horizon: cohorts ``(type, submitted,
    deadline)`` run in (submitted, type) order, with their populations in
    ``counts``; columns, the schedule variables ``(type, submitted,
    processed)``, run through each cohort's window in cohort order; capacity
    rows run in (interval, resource) order.  Each column delivers to one
    cohort and draws its cohort's requirements from the capacity rows of one
    interval.
    """

    def __init__(self, spec: IntervalDemandSpec) -> None:
        instances = [interval.instance for interval in spec.intervals]
        self.cohorts = tuple(
            (j, s, tau)
            for s, interval in enumerate(spec.intervals, start=1)
            for j, tau in enumerate(interval.deadlines)
        )
        self.variables = tuple((j, s, t) for j, s, tau in self.cohorts for t in range(s, tau + 1))
        self.labels = tuple(instances[s - 1].user_types[j].label for j, s, _ in self.cohorts)
        self.counts = np.concatenate([instance.counts for instance in instances])
        self.m = m = instances[0].m
        self.names = instances[0].resources.names
        columns = np.arange(len(self.variables))
        self.cohort_of = np.repeat(
            np.arange(len(self.cohorts)), [tau - s + 1 for _, s, tau in self.cohorts]
        )
        processed = np.array([t for _, _, t in self.variables])
        # per-job requirements of each cohort, (cohort, resource)
        requirements = np.vstack([instance.requirement_matrix.T for instance in instances])
        self.requirements = requirements[self.cohort_of]  # (column, resource)
        self.capacity_rows = (processed - 1)[:, None] * m + np.arange(m)
        self.A_le = np.zeros((spec.horizon * m, columns.size))
        self.A_le[self.capacity_rows, columns[:, None]] = self.requirements
        self.b_le = np.concatenate([instance.resources.capacities for instance in instances])
        #: each cohort's demand exponent ``p = -e`` in the price scale
        self.powers = np.concatenate([-instance.utility_kernel().e for instance in instances])

    def max_scale(self, demands: np.ndarray, powers: np.ndarray) -> _Repair:
        """Largest ``v`` with ``A_ge x >= demands * v**powers``, capacity and ``x >= 0``.

        The program is convex for powers of at least one.  The price
        solver's central-path loop follows a log barrier over ``(x, v)``
        from weight ``t = 1`` for at most :data:`REPAIR_ROUNDS` rounds, until
        the gap bound ``N / (t v)`` is at most :data:`REPAIR_RTOL`.
        Zero-demand cohorts and their columns drop out.  Each cohort row
        ``g`` is concave, as ``v**p`` is convex for ``p >= 1``, and the other
        rows are linear, so each Newton system carries the tangent step
        bound of its direction.  The Hessian's sparsity pattern and index
        products are formed once, here, and refilled at every step.
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
        L, V = d.size, columns.size
        n_barrier = 2 * L + self.b_le.size + V  # -log v is weighted by L
        # the Hessian's x-block couples two columns only when they share a
        # cohort or a processing interval; it is filled at those pairs alone,
        # through flat indices into the (V + 1)-square Hessian
        ci, cj = np.nonzero(cohort[:, None] == cohort[None, :])
        ti, tj = np.nonzero(rows[:, :1] == rows[:, :1].T)
        pair_req, pair_rows = req[ti] * req[tj], rows[ti]
        pair_cohort = cohort[ci]
        time_pairs, cohort_pairs = ti * (V + 1) + tj, ci * (V + 1) + cj
        diagonal = np.arange(V) * (V + 2)

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
            flat = hess.reshape(-1)
            flat[time_pairs] = np.sum(pair_req / (s**2)[pair_rows], axis=1)
            flat[cohort_pairs] += w[pair_cohort]
            flat[diagonal] += 1.0 / x**2
            hess[:-1, -1] = hess[-1, :-1] = -(q * w)[cohort]
            curvature = d * p * (p - 1.0) * v ** (p - 2.0) / g
            hess[-1, -1] = np.sum(q**2 * w) + np.sum(curvature) + L / v**2

            def reach(dz):  # x and v, the cohort rows g and the capacity rows s
                dx = dz[:-1]
                falling = q * dz[-1] - np.bincount(cohort, weights=dx, minlength=L)
                rates = np.concatenate((-dz, falling, A @ dx))
                delivered = np.bincount(cohort, weights=x, minlength=L)
                magnitudes = np.concatenate((z, delivered, self.b_le))
                return _tangent_reach(np.concatenate((z, g, s)), rates, magnitudes)

            return grad, _DenseSystem(hess, reach)

        # start strictly inside: every row at most half used, every cohort
        # delivering twice what it asks at scale v; at extreme magnitudes the
        # iterates overflow, and Newton rejects non-finite values and derivatives
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
        if not np.all(np.isfinite(demands[s - 1]) & (demands[s - 1] >= 0.0)):
            raise ValueError(f"interval {s}: demands must be finite and nonnegative")
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
    resources = interval.instance.resources
    return replace(
        interval.instance, resources=replace(resources, capacities=resources.capacities * window)
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


def solve_horizon(spec: IntervalDemandSpec, beta: float, tolerance: float = 1e-6) -> HorizonResult:
    """Optimize per-interval prices, then certify or repair schedulability.

    The objective is ``sum_s nu(s) * revenue_s + fairness_s`` at fairness
    exponent ``beta``, checked before any solve; one warning names every
    interval whose revenue weight exceeds its market's concavity certificate.

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
    objectives = [ObjectiveSpec(nu=interval.nu, beta=beta) for interval in spec.intervals]
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

    markets = [_window_relaxed(interval, s) for s, interval in enumerate(spec.intervals, start=1)]
    keys = [_stage_one_key(mk, interval.nu) for mk, interval in zip(markets, spec.intervals)]
    solved: dict[tuple, SolveResult] = {}
    warm = None
    for key, market, obj_spec in zip(keys, markets, objectives):
        if key not in solved:
            solved[key] = barrier_optimize(market, "resource", obj_spec, tolerance, start=warm)
            if solved[key].converged:
                warm = solved[key].plan.prices
    interval_results = tuple(solved[key] for key in keys)
    plans = tuple(result.plan for result in interval_results)

    # demand does not depend on capacity, so the window-relaxed solves'
    # outcomes hold each interval's demand
    system = spec._schedule_system
    masses = system.counts * np.concatenate([result.outcome.demands for result in interval_results])
    repair = system.max_scale(masses, system.powers)
    scale = 1.0 / repair.v
    if scale > 1.0 + REPAIR_RTOL:
        plans = tuple(ResourcePlan(prices=p.prices * scale) for p in plans)
    else:
        scale = 1.0

    outcomes = [evaluate(interval.instance, plan) for interval, plan in zip(spec.intervals, plans)]
    masses = system.counts * np.concatenate([outcome.demands for outcome in outcomes])
    total_revenue = float(sum(outcome.revenue for outcome in outcomes))
    total_fairness = float(
        sum(
            beta_fairness(outcome.net_utilities, beta, weights=interval.instance.counts)
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
        deadlines = raw["deadlines"]
        if not isinstance(deadlines, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in deadlines
        ):
            raise ValueError(f"{path}.deadlines: expected a list of integers")
        try:
            instance = instance_from_json(raw["instance"])
            nu = _number(raw.get("nu", 0.0), "nu")
            intervals.append(IntervalMarket(instance=instance, deadlines=tuple(deadlines), nu=nu))
        except ValueError as err:
            raise ValueError(f"{path}.{err}") from None
    return IntervalDemandSpec(horizon=horizon, intervals=tuple(intervals))


def load_horizon_spec(path) -> IntervalDemandSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return horizon_spec_from_json(json.load(fh))
