"""Price optimization for the weighted fairness-revenue objective.

The operator maximizes ``nu * revenue + F_beta`` over the prices of a chosen
plan kind, subject to capacity.  Because demand is isoelastic, every plan's
per-job cost vector is linear in the price variables, and revenue, fairness,
and usage all reduce to per-type power laws of those costs; gradients and
Hessians are assembled analytically from that structure.

The solver is a log-barrier interior-point method: minimize

    f_t(p) = -t * objective(p) - sum_i log(slack_i(p)) - sum_k log(p_k)
             - sum_k log(cap_k - p_k)

by damped Newton (the price box keeps every centering problem bounded and
never binds at an optimum), then increase ``t`` by ``BARRIER_GROWTH`` per
round until the barrier gap falls below ``tolerance`` relative to the
objective's magnitude at the current iterate.  Fairness exponents make
objective values span many orders of magnitude along the path, so both the
initial weight and the stopping test adapt to the local scale.  The same
central-path loop, with the same damped Newton, solves the deadline
module's schedule repair.

A brute-force grid search over the same objective is provided as an
independent verification oracle, along with the closed-form concavity
certificate for the revenue weight and the fairness-revenue tradeoff bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .fairness import LOG_DOMAIN_BETA, _check_beta, beta_fairness, log_sum_exp
from .pricing import (
    BundledPlan,
    DifferentiatedPlan,
    FEASIBILITY_ATOL,
    Instance,
    Outcome,
    PricingPlan,
    ResourcePlan,
    _check_plan_kind,
    evaluate,
    plan_structure,
)

__all__ = [
    "InfeasibleError",
    "ObjectiveSpec",
    "SolveResult",
    "DiscountPoint",
    "DiscountSearchResult",
    "objective",
    "concavity_weight_bound",
    "barrier_optimize",
    "bundled_price_bisection",
    "grid_oracle",
    "discount_line_search",
    "tradeoff_bound_check",
]

class InfeasibleError(ValueError):
    """No strictly feasible price vector exists for the request."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """Finite revenue weight ``nu >= 0`` and finite fairness exponent ``beta > 0``, not 1."""

    nu: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        _check_beta(self.beta)


#: factor by which the barrier weight grows between centering rounds
BARRIER_GROWTH = 20.0
#: damped Newton steps allowed per centering solve
NEWTON_STEPS = 80


def _check_tolerance(tolerance: float) -> None:
    """Reject a barrier-gap tolerance that is not finite and positive."""
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimized plan with its outcome and convergence diagnostics.

    ``gap`` is the barrier suboptimality estimate (constraint count over
    the barrier weight) relative to the returned objective's magnitude;
    ``converged`` implies it is at or below the requested tolerance.
    ``iterations`` counts the damped Newton steps of every barrier ladder
    the solve ran (stalled warm starts, alternates and the basin-escape
    probe's ladder too), not only of the one whose point is returned.
    """

    plan: PricingPlan
    outcome: Outcome
    objective_value: float
    iterations: int
    converged: bool
    gap: float
    message: str = ""


def _count_weighted_fairness(instance: Instance, outcome: Outcome, beta: float) -> float:
    bad = np.nonzero(outcome.net_utilities <= 0.0)[0]
    if bad.size:
        label = instance.user_types[int(bad[0])].label
        raise ValueError(
            f"user type '{label}' has nonpositive net utility under this plan; "
            "fairness is undefined"
        )
    return beta_fairness(outcome.net_utilities, beta, weights=instance.counts)


def objective(instance: Instance, plan: PricingPlan, spec: ObjectiveSpec) -> float:
    """nu * revenue + F_beta of the plan's outcome (count-weighted)."""
    outcome = evaluate(instance, plan)
    if not outcome.feasible:
        if isinstance(plan, BundledPlan):
            raise ValueError("plan infeasible: bundle demand exceeds the available bundles")
        worst = int(np.argmax(outcome.usage - instance.resources.capacities))
        name = instance.resources.names[worst]
        raise ValueError(
            f"plan infeasible: resource '{name}' usage {outcome.usage[worst]:.6g} exceeds "
            f"capacity {instance.resources.capacities[worst]:.6g}"
        )
    fairness = _count_weighted_fairness(instance, outcome, spec.beta)
    return spec.nu * outcome.revenue + fairness


def concavity_weight_bound(instance: Instance, beta: float, gamma: float | None = None) -> float:
    """Largest certified revenue weight keeping the objective concave.

    Any ``nu`` at or below the returned value makes ``nu * revenue + F_beta``
    a concave function of the prices, so price optimization is a convex
    program.  Requires ``beta > 1``; returns 0 when ``beta * (1 - alpha_j)``
    does not exceed the discount for every type (no certificate available).
    """
    if not beta > 1.0:
        raise ValueError(f"the concavity certificate needs beta > 1, got {beta}")
    g = instance.discount if gamma is None else gamma
    capacities = instance.resources.capacities
    bound = math.inf
    for j, user in enumerate(instance.user_types):
        alpha = user.utility.alpha
        if alpha >= 1.0 or beta * (1.0 - alpha) <= g:
            return 0.0
        head = ((g + alpha - 1.0) / (1.0 - alpha)) ** (1.0 - beta)
        power = g ** (beta * g / (alpha + g - 1.0) - 1.0)
        margin = beta * (1.0 - alpha) - g
        positive = user.requirements > 0.0
        headroom = float(np.max(capacities[positive] / user.requirements[positive]))
        scale = headroom ** (beta * (alpha - 1.0) / g)
        bound = min(bound, head * power * margin * scale)
    return bound


# ---------------------------------------------------------------------------
# Smooth problem structure shared by the barrier solver and the grid oracle.


class _PriceProblem:
    """Objective, constraints, and derivatives as functions of the prices.

    Per-job costs are linear in the price vector (``r = D @ p``), and every
    per-type quantity is a power law of its cost (``kernel``), so first and
    second derivatives in price space are congruence transforms of per-type
    scalar derivatives by ``D``.
    """

    def __init__(self, instance: Instance, plan_kind: str, bundle=None):
        self.D, self.G, self.limits = plan_structure(instance, plan_kind, bundle)
        self.kind = plan_kind
        self.bundle = instance.resources.capacities if bundle is None else bundle
        self.w = instance.counts
        self.kernel = instance.utility_kernel()
        self.dim = self.D.shape[1]

    def make_plan(self, prices: np.ndarray) -> PricingPlan:
        if self.kind == "bundled":
            return BundledPlan(bundle=self.bundle, price=float(prices[0]))
        if self.kind == "resource":
            return ResourcePlan(prices=prices)
        return DifferentiatedPlan(prices=prices)

    def costs(self, prices: np.ndarray) -> np.ndarray:
        return self.D @ prices

    def slacks(self, costs: np.ndarray) -> np.ndarray:
        return self.limits - self.G @ self.kernel.demand(costs)

    def load(self, prices: np.ndarray) -> float:
        """Largest share of any capacity row that demand at these prices uses."""
        with np.errstate(over="ignore"):
            used = self.G @ self.kernel.demand(self.costs(prices))
        return float(np.max(used / self.limits))

    def level_for_load(self, target: float, base=None):
        """Smallest multiple of ``base`` (uniform prices by default) whose load is ``target``."""
        base = np.ones(self.dim) if base is None else base
        return _bisect_load(lambda scale: self.load(scale * base), target)

    def objective_value(self, spec: ObjectiveSpec, costs: np.ndarray) -> float:
        with np.errstate(over="ignore", divide="ignore"):
            revenue = float(np.sum(self.kernel.bill(costs, self.w)))
            utils = self.kernel(costs)
            if np.any(utils <= 0.0) or not np.all(np.isfinite(utils)):
                return -math.inf
            fairness = beta_fairness(utils, spec.beta, weights=self.w)
        return spec.nu * revenue + fairness

    def objective_cost_derivatives(
        self, spec: ObjectiveSpec, costs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives of the objective per per-job cost."""
        beta, nu = spec.beta, spec.nu
        utils = self.kernel(costs)
        rev1, rev2 = self.kernel.derivatives("bill", costs)
        u1, u2 = self.kernel.derivatives("surplus", costs)
        with np.errstate(over="ignore"):
            um_b = utils**-beta
            fair1 = um_b * u1
            fair2 = -beta * utils ** (-beta - 1.0) * u1**2 + um_b * u2
        first = self.w * (nu * rev1 + fair1)
        second = self.w * (nu * rev2 + fair2)
        return first, second


def _bisect_load(load, target):
    """Smallest scales with load(scale) <= target, elementwise.

    ``load`` maps an array of scales to as many loads, each strictly
    decreasing in its own scale.  The bracket widens geometrically from one
    by up to 4**300 each way, then 96 halvings of its log-width pin each
    scale to float resolution.
    """
    target = np.asarray(target, dtype=float)
    lo, hi = np.ones_like(target), np.ones_like(target)
    for _ in range(300):
        low = ~(load(lo) > target)
        if not low.any():
            break
        lo = np.where(low, lo / 4.0, lo)
    else:
        raise InfeasibleError("demand never reaches capacity at any positive price")
    for _ in range(300):
        high = ~(load(hi) < target)
        if not high.any():
            break
        hi = np.where(high, hi * 4.0, hi)
    else:
        raise InfeasibleError("no price high enough to fit demand inside capacity")
    for _ in range(96):
        mid = np.sqrt(lo * hi)
        above = load(mid) > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return hi


def _feasible_start(problem: _PriceProblem, spec: ObjectiveSpec) -> np.ndarray:
    """Strictly feasible prices with the binding usage ratio near one half.

    Uniform prices are bisected to the target load for bundled and resource
    plans.  Differentiated prices are set per type so each carries an equal
    slice of its own binding resource: a uniform start can leave a type's
    demand negligible, and its flat objective coordinate then drifts on the
    barrier instead of optimizing.  When positive net utilities, or an
    objective and cost derivatives inside the float range (``F_beta`` of
    tiny utilities at large ``beta`` is not), require lower prices than the
    half-capacity point allows, the target is relaxed toward the boundary.
    A start whose objective is finite but whose derivatives overflow is
    kept only when no target gives finite derivatives.
    """

    def own_loads(prices: np.ndarray) -> np.ndarray:
        """Each type's largest capacity share at its own price, alone."""
        with np.errstate(over="ignore"):
            used = problem.G * problem.kernel.demand(prices)
        return np.max(used / problem.limits[:, None], axis=0)

    fallback = None
    for target in (0.5, 0.8, 0.95, 0.99):
        if problem.kind == "differentiated":
            base = _bisect_load(own_loads, np.full(problem.dim, target / problem.dim))
            start = problem.level_for_load(target, base) * base
        else:
            start = np.full(problem.dim, problem.level_for_load(target))
        costs = problem.costs(start)
        if math.isfinite(problem.objective_value(spec, costs)):
            with np.errstate(over="ignore", invalid="ignore"):
                slopes = problem.objective_cost_derivatives(spec, costs)
            if all(np.all(np.isfinite(s)) for s in slopes):
                return start
            if fallback is None:
                fallback = start
    if fallback is not None:
        return fallback
    raise InfeasibleError(
        "no strictly feasible price vector keeps every type's net utility positive "
        f"and F_beta (beta={spec.beta:g}) inside the float range"
    )


def _barrier_value(problem, spec, t_scaled, prices, ceiling) -> float:
    if np.any(prices <= 0.0) or np.any(prices >= ceiling):
        return math.inf
    costs = problem.costs(prices)
    if np.any(costs <= 0.0):
        return math.inf
    slack = problem.slacks(costs)
    if np.any(slack <= 0.0):
        return math.inf
    with np.errstate(over="ignore"):
        value = problem.objective_value(spec, costs)
    if not math.isfinite(value):
        return math.inf
    return (
        -t_scaled * value
        - float(np.sum(np.log(slack)))
        - float(np.sum(np.log(prices)))
        - float(np.sum(np.log(ceiling - prices)))
    )


def _barrier_derivatives(problem, spec, t_scaled, prices, ceiling):
    """Gradient and Hessian of the barrier function in price space."""
    costs = problem.costs(prices)
    D = problem.D
    with np.errstate(over="ignore", invalid="ignore"):
        x1, x2 = problem.kernel.derivatives("demand", costs)
        slack = problem.slacks(costs)
        obj1, obj2 = problem.objective_cost_derivatives(spec, costs)
        jac = (problem.G * x1[None, :]) @ D  # d usage_i / d p
        grad = -t_scaled * (D.T @ obj1)
        grad += jac.T @ (1.0 / slack)
        grad -= 1.0 / prices
        grad += 1.0 / (ceiling - prices)
        hess = -t_scaled * (D.T * obj2) @ D
        hess += (jac.T / slack**2) @ jac
        curvature = (problem.G * x2[None, :]) / slack[:, None]  # sum_i (d2 usage)/slack
        hess += (D.T * curvature.sum(axis=0)) @ D
        hess += np.diag(1.0 / prices**2 + 1.0 / (ceiling - prices) ** 2)
    return grad, hess


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve for a descent direction, ridging the Hessian up to definiteness.

    Cholesky is the definiteness test; when the barrier Hessian is indefinite
    (the weighted objective need not be concave above the certified revenue
    weight) a growing multiple of the identity blends the step toward
    steepest descent.  The direction comes from one LU solve of the ridged
    matrix; an exact zero LU pivot on a matrix that passed Cholesky (rounding
    can leave one) ridges further, like a failed Cholesky.
    """
    dim = hess.shape[0]
    scale = max(1.0, float(np.max(np.abs(np.diag(hess)))))
    tau = 0.0
    for _ in range(40):
        ridged = hess + tau * np.eye(dim)
        try:
            np.linalg.cholesky(ridged)
            direction = np.linalg.solve(ridged, -grad)
        except np.linalg.LinAlgError:
            tau = max(1e-10 * scale, tau * 4.0)
            continue
        if np.all(np.isfinite(direction)) and grad @ direction < 0.0:
            return direction
        tau = max(1e-10 * scale, tau * 4.0)
    return -grad  # last resort: steepest descent


ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5


def _newton_minimize(
    value_of, derivatives_of, point, max_iterations
) -> tuple[np.ndarray, int, bool]:
    """Damped Newton with backtracking on a barrier function.

    ``value_of(point)`` is the barrier's value (``inf`` outside its domain)
    and ``derivatives_of(point)`` its gradient and Hessian.  Returns the
    final point, the steps taken and whether the Newton decrement settled.
    """
    value = value_of(point)
    for iteration in range(max_iterations):
        grad, hess = derivatives_of(point)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            return point, iteration, False
        direction = _newton_direction(hess, grad)
        decrement = -float(grad @ direction)
        if decrement / 2.0 <= 1e-10 * (1.0 + abs(value)):
            return point, iteration, True
        slope = float(grad @ direction)

        def sufficient(step: float) -> tuple[bool, float]:
            trial = value_of(point + step * direction)
            return trial <= value + ARMIJO_SLOPE * step * slope, trial

        step = 1.0
        ok_step, cand_value = sufficient(step)
        if ok_step:
            # expand toward the ray's minimum while doubling keeps strictly
            # improving: ridged directions through flat nonconvex channels
            # are otherwise crossed one fixed-length step at a time
            while step < 2.0**30:
                grew, trial = sufficient(2.0 * step)
                if not grew or trial >= cand_value:
                    break
                step *= 2.0
                cand_value = trial
        else:
            while step > 1e-18:
                step *= BACKTRACK_FACTOR
                ok_step, cand_value = sufficient(step)
                if ok_step:
                    break
            else:
                # no acceptable step: on a flat plateau a small predicted
                # decrease that cannot be realized is convergence, not failure
                settled = decrement / 2.0 <= 1e-6 * (1.0 + abs(value))
                return point, iteration, settled
        point = point + step * direction
        value = cand_value
    grad, hess = derivatives_of(point)
    direction = _newton_direction(hess, grad)
    converged = bool(-float(grad @ direction) / 2.0 <= 1e-6 * (1.0 + abs(value)))
    return point, max_iterations, converged


def barrier_optimize(
    instance: Instance,
    plan_kind: str,
    spec: ObjectiveSpec,
    tolerance: float = 1e-6,
    bundle=None,
    *,
    start=None,
) -> SolveResult:
    """Maximize ``nu * revenue + F_beta`` over the plan's prices.

    Finds a strictly feasible starting price vector internally, then runs
    the log-barrier method with damped Newton inner solves until the
    barrier gap, relative to the objective, is at most ``tolerance`` (finite
    and positive).  Inner-solver stagnation yields a non-converged result
    carrying diagnostics rather than an exception; an empty feasible
    interior raises :class:`InfeasibleError`.

    ``start`` (positive prices of this plan, such as a neighbouring
    market's optimum) is tried first, scaled to 99% of the binding
    capacity; if its ladder stalls, the solve goes on exactly as without it.
    """
    _check_tolerance(tolerance)
    problem = _PriceProblem(instance, plan_kind, bundle)

    best, iterations = None, 0
    for prices in _start_candidates(problem, spec, start):
        result = _barrier_ladder(problem, spec, tolerance, prices)
        iterations += result.iterations
        if best is None or result.beats(best):
            best = result
        if result.converged:  # alternates exist only to escape stalls
            break

    if not best.converged and problem.dim <= 4:
        # basin escape for the uncertified nonconvex regime: probe a coarse
        # grid around the stall, then polish the best cell with a fresh ladder
        probe = _coarse_probe(problem, spec, best.prices)
        if probe is not None:
            result = _barrier_ladder(problem, spec, tolerance, probe)
            iterations += result.iterations
            if result.beats(best):
                best = result

    plan = problem.make_plan(best.prices)
    outcome = evaluate(instance, plan)
    return SolveResult(
        plan=plan,
        outcome=outcome,
        objective_value=best.value,
        iterations=iterations,
        converged=best.converged,
        gap=best.gap,
        message=best.message,
    )


def _coarse_probe(problem: _PriceProblem, spec: ObjectiveSpec, around: np.ndarray):
    """Best point of a two-decade grid, strictly inside capacity since it starts a ladder."""
    axes = [np.geomspace(p / 30.0, p * 30.0, 14) for p in around]
    prices, value = _grid_search(problem, spec, axes, np.nextafter(problem.limits, 0.0))
    return prices if math.isfinite(value) else None


def _start_candidates(problem: _PriceProblem, spec: ObjectiveSpec, warm=None):
    """The warm start, the default start, and alternates, each tried only after a stall.

    Price optimization is certified convex only below the concavity weight
    bound; elsewhere the barrier path can wedge into a poor stationary
    region, and a second start usually frees it.  Candidates that land
    outside the domain (a uniform level can overload capacity that the
    balanced start respected, or higher prices can push F_beta out of the
    float range) are dropped.  The default start is computed only when it
    is needed, so a converged warm ladder skips its bisection.
    """

    def usable(prices: np.ndarray) -> bool:
        return _barrier_value(problem, spec, 0.0, prices, math.inf) < math.inf

    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != (problem.dim,) or not np.all((warm > 0.0) & (warm < math.inf)):
            raise ValueError(f"start must hold {problem.dim} positive finite prices")
        warm = problem.level_for_load(0.99, warm) * warm
        if usable(warm):
            yield warm
    start = _feasible_start(problem, spec)
    yield start
    uniform = np.full(problem.dim, float(np.exp(np.mean(np.log(start)))))
    if not np.allclose(uniform, start) and usable(uniform):
        yield uniform
    if usable(start * 3.0):
        yield start * 3.0


@dataclass(frozen=True, eq=False)
class _LadderResult:
    prices: np.ndarray
    iterations: int
    value: float
    gap: float
    converged: bool
    message: str

    def beats(self, other: "_LadderResult") -> bool:
        return (self.converged, self.value) > (other.converged, other.value)


def _barrier_path(value_of, derivatives_of, point, t, gap_of, tolerance, rounds):
    """Follow a barrier's central path from weight ``t``.

    Each round centers at the current weight with damped Newton
    (``value_of(point, t)`` and ``derivatives_of(point, t)`` are the barrier
    and its gradient and Hessian), then stops once ``gap_of(point, t)`` is at
    most ``tolerance`` or multiplies ``t`` by :data:`BARRIER_GROWTH`.  Returns
    the final point, the Newton steps taken, the last gap and a message that
    is empty exactly when the gap closed.
    """
    iterations, gap = 0, math.inf
    for _ in range(rounds):
        point, steps, ok = _newton_minimize(
            lambda p: value_of(p, t), lambda p: derivatives_of(p, t), point, NEWTON_STEPS
        )
        iterations += steps
        gap = gap_of(point, t)
        if not ok:
            stalled = f"inner Newton solve stalled at barrier weight t={t:.3g}"
            return point, iterations, gap, stalled
        if gap <= tolerance:
            return point, iterations, gap, ""
        t *= BARRIER_GROWTH
    return point, iterations, gap, "barrier weight budget exhausted before the gap closed"


def _barrier_ladder(problem, spec, tolerance, prices) -> _LadderResult:
    """Run the t-ladder from one starting point."""
    # A price box makes every centering problem bounded: without the ceiling,
    # objectives that vanish at high prices (beta < 1) lose to the positivity
    # barrier's log reward and the iterates run away.  The box never binds at
    # an optimum, which always sits on the capacity wall far below it.
    ceiling = np.full(problem.dim, 1e4 * float(np.max(prices)))
    n_constraints = problem.limits.size + 2 * problem.dim

    if not math.isfinite(_barrier_value(problem, spec, 0.0, prices, ceiling)):
        raise InfeasibleError("barrier ladder started outside the feasible domain")
    start_objective = problem.objective_value(spec, problem.costs(prices))
    scale = max(1.0, abs(start_objective))

    # Balance the first barrier weight against the objective's slope so the
    # initial centering solution stays near the start; nearly-flat objectives
    # would otherwise let the barrier drag prices toward the box center, and
    # the way back is thousands of damped steps.
    with np.errstate(over="ignore", invalid="ignore"):  # no finite slope: start at t = 1
        obj_slope = float(
            np.linalg.norm(
                problem.D.T @ problem.objective_cost_derivatives(spec, problem.costs(prices))[0]
            )
        )
    barrier_grad, _ = _barrier_derivatives(problem, spec, 0.0, prices, ceiling)
    barrier_slope = float(np.linalg.norm(barrier_grad))
    t = max(1.0, scale * barrier_slope / max(obj_slope, 1e-300))

    # The gap test is relative to the objective where the iterate currently
    # sits, not where it started: steep fairness exponents shrink |objective|
    # by many orders along the path, and a start-scaled tolerance would call
    # the solve done long before the capacity wall.
    def gap_of(p, t):
        value = problem.objective_value(spec, problem.costs(p))
        return (n_constraints / t) * scale / max(1.0, abs(value))

    prices, iterations, gap, message = _barrier_path(
        lambda p, t: _barrier_value(problem, spec, t / scale, p, ceiling),
        lambda p, t: _barrier_derivatives(problem, spec, t / scale, p, ceiling),
        prices, t, gap_of, tolerance, 300,
    )
    return _LadderResult(
        prices=prices,
        iterations=iterations,
        value=problem.objective_value(spec, problem.costs(prices)),
        gap=gap,
        converged=not message,
        message=message,
    )


def bundled_price_bisection(instance: Instance, bundle=None) -> float:
    """Lowest feasible bundle price: demand exactly fills the bundles.

    The weighted objective under bundled pricing is maximized at the lowest
    feasible price for every revenue weight, so the optimum reduces to a
    one-dimensional root of the bundle-count constraint, found by geometric
    bisection to float resolution.
    """
    return float(_PriceProblem(instance, "bundled", bundle).level_for_load(1.0))


def _grid_search(problem: _PriceProblem, spec: ObjectiveSpec, axes, limits):
    """Best point of the price grid spanned by ``axes`` and its objective value.

    A point counts when its prices and per-job costs are positive, its
    demands fit ``G @ x <= limits`` (the caller's capacity rows, with or
    without slack) and every net utility is positive and finite.  Ties break
    to the lowest grid index; the value is ``-inf`` when no point counts.
    """
    shape = tuple(a.size for a in axes)
    coords = np.unravel_index(np.arange(int(np.prod(shape))), shape)
    P = np.stack([axes[d][coords[d]] for d in range(problem.dim)])  # (dim, c)
    beta, w = spec.beta, problem.w[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        R = problem.D @ P  # (n, c) per-job costs
        valid = np.all(P > 0.0, axis=0) & np.all(R > 0.0, axis=0)
        valid &= np.all(problem.G @ problem.kernel.demand(R) <= limits[:, None], axis=0)
        utils = problem.kernel(R)
        valid &= np.all(utils > 0.0, axis=0) & np.all(np.isfinite(utils), axis=0)
        revenue = np.sum(problem.kernel.bill(R, problem.w), axis=0)
        logs = np.where(utils > 0.0, np.log(utils), 0.0)
        if beta >= LOG_DOMAIN_BETA:
            fairness = np.exp(log_sum_exp((1.0 - beta) * logs, w, axis=0)) / (1.0 - beta)
        else:
            fairness = np.sum(w * np.exp((1.0 - beta) * logs), axis=0) / (1.0 - beta)
        values = spec.nu * revenue + fairness
    values = np.where(valid & np.isfinite(values), values, -math.inf)
    best = int(np.argmax(values))
    return P[:, best].copy(), float(values[best])


def grid_oracle(
    instance: Instance,
    plan_kind: str,
    spec: ObjectiveSpec,
    axes: Sequence[np.ndarray],
    bundle=None,
) -> SolveResult:
    """Exhaustive objective evaluation over a price grid.

    ``axes`` gives the candidate values per price dimension (one axis for
    bundled plans, one per resource or per type otherwise).  Infeasible and
    nonpositive-utility points are skipped; the best surviving point is
    returned (ties break to the lowest grid index).  Serves as a brute-force
    verification oracle for :func:`barrier_optimize` in low dimensions.
    """
    problem = _PriceProblem(instance, plan_kind, bundle)
    axes = [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != problem.dim:
        raise ValueError(f"expected {problem.dim} grid axes for {plan_kind}, got {len(axes)}")
    total = int(np.prod([a.size for a in axes]))
    if total == 0:
        raise ValueError("empty grid")
    prices, value = _grid_search(problem, spec, axes, problem.limits + FEASIBILITY_ATOL)
    if not math.isfinite(value):
        raise ValueError("no feasible grid point with positive net utilities")
    plan = problem.make_plan(prices)
    return SolveResult(
        plan=plan,
        outcome=evaluate(instance, plan),
        objective_value=value,
        iterations=total,
        converged=True,
        gap=0.0,
        message="exhaustive grid search; accuracy limited by grid resolution",
    )


@dataclass(frozen=True)
class DiscountPoint:
    """Recorded solve for one discount value in a line search."""

    gamma: float
    result: Optional[SolveResult]
    error: Optional[str] = None


@dataclass(frozen=True)
class DiscountSearchResult:
    gamma: float
    result: SolveResult
    records: tuple[DiscountPoint, ...]


def discount_line_search(
    instance: Instance,
    plan_kind: str,
    spec: ObjectiveSpec,
    gamma_grid: Sequence[float],
    tolerance: float = 1e-6,
    bundle=None,
) -> DiscountSearchResult:
    """Re-optimize prices per candidate discount and keep the best.

    Each grid point is solved independently to ``tolerance``; failures are
    recorded and skipped so the audit trail stays complete.
    """
    if not len(gamma_grid):
        raise ValueError("gamma_grid must be non-empty")
    _check_tolerance(tolerance)
    _check_plan_kind(plan_kind)
    records: list[DiscountPoint] = []
    for gamma in gamma_grid:
        try:
            candidate = replace(instance, discount=float(gamma))
            result = barrier_optimize(candidate, plan_kind, spec, tolerance, bundle)
            records.append(DiscountPoint(gamma=float(gamma), result=result))
        except (ValueError, InfeasibleError) as err:
            records.append(DiscountPoint(gamma=float(gamma), result=None, error=str(err)))
    solved = [p for p in records if p.result is not None]
    if not solved:
        raise InfeasibleError(
            "every discount in the grid failed: " + "; ".join(p.error or "" for p in records)
        )
    best = max(solved, key=lambda p: p.result.objective_value)
    return DiscountSearchResult(gamma=best.gamma, result=best.result, records=tuple(records))


def tradeoff_bound_check(
    instance: Instance, plan: PricingPlan, beta: float
) -> tuple[bool, float]:
    """Check the fairness-revenue tradeoff bound at a feasible plan.

    For ``beta > 1`` the revenue is bounded below by a function of the
    achieved fairness; for ``beta < 1`` the fairness is bounded below by a
    function of the achieved revenue.  Returns (bound holds, slack), slack
    being the bounded quantity minus its bound.  Requires every type to have
    ``alpha < 1`` (log utilities break the closed forms used here).
    """
    _check_beta(beta)
    alphas = instance.alphas
    if np.any(alphas >= 1.0):
        raise ValueError("tradeoff bounds require alpha < 1 for every user type")
    outcome = evaluate(instance, plan)
    if not outcome.feasible:
        raise ValueError("tradeoff bounds are stated for feasible plans only")
    gamma = instance.discount
    counts = instance.counts
    fairness = _count_weighted_fairness(instance, outcome, beta)
    revenue = outcome.revenue
    if beta > 1.0:
        floor = (fairness * (1.0 - beta)) ** (1.0 / (1.0 - beta)) * float(
            np.sum(counts * (1.0 - alphas) / (gamma + alphas - 1.0))
        )
        slack = revenue - floor
    else:
        weight = gamma / (1.0 - float(np.min(alphas))) - 1.0
        floor = revenue ** (1.0 - beta) / (1.0 - beta) * weight ** (1.0 - beta)
        slack = fairness - floor
    holds = bool(slack >= -1e-9 * max(1.0, abs(floor)))
    return holds, float(slack)
