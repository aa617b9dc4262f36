"""Price optimization for the weighted fairness-revenue objective.

The operator maximizes ``nu * revenue + F_beta`` over the prices of a chosen
plan kind, subject to capacity.  Because demand is isoelastic, every plan's
per-job cost vector is linear in the price variables, and revenue, fairness,
and usage all reduce to per-type power laws of those costs; gradients and
Hessians are assembled analytically from that structure.

A bundled plan has one price, and its optimum is the lowest price that
fills the bundles for every weight (:func:`bundled_price_bisection`), so it
is solved in closed form.  So are the plans whose objective the
concavity certificate covers, where KKT proves the optimum: a resource
plan's at a face that prices one resource, and a differentiated plan's at
``nu = 0`` where one capacity row binds.  Otherwise plans use a
log-barrier interior-point method: minimize

    f_t(p) = -t * objective(p) - sum_i log(slack_i(p))

by damped Newton, then increase ``t`` by ``BARRIER_GROWTH`` per round until
the barrier gap falls below ``tolerance`` relative to the objective's
magnitude at the current iterate.  Only the last round's centre is
returned, so the rounds before it are centred only to Newton's quadratic
region (``CENTERING_DECREMENT``).  Fairness exponents make
objective values span many orders of magnitude along the path, so both the
initial weight and the stopping test adapt to the local scale.  Each plan
kind takes its Newton steps in its own coordinates and solves each Newton
system in its own structure: resource plans have a few prices and a dense
system in price space, while a differentiated plan, whose prices are its
per-type costs, steps in ``u = log p`` (prices move by factors) on a
system that is a diagonal plus one low-rank term per capacity row, solved
in ``O(n m²)`` without forming an ``n × n`` matrix.  A resource plan's
barrier adds the log barrier of its price shares, ``-sum_k log(p_k /
sum_j p_j)`` (Karmarkar's potential function): positivity is a real
constraint of its prices, and the term is infinite where any price
reaches zero yet constant along every ray, so raising every price
together earns nothing; but it is not convex, so centering can be
nonconvex below the certified revenue weight, and the gap ``(rows + dim)
/ t`` is a stopping rule there, not a bound.  These plans step in
per-price power-of-two units (:attr:`_PriceProblem.unit`).  ``p = e**u``
needs no positivity term.  Neither plan's centering needs an upper price
bound: every objective term falls in every price, and each ``-log
slack_i`` is bounded below by ``-log limit_i``.  Every constraint of the
barrier is concave along any ray, so each Newton system also carries its
direction's tangent step bound, and the line search refuses, without
evaluating them, the trial steps beyond it, which lie outside the domain.
The same central-path loop, with the same damped Newton, solves the
deadline module's schedule repair.

A brute-force grid search over the same objective is provided as an
independent verification oracle, along with the closed-form concavity
certificate for the revenue weight and the fairness-revenue tradeoff bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .fairness import LOG_DOMAIN_BETA, _check_beta, _power_fairness, beta_fairness, log_sum_exp
from .pricing import (
    BundledPlan,
    DifferentiatedPlan,
    FEASIBILITY_RTOL,
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
        _check_nu(self.nu)
        _check_beta(self.beta)


def _check_nu(nu: float) -> None:
    """Reject a revenue weight that is not finite and nonnegative."""
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and nonnegative, got {nu}")


#: factor by which the barrier weight grows between centering rounds
BARRIER_GROWTH = 20.0
#: damped Newton steps allowed per centering solve
NEWTON_STEPS = 80
#: half squared Newton decrement at which a round whose gap is still open
#: stops centering: inside Newton's quadratic region, where the next
#: round's first steps finish what this one leaves
CENTERING_DECREMENT = 1e-2
#: binding-row load to which a warm start is scaled before its ladder runs.
#: A neighbouring optimum sits on the capacity wall, and a warm point must
#: first be pulled away from it (Yildirim & Wright, SIAM J. Optim. 12, 2002):
#: at load 0.99 the first barrier weight, balanced there, is about 630 on
#: the reference market at beta 20, and the first centering slides along
#: the wall until its step budget runs out.  Over that market's four 24-step
#: beta-20 sweeps, loads 0.90, 0.95 and 0.97 stall no warm ladder, 0.98 one
#: and 0.99 twenty-eight
WARM_START_LOAD = 0.95


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
    ``iterations`` counts the Newton steps of every barrier ladder the
    solve ran, stalled ones (:func:`_start_candidates`) too.  A bundled
    solve is closed-form: its ``iterations`` and ``gap`` are 0.  So is a
    resource solve that KKT proves optimal at a one-price face
    (:func:`_certified_face`): its ``iterations`` are 0, and its ``gap`` is
    the objective lost to posting the unpaid prices small but positive;
    and a differentiated solve that KKT proves optimal with one binding row
    (:func:`_certified_row`), whose ``iterations`` and ``gap`` are 0.
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


def concavity_weight_bound(instance: Instance, beta: float) -> float:
    """Largest certified revenue weight keeping the objective concave.

    Any ``nu`` at or below the returned value makes ``nu * revenue + F_beta``
    a concave function of the prices, so price optimization is a convex
    program.  Requires ``beta > 1``.  A return of 0.0 means no certificate,
    not even for ``nu = 0``: it comes back when ``beta * (1 - alpha_j)``
    does not exceed the discount for some type, or when the bound
    underflows, so callers test ``bound > 0`` before ``nu <= bound``.
    Each type's term is a product of four powers, formed in logs from the
    market's columns at once, so no factor overflows where the product
    does not.
    """
    if not beta > 1.0:
        raise ValueError(f"the concavity certificate needs beta > 1, got {beta}")
    g, alpha = instance.discount, instance.alphas
    if (alpha >= 1.0).any() or (beta * (1.0 - alpha) <= g).any():
        return 0.0
    R = instance.requirement_matrix
    capacities = instance.resources.capacities[:, None]
    # every type needs some resource, so its largest headroom is positive
    headroom = np.divide(capacities, R, out=np.zeros_like(R), where=R > 0.0).max(axis=0)
    log_terms = (
        (1.0 - beta) * np.log((g + alpha - 1.0) / (1.0 - alpha))
        + (beta * g / (alpha + g - 1.0) - 1.0) * math.log(g)
        + np.log(beta * (1.0 - alpha) - g)
        + (beta * (alpha - 1.0) / g) * np.log(headroom)
    )
    with np.errstate(over="ignore"):  # a bound beyond float range is inf
        return float(np.exp(log_terms.min()))


# ---------------------------------------------------------------------------
# Smooth problem structure shared by the barrier solver and the grid oracle.


class _PriceProblem:
    """Objective, constraints, and derivatives as functions of the prices.

    Per-job costs are linear in the price vector (``r = D @ p``), and every
    per-type quantity is a power law of its cost (``kernel``), so its
    derivatives are elasticities (:meth:`objective_log_derivatives`), and
    the barrier's derivatives are congruence transforms of them by ``d log
    r / dp``.  A differentiated plan's prices are its costs: its ``D`` is
    ``None`` and never formed, and its barrier steps in log prices
    (:meth:`point`).  The barrier calls these many times per solve: each
    power of the costs is formed once per point, and the float-error state
    once per call, by the caller where a method says so.
    """

    def __init__(self, instance: Instance, plan_kind: str, bundle=None):
        self.D, self.G, self.limits = plan_structure(instance, plan_kind, bundle)
        self.kind = plan_kind
        self.bundle = instance.resources.capacities if bundle is None else bundle
        self.w = instance.counts
        self.kernel = instance.utility_kernel()
        self.bill_weights = self.w * self.kernel.A  # revenue is their dot with r**q
        self.dim = instance.n if self.D is None else self.D.shape[1]
        self.log_prices = self.D is None  # the Newton coordinates of :meth:`point`
        with np.errstate(divide="ignore"):  # -inf where a type needs none of a row
            self.log_shares = np.log(self.G) - np.log(self.limits)[:, None]

    def make_plan(self, prices: np.ndarray) -> PricingPlan:
        if self.kind == "bundled":
            return BundledPlan(bundle=self.bundle, price=float(prices[0]))
        if self.kind == "resource":
            return ResourcePlan(prices=prices)
        return DifferentiatedPlan(prices=prices)

    @cached_property
    def unit(self) -> np.ndarray:
        """The powers of two that :meth:`point` measures prices in: one over
        each price's largest entry of ``D``, times the level at which those
        prices fill the binding row (as :meth:`level_for_load` finds it), so
        that points are near one in any resource units.  A price that no type
        pays takes the unit of the price with the largest entry."""
        with np.errstate(divide="ignore"):
            logs = np.log2(self.D.max(axis=0))
            unit = np.exp2(-np.round(np.where(logs > -math.inf, logs, logs.max())))
            log_a = self.log_shares + (self.kernel.log_k + self.kernel.e * np.log(self.costs(unit)))
        level = _log_load_root(log_a, self.kernel.e, 1.0) / math.log(2.0)
        return unit * 2.0 ** round(level) if math.isfinite(level) else unit

    def point(self, prices: np.ndarray) -> np.ndarray:
        """The barrier's Newton coordinates of the prices: their logarithms
        for a differentiated plan, prices in :attr:`unit` units otherwise."""
        return np.log(prices) if self.log_prices else prices / self.unit

    def prices(self, point: np.ndarray) -> np.ndarray:
        """The prices at a point of :meth:`point`'s coordinates."""
        return np.exp(point) if self.log_prices else self.unit * point

    def costs(self, prices: np.ndarray) -> np.ndarray:
        """Per-job costs ``D @ prices`` (the prices themselves when ``D`` is ``None``)."""
        return prices if self.D is None else self.D @ prices

    def slacks(self, costs: np.ndarray) -> np.ndarray:
        return self.limits - self.G @ self.kernel.demand(costs)

    def load(self, prices: np.ndarray) -> float:
        """Largest share of any capacity row that demand at these prices uses.

        Demand overflows at tiny prices; callers ignore overflow.
        """
        used = self.G @ self.kernel.demand(self.costs(prices))
        return float((used / self.limits).max())

    def level_for_load(self, target: float, base=None, guess: float = 1.0) -> float:
        """Smallest multiple of ``base`` (uniform prices by default) whose load is ``target``.

        With ``c = costs(base)`` the load at scale ``e**x`` is ``max_i sum_j
        a_ij * e**(e_j x)``, where ``log a_ij = log(G_ij / limits_i) + log k_j
        + e_j log c_j``: Newton on its logarithm (:func:`_log_load_root`,
        from ``log(guess)``) comes within a few ulps of the root, and
        :func:`_bisect_load` halves a bracket around it, checked with the
        exact float :meth:`load`, to the float where the load crosses the
        target (within ``e**±300``, the float the bisection from scale one
        returns).
        """
        base = np.ones(self.dim) if base is None else base
        with np.errstate(divide="ignore"):
            log_a = self.log_shares + (self.kernel.log_k + self.kernel.e * np.log(self.costs(base)))
        root = _log_load_root(log_a, self.kernel.e, target, math.log(guess))
        return _bisect_load(lambda scale: self.load(scale * base), target, root)

    def own_costs(self, targets: np.ndarray) -> np.ndarray:
        """Per-job cost at which each type alone loads a row to its target.

        A type's own load is the single power law ``k_j max_i(G_ij /
        limits_i) r**e_j``, so each cost has the closed form ``exp((log t_j
        - max_i log(G_ij / limits_i) - log k_j) / e_j)``, within the
        rounding of its logarithms; a cost beyond float range is ``inf``.
        """
        shares = self.log_shares.max(axis=0)
        with np.errstate(over="ignore"):
            return np.exp((np.log(targets) - shares - self.kernel.log_k) / self.kernel.e)

    def objective_value(self, spec: ObjectiveSpec, costs: np.ndarray) -> float:
        """``nu * revenue + F_beta`` at the costs, ``-inf`` unless every net
        utility is positive and finite."""
        with np.errstate(over="ignore", divide="ignore"):
            return self._objective(spec, costs)

    def _objective(self, spec: ObjectiveSpec, costs: np.ndarray) -> float:
        """:meth:`objective_value` for callers that ignore overflow and division by zero."""
        powered = costs**self.kernel.q
        utils = self.kernel(costs, powered)
        if not ((utils > 0.0) & (utils < math.inf)).all():
            return -math.inf
        revenue = float((self.bill_weights * powered).sum())
        return spec.nu * revenue + _power_fairness(utils, self.w, spec.beta)

    def objective_log_derivatives(
        self, spec: ObjectiveSpec, costs: np.ndarray, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``r f'`` and ``r² f''`` of the objective ``f`` times a positive
        ``weight``, per per-job cost ``r`` (callers ignore overflow and
        invalid operations).

        With the bill ``B = A r**q``, the elasticities are ``r B' = q B`` and
        ``r² B'' = q (q - 1) B`` for revenue, and ``-B`` and ``-(q - 1) B``
        for the surplus ``u``, which ``F_beta`` weighs by ``u**-beta``.  The
        weight joins it in logs, ``exp(log weight - beta log u)``, so the
        results overflow only where ``weight F_beta ∝ u**(1 - beta)`` does.
        """
        beta, q = spec.beta, self.kernel.q
        powered = costs**q
        utils = self.kernel(costs, powered)
        bills = self.kernel.A * powered
        um_b = np.exp(math.log(weight) - beta * np.log(utils))
        first = self.w * bills * (weight * spec.nu * q - um_b)
        second = (q - 1.0) * first - self.w * bills * (beta * um_b * bills / utils)
        return first, second


#: Newton steps allowed in a price-level search before it bisects from scale one
LEVEL_STEPS = 100


def _log_load_root(log_a: np.ndarray, slopes: np.ndarray, target: float, x: float = 0.0) -> float:
    """Root ``x`` of ``log max_i sum_j exp(log_a[i, j] + slopes[j] * x) = log target``.

    Each row is a log-sum-exp of affine functions with negative slopes
    (demand exponents), so the left side is convex and strictly decreasing:
    Newton climbs to the root from its left without overshoot and lands
    left of it from its right.  A sign bracket guards against rounding: a
    step that leaves it becomes a widening step of ``log 4`` or a halving
    instead.  Returns ``nan`` when no finite root is found in
    ``LEVEL_STEPS`` steps.
    """
    rows = log_a[(log_a > -math.inf).any(axis=1)]
    if not (rows.size and 0.0 < target < math.inf):
        return math.nan
    goal = math.log(target)
    low, high = -math.inf, math.inf  # log scales known above and not above the target
    for _ in range(LEVEL_STEPS):
        z = rows + slopes * x
        top = z.max(axis=1)
        weights = np.exp(z - top[:, None])
        sums = weights.sum(axis=1)
        values = top + np.log(sums)
        i = int(values.argmax())
        value = float(values[i])
        if not math.isfinite(value):
            return math.nan
        step = (goal - value) * float(sums[i]) / float(weights[i] @ slopes)
        if abs(step) <= 2.0**-40 * (1.0 + abs(x)):
            return x + step
        if value > goal:
            low = x
        else:
            high = x
        new = x + step
        if not low < new < high:
            if math.isinf(low) or math.isinf(high):
                new = x + math.copysign(math.log(4.0), step)
            else:
                new = (low + high) / 2.0
        x = new
    return math.nan


def _bisect_load(load, target: float, log_root: float = math.nan) -> float:
    """Smallest scale with load(scale) <= target.

    ``load`` maps a scale to a load, strictly decreasing in it; at tiny
    scales demand overflows, or costs round to zero and demand is
    infinite, which does no harm.  The bracket starts ``16 (1 +
    |log_root|)`` ulps either side of ``exp(log_root)``, which covers the
    rounding of a log-domain root, or at scale one where ``exp(log_root)``
    is not a finite positive float.  It widens geometrically by up to
    4**300 each way until ``load(lo) > target > load(hi)``; then halvings
    of its log-width pin the scale to float resolution.  Each midpoint is
    ``sqrt(lo * hi)``, formed without overflow or underflow.  The halvings
    stop once the midpoint rounds to an end of the bracket, since later
    halvings would leave it as it is, and after 96 at most.  Where the
    float load crosses the target once, every bracket ends on the same
    float.
    """
    try:
        guess = math.exp(log_root)
    except OverflowError:
        guess = math.inf
    if 0.0 < guess < math.inf:  # false for nan
        width = 16.0 * 2.0**-52 * (1.0 + abs(log_root))
    else:
        guess, width = 1.0, 0.0
    lo, hi = guess * (1.0 - width), guess * (1.0 + width)
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(300):
            if load(lo) > target:
                break
            lo /= 4.0
        else:
            raise InfeasibleError("demand never reaches capacity at any positive price")
        for _ in range(300):
            if load(hi) < target:
                break
            hi *= 4.0
        else:
            raise InfeasibleError("no price high enough to fit demand inside capacity")
        for _ in range(96):
            # sqrt(lo * hi) with both ends scaled by a power of two, so the
            # product stays a normal float and the rounding is unchanged
            k = math.frexp(hi)[1]
            mid = math.ldexp(math.sqrt(math.ldexp(lo, -k) * math.ldexp(hi, -k)), k)
            if mid == lo or mid == hi:
                break
            if load(mid) > target:
                lo = mid
            else:
                hi = mid
    return hi


def _feasible_start(problem: _PriceProblem, spec: ObjectiveSpec) -> np.ndarray:
    """Strictly feasible prices with the binding usage ratio near one half.

    Every start is a price level times a base, found by one level search
    from the level before it.  Bundled and resource plans take uniform
    prices as their base.  A differentiated plan's base gives each type an
    equal slice of its own binding resource (:meth:`_PriceProblem.own_costs`),
    which the level then scales to the target load: a uniform start can
    leave a type's demand negligible, and its flat objective coordinate
    then drifts on the barrier instead of optimizing.  When positive net
    utilities, or an objective inside the float range (``F_beta`` of tiny
    utilities at large ``beta`` is not), require lower prices than the
    half-capacity point allows, the target is relaxed toward the boundary:
    the start is the first target whose objective is finite.
    """
    level = 1.0
    for target in (0.5, 0.8, 0.95, 0.99):
        if problem.kind == "differentiated":
            base = problem.own_costs(np.full(problem.dim, target / problem.dim))
        else:
            base = np.ones(problem.dim)
        level = problem.level_for_load(target, base, level)
        start = level * base
        if math.isfinite(problem.objective_value(spec, problem.costs(start))):
            return start
    raise _no_finite_objective(spec)


def _no_finite_objective(spec: ObjectiveSpec) -> InfeasibleError:
    return InfeasibleError(
        "no strictly feasible price vector keeps every type's net utility positive "
        f"and F_beta (beta={spec.beta:g}) inside the float range"
    )


def _barrier_value(problem, spec, t_scaled, point) -> float:
    """The barrier function at a point of the problem's Newton coordinates
    (:meth:`_PriceProblem.point`), ``inf`` outside its domain.  A
    price-coordinate plan adds the log barrier of its price shares."""
    with np.errstate(over="ignore"):
        prices = problem.prices(point)
    if (prices <= 0.0).any():
        return math.inf
    costs = problem.costs(prices)
    if (costs <= 0.0).any():
        return math.inf
    # a zero requirement times an overflowed demand is a NaN slack, outside too
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slack = problem.slacks(costs)
        if not (slack > 0.0).all():
            return math.inf
        value = problem._objective(spec, costs)
        total = prices.sum()  # past the float range, the share term is infinite
    if not math.isfinite(value):
        return math.inf
    value = -t_scaled * value - float(np.log(slack).sum())
    if problem.log_prices:
        return value
    value -= float(np.log(prices).sum())
    return value + problem.dim * math.log(total)


def _barrier_derivatives(problem, spec, t_scaled, point):
    """Gradient and Newton system of the barrier function at a point of the
    problem's Newton coordinates.

    Every per-type derivative is formed as an elasticity: ``r x' = e x``
    and ``r² x'' = e (e - 1) x`` for demand, and ``r f'`` and ``r² f''``
    for the objective, formed with its weight ``t = t_scaled``
    (:meth:`_PriceProblem.objective_log_derivatives`; ``t = 0`` leaves the
    barrier terms alone); none overflows where its power law does not.
    With ``J`` the usage Jacobian (one row per capacity row), ``S`` the
    slacks and ``h`` the per-type second elasticities ``-t r² f'' + sum_i
    G_ij e (e - 1) x_j / s_i``, only the map to the Newton coordinates
    differs by plan:

    - a differentiated plan's prices are its costs, and it steps in ``u =
      log p`` with no positivity term: ``J = G diag(e x)``, and the system
      is ``diag(h) + Jᵀ S⁻² J``, ``P H P`` for the price-space Hessian
      ``H`` (``P = diag(p)``) without the first-order term ``diag(P g)``,
      which vanishes at each centre, so the Newton decrement is the one in
      price space.  It is held as a :class:`_DiagonalLowRankSystem`;
    - resource and bundled plans step in prices ``z = p / unit``
      (:attr:`_PriceProblem.unit`), through ``M = D diag(unit) / r`` (``d
      log r / dz``, entries at most ``1 / z``): ``J = G diag(e x) M``, and
      the Hessian ``Mᵀ diag(h) M + Jᵀ S⁻² J`` plus the share term's
      ``diag(1 / z²) - dim v vᵀ`` (``v = unit / sum p``, indefinite where
      prices are unequal), a dense system of a few prices.
    """
    e = problem.kernel.e

    def log_reach(direction):  # capacity rows alone; exp(u) is never negative
        return _tangent_reach(slack, jac @ direction, problem.limits)

    def price_reach(direction):  # capacity rows and positivity
        slacks = np.concatenate((slack, point))
        rates = np.concatenate((jac @ direction, -direction))
        return _tangent_reach(slacks, rates, np.concatenate((problem.limits, point)))

    with np.errstate(over="ignore", invalid="ignore"):
        prices = problem.prices(point)
        costs = problem.costs(prices)
        demand = problem.kernel.demand(costs)
        slack = problem.limits - problem.G @ demand
        if t_scaled:
            obj1, obj2 = problem.objective_log_derivatives(spec, costs, t_scaled)
        else:  # the barrier terms alone
            obj1, obj2 = np.zeros((2, costs.size))
        jac = problem.G * (e * demand)  # d usage_i / d log r_j
        curvature = (problem.G * (e * (e - 1.0) * demand)) / slack[:, None]
        h = curvature.sum(axis=0) - obj2
        if problem.log_prices:
            grad = jac.T @ (1.0 / slack) - obj1
            return grad, _DiagonalLowRankSystem(h, jac, slack, log_reach)
        M = (problem.unit * problem.D) / costs[:, None]  # d log r / d point
        jac = jac @ M
        grad = jac.T @ (1.0 / slack) - M.T @ obj1
        share = problem.unit / prices.sum()  # d log(sum p) / dz
        grad += problem.dim * share - 1.0 / point
        hess = (M.T * h) @ M
        rates = jac / slack[:, None]  # relative rates: their squares stay in range
        hess += rates.T @ rates
        hess += np.diag((1.0 / point) ** 2)  # overflows to inf, never divides by zero
        hess -= problem.dim * (share[:, None] * share)
    return grad, _DenseSystem(hess, price_reach)


def _unbounded(direction) -> float:
    """The tangent step bound of a system that knows no constraints."""
    return math.inf


#: share of each constraint's magnitude that the tangent step bound adds to
#: its slack: more than the rounding error of a slack evaluated near zero
REACH_ROUNDING = 2.0**-40


def _tangent_reach(slacks: np.ndarray, rates: np.ndarray, magnitudes: np.ndarray) -> float:
    """The tangent step bound: ``min s_i / rate_i`` over the falling constraints.

    ``slacks`` are a barrier's constraint values, all positive at the
    current point, and ``rates`` the rates ``-s_i'·d`` at which they fall
    along a direction ``d``.  Every constraint is concave along any ray, so
    it lies below its tangent, and a step beyond the bound leaves the
    barrier's domain.  Each slack is first widened by
    :data:`REACH_ROUNDING` times its ``magnitudes`` entry (the size of the
    terms it is the difference of), so that rounding cannot leave a refused
    step inside the domain.  A rate that is not finite, or a bound that is
    not a positive float, gives no bound (``inf``).  Callers ignore
    overflow, invalid operations and division by zero.
    """
    speeds = rates / (slacks + REACH_ROUNDING * magnitudes)  # relative falls
    fastest = float(speeds.max())
    if not (fastest > 0.0 and np.isfinite(speeds).all()):
        return math.inf
    return 1.0 / fastest


class _DenseSystem:
    """A Newton system ``H d = rhs`` held as its assembled matrix.

    Resource plans (a few prices) solve their systems this way; their share
    term is not convex, so ``H`` may be indefinite and each solve tests it.
    ``reach(direction)`` is the barrier's tangent step bound along a
    direction (:func:`_tangent_reach`); a system built without one has none.
    """

    def __init__(self, matrix: np.ndarray, reach=_unbounded):
        self.matrix = matrix
        self.reach = reach

    def finite(self) -> bool:
        return bool(np.isfinite(self.matrix).all())

    @property
    def scale(self) -> float:
        """The largest diagonal magnitude: the unit of the ridge floor."""
        return float(np.abs(np.diag(self.matrix)).max())

    def solve(self, rhs: np.ndarray, tau: float) -> np.ndarray:
        """``(H + tau I)⁻¹ rhs``, or ``LinAlgError`` when ``H + tau I`` is not
        positive definite.

        Cholesky is the definiteness test; the solution comes from one LU
        solve of the ridged matrix, and an exact zero LU pivot on a matrix
        that passed Cholesky (rounding can leave one) raises like a failed
        Cholesky.
        """
        ridged = self.matrix + tau * np.eye(self.matrix.shape[0]) if tau else self.matrix
        np.linalg.cholesky(ridged)
        return np.linalg.solve(ridged, rhs)


#: a diagonal entry of a :class:`_DiagonalLowRankSystem` at most this share
#: of its low-rank term is a near-singular pivot, which the solve declines
PIVOT_RTOL = 1e-10


class _DiagonalLowRankSystem:
    """``H = diag(h) + Jᵀ S⁻² J`` held in that structure, ``J`` of few rows.

    A solve costs ``O(n m²)`` for ``m`` rows and forms no ``n × n`` array.

    ``H + tau I`` is positive definite exactly when its diagonal ``d = h +
    tau`` and the capacitance ``C = I + V diag(d)⁻¹ Vᵀ`` (``V = S⁻¹ J``)
    have as many negative entries as negative eigenvalues and no zero: both
    sides count the inertia of ``[[diag(d), Vᵀ], [V, -I]]`` (Haynsworth
    inertia additivity).  The direction then follows by Woodbury.  When a
    diagonal entry is a near-singular pivot, or cancellation leaves ``C``
    near-singular, the solve raises ``LinAlgError`` like an indefinite
    system, and :func:`_newton_direction` ridges it.  ``reach`` is as for
    :class:`_DenseSystem`.
    """

    def __init__(self, h, jac, slack, reach=_unbounded):
        self.h = h
        self.reach = reach
        self.rows = jac / slack[:, None]  # V: H = diag(h) + Vᵀ V
        self.row_diagonal = (self.rows**2).sum(axis=0)
        self._pivot_floor = PIVOT_RTOL * self.row_diagonal

    def finite(self) -> bool:
        return bool(np.isfinite(self.h).all() and np.isfinite(self.row_diagonal).all())

    @property
    def scale(self) -> float:
        """The largest diagonal magnitude: the unit of the ridge floor."""
        return float(np.abs(self.h + self.row_diagonal).max())

    def solve(self, rhs: np.ndarray, tau: float) -> np.ndarray:
        """``(H + tau I)⁻¹ rhs``, or ``LinAlgError`` when ``H + tau I`` is not
        positive definite."""
        d = self.h + tau if tau else self.h
        if not (np.abs(d) > self._pivot_floor).all():
            raise np.linalg.LinAlgError("near-singular pivot")
        V = self.rows
        scaled = V / d  # V diag(d)⁻¹
        capacitance = scaled @ V.T
        capacitance.flat[:: V.shape[0] + 1] += 1.0  # plus the identity
        eigenvalues, basis = np.linalg.eigh(capacitance)
        negative = np.count_nonzero(d < 0.0)
        if negative:
            # with negative pivots the capacitance is a difference of terms
            # up to this size; an eigenvalue lost in its rounding has no sign
            spread = 1.0 + float((np.abs(scaled) @ np.abs(V).T).max())
            if np.abs(eigenvalues).min() <= 1e-8 * spread:
                raise np.linalg.LinAlgError("capacitance lost to cancellation")
        if np.count_nonzero(eigenvalues < 0.0) != negative:
            raise np.linalg.LinAlgError("matrix is not positive definite")

        def woodbury(r):
            return (r - V.T @ (basis @ ((basis.T @ (scaled @ r)) / eigenvalues))) / d

        # Woodbury loses about eps / min(d / diag H) to cancellation; one
        # refinement step on the residual wins that back
        x = woodbury(rhs)
        return x + woodbury(rhs - d * x - V.T @ (V @ x))


def _newton_direction(system, grad: np.ndarray) -> np.ndarray:
    """Solve for a descent direction, ridging the Hessian up to definiteness.

    ``system.solve`` raises ``LinAlgError`` where it finds the ridged
    Hessian singular or, for the price systems, not positive definite;
    when the barrier Hessian is indefinite (the weighted objective need not
    be concave above the certified revenue weight, and a price share term
    is not convex) a growing multiple of the identity, from a floor of
    ``1e-10 * system.scale``, blends the step toward steepest descent.  The
    deadline repair's barrier is strictly convex and its system makes no
    definiteness test; a singular LU, or a solution that is not finite or
    not a descent direction, is ridged the same way.
    """
    tau = 0.0
    for _ in range(40):
        try:
            direction = system.solve(-grad, tau)
            if np.isfinite(direction).all() and grad @ direction < 0.0:
                return direction
        except np.linalg.LinAlgError:
            pass
        if not tau:
            floor = 1e-10 * system.scale
        tau = max(floor, tau * 4.0)
        if not tau < math.inf:  # inf * I is NaN off its diagonal
            break
    return -grad  # last resort: steepest descent


ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5


def _newton_minimize(
    value_of, derivatives_of, point, max_iterations, floor=0.0
) -> tuple[np.ndarray, int, bool]:
    """Damped Newton with backtracking on a barrier function.

    ``value_of(point)`` is the barrier's value (``inf`` outside its domain)
    and ``derivatives_of(point)`` its gradient and Newton system (see
    :class:`_DenseSystem`).  Each step tries step 1, then doubles while the
    value keeps falling or halves until the Armijo test passes (Boyd &
    Vandenberghe, *Convex Optimization*, §9.2).  A trial beyond the
    system's tangent step bound ``system.reach(direction)``
    (:func:`_tangent_reach`) lies outside the domain and is refused
    without calling ``value_of``, as its value would be ``inf``; so every
    accepted step is the one that evaluating each trial would accept.
    Returns the final point, the steps taken and whether the Newton
    decrement settled: half its square ``λ²/2`` at most ``1e-10 * (1 +
    |value|)``, or at most ``floor`` when that is larger (the loose
    centering of :func:`_barrier_path`).  A solve that runs out of steps,
    or finds no acceptable step, settles at ``1e-6`` in place of ``1e-10``.
    """
    value = value_of(point)

    def settled(decrement: float, rtol: float) -> bool:  # at the current value
        return decrement / 2.0 <= max(floor, rtol * (1.0 + abs(value)))

    for iteration in range(max_iterations):
        grad, system = derivatives_of(point)
        if not (np.isfinite(grad).all() and system.finite()):
            return point, iteration, False
        direction = _newton_direction(system, grad)
        slope = float(grad @ direction)
        decrement = -slope
        if settled(decrement, 1e-10):
            return point, iteration, True

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            reach = system.reach(direction)

        def sufficient(step: float) -> tuple[bool, float]:
            if step > reach:  # past a constraint's tangent, so outside the domain
                return False, math.inf
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
                return point, iteration, settled(decrement, 1e-6)
        point = point + step * direction
        value = cand_value
    grad, system = derivatives_of(point)
    direction = _newton_direction(system, grad)
    return point, max_iterations, settled(-float(grad @ direction), 1e-6)


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

    A bundled plan has one price, and every net utility and ``F_beta`` fall
    as it rises while revenue cannot rise (``q <= 0``), so its optimum is
    the lowest price that fills the bundles, for every ``nu`` and ``beta``:
    the solve returns that price (:func:`bundled_price_bisection`) with
    ``iterations=0`` and ``gap=0.0``, running no barrier ladder.

    A resource solve first tries the one-price faces where
    :func:`concavity_weight_bound` certifies the objective concave (``beta
    > 1`` and ``0 <= nu <= bound``, with ``bound > 0``): when KKT proves
    the best face optimal, the solve returns it with ``iterations=0``,
    running no ladder (:func:`_certified_face`).  Under the same
    certificate a differentiated solve at ``nu = 0`` is a convex program
    whose stationarity, with one binding row, is one power law per type:
    when one row's multiplier gives a point that loads every other row
    below it, that point is the global optimum, and the solve returns it
    with ``iterations=0`` and ``gap=0.0`` (:func:`_certified_row`).  A
    revenue weight above 0, a binding row that some type does not need, a
    tie or two binding rows leave the ladders to decide.  Without a
    certificate a point that meets the same conditions may be only a local
    optimum, so every other solve runs its ladders.

    Other plans start from a strictly feasible price vector found
    internally, then run the log-barrier method with damped Newton inner
    solves until the barrier gap, relative to the objective, is at most
    ``tolerance`` (finite and positive).  A stalled ladder is retried from
    the next start of :func:`_start_candidates`; when every one stalls, the
    result is the best stalled one, non-converged and carrying diagnostics
    rather than an exception.  An empty feasible interior raises
    :class:`InfeasibleError`, and so does a market where no start lands
    inside the barrier's domain.

    ``start`` (positive prices of this plan, such as a neighbouring
    market's optimum) is tried first, scaled to load the binding capacity
    row to :data:`WARM_START_LOAD`; if its ladder stalls, the solve goes on
    exactly as without it.  A bundled solve checks it and has no use for it.
    """
    _check_tolerance(tolerance)
    problem = _PriceProblem(instance, plan_kind, bundle)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (problem.dim,) or not np.all((start > 0.0) & (start < math.inf)):
            raise ValueError(f"start must hold {problem.dim} positive finite prices")

    best, iterations = None, 0
    if problem.kind == "bundled":
        prices = np.array([problem.level_for_load(1.0)])
        value = problem.objective_value(spec, problem.costs(prices))
        if not math.isfinite(value):
            raise _no_finite_objective(spec)
        best = _LadderResult(prices, 0, value, 0.0, True, "")
    elif _certified_concave(instance, spec):
        if problem.kind == "resource":
            best = _certified_face(problem, spec, tolerance)
        else:
            best = _certified_row(problem, spec)
    if best is None:
        for prices in _start_candidates(problem, spec, start):
            result = _barrier_ladder(problem, spec, tolerance, prices)
            iterations += result.iterations
            if best is None or result.beats(best):
                best = result
            if result.converged:  # later candidates exist only to escape stalls
                break
        if best is None:
            raise InfeasibleError("no start lies inside the barrier's domain")

    plan = problem.make_plan(best.prices)
    return SolveResult(
        plan=plan, outcome=evaluate(instance, plan), objective_value=best.value,
        iterations=iterations, converged=best.converged, gap=best.gap, message=best.message,
    )


#: a certified face posts its unpaid prices small but positive, as
#: ``start=`` and output checks require: the largest cost each adds to a job
#: is this share of the largest the paid price adds, in any resource units
FACE_UNPAID_SHARE = 2.0**-40
#: a second capacity row loaded within this share of the binding one ties
#: with it at a face, where one row's multiplier no longer proves optimality
FACE_TIE_RTOL = 1e-9


def _certified_concave(instance: Instance, spec: ObjectiveSpec) -> bool:
    """Whether :func:`concavity_weight_bound` certifies the objective
    concave: ``beta > 1`` and ``0 <= nu <= bound``, where a bound of 0
    certifies nothing, not even ``nu = 0``."""
    return spec.beta > 1.0 and 0.0 < concavity_weight_bound(instance, spec.beta) >= spec.nu


def _certified_face(problem: _PriceProblem, spec: ObjectiveSpec, tolerance):
    """A resource optimum proved at a one-price face, or ``None``.

    A face prices one resource ``k`` and leaves the others at zero; it is
    feasible when every type needs ``k``, and as for the bundled plan its
    optimum is the lowest price that fills the binding row.  Called only
    where :func:`_certified_concave` holds, so the objective is concave and
    the KKT conditions at the best face prove it the global optimum (Boyd &
    Vandenberghe, *Convex Optimization*, §5.5.3): with one binding row
    ``g``, ``λ = ∂f/∂z_k / ∂g/∂z_k`` is positive and every unpaid price's
    multiplier ``μ_i = λ ∂g/∂z_i − ∂f/∂z_i`` is nonnegative, both formed
    from the elasticities in the ladder's price units
    :attr:`_PriceProblem.unit`; a ``μ_i`` within 4 ulps of its terms below
    zero counts as zero (one type's unpaid multipliers are all zero).
    The face is posted with its unpaid prices at :data:`FACE_UNPAID_SHARE`
    of the paid one, each measured by its largest entry of ``D`` (a price
    no type pays at the share itself), and re-levelled to load 1; ``gap``
    is the objective lost to that, relative to the face's value.  At a tie
    of rows, where the conditions fail, or where that loss exceeds
    ``tolerance``, the ladders decide.
    """
    def face(k, unpaid=0.0):  # one price unit of resource k, and `unpaid` units of k elsewhere
        return problem.unit[k] * np.where(np.arange(problem.dim) == k, 1.0, unpaid)

    faces = []
    for k in np.nonzero((problem.D > 0.0).all(axis=0))[0]:
        try:
            level = problem.level_for_load(1.0, face(k))
        except InfeasibleError:
            continue
        value = problem.objective_value(spec, problem.costs(level * face(k)))
        if math.isfinite(value):
            faces.append((value, int(k), level))
    if not faces:
        return None
    value, k, level = max(faces)
    costs = problem.costs(level * face(k))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        demand = problem.kernel.demand(costs)
        loads = (problem.G @ demand) / problem.limits
        row = int(np.argmax(loads))
        M = (problem.unit * problem.D) / costs[:, None]  # d log r / d point
        weight = 1.0 / max(1.0, abs(value))  # finite where f is; no multiplier changes sign
        grad = M.T @ problem.objective_log_derivatives(spec, costs, weight)[0]
        row_grad = (problem.G[row] * (problem.kernel.e * demand)) @ M
        lam = grad[k] / row_grad[k]
        mu = np.delete(lam * row_grad - grad, k)
        # a multiplier that is zero in exact arithmetic rounds to either sign
        rounding = 4.0 * np.finfo(float).eps * np.delete(np.abs(lam * row_grad) + np.abs(grad), k)
    if np.count_nonzero(loads >= (1.0 - FACE_TIE_RTOL) * loads[row]) > 1:
        return None
    if not (0.0 < lam < math.inf and ((mu >= -rounding) & (mu < math.inf)).all()):
        return None
    largest = problem.D.max(axis=0)  # a price no type pays posts at the share itself
    with np.errstate(over="ignore"):
        ratio = np.divide(largest[k], largest, out=np.ones(problem.dim), where=largest > 0.0)
        base = face(k, FACE_UNPAID_SHARE * ratio)
    if not ((base > 0.0) & (base < math.inf)).all():
        return None
    prices = problem.level_for_load(1.0, base, level) * base
    posted = problem.objective_value(spec, problem.costs(prices))
    gap = max(0.0, (value - posted) / abs(value))
    if not gap <= tolerance:
        return None
    return _LadderResult(prices, 0, posted, gap, True, "")


def _certified_row(problem: _PriceProblem, spec: ObjectiveSpec):
    """A differentiated optimum at ``nu = 0`` proved with one binding row, or ``None``.

    Called only where :func:`_certified_concave` holds.  Then each type's
    term of ``F_beta`` is concave in its own cost, and each capacity row
    ``G x(r) <= limits`` is convex, so a KKT point is the global optimum
    (Boyd & Vandenberghe, *Convex Optimization*, §5.5.3).  With surplus
    ``u_j = s_j r_j**q_j`` (``s_j q_j = -A_j``) and one binding row ``i``
    of multiplier ``λ``, each type's stationarity is one power law, ``E_j
    log r_j = log λ + log G_ij + log(-e_j k_j) - log w_j + β log s_j - log
    A_j`` with ``E_j = q_j (1 - β) - e_j > 0``.  Every row's load is then a
    log-sum-exp affine in ``log λ`` with slopes ``e_j / E_j < 0``:
    :func:`_log_load_root` finds ``log λ`` where row ``i`` loads to one,
    and :func:`_bisect_load` pins it to the float where that row's exact
    load crosses one.  Each row that every type needs is tried; the best
    candidate whose other rows load below ``1 - FACE_TIE_RTOL`` and whose
    objective is finite is returned.  A revenue weight, a row that some
    type does not need, a tie or two binding rows leave the ladders to
    decide.
    """
    if spec.nu != 0.0:
        return None
    kernel = problem.kernel
    E = kernel.q * (1.0 - spec.beta) - kernel.e
    with np.errstate(divide="ignore"):  # a coefficient that underflowed to 0 has no power law
        per_type = (
            np.log(-kernel.e) + kernel.log_k - np.log(problem.w)
            + spec.beta * np.log(kernel.surplus_coef) - np.log(kernel.A)
        )
    if not np.isfinite(per_type).all():
        return None
    best = None
    for i in np.nonzero((problem.G > 0.0).all(axis=1))[0]:
        offset = np.log(problem.G[i]) + per_type  # E log r = log λ + offset
        log_a = problem.log_shares[i] + kernel.log_k + kernel.e * offset / E
        log_lam = _log_load_root(log_a[None, :], kernel.e / E, 1.0)
        with np.errstate(over="ignore"):
            base = np.exp((log_lam + offset) / E)  # the costs at that λ
        if not np.all((base > 0.0) & (base < math.inf)):
            continue

        def costs(scale):  # at λ times scale
            return base * scale ** (1.0 / E)

        def row_load(scale):
            return float(problem.G[i] @ kernel.demand(costs(scale))) / problem.limits[i]

        try:
            prices = costs(_bisect_load(row_load, 1.0, 0.0))
        except InfeasibleError:
            continue
        with np.errstate(over="ignore"):
            loads = (problem.G @ kernel.demand(prices)) / problem.limits
        value = problem.objective_value(spec, prices)
        if np.delete(loads, i).max(initial=0.0) < 1.0 - FACE_TIE_RTOL and math.isfinite(value):
            if best is None or value > best.value:
                best = _LadderResult(prices, 0, value, 0.0, True, "")
    return best


def _coarse_probe(problem: _PriceProblem, spec: ObjectiveSpec, around: np.ndarray):
    """Best point of a two-decade grid, strictly inside capacity since it starts a ladder."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed cells are invalid points
        axes = [np.geomspace(p / 30.0, p * 30.0, 14) for p in around]
    prices, value = _grid_search(problem, spec, axes, np.nextafter(problem.limits, 0.0))
    return prices if math.isfinite(value) else None


def _start_candidates(problem: _PriceProblem, spec: ObjectiveSpec, warm):
    """Starts for the barrier ladders, each computed only once a stall reaches it.

    In order: the warm start, scaled to load the binding capacity row to
    :data:`WARM_START_LOAD`, away from the wall it came from; the default
    start (:func:`_feasible_start`); and, for at most four prices,
    the best cell of a coarse grid around the default start.  A start
    outside the barrier's domain is dropped.
    """

    def candidates():
        if warm is not None:
            yield problem.level_for_load(WARM_START_LOAD, warm) * warm
        start = _feasible_start(problem, spec)
        yield start
        if problem.dim <= 4:
            yield _coarse_probe(problem, spec, start)

    for prices in candidates():
        point = None if prices is None else problem.point(prices)
        if point is not None and _barrier_value(problem, spec, 0.0, point) < math.inf:
            yield prices


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
    and its gradient and Newton system), then stops once ``gap_of(point, t)``
    is at most ``tolerance`` or multiplies ``t`` by :data:`BARRIER_GROWTH`.
    Only the last round's centre is returned, so a round whose gap is still
    open centers loosely, to a half squared Newton decrement of
    :data:`CENTERING_DECREMENT`, which keeps the next round's start inside
    Newton's quadratic region (Boyd & Vandenberghe, *Convex Optimization*,
    §11.3.3).  A round that closes the gap from a loose centre, or whose
    start already closes it, centers tightly (:func:`_newton_minimize`'s
    relative rule) and tests the gap again.  Returns the final point, the
    Newton steps taken, the last gap and a message that is empty exactly
    when the gap closed.
    """

    def center(point, floor):  # at the current weight t
        return _newton_minimize(
            lambda p: value_of(p, t), lambda p: derivatives_of(p, t), point, NEWTON_STEPS, floor
        )

    iterations, gap = 0, math.inf
    for _ in range(rounds):
        floor = CENTERING_DECREMENT if gap_of(point, t) > tolerance else 0.0
        point, steps, ok = center(point, floor)
        iterations += steps
        gap = gap_of(point, t)
        if ok and floor and gap <= tolerance:
            point, steps, ok = center(point, 0.0)
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
    # the gap counts the capacity rows and, in price coordinates, the
    # share term's positivity rows; no centering needs an upper price bound
    n_constraints = problem.limits.size + (0 if problem.log_prices else problem.dim)
    point = problem.point(prices)

    if not math.isfinite(_barrier_value(problem, spec, 0.0, point)):
        raise InfeasibleError("barrier ladder started outside the feasible domain")
    costs = problem.costs(prices)
    start_objective = problem.objective_value(spec, costs)
    scale = max(1.0, abs(start_objective))

    # Balance the first barrier weight against the objective's slope so the
    # initial centering solution stays near the start: on surveys of random
    # and shared-dominant markets, t = 1 in its place takes 3.5%-6% more
    # Newton steps to the same results.  Both slopes are taken in price
    # space, whatever coordinates the Newton steps take.
    with np.errstate(over="ignore", invalid="ignore"):  # no finite slope: start at t = 1
        slopes = problem.objective_log_derivatives(spec, costs, 1.0 / scale)[0] / costs
        barrier_grad, _ = _barrier_derivatives(problem, spec, 0.0, point)
        if problem.log_prices:
            obj_slope = float(np.linalg.norm(slopes))
            barrier_grad = barrier_grad / prices
        else:  # tiny requirements give slopes whose squares underflow
            obj_slope = float(np.hypot.reduce(problem.D.T @ slopes))
            barrier_grad = barrier_grad / problem.unit
    barrier_slope = float(np.hypot.reduce(barrier_grad))  # a norm that cannot overflow
    t = max(1.0, barrier_slope / max(obj_slope, 1e-300))

    # The gap test is relative to the objective where the iterate currently
    # sits, not where it started: steep fairness exponents shrink |objective|
    # by many orders along the path, and a start-scaled tolerance would call
    # the solve done long before the capacity wall.
    def gap_of(z, t):
        value = problem.objective_value(spec, problem.costs(problem.prices(z)))
        return (n_constraints / t) * scale / max(1.0, abs(value))

    point, iterations, gap, message = _barrier_path(
        lambda z, t: _barrier_value(problem, spec, t / scale, z),
        lambda z, t: _barrier_derivatives(problem, spec, t / scale, z),
        point, t, gap_of, tolerance, 300,
    )
    prices = problem.prices(point)
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
    one-dimensional root of the bundle-count constraint, found to float
    resolution by :meth:`_PriceProblem.level_for_load`: Newton on the log
    of the load, then a bisection over a few ulps.  :func:`barrier_optimize`
    returns this price for a bundled plan.
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
        R = problem.costs(P)  # (n, c) per-job costs
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
    prices, value = _grid_search(problem, spec, axes, problem.limits * (1.0 + FEASIBILITY_RTOL))
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
