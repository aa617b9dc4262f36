"""Self-verification: numeric checks of the library's analytical claims.

Each check pairs an implementation path with an independent numeric route
(bisection roots, finite differences, brute-force grids, extended-precision
arithmetic) and carries a stable identifier so reports can be compared
across runs.  The registry backs the ``verify`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import (
    UtilityParams,
    demand_by_bisection,
    demand_sensitivity,
    net_utility,
    optimal_demand,
)
from .fairness import FairnessSpec, beta_fairness, beta_lambda_fairness, pareto_probe
from .optimizer import (
    ObjectiveSpec,
    barrier_optimize,
    bundled_price_bisection,
    concavity_weight_bound,
    grid_oracle,
    objective,
    tradeoff_bound_check,
    _barrier_ladder,
    _feasible_start,
    _PriceProblem,
)
from .pricing import (
    BundledPlan,
    DifferentiatedPlan,
    Instance,
    ResourceModel,
    ResourcePlan,
    UserType,
    evaluate,
    lift_resource_to_differentiated,
)
from .synth import (
    google_cluster_instance,
    planted_trace,
    random_instance,
    sample_feasible_prices,
)
from .trace import aggregate_and_filter, kmeans

__all__ = [
    "CheckResult", "SCOPES", "run_checks", "central_difference_hessian", "objective_price_hessian"
]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    scope: str
    passed: bool
    detail: str


def random_demand_tuples(rng: np.random.Generator, count: int):
    """(utility, cost, discount) triples covering the valid parameter box."""
    out = []
    for _ in range(count):
        alpha = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(1.0 - alpha + 0.05, 1.0))
        c = float(rng.uniform(0.1, 10.0))
        r = float(rng.uniform(0.01, 100.0))
        out.append((UtilityParams(alpha=alpha, c=c), r, gamma))
    return out


def central_difference_hessian(value, point: np.ndarray) -> np.ndarray:
    """Hessian of ``value`` at ``point`` by central differences of its values.

    Each coordinate steps by ``1e-4 * max(1, |point_k|)``; the mixed
    partials use the four-point stencil, so the result is symmetric.
    """
    d = point.size
    hess = np.empty((d, d))
    h = 1e-4 * np.maximum(1.0, np.abs(point))
    for a in range(d):
        for b in range(a, d):
            pp = point.copy()
            pm = point.copy()
            mp = point.copy()
            mm = point.copy()
            pp[a] += h[a]; pp[b] += h[b]
            pm[a] += h[a]; pm[b] -= h[b]
            mp[a] -= h[a]; mp[b] += h[b]
            mm[a] -= h[a]; mm[b] -= h[b]
            hess[a, b] = hess[b, a] = (
                value(pp) - value(pm) - value(mp) + value(mm)
            ) / (4.0 * h[a] * h[b])
    return hess


def objective_price_hessian(
    instance: Instance, plan_kind: str, spec: ObjectiveSpec, prices: np.ndarray, bundle=None
) -> np.ndarray:
    """Central-difference Hessian of the weighted objective in price space."""
    problem = _PriceProblem(instance, plan_kind, bundle)
    return central_difference_hessian(
        lambda p: problem.objective_value(spec, problem.costs(p)), prices
    )


# ---------------------------------------------------------------------------
# demand


def _check_demand_roots(rng, samples: int) -> tuple[bool, str]:
    worst = 0.0
    for utility, r, gamma in random_demand_tuples(rng, samples):
        closed = optimal_demand(utility, r, gamma)
        root = demand_by_bisection(utility.marginal, r, gamma)
        worst = max(worst, abs(closed - root) / root)
    return worst <= 1e-9, f"max relative gap {worst:.3e} over {samples} parameter draws"


def _check_demand_monotone(rng, samples: int) -> tuple[bool, str]:
    ok = True
    for utility, _r, gamma in random_demand_tuples(rng, samples // 4):
        grid = np.sort(rng.uniform(0.01, 100.0, size=8))
        values = [optimal_demand(utility, float(r), gamma) for r in grid]
        ok &= all(b < a for a, b in zip(values, values[1:]))
    return ok, "demand strictly falls on sorted cost grids"


def _check_demand_sensitivity(rng, samples: int) -> tuple[bool, str]:
    worst = 0.0
    for utility, r, gamma in random_demand_tuples(rng, samples):
        analytic = demand_sensitivity(utility, r, gamma)
        h = 1e-6 * r
        numeric = (
            optimal_demand(utility, r + h, gamma) - optimal_demand(utility, r - h, gamma)
        ) / (2.0 * h)
        worst = max(worst, abs(analytic - numeric) / abs(numeric))
        if analytic >= 0.0:
            worst = np.inf
    return worst <= 1e-5, f"max relative gap {worst:.3e}; all sensitivities negative"


def _check_surplus_identity(rng, samples: int) -> tuple[bool, str]:
    worst = 0.0
    for utility, r, gamma in random_demand_tuples(rng, samples):
        x = optimal_demand(utility, r, gamma)
        direct = net_utility(utility, r, gamma)
        coefficient = gamma / (1.0 - utility.alpha) - 1.0
        closed = coefficient * r * x**gamma
        worst = max(worst, abs(direct - closed) / closed)
    return (
        worst <= 1e-9,
        f"surplus equals (gamma/(1-alpha)-1) * cost * demand**gamma; max gap {worst:.3e}",
    )


def _check_second_order(rng, samples: int) -> tuple[bool, str]:
    ok = True
    for utility, r, gamma in random_demand_tuples(rng, samples):
        x = optimal_demand(utility, r, gamma)
        ok &= utility.curvature(x) < gamma * (gamma - 1.0) * x ** (gamma - 2.0) * r
    return ok, "curvature condition for a maximum holds at every returned demand"


# ---------------------------------------------------------------------------
# plans


def revenue_slope(instance: Instance, plan_of, prices: np.ndarray, k: int) -> float:
    """Central-difference revenue slope in one price, with a resolvable step.

    A resource carrying a minuscule share of every job's cost can change
    revenue by less than float resolution at a small step, reading as an
    exact zero; the step widens until the difference carries information
    (the true revenue is strictly monotone, so any secant keeps its sign).
    """
    h = 1e-5 * prices[k]
    for _ in range(12):
        hi, lo = prices.copy(), prices.copy()
        hi[k] += h
        lo[k] -= h
        up = evaluate(instance, plan_of(prices=hi)).revenue
        down = evaluate(instance, plan_of(prices=lo)).revenue
        if abs(up - down) >= 1e-10 * max(1.0, abs(up)) or h >= 0.2 * prices[k]:
            return (up - down) / (2.0 * h)
        h *= 8.0
    return (up - down) / (2.0 * h)


def _check_revenue_decreasing(rng, n_instances: int, n_points: int) -> tuple[bool, str]:
    ok = True
    worst = -np.inf
    for _ in range(n_instances):
        instance = random_instance(rng)
        for kind in ("resource", "differentiated"):
            for prices in sample_feasible_prices(instance, kind, rng, n_points):
                plan_of = ResourcePlan if kind == "resource" else DifferentiatedPlan
                for k in range(prices.size):
                    slope = revenue_slope(instance, plan_of, prices, k)
                    worst = max(worst, slope)
                    ok &= slope < 0.0
    return ok, f"finite-difference revenue slope always negative (max {worst:.3e})"


def _check_log_utility_revenue() -> tuple[bool, str]:
    instance = Instance(
        resources=ResourceModel(names=("r",), capacities=(50.0,)),
        user_types=(UserType("log", 3, (1.0,), UtilityParams(1.0, 2.0)),),
        discount=1.0,
    )
    revenues = [
        evaluate(instance, DifferentiatedPlan(prices=np.array([p]))).revenue
        for p in (0.5, 1.0, 2.0, 7.3)
    ]
    spread = max(revenues) - min(revenues)
    return (
        spread <= 1e-9,
        f"revenue spread {spread:.3e} across prices for log utility without discount",
    )


def _check_usage_monotone_convex(rng, n_instances: int) -> tuple[bool, str]:
    ok = True
    for _ in range(n_instances):
        instance = random_instance(rng)
        pairs = sample_feasible_prices(instance, "resource", rng, 6)
        for prices in pairs[:3]:
            for k in range(prices.size):
                h = 1e-5 * prices[k]
                hi, lo = prices.copy(), prices.copy()
                hi[k] += h
                lo[k] -= h
                delta = (
                    evaluate(instance, ResourcePlan(prices=hi)).usage
                    - evaluate(instance, ResourcePlan(prices=lo)).usage
                )
                ok &= bool(np.all(delta < 0.0))
        for p, q in zip(pairs[:3], pairs[3:]):
            t = float(rng.uniform(0.1, 0.9))
            mix = evaluate(instance, ResourcePlan(prices=t * p + (1 - t) * q)).usage
            cap = np.maximum(
                evaluate(instance, ResourcePlan(prices=p)).usage,
                evaluate(instance, ResourcePlan(prices=q)).usage,
            )
            ok &= bool(np.all(mix <= cap + 1e-9))
    return ok, "usage falls in every price and mixtures never exceed the componentwise max"


def _check_lift(rng, n_instances: int) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n_instances):
        instance = random_instance(rng)
        for prices in sample_feasible_prices(instance, "resource", rng, 3):
            plan = ResourcePlan(prices=prices)
            lifted = lift_resource_to_differentiated(instance, plan)
            a = evaluate(instance, plan)
            b = evaluate(instance, lifted)
            worst = max(
                worst,
                float(np.max(np.abs(a.demands - b.demands))),
                abs(a.revenue - b.revenue),
                float(np.max(np.abs(a.usage - b.usage))),
            )
    return worst <= 1e-12, f"lifted plans reproduce outcomes exactly (max gap {worst:.3e})"


def _shared_dominant_instance(rng) -> Instance:
    """Random 2-resource market where every type shares a dominant resource."""
    while True:
        instance = random_instance(rng, m=2)
        R = instance.requirement_matrix
        C = instance.resources.capacities
        ratios = R / C[:, None]
        if len(set(int(np.argmax(ratios[:, j])) for j in range(instance.n))) == 1:
            return instance


def _check_plan_dominance(rng, n_instances: int) -> tuple[bool, str]:
    spec = ObjectiveSpec(nu=1.0, beta=2.0)
    ok = True
    details = []
    for _ in range(n_instances):
        instance = _shared_dominant_instance(rng)
        res = barrier_optimize(instance, "resource", spec, 1e-9)
        diff = barrier_optimize(instance, "differentiated", spec, 1e-9)
        price = bundled_price_bisection(instance)
        bundled_value = objective(
            instance,
            BundledPlan(bundle=instance.resources.capacities, price=price * (1 + 1e-9)),
            spec,
        )
        scale = max(1.0, abs(res.objective_value))
        ok &= diff.objective_value >= res.objective_value - 1e-6 * scale
        ok &= res.objective_value >= bundled_value - 1e-6 * scale
        details.append(
            f"(bundled {bundled_value:.4g} <= resource {res.objective_value:.4g} "
            f"<= differentiated {diff.objective_value:.4g})"
        )
    claim = "differentiated >= resource >= bundled under a shared dominant resource"
    return ok, f"{claim} {details[0]}"


# ---------------------------------------------------------------------------
# fairness


def _check_fairness_symmetry(rng, samples: int) -> tuple[bool, str]:
    ok = True
    for _ in range(samples):
        values = rng.uniform(0.1, 10.0, size=int(rng.integers(2, 7)))
        beta = float(rng.choice([0.5, 2.0, 20.0]))
        spec = FairnessSpec(beta=beta, lam=float(rng.uniform(-2, 2)))
        shuffled = rng.permutation(values)
        ok &= abs(beta_fairness(values, beta) - beta_fairness(shuffled, beta)) <= 1e-9 * abs(
            beta_fairness(values, beta)
        )
        a = beta_lambda_fairness(values, spec)
        b = beta_lambda_fairness(shuffled, spec)
        ok &= abs(a - b) <= 1e-9 * abs(a)
    return ok, "invariant under reordering users"


def _check_ranking_equivalence(rng, samples: int) -> tuple[bool, str]:
    ok = True
    for beta in (0.5, 2.0, 5.0):
        spec = FairnessSpec(beta=beta, lam=1.0 / beta - 1.0)
        vectors = [rng.uniform(0.1, 10.0, size=4) for _ in range(samples)]
        one = sorted(range(samples), key=lambda i: beta_fairness(vectors[i], beta))
        two = sorted(range(samples), key=lambda i: beta_lambda_fairness(vectors[i], spec))
        ok &= one == two
    return ok, "power-sum and two-parameter forms rank identically at the matched exponent"


def _check_pareto(rng, samples: int) -> tuple[bool, str]:
    ok = True
    for _ in range(samples):
        beta = float(rng.uniform(0.2, 3.0))
        if abs(beta - 1.0) < 0.05:
            continue
        # Pareto-efficiency needs |lam| >= |1/beta - 1| with lam on the same side
        margin = float(rng.uniform(0.0, 1.0))
        lam = (1.0 / beta - 1.0) * (1.0 + margin) if beta != 1.0 else 1.0
        spec = FairnessSpec(beta=beta, lam=lam)
        v = rng.uniform(0.1, 5.0, size=int(rng.integers(2, 6)))
        u = v.copy()
        bumps = rng.random(v.size) < 0.5
        bumps[int(rng.integers(0, v.size))] = True
        u[bumps] += rng.uniform(0.01, 1.0, size=int(np.sum(bumps)))
        ok &= pareto_probe(spec, u, v)
    return ok, "dominating utility vectors always score strictly higher"


def _check_log_domain(rng, samples: int) -> tuple[bool, str]:
    import mpmath

    mpmath.mp.dps = 60
    beta = 20.0
    worst = 0.0
    for _ in range(samples):
        values = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=5))
        ours = beta_fairness(values, beta)
        reference = float(
            mpmath.fsum(mpmath.mpf(float(v)) ** (1.0 - beta) for v in values)
            / (1.0 - beta)
        )
        worst = max(worst, abs(ours - reference) / abs(reference))
    return worst <= 1e-6, f"beta=20 evaluation matches 60-digit arithmetic; max gap {worst:.3e}"


# ---------------------------------------------------------------------------
# bounds


def _check_concavity_certificate(rng, n_points: int) -> tuple[bool, str]:
    instance = google_cluster_instance()
    beta = 20.0
    bound = concavity_weight_bound(instance, beta)
    spec = ObjectiveSpec(nu=0.99 * bound, beta=beta)
    worst = -np.inf
    for prices in sample_feasible_prices(instance, "resource", rng, n_points, load_target=0.8):
        hess = objective_price_hessian(instance, "resource", spec, prices)
        scale = max(1.0, float(np.max(np.abs(hess))))
        worst = max(worst, float(np.max(np.linalg.eigvalsh(hess))) / scale)
    return (
        worst <= 1e-6,
        f"max scaled Hessian eigenvalue {worst:.3e} at nu = 0.99 * certified bound ({bound:.3e})",
    )


def _check_tradeoff_bounds(rng, n_instances: int, n_points: int) -> tuple[bool, str]:
    ok = True
    for _ in range(n_instances):
        instance = random_instance(rng)
        for kind in ("resource", "differentiated"):
            plan_of = ResourcePlan if kind == "resource" else DifferentiatedPlan
            for prices in sample_feasible_prices(instance, kind, rng, n_points):
                plan = plan_of(prices=prices)
                for beta in (0.5, 2.0):
                    holds, _slack = tradeoff_bound_check(instance, plan, beta)
                    ok &= holds
    return ok, "revenue/fairness floors hold at random feasible plans for beta in {0.5, 2}"


def _single_type_instance() -> Instance:
    """One half-elastic type on one resource of capacity 4: optimum price 0.5."""
    return Instance(
        resources=ResourceModel(names=("r",), capacities=(4.0,)),
        user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
        discount=1.0,
    )


def _check_tradeoff_equality() -> tuple[bool, str]:
    instance = _single_type_instance()
    worst = 0.0
    for price in (0.6, 1.0, 3.0):
        plan = DifferentiatedPlan(prices=np.array([price]))
        for beta in (0.5, 2.0):
            _holds, slack = tradeoff_bound_check(instance, plan, beta)
            worst = max(worst, abs(slack))
    return (
        worst <= 1e-9,
        f"single-type half-elastic market collapses both bounds to equality ({worst:.3e})",
    )


# ---------------------------------------------------------------------------
# oracle


def _check_oracle_toy() -> tuple[bool, str]:
    toy = _single_type_instance()
    spec = ObjectiveSpec(nu=1.0, beta=2.0)
    grid = grid_oracle(toy, "differentiated", spec, [np.arange(0.4, 1.2, 1e-4)])
    solved = barrier_optimize(toy, "differentiated", spec, 1e-9)
    gap = abs(solved.objective_value - grid.objective_value) / abs(grid.objective_value)
    price_gap = abs(float(solved.plan.prices[0]) - 0.5)
    return (
        gap <= 1e-3 and price_gap <= 1e-4,
        f"objective gap {gap:.3e}, price gap {price_gap:.3e} (optimum 0.5)",
    )


def _check_oracle_reference() -> tuple[bool, str]:
    instance = google_cluster_instance()
    spec = ObjectiveSpec(nu=1.0, beta=2.0)
    axes = [np.arange(0.05, 10.0001, 0.05)] * 2
    grid = grid_oracle(instance, "resource", spec, axes)
    solved = barrier_optimize(instance, "resource", spec)
    floor = grid.objective_value - 1e-3 * abs(grid.objective_value)
    value = solved.objective_value
    return value >= floor, f"barrier {value:.6g} vs grid floor {floor:.6g}"


def _check_bundled_invariance() -> tuple[bool, str]:
    """The closed-form bundled optimum against routes that share none of its code.

    At each revenue weight the one-price barrier ladder, run from the
    solver's start, must land on the closed-form price, and neither it nor
    a grid of bundle prices may beat the closed form's objective.
    """
    instance = google_cluster_instance()
    problem = _PriceProblem(instance, "bundled")
    ok, price_gap, shortfall = True, 0.0, -np.inf
    for nu in (0.0, 1.0, 100.0):
        spec = ObjectiveSpec(nu=nu, beta=2.0)
        closed = barrier_optimize(instance, "bundled", spec, 1e-9)
        ladder = _barrier_ladder(problem, spec, 1e-9, _feasible_start(problem, spec))
        ladder_price = float(ladder.prices[0])
        axis = np.geomspace(ladder_price / 2.0, ladder_price * 2.0, 2001)
        grid = grid_oracle(instance, "bundled", spec, [axis])
        gap = abs(closed.plan.price - ladder_price) / ladder_price
        short = max(ladder.value, grid.objective_value) - closed.objective_value
        short /= max(1.0, abs(closed.objective_value))
        ok &= closed.outcome.feasible and gap <= 1e-6 and short <= 1e-6
        price_gap, shortfall = max(price_gap, gap), max(shortfall, short)
    return (
        ok,
        f"closed form vs the one-price ladder at nu 0, 1, 100: price gap {price_gap:.3e}; "
        f"ladder or grid above it by at most {shortfall:.3e} relative",
    )


# ---------------------------------------------------------------------------
# clustering


def _check_clustering() -> tuple[bool, str]:
    centers = np.array([[0.4, 2.7], [0.01, 0.02], [0.6, 0.5]])
    separation = min(
        float(np.linalg.norm(a - b)) for i, a in enumerate(centers) for b in centers[i + 1 :]
    )
    records = planted_trace(centers, jobs_per_cluster=50, noise=0.01 * separation, seed=11)
    jobs = aggregate_and_filter(records, k_std=float("inf"))
    model = kmeans(jobs, k=3, restarts=30, seed=5)
    worst = 0.0
    for center in centers:
        nearest = min(np.linalg.norm(model.centroids - center, axis=1))
        worst = max(worst, nearest / separation)
    monotone = all(
        b <= a + 1e-9 for a, b in zip(model.objective_history, model.objective_history[1:])
    )
    best_of = model.inertia <= min(model.restart_inertias) + 1e-12
    return (
        worst <= 0.05 and monotone and best_of,
        f"max centroid error {worst:.2%}; objective monotone; best-of-restarts minimal",
    )


# ---------------------------------------------------------------------------

# Every check in run order, as (check_id, scope, run): ``run(rng, samples)``
# calls the check with its own sample budget and returns (passed, detail).
# Each run names its check function when it is called, so a replaced module
# attribute is the one that runs.
_CHECKS = (
    ("demand-closed-form-vs-bisection", "demand", lambda rng, n: _check_demand_roots(rng, n)),
    ("demand-monotone-in-cost", "demand", lambda rng, n: _check_demand_monotone(rng, n)),
    ("demand-sensitivity-finite-difference", "demand",
     lambda rng, n: _check_demand_sensitivity(rng, n)),
    ("net-utility-surplus-identity", "demand", lambda rng, n: _check_surplus_identity(rng, n)),
    ("demand-second-order-condition", "demand", lambda rng, n: _check_second_order(rng, n)),
    ("revenue-decreasing-in-price", "plans",
     lambda rng, n: _check_revenue_decreasing(rng, 4, 10)),
    ("log-utility-revenue-constant", "plans", lambda rng, n: _check_log_utility_revenue()),
    ("usage-decreasing-and-convex", "plans",
     lambda rng, n: _check_usage_monotone_convex(rng, 4)),
    ("resource-to-differentiated-lift", "plans", lambda rng, n: _check_lift(rng, 4)),
    ("plan-dominance-at-optimum", "plans", lambda rng, n: _check_plan_dominance(rng, 3)),
    ("fairness-permutation-symmetry", "fairness",
     lambda rng, n: _check_fairness_symmetry(rng, max(1, n // 2))),
    ("fairness-ranking-equivalence", "fairness",
     lambda rng, n: _check_ranking_equivalence(rng, 60)),
    ("pareto-improvement-raises-fairness", "fairness", lambda rng, n: _check_pareto(rng, n)),
    ("large-beta-log-domain", "fairness", lambda rng, n: _check_log_domain(rng, max(1, n // 2))),
    ("concavity-certificate-hessian", "bounds",
     lambda rng, n: _check_concavity_certificate(rng, 25)),
    ("tradeoff-bounds-hold", "bounds", lambda rng, n: _check_tradeoff_bounds(rng, 5, 10)),
    ("tradeoff-bound-single-type-equality", "bounds",
     lambda rng, n: _check_tradeoff_equality()),
    ("barrier-vs-grid-single-type", "oracle", lambda rng, n: _check_oracle_toy()),
    ("barrier-at-least-grid-reference", "oracle", lambda rng, n: _check_oracle_reference()),
    ("bundled-price-weight-invariance", "oracle", lambda rng, n: _check_bundled_invariance()),
    ("planted-clusters-recovered", "clustering", lambda rng, n: _check_clustering()),
)

SCOPES = tuple(dict.fromkeys(scope for _check_id, scope, _run in _CHECKS))


def run_checks(scopes=None, seed: int = 0, samples: int = 200) -> list[CheckResult]:
    """Run the verification checks for the requested scopes, in table order."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    selected = tuple(scopes) if scopes else SCOPES
    unknown = set(selected) - set(SCOPES)
    if unknown:
        raise ValueError(f"unknown scopes {sorted(unknown)}; valid: {SCOPES}")
    rng = np.random.default_rng(seed)
    return [
        CheckResult(check_id, scope, *run(rng, samples))
        for check_id, scope, run in _CHECKS
        if scope in selected
    ]
