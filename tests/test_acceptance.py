"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report inline, or via ``pytest`` as part of the full suite.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cloudpricing import (
    BundledPlan,
    DifferentiatedPlan,
    Instance,
    ObjectiveSpec,
    ResourceModel,
    ResourcePlan,
    UserType,
    UtilityParams,
    barrier_optimize,
    bundled_price_bisection,
    concavity_weight_bound,
    demand_by_bisection,
    evaluate,
    grid_oracle,
    net_utility,
    optimal_demand,
    tradeoff_bound_check,
)
from cloudpricing.deadline import (
    IntervalDemandSpec,
    IntervalMarket,
    schedule_feasible,
    solve_horizon,
)
from cloudpricing.fairness import (
    FairnessSpec,
    beta_fairness,
    beta_lambda_fairness,
    pareto_probe,
)
from cloudpricing.optimizer import _barrier_ladder, _feasible_start, _PriceProblem
from cloudpricing.synth import (
    google_cluster_instance,
    planted_trace,
    random_instance,
    sample_feasible_prices,
)
from cloudpricing.trace import aggregate_and_filter, kmeans, parse_trace, trace_statistics
from cloudpricing.verify import objective_price_hessian, random_demand_tuples

TIGHT = 1e-9


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def toy_market() -> Instance:
    return Instance(
        resources=ResourceModel(names=("r",), capacities=(4.0,)),
        user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
        discount=1.0,
    )


def test_criterion_1_demand_identity():
    with criterion(1, "closed-form demand equals bisection root (1e-9, <5s)"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for utility, cost, gamma in random_demand_tuples(rng, 1000):
            closed = optimal_demand(utility, cost, gamma)
            root = demand_by_bisection(utility.marginal, cost, gamma)
            assert abs(closed - root) <= 1e-9 * root
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_surplus_identity():
    with criterion(2, "net utility equals (gamma/(1-alpha)-1)*r*x**gamma (1e-9)"):
        rng = np.random.default_rng(1)  # same tuple set as criterion 1
        for utility, cost, gamma in random_demand_tuples(rng, 1000):
            x = optimal_demand(utility, cost, gamma)
            closed = (gamma / (1.0 - utility.alpha) - 1.0) * cost * x**gamma
            assert abs(net_utility(utility, cost, gamma) - closed) <= 1e-9 * abs(closed)


def test_criterion_3_revenue_monotone():
    with criterion(3, "revenue strictly decreasing in every price; log-utility control flat"):
        from cloudpricing.verify import revenue_slope

        rng = np.random.default_rng(3)
        for _ in range(10):
            instance = random_instance(rng)
            kind = "resource" if instance.m > 1 else "differentiated"
            plan_of = ResourcePlan if kind == "resource" else DifferentiatedPlan
            for prices in sample_feasible_prices(instance, kind, rng, 200):
                for k in range(prices.size):
                    assert revenue_slope(instance, plan_of, prices, k) < 0.0

        control = Instance(
            resources=ResourceModel(names=("r",), capacities=(50.0,)),
            user_types=(UserType("log", 1, (1.0,), UtilityParams(1.0, 1.5)),),
            discount=1.0,
        )
        revenues = [
            evaluate(control, DifferentiatedPlan(prices=np.array([p]))).revenue
            for p in (0.5, 1.0, 2.0, 5.0)
        ]
        assert max(revenues) - min(revenues) <= 1e-9


def test_criterion_4_solver_vs_oracle():
    with criterion(4, "barrier matches brute-force grids on toy and reference markets"):
        spec = ObjectiveSpec(nu=1.0, beta=2.0)

        toy = toy_market()
        start = time.perf_counter()
        solved = barrier_optimize(toy, "differentiated", spec, TIGHT)
        assert time.perf_counter() - start < 10.0
        grid = grid_oracle(toy, "differentiated", spec, [np.arange(0.4, 1.2, 1e-4)])
        assert solved.converged
        assert float(solved.plan.prices[0]) == pytest.approx(0.5, abs=1e-4)
        assert solved.outcome.revenue == pytest.approx(2.0, rel=1e-6)
        assert abs(solved.objective_value - grid.objective_value) <= 1e-3 * abs(
            grid.objective_value
        )

        reference = google_cluster_instance()
        start = time.perf_counter()
        solved = barrier_optimize(reference, "resource", spec, TIGHT)
        assert time.perf_counter() - start < 10.0
        assert solved.converged
        axes = [np.arange(0.01, 10.0001, 0.01)] * 2
        coarse = grid_oracle(reference, "resource", spec, axes)
        # the grid is a resolution-limited lower bound on the optimum
        assert solved.objective_value >= coarse.objective_value - 1e-3 * abs(
            coarse.objective_value
        )
        # two-sided sandwich against a grid refined around the solver's answer
        zoom = [
            np.linspace(max(p * 0.99, 1e-12), p * 1.01, 400) for p in solved.plan.prices
        ]
        refined = grid_oracle(reference, "resource", spec, zoom)
        assert abs(solved.objective_value - refined.objective_value) <= 1e-3 * abs(
            refined.objective_value
        )


def test_criterion_5_bundled_weight_invariance():
    with criterion(5, "bundled optimum identical across revenue weights, equals bisection"):
        # barrier_optimize returns the bisection's price for a bundled plan,
        # so the weights are checked on the one-price barrier ladder
        reference = google_cluster_instance()
        problem = _PriceProblem(reference, "bundled")
        prices = []
        for nu in (0.0, 1.0, 100.0):
            spec = ObjectiveSpec(nu, 2.0)
            ladder = _barrier_ladder(problem, spec, TIGHT, _feasible_start(problem, spec))
            assert ladder.converged
            prices.append(float(ladder.prices[0]))
        for a in prices:
            for b in prices:
                assert abs(a - b) <= 1e-6 * min(a, b)

        root = bundled_price_bisection(reference)
        assert abs(prices[0] - root) <= 1e-6 * root
        # constraint residual at the bisection price
        bundle = reference.resources.capacities
        out = evaluate(reference, BundledPlan(bundle=bundle, price=root))
        mu = np.array([2.7 / 6.0, 0.02 / 6.0, 0.6 / 6.0])
        demandled = float(np.sum(reference.counts * mu * out.demands))
        assert abs(demandled - 1.0) <= 1e-8  # min_i C_i/b_i == 1 for b == C


def _rank_equality_instances() -> list[Instance]:
    markets = []
    for rho, caps in ((0.1, (5.0, 4.0)), (0.2, (6.0, 6.0)), (0.3, (3.0, 5.0))):
        R = np.array([[1.0, rho], [rho, 1.0]])
        markets.append(
            Instance(
                resources=ResourceModel(names=("a", "b"), capacities=caps),
                user_types=(
                    UserType("t1", 2, R[:, 0], UtilityParams(0.5, 1.0)),
                    UserType("t2", 1, R[:, 1], UtilityParams(0.45, 1.2)),
                ),
                discount=1.0,
            )
        )
    rng = np.random.default_rng(6)
    markets.extend(random_instance(rng, n=1) for _ in range(3))
    return markets


def test_criterion_6_plan_dominance():
    with criterion(6, "differentiated >= resource >= bundled; equality at full rank"):
        spec = ObjectiveSpec(nu=1.0, beta=2.0)
        rng = np.random.default_rng(66)
        for _ in range(20):
            instance = random_instance(rng)
            res = barrier_optimize(instance, "resource", spec, TIGHT)
            diff = barrier_optimize(instance, "differentiated", spec, TIGHT)
            scale = max(1.0, abs(res.objective_value))
            assert diff.objective_value >= res.objective_value - 1e-6 * scale

        for instance in _rank_equality_instances():
            res = barrier_optimize(instance, "resource", spec, TIGHT)
            diff = barrier_optimize(instance, "differentiated", spec, TIGHT)
            scale = max(1.0, abs(diff.objective_value))
            assert abs(diff.objective_value - res.objective_value) <= 1e-6 * scale

        # bundled never beats resource when every type shares a dominant
        # resource and the bundle mirrors capacity
        from cloudpricing.optimizer import objective

        found = 0
        while found < 5:
            instance = random_instance(rng, m=2)
            ratios = instance.requirement_matrix / instance.resources.capacities[:, None]
            if len({int(np.argmax(ratios[:, j])) for j in range(instance.n)}) != 1:
                continue
            found += 1
            res = barrier_optimize(instance, "resource", spec, TIGHT)
            price = bundled_price_bisection(instance)
            bundled_value = objective(
                instance,
                BundledPlan(
                    bundle=instance.resources.capacities, price=price * (1.0 + 1e-9)
                ),
                spec,
            )
            scale = max(1.0, abs(res.objective_value))
            assert res.objective_value >= bundled_value - 1e-6 * scale


def test_criterion_7_concavity_certificate():
    with criterion(7, "Hessian negative semidefinite at 0.99x the certified weight"):
        rng = np.random.default_rng(7)
        single = Instance(
            resources=ResourceModel(names=("cpu", "mem"), capacities=(6.0, 6.0)),
            user_types=(UserType("a", 1, (0.6, 0.5), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        assert concavity_weight_bound(single, 20.0) == pytest.approx(9.0 * 12.0**-10.0)
        for instance in (single, google_cluster_instance()):
            bound = concavity_weight_bound(instance, 20.0)
            spec = ObjectiveSpec(nu=0.99 * bound, beta=20.0)
            for prices in sample_feasible_prices(
                instance, "resource", rng, 50, load_target=0.8
            ):
                hess = objective_price_hessian(instance, "resource", spec, prices)
                scale = max(1.0, float(np.max(np.abs(hess))))
                assert float(np.max(np.linalg.eigvalsh(hess))) <= 1e-6 * scale


def test_criterion_8_tradeoff_bounds():
    with criterion(8, "fairness-revenue floors hold at 1000 plans; equality on the toy"):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 1000:
            instance = random_instance(rng)
            kind = rng.choice(["resource", "differentiated"])
            plan_of = ResourcePlan if kind == "resource" else DifferentiatedPlan
            for prices in sample_feasible_prices(instance, kind, rng, 20):
                plan = plan_of(prices=prices)
                for beta in (0.5, 2.0):
                    holds, _slack = tradeoff_bound_check(instance, plan, beta)
                    assert holds
                checked += 1

        toy = toy_market()
        for price in (0.5, 1.0, 2.5):
            plan = DifferentiatedPlan(prices=np.array([price]))
            for beta in (0.5, 2.0):
                _holds, slack = tradeoff_bound_check(toy, plan, beta)
                assert abs(slack) <= 1e-9


def test_criterion_9_fairness_properties():
    with criterion(9, "ranking equivalence, Pareto probes, and log-domain accuracy"):
        rng = np.random.default_rng(9)
        for beta in (0.5, 2.0):
            spec = FairnessSpec(beta=beta, lam=1.0 / beta - 1.0)
            vectors = [rng.uniform(0.1, 10.0, size=4) for _ in range(1000)]
            one = sorted(range(1000), key=lambda i: beta_fairness(vectors[i], beta))
            two = sorted(range(1000), key=lambda i: beta_lambda_fairness(vectors[i], spec))
            assert one == two

        # Pareto efficiency needs |lam| >= |1/beta - 1| with lam on the same
        # side as 1/beta - 1 (for beta > 1 the exponent must be negative)
        passed = 0
        while passed < 1000:
            beta = float(rng.uniform(0.2, 3.0))
            if abs(beta - 1.0) < 0.05:
                continue
            lam = (1.0 / beta - 1.0) * (1.0 + rng.uniform(0.0, 1.5))
            spec = FairnessSpec(beta=beta, lam=lam)
            v = rng.uniform(0.1, 5.0, size=int(rng.integers(2, 6)))
            u = v + rng.uniform(0.01, 1.0, size=v.size) * (rng.random(v.size) < 0.7)
            if not np.any(u > v):
                continue
            assert pareto_probe(spec, u, v)
            passed += 1

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for _ in range(200):
            values = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=5))
            ours = beta_fairness(values, 20.0)
            reference = float(
                mpmath.fsum(mpmath.mpf(float(v)) ** (1.0 - 20.0) for v in values) / (1.0 - 20.0)
            )
            assert abs(ours - reference) <= 1e-6 * abs(reference)


def test_criterion_10_capacity_sweep_trends():
    with criterion(10, "capacity sweep: monotone trends and plan ordering (<2 min)"):
        start = time.perf_counter()
        spec = ObjectiveSpec(nu=0.0, beta=20.0)
        capacities = np.linspace(1.0 / 3.0, 8.0, 12)
        fairness: dict[str, list[float]] = {}
        revenue: dict[str, list[float]] = {}
        for kind in ("bundled", "resource", "differentiated"):
            for cap in capacities:
                instance = google_cluster_instance(memory_capacity=float(cap))
                result = barrier_optimize(instance, kind, spec)
                assert result.converged
                value = beta_fairness(
                    result.outcome.net_utilities, 20.0, weights=instance.counts
                )
                fairness.setdefault(kind, []).append(value)
                revenue.setdefault(kind, []).append(result.outcome.revenue)
        for kind in fairness:
            f, r = fairness[kind], revenue[kind]
            tol = 1e-6
            assert all(b >= a - tol * abs(a) for a, b in zip(f, f[1:])), kind
            assert all(b >= a - tol * abs(a) for a, b in zip(r, r[1:])), kind
        for i in range(len(capacities)):
            assert fairness["differentiated"][i] >= fairness["resource"][i]
            assert fairness["resource"][i] >= fairness["bundled"][i]
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_11_deadlines():
    with criterion(11, "deadline decoupling, deferral, and witness residuals"):
        market = toy_market()
        immediate = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(market, deadlines=(1,), nu=1.0),
                IntervalMarket(market, deadlines=(2,), nu=1.0),
            ),
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            horizon = solve_horizon(immediate, 2.0)
            single = barrier_optimize(market, "resource", ObjectiveSpec(1.0, 2.0))
        single_fairness = beta_fairness(single.outcome.net_utilities, 2.0)
        assert horizon.total_revenue == pytest.approx(
            2.0 * single.outcome.revenue, rel=1e-6
        )
        assert horizon.total_fairness == pytest.approx(2.0 * single_fairness, rel=1e-6)

        unit = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=market.user_types,
            discount=1.0,
        )
        tight = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(unit, deadlines=(2,), nu=0.0),
                IntervalMarket(unit, deadlines=(2,), nu=0.0),
            ),
        )
        result = solve_horizon(tight, 2.0)
        assert result.schedule.amounts.get((0, 1, 2), 0.0) > 0.0

        # LP witness residuals on the overload-and-split toy
        ok, schedule = schedule_feasible([[2.0], [0.0]], tight)
        assert ok
        assert schedule.delivered(0, 1) >= 2.0 - 1e-9
        for t in (1, 2):
            assert np.all(schedule.interval_usage(tight, t) <= 1.0 + 1e-9)


def test_criterion_12_clustering():
    with criterion(12, "planted clusters recovered; Lloyd monotone; runs reproducible"):
        centers = np.array([[0.4, 2.7], [0.01, 0.02], [0.6, 0.5]])
        separation = min(
            np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]
        )
        records = planted_trace(
            centers, jobs_per_cluster=80, noise=0.01 * separation, seed=12
        )
        jobs = aggregate_and_filter(records, k_std=math.inf)
        model = kmeans(jobs, k=3, restarts=30, seed=12)
        for center in centers:
            nearest = min(np.linalg.norm(model.centroids - center, axis=1))
            assert nearest <= 0.05 * separation
        history = model.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        again = kmeans(jobs, k=3, restarts=30, seed=12)
        assert model.centroids.tobytes() == again.centroids.tobytes()
        assert model.inertia == again.inertia


GOOGLE_TRACE = os.environ.get("GOOGLE_TRACE_CSV", "")


@pytest.mark.skipif(
    not (GOOGLE_TRACE and os.path.exists(GOOGLE_TRACE)),
    reason="set GOOGLE_TRACE_CSV to the trace file to enable this check",
)
def test_criterion_13_google_trace_statistics():
    with criterion(13, "real-trace ingestion reproduces published usage statistics"):
        records = parse_trace(GOOGLE_TRACE)
        jobs = aggregate_and_filter(records, k_std=math.inf)
        stats = trace_statistics(jobs)
        assert stats["mean_cpu"] == pytest.approx(0.136, rel=0.05)
        assert stats["mean_mem"] == pytest.approx(0.182, rel=0.05)
        assert stats["std_over_mean_cpu"] == pytest.approx(13.4, rel=0.05)
        assert stats["std_over_mean_mem"] == pytest.approx(18.0, rel=0.05)
