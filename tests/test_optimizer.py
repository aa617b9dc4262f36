import itertools
from dataclasses import fields

import numpy as np
import pytest

from cloudpricing import (
    BundledPlan,
    DifferentiatedPlan,
    InfeasibleError,
    Instance,
    ObjectiveSpec,
    ResourceModel,
    ResourcePlan,
    UserType,
    UtilityParams,
    barrier_optimize,
    bundled_price_bisection,
    concavity_weight_bound,
    discount_line_search,
    evaluate,
    grid_oracle,
    objective,
    tradeoff_bound_check,
)
from cloudpricing import optimizer
from cloudpricing.fairness import beta_fairness
from cloudpricing.optimizer import (
    _barrier_derivatives,
    _barrier_value,
    _feasible_start,
    _PriceProblem,
)
from cloudpricing.synth import google_cluster_instance, random_instance, sample_feasible_prices
from cloudpricing.verify import central_difference_hessian

TIGHT = 1e-9


class TestObjective:
    def test_zero_weight_is_pure_fairness(self, toy_instance):
        plan = DifferentiatedPlan(prices=np.array([0.6]))
        out = evaluate(toy_instance, plan)
        fairness = beta_fairness(out.net_utilities, 2.0, weights=toy_instance.counts)
        assert objective(toy_instance, plan, ObjectiveSpec(0.0, 2.0)) == pytest.approx(fairness)

    def test_toy_value(self, toy_instance):
        plan = DifferentiatedPlan(prices=np.array([0.5]))
        # revenue 2, net utility 2, F_2 = -1/2
        assert objective(toy_instance, plan, ObjectiveSpec(1.0, 2.0)) == pytest.approx(1.5)

    def test_linear_in_weight(self, toy_instance):
        plan = DifferentiatedPlan(prices=np.array([0.7]))
        base = objective(toy_instance, plan, ObjectiveSpec(0.0, 2.0))
        one = objective(toy_instance, plan, ObjectiveSpec(1.0, 2.0))
        three = objective(toy_instance, plan, ObjectiveSpec(3.0, 2.0))
        assert three - base == pytest.approx(3.0 * (one - base), rel=1e-12)

    def test_infeasible_names_resource(self, toy_instance):
        plan = DifferentiatedPlan(prices=np.array([0.1]))
        with pytest.raises(ValueError, match="resource 'r'"):
            objective(toy_instance, plan, ObjectiveSpec(1.0, 2.0))


class TestObjectiveSpec:
    @pytest.mark.parametrize(
        "nu, beta",
        [
            (-1.0, 2.0),
            (float("nan"), 2.0),
            (float("inf"), 2.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (1.0, float("nan")),
            (1.0, float("inf")),
        ],
    )
    def test_rejects_out_of_range_weights(self, nu, beta):
        with pytest.raises(ValueError, match="nu must be|beta must be"):
            ObjectiveSpec(nu, beta)


class TestConcavityBound:
    def test_zero_margin_gives_zero(self):
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        # beta*(1-alpha) == gamma exactly: no certificate
        assert concavity_weight_bound(instance, beta=2.0) == 0.0

    def test_single_type_closed_form(self):
        instance = Instance(
            resources=ResourceModel(names=("cpu", "mem"), capacities=(6.0, 6.0)),
            user_types=(UserType("a", 1, (0.6, 0.5), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        # plug-in: (beta*(1-alpha) - gamma) * (max_i C/R)**(beta*(alpha-1)/gamma)
        assert concavity_weight_bound(instance, beta=20.0) == pytest.approx(
            9.0 * 12.0**-10.0, rel=1e-12
        )

    def test_nu_zero_always_certified(self, reference_instance):
        assert concavity_weight_bound(reference_instance, beta=20.0) >= 0.0

    def test_requires_beta_above_one(self, reference_instance):
        with pytest.raises(ValueError, match="beta > 1"):
            concavity_weight_bound(reference_instance, beta=0.5)


class TestBarrier:
    def test_toy_boundary_optimum(self, toy_instance):
        # grid oracle at step 1e-4 puts the optimum at 0.5 for any weight
        for nu in (0.0, 1.0, 10.0):
            result = barrier_optimize(toy_instance, "differentiated", ObjectiveSpec(nu, 2.0), TIGHT)
            assert result.converged
            assert result.plan.prices[0] == pytest.approx(0.5, rel=1e-6)
            assert result.outcome.revenue == pytest.approx(2.0, rel=1e-6)

    def test_gap_meets_tolerance(self, toy_instance):
        result = barrier_optimize(toy_instance, "differentiated", ObjectiveSpec(1.0, 2.0), 1e-7)
        assert result.converged and result.gap <= 1e-7

    def test_outcome_feasible(self, reference_instance):
        for kind in ("bundled", "resource", "differentiated"):
            result = barrier_optimize(reference_instance, kind, ObjectiveSpec(1.0, 2.0))
            assert result.converged
            assert result.outcome.feasible

    def test_barrier_hessian_matches_central_differences(self, toy_instance, reference_instance):
        # the analytic Hessian against verify's finite differences of the
        # barrier value, at the solver's start and at a point deeper inside
        spec = ObjectiveSpec(1.0, 2.0)
        for instance in (toy_instance, reference_instance):
            for kind in ("bundled", "resource", "differentiated"):
                problem = _PriceProblem(instance, kind)
                start = _feasible_start(problem, spec)
                ceiling = np.full(problem.dim, 1e4 * float(np.max(start)))
                for prices, t_scaled in ((start, 1.0), (1.3 * start, 40.0)):
                    _, analytic = _barrier_derivatives(problem, spec, t_scaled, prices, ceiling)
                    numeric = central_difference_hessian(
                        lambda p: _barrier_value(problem, spec, t_scaled, p, ceiling), prices
                    )
                    scale = float(np.max(np.abs(analytic)))
                    assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale, (instance, kind)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_start_with_overflowing_derivatives_relaxes(self, nu):
        # at gamma 0.64 and beta 20 the half-load bundled start has a finite
        # F_beta but objective derivatives beyond the float range, where the
        # ladder cannot move; the start must relax to a higher load instead
        instance = google_cluster_instance(gamma=0.64)
        result = barrier_optimize(instance, "bundled", ObjectiveSpec(nu, 20.0))
        assert result.converged
        assert result.plan.price == pytest.approx(bundled_price_bisection(instance), rel=1e-6)

    def test_stalled_solve_reports_diagnostics(self, reference_instance, monkeypatch):
        # a one-iteration Newton budget cannot reach the central path: the
        # result must come back flagged, with a message, not as an exception
        monkeypatch.setattr(optimizer, "NEWTON_STEPS", 1)
        result = barrier_optimize(reference_instance, "resource", ObjectiveSpec(1.0, 2.0))
        assert not result.converged
        assert result.message
        assert result.outcome.feasible  # iterates never leave the domain

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, toy_instance, reference_instance, tolerance):
        spec = ObjectiveSpec(1.0, 2.0)
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            barrier_optimize(toy_instance, "differentiated", spec, tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            discount_line_search(reference_instance, "resource", spec, [1.0], tolerance)

    def test_no_positive_utility_region_is_infeasible(self):
        # log utility: surplus needs price < c/e, but capacity needs price >= 2
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(0.5,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(1.0, 1.0)),),
            discount=1.0,
        )
        with pytest.raises(InfeasibleError):
            barrier_optimize(instance, "differentiated", ObjectiveSpec(0.0, 2.0))

    def test_matches_grid_on_reference(self, reference_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        axes = [np.arange(0.05, 10.0001, 0.05)] * 2
        grid = grid_oracle(reference_instance, "resource", spec, axes)
        solved = barrier_optimize(reference_instance, "resource", spec)
        assert solved.converged
        floor = grid.objective_value - 1e-3 * abs(grid.objective_value)
        assert solved.objective_value >= floor

    def test_steep_fairness_reaches_the_wall(self):
        # the start objective can exceed the optimum's magnitude by dozens
        # of orders at beta=20; the solve must still ride down to the
        # capacity boundary instead of quitting at start-scale tolerance
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(5.0,)),
            user_types=(
                UserType("a", 2, (0.8,), UtilityParams(0.35, 1.2)),
                UserType("b", 1, (1.4,), UtilityParams(0.55, 0.8)),
                UserType("c", 3, (0.3,), UtilityParams(0.7, 1.0)),
            ),
            discount=0.9,
        )
        spec = ObjectiveSpec(nu=1.0, beta=20.0)
        solved = barrier_optimize(instance, "resource", spec, TIGHT)
        assert solved.converged
        zoom = grid_oracle(
            instance,
            "resource",
            spec,
            [np.linspace(solved.plan.prices[0] * 0.97, solved.plan.prices[0] * 1.03, 300)],
        )
        # scale-robust comparison: utility-equivalent ratio near one
        equivalent = (-solved.objective_value) ** (1 / 19) / (
            -zoom.objective_value
        ) ** (1 / 19)
        assert equivalent <= 1.0 + 1e-4


class TestBundledBisection:
    def test_toy_root(self, toy_instance):
        price = bundled_price_bisection(toy_instance, bundle=np.array([1.0]))
        assert price == pytest.approx(0.5, rel=1e-8)
        out = evaluate(toy_instance, BundledPlan(bundle=np.array([1.0]), price=price))
        assert out.demands[0] == pytest.approx(4.0, rel=1e-7)

    def test_reference_residual(self, reference_instance):
        bundle = np.array([1.0, 1.0])
        price = bundled_price_bisection(reference_instance, bundle=bundle)
        mu = np.array([2.7, 0.02, 0.6])
        counts = reference_instance.counts
        out = evaluate(reference_instance, BundledPlan(bundle=bundle, price=price))
        available = 6.0
        residual = abs(float(np.sum(counts * mu * out.demands)) - available)
        assert residual <= 1e-8 * available

    def test_root_far_below_one(self):
        # demand r**-2 fills 1e100 units at r = 1e-50: the bracket must widen
        # 166 halvings below one, for the root and for the barrier's start alike
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(1e100,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        bundle = np.array([1.0])
        assert bundled_price_bisection(instance, bundle) == pytest.approx(1e-50, rel=1e-12)
        result = barrier_optimize(instance, "bundled", ObjectiveSpec(1.0, 2.0), bundle=bundle)
        assert result.converged
        assert result.plan.price == pytest.approx(1e-50, rel=1e-6)

    def test_doubling_capacity_lowers_price(self, reference_instance):
        bundle = np.array([1.0, 1.0])
        small = bundled_price_bisection(reference_instance, bundle=bundle)
        big_instance = Instance(
            resources=ResourceModel(names=("cpu", "mem"), capacities=(12.0, 12.0)),
            user_types=reference_instance.user_types,
            discount=1.0,
        )
        assert bundled_price_bisection(big_instance, bundle=bundle) < small

    def test_matches_barrier_for_any_weight(self, toy_instance):
        root = bundled_price_bisection(toy_instance, bundle=np.array([1.0]))
        for nu in (0.0, 1.0, 100.0):
            result = barrier_optimize(
                toy_instance, "bundled", ObjectiveSpec(nu, 2.0), TIGHT, bundle=np.array([1.0])
            )
            assert result.plan.price == pytest.approx(root, rel=1e-6)


class TestGridOracle:
    def test_three_point_grid(self, toy_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        result = grid_oracle(
            toy_instance, "differentiated", spec, [np.array([0.4, 0.5, 0.6])]
        )
        assert result.plan.prices[0] == pytest.approx(0.5)
        assert result.iterations == 3

    def test_all_infeasible_grid(self, toy_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        with pytest.raises(ValueError, match="no feasible grid point"):
            grid_oracle(toy_instance, "differentiated", spec, [np.array([0.1, 0.2])])

    def test_refinement_never_decreases(self, toy_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        coarse_axis = np.array([0.45, 0.65, 0.85])
        fine_axis = np.union1d(coarse_axis, np.linspace(0.45, 0.9, 19))
        coarse = grid_oracle(toy_instance, "differentiated", spec, [coarse_axis])
        fine = grid_oracle(toy_instance, "differentiated", spec, [fine_axis])
        assert fine.objective_value >= coarse.objective_value

    def test_deterministic_tie_break(self, toy_instance):
        # a flat stretch of equal objectives resolves to the lowest index
        spec = ObjectiveSpec(0.0, 2.0)
        axis = np.array([0.6, 0.6, 0.7])
        result = grid_oracle(toy_instance, "differentiated", spec, [axis])
        assert result.plan.prices[0] == pytest.approx(0.6)


class TestDiscountSearch:
    def test_singleton(self, reference_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        found = discount_line_search(reference_instance, "differentiated", spec, [1.0])
        assert found.gamma == 1.0
        assert found.result.converged

    def test_three_point_argmax(self, reference_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        found = discount_line_search(
            reference_instance, "differentiated", spec, [0.8, 0.9, 1.0], tolerance=TIGHT
        )
        assert len(found.records) == 3
        assert all(point.result is not None for point in found.records)
        best = max(found.records, key=lambda p: p.result.objective_value)
        assert found.gamma == best.gamma

    def test_invalid_gammas_recorded_not_fatal(self, reference_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        found = discount_line_search(
            reference_instance, "differentiated", spec, [0.2, 1.0]
        )
        assert found.gamma == 1.0
        assert found.records[0].error is not None
        assert found.records[0].result is None


    def test_bad_plan_kind_raises_once_before_any_solve(self, reference_instance, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(optimizer, "barrier_optimize", no_solve)
        with pytest.raises(ValueError) as info:
            discount_line_search(reference_instance, "bogus", ObjectiveSpec(1.0, 2.0), [0.8, 0.9])
        assert not isinstance(info.value, InfeasibleError)
        assert str(info.value).count("plan kind must be one of") == 1


class TestWarmStart:
    @pytest.mark.parametrize("plan_kind", ["bundled", "resource", "differentiated"])
    def test_stalled_warm_ladder_gives_the_cold_result(
        self, reference_instance, monkeypatch, plan_kind
    ):
        spec = ObjectiveSpec(1.0, 20.0)
        cold = barrier_optimize(reference_instance, plan_kind, spec)
        ladder, calls = optimizer._barrier_ladder, []

        # the warm ladder is the first one run; report it stalled
        def stall_first(problem, spec, tolerance, prices):
            calls.append(prices)
            if len(calls) == 1:
                return optimizer._LadderResult(prices, 80, -np.inf, np.inf, False, "stalled")
            return ladder(problem, spec, tolerance, prices)

        monkeypatch.setattr(optimizer, "_barrier_ladder", stall_first)
        start = np.full(optimizer._PriceProblem(reference_instance, plan_kind).dim, 0.3)
        warm = barrier_optimize(reference_instance, plan_kind, spec, start=start)
        assert len(calls) >= 2 and not np.array_equal(calls[0], calls[1])
        assert type(warm.plan) is type(cold.plan)
        # the stalled ladder's 80 steps are counted; nothing else changes
        assert warm.iterations == cold.iterations + 80
        for obj in ("", "plan", "outcome"):
            a, b = (getattr(r, obj) if obj else r for r in (warm, cold))
            for field in fields(a):
                if field.name not in ("plan", "outcome", "iterations"):
                    assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_iterations_count_every_ladder(self, reference_instance, monkeypatch):
        # at nu = 1 the ladder from the nu = 0 optimum stalls; the cold one converges
        cold = barrier_optimize(reference_instance, "differentiated", ObjectiveSpec(0.0, 20.0))
        ladder, runs = optimizer._barrier_ladder, []

        def record(*args):
            runs.append(ladder(*args))
            return runs[-1]

        monkeypatch.setattr(optimizer, "_barrier_ladder", record)
        warm = barrier_optimize(
            reference_instance, "differentiated", ObjectiveSpec(1.0, 20.0), start=cold.plan.prices
        )
        assert [run.converged for run in runs] == [False, True]
        assert warm.iterations == sum(run.iterations for run in runs)

    @pytest.mark.parametrize("start", [[1.0], [1.0, 0.0], [1.0, np.inf], [[1.0, 1.0]]])
    def test_rejects_malformed_start(self, reference_instance, start):
        with pytest.raises(ValueError, match="start must hold 2 positive finite prices"):
            barrier_optimize(reference_instance, "resource", ObjectiveSpec(1.0, 2.0), start=start)

    def test_warm_start_from_the_optimum_is_pulled_inside(self, reference_instance):
        spec = ObjectiveSpec(0.0, 20.0)
        cold = barrier_optimize(reference_instance, "resource", spec)
        warm = barrier_optimize(reference_instance, "resource", spec, start=cold.plan.prices)
        assert warm.converged
        assert warm.iterations < cold.iterations
        assert warm.objective_value >= cold.objective_value - 1e-6 * abs(cold.objective_value)


class TestCoarseProbe:
    def test_matches_a_loop_over_the_grid(self, rng):
        # reference: each grid point strictly inside capacity, valued by the
        # solver's own objective; the vectorized sums may differ in the last bits
        spec = ObjectiveSpec(0.0, 20.0)
        for _ in range(6):
            instance = random_instance(rng, n=int(rng.integers(1, 5)))
            for kind in ("bundled", "resource", "differentiated"):
                problem = _PriceProblem(instance, kind)
                around = _feasible_start(problem, spec) * rng.uniform(0.5, 2.0, problem.dim)
                point = optimizer._coarse_probe(problem, spec, around)
                axes = [np.geomspace(p / 30.0, p * 30.0, 14) for p in around]
                best = -np.inf
                for prices in itertools.product(*axes):
                    costs = problem.costs(np.array(prices))
                    if np.all(costs > 0.0) and np.all(problem.slacks(costs) > 0.0):
                        best = max(best, problem.objective_value(spec, costs))
                if point is None:
                    assert best == -np.inf
                    continue
                costs = problem.costs(point)
                assert np.all(problem.slacks(costs) > 0.0)
                assert problem.objective_value(spec, costs) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("n", [72, 79])
    def test_probe_point_lies_strictly_inside(self, monkeypatch, n):
        # these resource solves stall, so the probe runs; its point starts a
        # ladder, which needs every capacity row strictly slack
        instance = random_instance(np.random.default_rng(n), m=3, n=n)
        spec = ObjectiveSpec(0.0, 20.0)
        probe, points = optimizer._coarse_probe, []

        def record(problem, spec, around):
            points.append((problem, probe(problem, spec, around)))
            return points[-1][1]

        monkeypatch.setattr(optimizer, "_coarse_probe", record)
        assert not barrier_optimize(instance, "resource", spec).converged
        [(problem, point)] = points
        ceiling = np.full(problem.dim, 1e4 * float(np.max(point)))  # the ladder's box
        assert np.isfinite(_barrier_value(problem, spec, 0.0, point, ceiling))


class TestTradeoffBounds:
    def test_single_type_equality(self, toy_instance):
        for price in (0.6, 1.0, 4.0):
            plan = DifferentiatedPlan(prices=np.array([price]))
            for beta in (0.5, 2.0):
                holds, slack = tradeoff_bound_check(toy_instance, plan, beta)
                assert holds
                assert abs(slack) <= 1e-9

    def test_random_plans_hold(self, rng):
        for _ in range(10):
            instance = random_instance(rng)
            for prices in sample_feasible_prices(instance, "resource", rng, 5):
                plan = ResourcePlan(prices=prices)
                for beta in (0.5, 2.0):
                    holds, _ = tradeoff_bound_check(instance, plan, beta)
                    assert holds

    @pytest.mark.parametrize("beta", [0.0, 1.0, float("inf"), float("nan")])
    def test_rejects_beta_outside_the_family(self, toy_instance, beta):
        plan = DifferentiatedPlan(prices=np.array([1.0]))
        with pytest.raises(ValueError, match="beta must be"):
            tradeoff_bound_check(toy_instance, plan, beta)

    def test_requires_feasible_plan(self, toy_instance):
        with pytest.raises(ValueError, match="feasible"):
            tradeoff_bound_check(
                toy_instance, DifferentiatedPlan(prices=np.array([0.01])), 2.0
            )


class TestPlanDominance:
    def test_differentiated_at_least_resource(self, rng):
        spec = ObjectiveSpec(1.0, 2.0)
        for _ in range(4):
            instance = random_instance(rng)
            res = barrier_optimize(instance, "resource", spec, TIGHT)
            diff = barrier_optimize(instance, "differentiated", spec, TIGHT)
            scale = max(1.0, abs(res.objective_value))
            assert diff.objective_value >= res.objective_value - 1e-6 * scale

    def test_rank_n_equality_single_type(self, rng):
        spec = ObjectiveSpec(1.0, 2.0)
        for _ in range(3):
            instance = random_instance(rng, n=1)
            res = barrier_optimize(instance, "resource", spec, TIGHT)
            diff = barrier_optimize(instance, "differentiated", spec, TIGHT)
            scale = max(1.0, abs(diff.objective_value))
            assert abs(diff.objective_value - res.objective_value) <= 1e-6 * scale

    def test_unit_bundle_never_beats_resource_grid(self, rng):
        # grid-oracle comparison on 2-resource markets where one resource
        # dominates every type's unit-bundle requirement
        spec = ObjectiveSpec(1.0, 2.0)
        bundle = np.array([1.0, 1.0])
        found = 0
        while found < 3:
            instance = random_instance(rng, m=2)
            R = instance.requirement_matrix
            if not np.all(R[0] > R[1]):  # resource 1 must set every requirement
                continue
            found += 1
            root = bundled_price_bisection(instance, bundle=bundle)
            bundled = grid_oracle(
                instance,
                "bundled",
                spec,
                [np.geomspace(root, root * 50.0, 300)],
                bundle=bundle,
            )
            resource = grid_oracle(
                instance,
                "resource",
                spec,
                [np.geomspace(root * 0.02, root * 50.0, 120)] * 2,
            )
            slack = 1e-2 * abs(resource.objective_value)  # grid resolution
            assert bundled.objective_value <= resource.objective_value + slack
