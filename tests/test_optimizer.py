import itertools
import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from cloudpricing import deadline, optimizer
from cloudpricing.deadline import IntervalDemandSpec, IntervalMarket, solve_horizon
from cloudpricing.fairness import LOG_DOMAIN_BETA, beta_fairness
from cloudpricing.optimizer import (
    _barrier_derivatives,
    _barrier_value,
    _DenseSystem,
    _DiagonalLowRankSystem,
    _feasible_start,
    _newton_direction,
    _PriceProblem,
)
from cloudpricing.synth import google_cluster_instance, random_instance, sample_feasible_prices
from cloudpricing.verify import _shared_dominant_instance, central_difference_hessian
from kernel_laws import law_derivatives

TIGHT = 1e-9


def assembled(system):
    """The ``n × n`` matrix of a Newton system, which the solver never forms
    for a differentiated plan."""
    if isinstance(system, _DenseSystem):
        return system.matrix
    return np.diag(system.h) + system.rows.T @ system.rows


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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beta=st.floats(1.01, 40.0))
    def test_matches_the_per_type_formula(self, seed, beta):
        rng = np.random.default_rng(seed)
        market = random_instance(rng, m=int(rng.integers(1, 4)), n=int(rng.integers(1, 9)))
        # zero some requirements, keeping each type's largest
        R = market.requirement_matrix
        R = np.where((rng.random(R.shape) < 0.3) & (R < R.max(axis=0)), 0.0, R)
        users = tuple(replace(u, requirements=R[:, j]) for j, u in enumerate(market.user_types))
        instance = replace(market, user_types=users)
        g, expected = instance.discount, math.inf
        for user in users:
            a = user.utility.alpha
            if beta * (1.0 - a) <= g:
                expected = 0.0
                break
            headroom = max(c / r for c, r in zip(instance.resources.capacities, user.requirements)
                           if r > 0.0)
            expected = min(
                expected,
                ((g + a - 1.0) / (1.0 - a)) ** (1.0 - beta)
                * g ** (beta * g / (a + g - 1.0) - 1.0)
                * (beta * (1.0 - a) - g)
                * headroom ** (beta * (a - 1.0) / g),
            )
        bound = concavity_weight_bound(instance, beta)
        assert bound == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_factors_beyond_float_range(self):
        # at beta 200 the first factor is near 1e537 and the discount's power
        # near 1e-30080: the product underflows, with no overflow on the way
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
            discount=0.501,
        )
        assert concavity_weight_bound(instance, beta=200.0) == 0.0

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
        # barrier value in price space, at the solver's start and at a point
        # deeper inside; a differentiated system in log prices is P H P, and
        # one in price units is U H U (U = diag(unit))
        spec = ObjectiveSpec(1.0, 2.0)
        for instance in (toy_instance, reference_instance):
            for kind in ("bundled", "resource", "differentiated"):
                problem = _PriceProblem(instance, kind)
                start = _feasible_start(problem, spec)
                for prices, t_scaled in ((start, 1.0), (1.3 * start, 40.0)):
                    point = problem.point(prices)
                    _, system = _barrier_derivatives(problem, spec, t_scaled, point)
                    analytic = assembled(system)

                    def value(p):
                        return _barrier_value(problem, spec, t_scaled, problem.point(p))

                    chain = coordinate_chain(problem, prices)
                    numeric = central_difference_hessian(value, prices)
                    numeric = chain[:, None] * numeric * chain[None, :]
                    scale = float(np.max(np.abs(analytic)))
                    assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale, (instance, kind)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_start_with_overflowing_derivatives_relaxes(self, nu):
        # at gamma 0.64 and beta 20 the half-load bundled start has a finite
        # F_beta but objective derivatives beyond the float range, where the
        # ladder cannot move; the start must relax to a higher load instead
        instance = google_cluster_instance(gamma=0.64)
        spec = ObjectiveSpec(nu, 20.0)
        problem = _PriceProblem(instance, "bundled")
        result = optimizer._barrier_ladder(problem, spec, 1e-6, _feasible_start(problem, spec))
        assert result.converged
        assert result.prices[0] == pytest.approx(bundled_price_bisection(instance), rel=1e-6)

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
            barrier_optimize(reference_instance, "bundled", spec, tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            discount_line_search(reference_instance, "resource", spec, [1.0], tolerance)

    def test_no_positive_utility_region_is_infeasible(self):
        # log utility: surplus needs price < c/e, but capacity needs price >= 2
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(0.5,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(1.0, 1.0)),),
            discount=1.0,
        )
        for kind in ("bundled", "differentiated"):  # closed form and barrier alike
            with pytest.raises(InfeasibleError, match="no strictly feasible price vector"):
                barrier_optimize(instance, kind, ObjectiveSpec(0.0, 2.0))

    def test_matches_grid_on_reference(self, reference_instance):
        spec = ObjectiveSpec(1.0, 2.0)
        axes = [np.arange(0.05, 10.0001, 0.05)] * 2
        grid = grid_oracle(reference_instance, "resource", spec, axes)
        solved = barrier_optimize(reference_instance, "resource", spec)
        assert solved.converged
        floor = grid.objective_value - 1e-3 * abs(grid.objective_value)
        assert solved.objective_value >= floor

    def test_certified_solve_reaches_a_vanishing_price(self):
        # at nu on the certified bound the objective is concave in the
        # prices, but the share term is not convex; this market's optimum
        # lies where the first price vanishes
        instance = _shared_dominant_instance(np.random.default_rng(0))
        spec = ObjectiveSpec(concavity_weight_bound(instance, 2.0), 2.0)
        assert spec.nu > 0.0
        result = barrier_optimize(instance, "resource", spec)
        assert result.converged, result.message
        low, high = result.plan.prices
        assert low < 1e-6 * high
        wide = [np.linspace(0.0, 3.0, 301)] * 2
        zoom = [
            np.concatenate(([0.0], np.geomspace(1e-6, 1.0, 61) * high)),
            np.linspace(0.9 * high, 1.1 * high, 401),
        ]
        scale = max(1.0, abs(result.objective_value))
        for axes in (wide, zoom):
            grid = grid_oracle(instance, "resource", spec, axes)
            assert result.objective_value >= grid.objective_value - 1e-6 * scale

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
    @pytest.mark.parametrize("plan_kind", ["resource", "differentiated"])
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

    def test_bundled_runs_no_ladder(self, reference_instance, monkeypatch):
        def no_ladder(*args):
            raise AssertionError("a barrier ladder ran")

        monkeypatch.setattr(optimizer, "_barrier_ladder", no_ladder)
        spec = ObjectiveSpec(1.0, 20.0)
        cold = barrier_optimize(reference_instance, "bundled", spec)
        warm = barrier_optimize(reference_instance, "bundled", spec, start=[0.3])
        for result in (cold, warm):
            assert result.plan.price == bundled_price_bisection(reference_instance)
            assert (result.iterations, result.gap, result.converged) == (0, 0.0, True)
            assert result.objective_value == cold.objective_value
        for start in ([0.0], [1.0, 1.0], [np.nan]):
            with pytest.raises(ValueError, match="start must hold 1 positive finite prices"):
                barrier_optimize(reference_instance, "bundled", spec, start=start)

    def test_iterations_count_every_ladder(self, reference_instance, monkeypatch):
        # the warm ladder runs its steps and is reported stalled; the cold
        # one converges, and the result counts the steps of both
        cold = barrier_optimize(reference_instance, "differentiated", ObjectiveSpec(0.0, 20.0))
        ladder, runs = optimizer._barrier_ladder, []

        def stall_first(*args):
            run = ladder(*args)
            runs.append(replace(run, converged=False, message="stalled") if not runs else run)
            return runs[-1]

        monkeypatch.setattr(optimizer, "_barrier_ladder", stall_first)
        warm = barrier_optimize(
            reference_instance, "differentiated", ObjectiveSpec(1.0, 20.0), start=cold.plan.prices
        )
        assert [run.converged for run in runs] == [False, True]
        assert runs[0].iterations > 0
        assert warm.iterations == sum(run.iterations for run in runs)

    def test_warm_start_across_a_nu_hop_converges_in_its_first_ladder(
        self, reference_instance, monkeypatch
    ):
        # type 2's optimal price falls fifteenfold from nu = 0 to nu = 1;
        # started 1% inside capacity, the first centering slid along the
        # capacity wall until its 80 steps ran out
        cold = barrier_optimize(reference_instance, "differentiated", ObjectiveSpec(0.0, 20.0))
        ladder, runs = optimizer._barrier_ladder, []

        def record(*args):
            runs.append(ladder(*args))
            return runs[-1]

        monkeypatch.setattr(optimizer, "_barrier_ladder", record)
        spec = ObjectiveSpec(1.0, 20.0)
        warm = barrier_optimize(reference_instance, "differentiated", spec, start=cold.plan.prices)
        assert [run.converged for run in runs] == [True], [run.message for run in runs]
        again = barrier_optimize(reference_instance, "differentiated", spec)
        assert warm.objective_value == pytest.approx(
            again.objective_value, rel=1e-6, abs=1e-6
        )

    @pytest.mark.parametrize("start", [[1.0], [1.0, 0.0], [1.0, np.inf], [[1.0, 1.0]]])
    def test_rejects_malformed_start(self, reference_instance, start):
        with pytest.raises(ValueError, match="start must hold 2 positive finite prices"):
            barrier_optimize(reference_instance, "resource", ObjectiveSpec(1.0, 2.0), start=start)

    def test_warm_start_from_the_optimum_is_pulled_inside(self, reference_instance):
        # at nu 1 the objective has no concavity certificate, so the cold
        # solve runs its ladder (at nu 0 it closes at a one-price face)
        spec = ObjectiveSpec(1.0, 20.0)
        cold = barrier_optimize(reference_instance, "resource", spec)
        warm = barrier_optimize(reference_instance, "resource", spec, start=cold.plan.prices)
        assert warm.converged
        assert warm.iterations < cold.iterations
        assert warm.objective_value >= cold.objective_value - 1e-6 * abs(cold.objective_value)


# The price oracle as first written, through the kernel's public laws and
# beta_fairness.  The solver's leaner oracle must return the same floats.


def reference_objective_value(problem, spec, costs):
    revenue = float(np.sum(problem.kernel.bill(costs, problem.w)))
    utils = problem.kernel(costs)
    if np.any(utils <= 0.0) or not np.all(np.isfinite(utils)):
        return -np.inf
    return spec.nu * revenue + beta_fairness(utils, spec.beta, weights=problem.w)


def reference_cost_derivatives(problem, spec, costs):
    beta, nu = spec.beta, spec.nu
    utils = problem.kernel(costs)
    rev1, rev2 = law_derivatives(problem.kernel, "bill", costs)
    u1, u2 = law_derivatives(problem.kernel, "surplus", costs)
    um_b = utils**-beta
    fair1 = um_b * u1
    fair2 = -beta * utils ** (-beta - 1.0) * u1**2 + um_b * u2
    return problem.w * (nu * rev1 + fair1), problem.w * (nu * rev2 + fair2)


def reference_cost_map(problem):
    """``D``, with the identity that a differentiated plan leaves unformed."""
    return np.eye(problem.dim) if problem.D is None else problem.D


def coordinate_chain(problem, prices):
    """``d price / d coordinate`` of the barrier's Newton coordinates: the
    prices for a differentiated plan, which steps in log prices, and the
    price units otherwise."""
    return prices if problem.log_prices else problem.unit


def reference_barrier_value(problem, spec, t_scaled, prices):
    """The barrier's value; only a plan in price coordinates has the log
    barrier of its price shares, ``-sum_k log(p_k / sum_j p_j)``."""
    if np.any(prices <= 0.0):
        return np.inf
    costs = reference_cost_map(problem) @ prices
    if np.any(costs <= 0.0):
        return np.inf
    slack = problem.limits - problem.G @ problem.kernel.demand(costs)
    if np.any(slack <= 0.0):
        return np.inf
    value = reference_objective_value(problem, spec, costs)
    if not np.isfinite(value):
        return np.inf
    value = -t_scaled * value - float(np.sum(np.log(slack)))
    if not problem.log_prices:  # the defining form
        value -= float(np.sum(np.log(prices / np.sum(prices))))
    return value


def reference_barrier_derivatives(problem, spec, t_scaled, prices):
    D, G = reference_cost_map(problem), problem.G
    costs = D @ prices
    x1, x2 = law_derivatives(problem.kernel, "demand", costs)
    slack = problem.limits - G @ problem.kernel.demand(costs)
    obj1, obj2 = reference_cost_derivatives(problem, spec, costs)
    jac = (G * x1[None, :]) @ D
    grad = -t_scaled * (D.T @ obj1)
    grad += jac.T @ (1.0 / slack)
    hess = -t_scaled * (D.T * obj2) @ D
    hess += (jac.T / slack**2) @ jac
    curvature = (G * x2[None, :]) / slack[:, None]
    hess += (D.T * curvature.sum(axis=0)) @ D
    if not problem.log_prices:  # the price shares
        total = np.sum(prices)
        grad += problem.dim / total - 1.0 / prices
        hess += np.diag(1.0 / prices**2) - problem.dim / total**2
    return grad, hess


def reference_barrier_magnitudes(problem, spec, t_scaled, prices):
    """Sums of the absolute terms behind a barrier's value and the entries of
    its gradient and Newton system in the oracle's coordinates (log prices
    for a differentiated plan, prices otherwise): the scale of their
    rounding errors."""
    G, w, beta = problem.G, problem.w, spec.beta
    D = reference_cost_map(problem)
    costs = D @ prices
    chain = coordinate_chain(problem, prices)
    K = np.abs(D) * chain  # d cost / d coordinate
    x1, x2 = law_derivatives(problem.kernel, "demand", costs)
    slack = problem.limits - G @ problem.kernel.demand(costs)
    utils = problem.kernel(costs)
    rev1, rev2 = law_derivatives(problem.kernel, "bill", costs)
    u1, u2 = law_derivatives(problem.kernel, "surplus", costs)
    t = abs(t_scaled)
    objective = spec.nu * problem.kernel.bill(costs, w).sum()
    objective += abs(beta_fairness(utils, beta, weights=w))
    value = t * objective + np.abs(np.log(slack)).sum()
    um_b = utils**-beta
    obj1 = w * (spec.nu * np.abs(rev1) + um_b * np.abs(u1))
    obj2 = w * (spec.nu * np.abs(rev2) + beta * utils ** (-beta - 1.0) * u1**2 + um_b * np.abs(u2))
    jac = np.abs(G * x1) @ K
    grad = t * (K.T @ obj1) + jac.T @ (1.0 / slack)
    curvature = ((G * np.abs(x2)) / slack[:, None]).sum(axis=0)
    hess = (K.T * (t * obj2 + curvature)) @ K + (jac.T / slack**2) @ jac
    if not problem.log_prices:  # the price shares
        total = np.sum(prices)
        value += np.abs(np.log(prices)).sum() + problem.dim * abs(np.log(total))
        value += np.abs(np.log(prices / total)).sum()  # and in the reference's form
        grad += chain * (1.0 / prices + problem.dim / total)
        hess += chain[:, None] * (np.diag(1.0 / prices**2) + problem.dim / total**2) * chain
    return value, grad, hess


def reference_load(problem, prices):
    used = problem.G @ problem.kernel.demand(reference_cost_map(problem) @ prices)
    return float(np.max(used / problem.limits))


def reference_bisect_load(load, target):
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


def reference_newton_direction(hess, grad):
    dim = hess.shape[0]
    scale = float(np.max(np.abs(np.diag(hess))))
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
    return -grad


def reference_newton_minimize(value_of, derivatives_of, point, max_iterations, floor=0.0):
    """The damped Newton loop that evaluates every trial step."""
    value = value_of(point)

    def settled(decrement, rtol):
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

        def sufficient(step):
            trial = value_of(point + step * direction)
            return trial <= value + optimizer.ARMIJO_SLOPE * step * slope, trial

        step = 1.0
        ok_step, cand_value = sufficient(step)
        if ok_step:
            while step < 2.0**30:
                grew, trial = sufficient(2.0 * step)
                if not grew or trial >= cand_value:
                    break
                step *= 2.0
                cand_value = trial
        else:
            while step > 1e-18:
                step *= optimizer.BACKTRACK_FACTOR
                ok_step, cand_value = sufficient(step)
                if ok_step:
                    break
            else:
                return point, iteration, settled(decrement, 1e-6)
        point = point + step * direction
        value = cand_value
    grad, system = derivatives_of(point)
    direction = _newton_direction(system, grad)
    return point, max_iterations, settled(-float(grad @ direction), 1e-6)


class TestOracleMatchesReference:
    """The lean oracle returns the reference formulation's floats, exactly or
    within the rounding of its terms."""

    @staticmethod
    def market(seed, n, m, log_types):
        """A random market whose types in the bit mask ``log_types`` have log utility.

        A log-utility type's surplus is positive only above e jobs per user,
        so its jobs are made small enough for that demand to fit.
        """
        rng = np.random.default_rng(seed)
        instance = random_instance(rng, m=m, n=n)
        types = tuple(
            replace(u, requirements=0.02 * u.requirements, utility=UtilityParams(1.0, u.utility.c))
            if log_types >> j & 1 else u
            for j, u in enumerate(instance.user_types)
        )
        return replace(instance, user_types=types), rng

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        log_types=st.integers(0, 31),
        kind=st.sampled_from(["bundled", "resource", "differentiated"]),
        nu=st.floats(0.0, 10.0),
        beta=st.one_of(
            st.floats(0.1, 0.95), st.floats(1.05, 9.99), st.just(LOG_DOMAIN_BETA),
            st.floats(10.0, 40.0),
        ),
        t_scaled=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        spread=st.floats(0.0, 0.5),
        where=st.sampled_from(["inside"] * 4 + ["zero price", "negative price", "over capacity"]),
    )
    def test_value_derivatives_objective_and_load(
        self, seed, n, m, log_types, kind, nu, beta, t_scaled, spread, where
    ):
        instance, rng = self.market(seed, n, m, log_types)
        spec = ObjectiveSpec(nu, beta)
        problem = _PriceProblem(instance, kind)
        # the solver's start, moved a little; log-utility markets may have no
        # point with every net utility positive, and their value is inf
        try:
            start = _feasible_start(problem, spec)
        except InfeasibleError:
            start = np.full(problem.dim, problem.level_for_load(0.5))
        prices = start * np.exp(rng.uniform(-spread, spread, problem.dim))
        if where == "zero price":
            prices[rng.integers(problem.dim)] = 0.0
        elif where == "negative price":
            prices[rng.integers(problem.dim)] *= -1.0
        elif where == "over capacity":
            prices /= 10.0  # at least ten times the start's demand, which is half a row
        with np.errstate(divide="ignore", invalid="ignore"):
            point = problem.point(prices)
        if problem.log_prices:  # the oracle reads u = log p, and the prices exp(u)
            prices = np.exp(point)

        with np.errstate(all="ignore"):  # the reference's own warnings are not under test
            expected = reference_barrier_value(problem, spec, t_scaled, prices)
            if expected < np.inf:
                sizes = reference_barrier_magnitudes(problem, spec, t_scaled, prices)
        value = _barrier_value(problem, spec, t_scaled, point)
        if np.isfinite(expected):
            # log p is read as u itself, and the reference forms the share
            # term from the shares, so the floats differ in rounding: in
            # price coordinates by a few ulps per price
            eps = np.finfo(float).eps
            rtol = 1e-12 if problem.log_prices else 4.0 * (problem.dim + 1) * eps
            assert abs(value - expected) <= rtol * sizes[0]
        else:
            assert value == expected or (np.isnan(value) and np.isnan(expected))
        if where != "inside":
            assert value == expected == np.inf
        if expected < np.inf:  # inside the domain
            with np.errstate(all="ignore"):
                grad, hess = reference_barrier_derivatives(problem, spec, t_scaled, prices)
            new_grad, system = _barrier_derivatives(problem, spec, t_scaled, point)
            if np.isfinite(grad).all() and np.isfinite(hess).all():
                # the oracle forms its derivatives from elasticities, so the
                # floats differ in rounding, and per-cost derivatives may
                # overflow where they do not; in u = log p the gradient is
                # P g and the system P H P, in price units U g and U H U
                chain = coordinate_chain(problem, prices)
                assert np.all(np.abs(new_grad - chain * grad) <= 1e-12 * sizes[1])
                transformed = chain[:, None] * hess * chain[None, :]
                assert np.all(np.abs(assembled(system) - transformed) <= 1e-12 * sizes[2])
        if np.all(prices > 0.0):
            costs = problem.costs(prices)
            with np.errstate(all="ignore"):
                objective_value = reference_objective_value(problem, spec, costs)
                load = reference_load(problem, prices)
                assert problem.load(prices) == load
            assert problem.objective_value(spec, costs) == objective_value

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        m=st.integers(1, 3),
        log_types=st.integers(0, 2**30 - 1),
        kind=st.sampled_from(["bundled", "resource", "differentiated"]),
        log_target=st.one_of(st.floats(-4.6, 0.7), st.floats(-700.0, 700.0)),
    )
    def test_bisection_stops_where_the_halvings_stop_moving(
        self, seed, n, m, log_types, kind, log_target
    ):
        # the level and the differentiated start's per-type costs are floats
        # where the load crosses its target, and raise only where no price
        # is found; within e**±300 they are the floats the bisection from
        # scale one returns, and far targets put roots beyond its reach
        instance, rng = self.market(seed, n, m, log_types)
        problem = _PriceProblem(instance, kind)
        base = np.exp(rng.uniform(-3.0, 3.0, problem.dim))
        target = math.exp(log_target)

        def own_loads(prices):
            return np.max(problem.G * problem.kernel.demand(prices) / problem.limits[:, None], 0)

        targets = target * rng.uniform(1e-3, 1.0, n)
        searches = (
            (lambda: problem.level_for_load(target, base),
             lambda scale: problem.load(scale * base), target),
            (lambda: problem.own_costs(targets), own_loads, targets),
        )
        for search, load, goal in searches:
            with np.errstate(over="ignore", divide="ignore"):
                try:
                    expected = reference_bisect_load(load, goal)
                except InfeasibleError as err:
                    expected = err
            try:
                found = search()
            except InfeasibleError as err:
                assert str(err) == str(expected)
                continue
            with np.errstate(over="ignore", divide="ignore"):
                assert np.all(load(found) <= goal)
                assert np.all(load(np.nextafter(found, 0.0)) > goal)
                if not isinstance(expected, InfeasibleError):
                    near = np.abs(np.log(expected)) <= 300.0
                    assert np.array_equal(found[near], expected[near])

    def test_level_search_reads_a_quarter_of_the_bisections_loads(self, monkeypatch):
        # exact load evaluations are counted, not timed, so the bound repeats
        rng = np.random.default_rng(20121015)
        problems = []
        for k in range(200):
            instance = random_instance(rng, m=int(rng.integers(1, 4)), n=int(rng.integers(1, 31)))
            problem = _PriceProblem(instance, ("bundled", "resource", "differentiated")[k % 3])
            problems.append((problem, np.exp(rng.uniform(-3.0, 3.0, problem.dim)),
                             float(rng.uniform(0.01, 2.0))))
        load, calls = _PriceProblem.load, [0]

        def counted(problem, prices):
            calls[0] += 1
            return load(problem, prices)

        monkeypatch.setattr(_PriceProblem, "load", counted)
        for problem, base, target in problems:
            problem.level_for_load(target, base)
        searched, calls[0] = calls[0], 0
        with np.errstate(over="ignore"):
            for problem, base, target in problems:
                reference_bisect_load(lambda scale: problem.load(scale * base), target)
        assert searched <= calls[0] / 4


class TestPriceLevel:
    """Price levels are found where a float load crosses its target."""

    @staticmethod
    def lopsided_market(cpu=4.0):
        # at scale one the second type's demand overflows, and its zero cpu
        # requirement times that demand is NaN
        resources = ResourceModel(names=("cpu", "mem"), capacities=np.array([cpu, 1.0]))
        types = tuple(
            UserType(label, 1, np.array(need), UtilityParams(0.5, 1.0))
            for label, need in (("a", [1.0, 0.0]), ("b", [0.0, 1e-160]))
        )
        return Instance(resources=resources, user_types=types, discount=1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_level_past_a_nan_load(self):
        problem = _PriceProblem(self.lopsided_market(), "resource")
        scale = float(problem.level_for_load(0.5))
        assert scale == pytest.approx(math.sqrt(2.0) * 1e80, rel=1e-12)
        ones = np.ones(problem.dim)
        assert problem.load(scale * ones) <= 0.5 < problem.load(np.nextafter(scale, 0.0) * ones)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["bundled", "resource", "differentiated"])
    def test_no_false_infeasible_verdict(self, kind):
        result = barrier_optimize(self.lopsided_market(), kind, ObjectiveSpec(1.0, 2.0))
        assert np.all(np.isfinite(result.outcome.demands))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_slack_is_outside_the_domain(self):
        # where the second type's demand overflows, the cpu row's slack is
        # 1 - (x_a + 0 * inf), a NaN, and the barrier must read it as outside
        problem = _PriceProblem(self.lopsided_market(1.0), "differentiated")
        point = problem.point(np.array([1.0, 1e-200]))
        assert _barrier_value(problem, ObjectiveSpec(1.0, 2.0), 1.0, point) == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_resource_matches_differentiated_at_unit_capacities(self):
        # each type uses a resource of its own, so the two plans coincide;
        # with a price box, the resource ladder returned converged=True at
        # 1.511e76 against the differentiated optimum near 1e80
        market, spec = self.lopsided_market(1.0), ObjectiveSpec(1.0, 2.0)
        resource = barrier_optimize(market, "resource", spec)
        differentiated = barrier_optimize(market, "differentiated", spec)
        assert resource.converged, resource.message
        assert resource.objective_value == pytest.approx(differentiated.objective_value, rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["bundled", "resource", "differentiated"])
    def test_unit_capacities_solve_or_stall(self, kind):
        # at unit capacities the differentiated line search tries such points
        result = barrier_optimize(self.lopsided_market(1.0), kind, ObjectiveSpec(1.0, 2.0))
        assert result.converged or result.message.startswith("inner Newton solve stalled")
        assert np.all(np.isfinite(result.outcome.demands))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_level_beyond_e300(self):
        # the level lies near e**-455, beyond 4**-300 from scale one
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (1e-200,), UtilityParams(0.99, 1.0)),),
            discount=1.0,
        )
        problem = _PriceProblem(instance, "differentiated")
        scale = float(problem.level_for_load(0.5))
        assert scale == 1.9861849908741302e-198
        assert problem.load(np.array([scale])) == 0.5
        assert problem.load(np.array([np.nextafter(scale, 0.0)])) > 0.5
        result = barrier_optimize(instance, "differentiated", ObjectiveSpec(1.0, 2.0))
        bundled = barrier_optimize(instance, "bundled", ObjectiveSpec(1.0, 2.0))
        assert result.converged, result.message
        cost = result.outcome.per_job_costs[0]
        assert cost == pytest.approx(bundled.outcome.per_job_costs[0], rel=1e-3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bundled_level_whose_bracket_product_overflows(self):
        # the level lies near e**482, where lo * hi overflows a float
        problem = _PriceProblem(google_cluster_instance(), "bundled")
        scale = float(problem.level_for_load(4.2e-298))
        assert 1e200 < scale < math.inf
        assert problem.load(np.array([scale])) <= 4.2e-298
        assert problem.load(np.array([np.nextafter(scale, 0.0)])) > 4.2e-298


class TestNewtonDirection:
    """The ridged Newton direction of the price ladder and the deadline repair."""

    @staticmethod
    def eigenvalues(rng, dim, kind):
        return {
            "spd": rng.uniform(1.0, 10.0, dim),
            "indefinite": rng.uniform(-10.0, 10.0, dim),
            "deficient": rng.uniform(0.0, 10.0, dim) * (np.arange(dim) % 2),
            "tiny-pivots": np.geomspace(1e-16, 1.0, dim),
        }[kind]

    @staticmethod
    def system(seed, dim, kind, scale):
        # a random orthogonal basis under eigenvalues of the given kind
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        hess = scale * (basis * TestNewtonDirection.eigenvalues(rng, dim, kind)) @ basis.T
        grad = rng.normal(size=dim)
        return (hess + hess.T) / 2.0, grad / np.linalg.norm(grad)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 12),
        kind=st.sampled_from(["spd", "indefinite", "deficient", "tiny-pivots"]),
        scale=st.sampled_from([1e-12, 1.0, 1e12]),
    )
    def test_always_a_finite_descent_direction(self, seed, dim, kind, scale):
        hess, grad = self.system(seed, dim, kind, scale)
        direction = _newton_direction(_DenseSystem(hess), grad)
        assert np.all(np.isfinite(direction))
        assert grad @ direction < 0.0
        # no identity is added while the ridge is zero; the floats are the same
        assert np.array_equal(direction, reference_newton_direction(hess, grad))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40))
    def test_well_conditioned_spd_is_the_newton_step(self, seed, dim):
        hess, grad = self.system(seed, dim, "spd", 1.0)
        direction = _newton_direction(_DenseSystem(hess), grad)
        exact = np.linalg.solve(hess, -grad)
        assert np.linalg.norm(direction - exact) <= 1e-10 * np.linalg.norm(exact)

    @pytest.mark.parametrize(
        "hess", [np.zeros((3, 3)), -np.eye(3), np.ones((3, 3)), np.diag([1.0, 0.0, 1e-300])]
    )
    def test_singular_and_negative_systems_do_not_raise(self, hess):
        grad = np.array([1.0, -2.0, 0.5])
        direction = _newton_direction(_DenseSystem(hess), grad)
        assert np.all(np.isfinite(direction)) and grad @ direction < 0.0

    def test_cholesky_passes_but_lu_pivot_is_zero(self):
        # rounding leaves Cholesky a pivot of 2e-8 but LU an exact zero
        hess = np.array(
            [[6.405920704482398, -4.604265724722594], [-4.604265724722594, 3.3093233341183206]]
        )
        grad = np.array([1.0, -2.0])
        np.linalg.cholesky(hess)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hess, grad)
        direction = _newton_direction(_DenseSystem(hess), grad)
        assert np.all(np.isfinite(direction)) and grad @ direction < 0.0


class TestDiagonalLowRankSystem:
    """The differentiated Newton system against the dense matrix it stands for."""

    @staticmethod
    def system(seed, n, m, kind="mixed"):
        """``diag(h) + Jᵀ diag(w) J`` with row weights ``w`` in [1e-5, 1e8]."""
        rng = np.random.default_rng(seed)
        jac = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        weights = 10.0 ** rng.uniform(-5.0, 8.0, m)
        if kind == "mixed":  # every sign, or positive with up to m + 1 negatives
            h = 10.0 ** rng.uniform(-4.0, 4.0, n) * rng.choice([1.0, 1.0, 1.0, -1.0], n)
            if rng.uniform() < 0.5:
                h = np.abs(h)
                flip = rng.choice(n, min(n, int(rng.integers(0, m + 2))), replace=False)
                h[flip] *= -rng.uniform(0.0, 1.0, flip.size)
        else:  # the dense systems' kinds, on the diagonal
            h = TestNewtonDirection.eigenvalues(rng, n, kind)
        grad = rng.normal(size=n)
        return _DiagonalLowRankSystem(h, jac, 1.0 / np.sqrt(weights)), grad / np.linalg.norm(grad)

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        m=st.integers(1, 3),
        tau=st.sampled_from([0.0, 1e-3, 1.0]),
    )
    def test_matches_the_dense_solve(self, seed, n, m, tau):
        system, grad = self.system(seed, n, m)
        ridged = assembled(system) + tau * np.eye(n)
        try:
            np.linalg.cholesky(ridged)
            definite = True
        except np.linalg.LinAlgError:
            definite = False
        try:
            direction = system.solve(-grad, tau)
        except np.linalg.LinAlgError:
            # the solve declines an indefinite system, a near-singular pivot,
            # or, with negative pivots, a capacitance lost to cancellation;
            # the Newton direction ridges each of them
            d, V = system.h + tau, system.rows
            pivot = (np.abs(d) <= optimizer.PIVOT_RTOL * system.row_diagonal).any()
            cancelled = False
            if not pivot and (d < 0.0).any():
                capacitance = np.eye(m) + (V / d) @ V.T
                spread = 1.0 + float((np.abs(V / d) @ np.abs(V).T).max())
                cancelled = np.abs(np.linalg.eigvalsh(capacitance)).min() <= 1e-8 * spread
            assert not definite or pivot or cancelled
            return
        assert definite
        residual = np.linalg.norm(ridged @ direction + grad)
        size = np.linalg.norm(ridged, 2) * np.linalg.norm(direction) + np.linalg.norm(grad)
        assert residual <= 1e-9 * size

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        m=st.integers(1, 3),
        kind=st.sampled_from(["indefinite", "deficient", "tiny-pivots"]),
    )
    def test_always_a_finite_descent_direction(self, seed, n, m, kind):
        system, grad = self.system(seed, n, m, kind)
        direction = _newton_direction(system, grad)
        assert np.all(np.isfinite(direction))
        assert grad @ direction < 0.0

    def test_holds_no_square_array(self):
        # a differentiated solve at n = 2000, where one n x n float array
        # alone would take 32 MB
        instance = random_instance(np.random.default_rng(0), m=3, n=2000)
        tracemalloc.start()
        try:
            result = barrier_optimize(instance, "differentiated", ObjectiveSpec(1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations > 0
        assert peak < 8e6


class TestBundledClosedForm:
    """The bundled optimum is the bisection's price, at least as good as any other route."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        log_types=st.integers(0, 31),
        custom_bundle=st.booleans(),
        nu=st.floats(0.0, 100.0),
        beta=st.sampled_from([0.5, 2.0, 20.0]),
    )
    def test_beats_the_ladder_and_the_grid(
        self, seed, n, m, log_types, custom_bundle, nu, beta
    ):
        instance, rng = TestOracleMatchesReference.market(seed, n, m, log_types)
        bundle = rng.uniform(0.2, 3.0, m) if custom_bundle else None
        spec = ObjectiveSpec(nu, beta)
        problem = _PriceProblem(instance, "bundled", bundle)
        try:
            closed = barrier_optimize(instance, "bundled", spec, bundle=bundle)
        except InfeasibleError:
            # the objective falls with the price: no higher price is usable either
            with pytest.raises(InfeasibleError):
                _feasible_start(problem, spec)
            return
        price = closed.plan.price
        assert price == bundled_price_bisection(instance, bundle)
        assert closed.outcome.feasible
        assert (closed.iterations, closed.gap, closed.converged) == (0, 0.0, True)
        floor = closed.objective_value + 1e-6 * max(1.0, abs(closed.objective_value))
        axis = np.append(price, np.geomspace(price / 10.0, price * 10.0, 201))
        grid = grid_oracle(instance, "bundled", spec, [axis], bundle=bundle)
        assert grid.objective_value <= floor
        try:
            start = _feasible_start(problem, spec)
        except InfeasibleError:  # only prices near the closed form keep utilities positive
            return
        ladder = optimizer._barrier_ladder(problem, spec, 1e-6, start)
        assert ladder.value <= floor

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nu=st.floats(0.0, 100.0),
        beta=st.sampled_from([0.5, 2.0, 20.0]),
    )
    # no price keeps F_beta inside the float range under bundled or resource pricing
    @example(seed=4045500440, nu=67.04508995151045, beta=20.0)
    def test_plan_ordering(self, seed, nu, beta):
        # under a shared dominant resource and the default bundle, a resource
        # plan pricing only that resource reproduces the bundled plan
        instance = _shared_dominant_instance(np.random.default_rng(seed))
        spec = ObjectiveSpec(nu, beta)

        def value(kind):
            try:
                return barrier_optimize(instance, kind, spec).objective_value
            except InfeasibleError:  # no finite objective anywhere
                return -np.inf

        bundled, resource, differentiated = map(value, ("bundled", "resource", "differentiated"))
        scale = max(1.0, abs(resource)) if np.isfinite(resource) else 1.0
        assert differentiated >= resource - 1e-6 * scale
        if beta > 1.0:  # see the known defect below
            assert resource >= bundled - 1e-6 * scale

    @pytest.mark.xfail(strict=True, reason="known defect: the ladders settle on an inner peak")
    def test_resource_settles_below_bundled(self):
        # at beta < 1 the objective along the capacity wall peaks inside and
        # where the second price vanishes, which is the bundled plan; every
        # ladder from an interior start converges on the inner peak
        instance = _shared_dominant_instance(np.random.default_rng(582615))
        spec = ObjectiveSpec(35.0, 0.5)
        bundled = barrier_optimize(instance, "bundled", spec)
        resource = barrier_optimize(instance, "resource", spec)
        assert resource.objective_value >= bundled.objective_value - 1e-6

    @pytest.mark.parametrize("seed, nu", [(1533, 52.97252763143477), (1594, 25.629495302889037)])
    def test_resource_reaches_bundled_at_low_beta(self, seed, nu):
        # with a price box, the resource ladder returned converged=True at
        # 156.110 against bundled 182.471 (seed 1533), and stalled at 265.939
        # against 315.196 (seed 1594)
        instance = _shared_dominant_instance(np.random.default_rng(seed))
        spec = ObjectiveSpec(nu, 0.5)
        bundled = barrier_optimize(instance, "bundled", spec)
        resource = barrier_optimize(instance, "resource", spec)
        assert resource.converged, resource.message
        scale = max(1.0, abs(resource.objective_value))
        assert resource.objective_value >= bundled.objective_value - 1e-6 * scale

    @pytest.mark.parametrize("seed", [4, 93, 139])
    def test_resource_ladder_from_the_default_start_converges(self, seed):
        # with a price box, the first centering ran the prices toward the
        # box centre and these ladders stalled on the way back; the coarse
        # probe's ladder won after over a hundred Newton steps
        nu = float(np.random.default_rng(10000 + seed).uniform(0.0, 100.0))
        instance = _shared_dominant_instance(np.random.default_rng(seed))
        spec = ObjectiveSpec(nu, 0.5)
        problem = _PriceProblem(instance, "resource")
        ladder = optimizer._barrier_ladder(problem, spec, 1e-6, _feasible_start(problem, spec))
        assert ladder.converged, ladder.message

    def test_differentiated_reaches_resource_where_high_prices_vanish(self):
        # at beta < 1 every objective term vanishes at high prices; with a
        # price box, this differentiated ladder once converged at its
        # ceiling, with an objective of 6.1e-14 against resource's 639.7
        instance = _shared_dominant_instance(np.random.default_rng(2313555400))
        spec = ObjectiveSpec(96.28645784432278, 0.5)
        resource = barrier_optimize(instance, "resource", spec)
        differentiated = barrier_optimize(instance, "differentiated", spec)
        assert differentiated.objective_value >= resource.objective_value - 1e-6

    def test_start_selection_keeps_the_better_ladder(self):
        # with a price box, the ladder from the default start stalled near
        # 47.2, below the resource plan's 48.4, and a later start's ladder
        # converged at 11.8 and won because it converged; without the box
        # the default start's ladder converges at 48.695
        instance = random_instance(np.random.default_rng(0), m=2, n=3)
        spec = ObjectiveSpec(10.0, 0.5)
        problem = _PriceProblem(instance, "differentiated")
        first = optimizer._barrier_ladder(problem, spec, 1e-6, _feasible_start(problem, spec))
        result = barrier_optimize(instance, "differentiated", spec)
        assert result.objective_value >= first.value


def face_values(instance, spec):
    """Each feasible one-price face's value: the lowest level of that price
    alone that fills the binding row, found from plain unit prices."""
    problem = _PriceProblem(instance, "resource")
    values = []
    for k in range(problem.dim):
        if np.all(problem.D[:, k] > 0.0):
            base = np.eye(problem.dim)[k]
            prices = problem.level_for_load(1.0, base) * base
            values.append(problem.objective_value(spec, problem.costs(prices)))
    return values


def cold_ladder(instance, spec):
    """One resource ladder from the default start, as every solve ran before faces."""
    problem = _PriceProblem(instance, "resource")
    return optimizer._barrier_ladder(problem, spec, 1e-6, _feasible_start(problem, spec))


class TestCertifiedFace:
    """Where the objective is certified concave, KKT at a one-price face ends a resource solve."""

    def test_reference_market_closes_at_its_face(self, reference_instance):
        spec = ObjectiveSpec(0.0, 20.0)
        result = barrier_optimize(reference_instance, "resource", spec)
        assert (result.iterations, result.converged, result.message) == (0, True, "")
        assert np.all(result.plan.prices > 0.0) and result.outcome.feasible
        # the largest memory cost of any type is 2**-40 of its largest CPU cost
        largest = result.plan.prices * _PriceProblem(reference_instance, "resource").D.max(axis=0)
        assert largest[1] == pytest.approx(2.0**-40 * largest[0], rel=1e-15)
        ladder = cold_ladder(reference_instance, spec)
        assert ladder.converged and ladder.iterations > 0
        value = result.objective_value
        assert value >= ladder.value - 1e-9 * abs(ladder.value)
        best, *others = sorted(face_values(reference_instance, spec), reverse=True)
        assert len(others) == 1 and all(value >= other for other in others)
        assert 0.0 <= result.gap <= 1e-6
        assert value == pytest.approx(best - result.gap * abs(best), rel=1e-12)

    @pytest.mark.parametrize("nu, beta", [(0.0, 2.0), (1.0, 20.0)])
    def test_ladder_runs_without_a_certificate(self, reference_instance, nu, beta):
        # beta 2 has no certificate (a bound of 0 certifies not even nu 0),
        # and nu 1 lies far above beta 20's bound of about 1e-23
        bound = concavity_weight_bound(reference_instance, beta)
        assert bound == 0.0 or bound < nu
        result = barrier_optimize(reference_instance, "resource", ObjectiveSpec(nu, beta))
        assert result.converged and result.iterations > 0

    def test_ladder_runs_where_the_optimum_prices_every_resource(self):
        # certified, but the optimum prices both resources (1.71 and 0.26),
        # and the best face's |objective| is 21 decades larger: KKT fails at
        # every face, and the ladder decides
        instance = random_instance(np.random.default_rng(0), m=2, n=4)
        spec = ObjectiveSpec(0.0, 20.0)
        assert concavity_weight_bound(instance, spec.beta) > 0.0
        result = barrier_optimize(instance, "resource", spec)
        assert result.converged and result.iterations > 0
        assert abs(result.objective_value) < 1e-20 * abs(max(face_values(instance, spec)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        n=st.integers(1, 8),
        beta=st.sampled_from([2.0, 20.0]),
        half_bound=st.booleans(),
    )
    def test_a_face_is_no_lower_than_the_ladder(self, seed, m, n, beta, half_bound):
        instance = random_instance(np.random.default_rng(seed), m=m, n=n)
        nu = concavity_weight_bound(instance, beta) / 2.0 if half_bound else 0.0
        spec = ObjectiveSpec(nu, beta)
        try:
            result = barrier_optimize(instance, "resource", spec)
            if result.iterations:  # no face closed the solve
                return
            ladder = cold_ladder(instance, spec)
        except InfeasibleError:  # F_beta leaves the float range at every start
            return
        assert result.converged and 0.0 <= result.gap <= 1e-6
        assert result.objective_value >= ladder.value - 1e-6 * abs(ladder.value)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-150, 150))
    @example(seed=0, j=150)  # seed 0 is the reference market
    def test_scaled_units_take_the_same_path(self, seed, j):
        instance = google_cluster_instance() if seed == 0 else random_instance(
            np.random.default_rng(seed), m=2, n=3
        )
        spec = ObjectiveSpec(0.0, 20.0)
        base = barrier_optimize(instance, "resource", spec)
        result = barrier_optimize(scaled_units(instance, 10.0**j), "resource", spec)
        assert result.converged == base.converged
        assert (result.iterations == 0) == (base.iterations == 0)
        if base.iterations == 0:
            assert result.objective_value == pytest.approx(base.objective_value, rel=1e-12)


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

    @pytest.mark.parametrize("n", [79])
    def test_probe_point_lies_strictly_inside(self, monkeypatch, n):
        # this resource solve stalls, so the probe runs; its point starts a
        # ladder, which needs every capacity row strictly slack
        instance = random_instance(np.random.default_rng(n), m=3, n=n)
        spec = ObjectiveSpec(0.0, 20.0)
        probe, points = optimizer._coarse_probe, []

        def record(problem, spec, around):
            points.append((problem, probe(problem, spec, around)))
            return points[-1][1]

        monkeypatch.setattr(optimizer, "_coarse_probe", record)
        assert not barrier_optimize(instance, "resource", spec).converged
        [(problem, prices)] = points
        assert np.isfinite(_barrier_value(problem, spec, 0.0, problem.point(prices)))

    def test_ladder_from_the_probe_point_converges(self):
        # the default start stalls, and the probe's ladder, whose smallest
        # price is 0.136, converges; with per-cost derivatives it overflowed
        # at its first step
        instance = random_instance(np.random.default_rng(72), m=3, n=72)
        result = barrier_optimize(instance, "resource", ObjectiveSpec(0.0, 20.0))
        assert result.converged, result.message
        assert result.objective_value == pytest.approx(-3.664407e275, rel=1e-6)


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

    def test_converges_at_or_above_resource(self):
        # with a price box, the ladder from the default start stalled at
        # 85.544 (resource: 84.767); without it, it converges near 90.425
        instance = random_instance(np.random.default_rng(2), m=3, n=20)
        spec = ObjectiveSpec(1.0, 0.5)
        resource = barrier_optimize(instance, "resource", spec)
        differentiated = barrier_optimize(instance, "differentiated", spec)
        assert differentiated.converged, differentiated.message
        scale = max(1.0, abs(resource.objective_value))
        assert differentiated.objective_value >= resource.objective_value - 1e-6 * scale

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

    @pytest.mark.parametrize("n", [20, 50, 100, 300, 1000])
    def test_differentiated_converges_at_scale(self, n):
        # prices that move by factors (Newton steps in log prices) and a
        # barrier with no price box keep wide markets from stalling; with
        # the box, every ladder at n >= 200 ran its prices toward the ceiling
        for seed, beta in itertools.product(range(5), (2.0, 0.5)):
            instance = random_instance(np.random.default_rng(seed), m=3, n=n)
            spec = ObjectiveSpec(1.0, beta)
            res = barrier_optimize(instance, "resource", spec)
            diff = barrier_optimize(instance, "differentiated", spec)
            assert diff.converged, (seed, beta, diff.message)
            scale = max(1.0, abs(res.objective_value))
            assert diff.objective_value >= res.objective_value - 1e-6 * scale, (seed, beta)


def scaled_units(instance, k):
    """The market with requirements and capacities both multiplied by ``k``."""
    resources = replace(instance.resources, capacities=k * instance.resources.capacities)
    types = tuple(replace(u, requirements=k * u.requirements) for u in instance.user_types)
    return replace(instance, resources=resources, user_types=types)


class TestUnitInvariance:
    """A change of resource units changes no per-job cost and no objective."""

    @pytest.mark.parametrize("requirement", [1e-30, 1e-100, 1e-200])
    def test_single_type_reproduces_the_bundled_cost(self, requirement):
        # one type, one resource: every plan posts the cost that fills capacity
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (requirement,), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        spec = ObjectiveSpec(1.0, 2.0)
        bundled = barrier_optimize(instance, "bundled", spec).outcome.per_job_costs[0]
        for kind in ("resource", "differentiated"):
            result = barrier_optimize(instance, kind, spec, TIGHT)
            assert result.converged
            cost = result.outcome.per_job_costs[0]
            assert cost == pytest.approx(bundled, rel=1e-9, abs=0.0), kind

    @pytest.mark.xfail(strict=True, reason="known defect: both barrier plans stall at t = 1")
    def test_single_type_at_requirement_1e300_and_alpha_0_3(self):
        # the same market converges at requirement 1e160, or at alpha 0.5 or
        # 0.99; here both barrier plans stop with per-job costs 23% above
        # the bundled closed form
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (1e300,), UtilityParams(0.3, 1.0)),),
            discount=1.0,
        )
        spec = ObjectiveSpec(1.0, 2.0)
        bundled = barrier_optimize(instance, "bundled", spec).outcome.per_job_costs[0]
        for kind in ("resource", "differentiated"):
            result = barrier_optimize(instance, kind, spec)
            assert result.converged, (kind, result.message)
            cost = result.outcome.per_job_costs[0]
            assert cost == pytest.approx(bundled, rel=1e-8, abs=0.0), kind

    @pytest.mark.parametrize("beta", [2.0, 20.0])
    @pytest.mark.parametrize("kind", ["resource", "differentiated"])
    @pytest.mark.parametrize("market", ["reference", 0, 1, 2])
    def test_scaling_requirements_and_capacities(self, market, kind, beta):
        if market == "reference":
            instance = google_cluster_instance()
        else:
            instance = random_instance(np.random.default_rng(market), m=2, n=3)
        spec = ObjectiveSpec(1.0, beta)
        base = barrier_optimize(instance, kind, spec)
        for k in (1e8, 1e-8, 1e30, 1e-30, 1e100, 1e-100, 1e165, 1e-160):
            result = barrier_optimize(scaled_units(instance, k), kind, spec)
            assert result.converged == base.converged, k
            assert result.objective_value == pytest.approx(base.objective_value, rel=1e-9), k

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "k, beta",
        [(k, 0.5) for k in (1e-300, 1e-160, 1e165, 1e300)]
        + [(k, beta) for k in (1e-300, 1e300) for beta in (2.0, 20.0)],
    )
    def test_resource_solves_at_extreme_units(self, k, beta):
        # beta 0.5 and k = 1e±300, beyond the cases above: in price
        # coordinates, prices near 1e160 (k = 1e-160) made squaring their
        # sum raise OverflowError and the slacks' squares underflow to zero,
        # and prices near 1e-165 overflowed the share term's 1 / p²; in
        # price units every scale takes the reference market's path
        instance = google_cluster_instance()
        spec = ObjectiveSpec(1.0, beta)
        base = barrier_optimize(instance, "resource", spec)
        result = barrier_optimize(scaled_units(instance, k), "resource", spec)
        assert result.converged, result.message
        assert result.objective_value == pytest.approx(base.objective_value, rel=1e-6)


class TestLooseCentering:
    """Rounds whose gap stays open center only to Newton's quadratic region."""

    @staticmethod
    def solves():
        for seed in range(12):
            instance = random_instance(np.random.default_rng(seed))
            for kind, beta, nu in itertools.product(
                ("resource", "differentiated"), (2.0, 20.0), (0.0, 1.0)
            ):
                yield barrier_optimize(instance, kind, ObjectiveSpec(nu, beta))

    def test_matches_tight_centering_in_fewer_steps(self, monkeypatch):
        loose = list(self.solves())
        monkeypatch.setattr(optimizer, "CENTERING_DECREMENT", 0.0)
        tight = list(self.solves())
        for a, b in zip(loose, tight):
            assert a.converged == b.converged
            scale = max(1.0, abs(b.objective_value))
            assert abs(a.objective_value - b.objective_value) <= 1e-6 * scale
        assert sum(a.iterations for a in loose) < sum(b.iterations for b in tight)


#: every trial step `_newton_minimize` can take: doublings up to 2**30 and
#: halvings down to the first step at or below 1e-18
TRIAL_STEPS = tuple(2.0**k for k in range(-60, 31))


def refused_steps(reach):
    """The trial steps above the tangent step bound, and the float just above it."""
    return [step for step in TRIAL_STEPS if step > reach] + [np.nextafter(reach, math.inf)]


def random_reference_horizon(rng):
    """Up to four reference-market intervals with drawn memory, deadlines and nu."""
    T = int(rng.integers(1, 5))
    intervals = tuple(
        IntervalMarket(
            google_cluster_instance(memory_capacity=float(rng.uniform(3.0, 8.0))),
            deadlines=tuple(int(d) for d in rng.integers(s, T + 1, size=3)),
            nu=float(rng.choice([0.0, 0.5, 1.0])),
        )
        for s in range(1, T + 1)
    )
    return IntervalDemandSpec(horizon=T, intervals=intervals)


class TestTangentStepBound:
    """Trial steps past a constraint's tangent are refused without evaluating them."""

    @pytest.mark.parametrize(
        "slacks, rates",
        [
            ([1.0, 2.0], [np.nan, 1.0]),  # a NaN rate
            ([1.0, 2.0], [np.inf, 1.0]),  # an overflowed rate
            ([1.0, 2.0], [-np.inf, 1.0]),
            ([1e-300, 2.0], [1e300, 1.0]),  # the bound underflows to zero
            ([1e300], [1e-300]),  # the bound overflows
            ([1.0, 2.0], [0.0, -3.0]),  # no constraint falls
        ],
    )
    def test_no_bound_without_a_finite_positive_float(self, slacks, rates):
        slacks, rates = np.array(slacks), np.array(rates)
        with np.errstate(over="ignore", under="ignore"):
            assert optimizer._tangent_reach(slacks, rates, np.zeros_like(slacks)) == math.inf

    def test_bound_is_the_first_tangent_crossing(self):
        slacks, rates = np.array([1.0, 3.0, 4.0, 8.0]), np.array([2.0, -1.0, 2.0, 0.0])
        assert optimizer._tangent_reach(slacks, rates, np.zeros(4)) == 0.5
        # each slack is widened by its rounding allowance first
        magnitudes = np.array([1.0, 0.0, 0.0, 0.0]) / optimizer.REACH_ROUNDING
        assert optimizer._tangent_reach(slacks, rates, magnitudes) == 1.0

    @staticmethod
    def one_type_market(requirement):
        return Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (requirement,), UtilityParams(0.99, 1.0)),),
            discount=1.0,
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_market_whose_demand_slope_overflows_converges(self, monkeypatch):
        # at costs near 2e-198 the demand slope x' ≈ x / r overflows, but its
        # elasticity r x' = e x does not: the capacity row has a finite rate,
        # and the resource solve converges at the bundled cost
        instance = self.one_type_market(1e-200)
        spec = ObjectiveSpec(1.0, 2.0)
        problem = _PriceProblem(instance, "resource")
        start = _feasible_start(problem, spec)
        grad, system = _barrier_derivatives(problem, spec, 1.0, problem.point(start))
        assert np.isfinite(grad).all() and system.finite()
        assert system.reach(np.array([-1.0])) < math.inf  # lower prices fill the row
        bundled = barrier_optimize(instance, "bundled", spec).outcome.per_job_costs[0]
        # at alpha 0.99 the bill is nearly flat in the cost (r**-0.0101), so
        # a relative gap of 1e-11 leaves the cost within 1e-9 of the wall
        result = barrier_optimize(instance, "resource", spec, 1e-11)
        monkeypatch.setattr(optimizer, "_newton_minimize", reference_newton_minimize)
        reference = barrier_optimize(instance, "resource", spec, 1e-11)
        assert result.converged, result.message
        assert result.outcome.per_job_costs[0] == pytest.approx(bundled, rel=1e-9, abs=0.0)
        assert result.iterations == reference.iterations
        assert np.array_equal(result.plan.prices, reference.plan.prices)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["resource", "differentiated"]),
        beta=st.sampled_from([0.5, 2.0, 20.0]),
        nu=st.sampled_from([0.0, 1.0]),
        newton=st.booleans(),
    )
    def test_price_steps_past_the_bound_leave_the_domain(self, seed, kind, beta, nu, newton):
        rng = np.random.default_rng(seed)
        instance = random_instance(rng, m=int(rng.integers(1, 4)), n=int(rng.integers(1, 9)))
        problem, spec = _PriceProblem(instance, kind), ObjectiveSpec(nu, beta)
        # loads from half capacity to within 1e-12 of it
        target = 1.0 - 0.5 * 10.0 ** -rng.uniform(0.0, 12.0)
        prices = sample_feasible_prices(instance, kind, rng, 1, load_target=target)[0]
        point, t = problem.point(prices), 10.0 ** rng.uniform(-3.0, 6.0)
        assume(_barrier_value(problem, spec, t, point) < math.inf)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            grad, system = _barrier_derivatives(problem, spec, t, point)
            if newton:
                assume(np.isfinite(grad).all() and system.finite())
                direction = _newton_direction(system, grad)
            else:
                direction = rng.normal(size=problem.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            reach = system.reach(direction)
        for step in refused_steps(reach):
            value = _barrier_value(problem, spec, t, point + step * direction)
            assert value == math.inf, (step, reach)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        powers=st.sampled_from(["one", "market", "drawn"]),
        newton=st.booleans(),
    )
    def test_repair_steps_past_the_bound_leave_the_domain(self, seed, powers, newton):
        rng = np.random.default_rng(seed)
        system = random_reference_horizon(rng)._schedule_system
        size = system.counts.size
        demands = rng.uniform(0.0, 5.0, size=size) * rng.integers(0, 2, size=size)
        assume(demands.any())
        p = {
            "one": np.ones_like(demands),
            "market": system.powers,
            "drawn": rng.uniform(1.0, 3.0, size=demands.size),
        }[powers]
        oracle = {}

        def capture(value_of, derivatives_of, point, *rest):
            oracle.update(value=value_of, derivatives=derivatives_of)
            return point, 0, math.inf, "not solved"

        with mock.patch.object(deadline, "_barrier_path", capture):
            system.max_scale(demands, p)
        live = demands > 0.0
        columns = np.flatnonzero(live[system.cohort_of])
        # a strictly feasible point: random amounts scaled to fill the
        # fullest capacity row to within 1e-13 to 1/2 of its capacity, and v
        # from far inside to within 1e-12 of the delivery they allow
        x = rng.uniform(0.01, 1.0, size=columns.size)
        usage = system.A_le[:, columns] @ x
        used = usage > 0.0
        x *= np.min(system.b_le[used] / usage[used]) * (1.0 - 10.0 ** -rng.uniform(0.3, 13.0))
        cohort = (np.cumsum(live) - 1)[system.cohort_of[columns]]
        delivered = np.bincount(cohort, weights=x)
        v = np.min((delivered / demands[live]) ** (1.0 / p[live]))
        z = np.append(x, v * (1.0 - 10.0 ** -rng.uniform(0.0, 12.0)))
        t = 10.0 ** rng.uniform(-2.0, 8.0)
        assume(oracle["value"](z, t) < math.inf)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            grad, newton_system = oracle["derivatives"](z, t)
            if newton:
                direction = _newton_direction(newton_system, grad)
            else:
                direction = rng.normal(size=z.size) * 10.0 ** rng.uniform(-3.0, 3.0)
            reach = newton_system.reach(direction)
            for step in refused_steps(reach):
                assert oracle["value"](z + step * direction, t) == math.inf, (step, reach)

    def test_same_iterates_as_evaluating_every_trial(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return _barrier_value(*args)

        monkeypatch.setattr(optimizer, "_barrier_value", counted)
        cases = [
            (random_instance(np.random.default_rng(seed)), kind, ObjectiveSpec(1.0, beta))
            for seed in range(8)
            for kind in ("resource", "differentiated")
            for beta in (0.5, 2.0, 20.0)
        ]
        bounded = [barrier_optimize(*case) for case in cases]
        bounded_calls = calls[0]
        monkeypatch.setattr(optimizer, "_newton_minimize", reference_newton_minimize)
        calls[0] = 0
        for case, result in zip(cases, bounded):
            reference = barrier_optimize(*case)
            assert np.array_equal(result.plan.prices, reference.plan.prices), case
            assert result.iterations == reference.iterations
            assert (result.converged, result.message) == (reference.converged, reference.message)
            assert (result.objective_value, result.gap) == (reference.objective_value, reference.gap)
        assert bounded_calls < 0.9 * calls[0]

    @pytest.mark.filterwarnings("ignore:interval .*concavity:UserWarning")
    def test_same_horizons_as_evaluating_every_trial(self, monkeypatch):
        rng = np.random.default_rng(18)
        specs = [random_reference_horizon(rng) for _ in range(6)]
        bounded = [solve_horizon(spec, 2.0) for spec in specs]
        monkeypatch.setattr(optimizer, "_newton_minimize", reference_newton_minimize)
        for spec, result in zip(specs, bounded):
            reference = solve_horizon(spec, 2.0)
            assert result.price_scale == reference.price_scale
            assert result.converged == reference.converged
            assert (result.total_revenue, result.total_fairness) == (
                reference.total_revenue,
                reference.total_fairness,
            )
            for a, b in zip(result.plans, reference.plans):
                assert np.array_equal(a.prices, b.prices)
            assert result.schedule.amounts == reference.schedule.amounts
            assert [r.iterations for r in result.interval_results] == [
                r.iterations for r in reference.interval_results
            ]
