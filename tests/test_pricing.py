import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudpricing import (
    BundledPlan,
    DifferentiatedPlan,
    Instance,
    ResourceModel,
    ResourcePlan,
    UserType,
    UtilityParams,
    bundle_requirement,
    dominant_info,
    evaluate,
    instance_from_json,
    instance_to_json,
    lift_resource_to_differentiated,
    load_instance,
    optimal_demand,
    per_job_cost,
    save_instance,
)
from cloudpricing.demand import NetUtilityKernel
from cloudpricing.optimizer import _PriceProblem
from cloudpricing.pricing import FEASIBILITY_ATOL, PLAN_KINDS, plan_structure
from cloudpricing.synth import google_cluster_instance, random_instance, sample_feasible_prices


class TestBundleRequirement:
    def test_memory_heavy_job(self, reference_instance):
        user = reference_instance.user_types[0]
        assert bundle_requirement(user, (1.0, 1.0)) == pytest.approx(2.7)

    def test_identity(self):
        user = UserType("u", 1, (0.5, 2.0), UtilityParams(0.5, 1.0))
        assert bundle_requirement(user, (0.5, 2.0)) == pytest.approx(1.0)

    def test_tiny_job(self, reference_instance):
        user = reference_instance.user_types[1]
        assert bundle_requirement(user, (1.0, 1.0)) == pytest.approx(0.02)

    def test_rejects_nonpositive_bundle(self, reference_instance):
        with pytest.raises(ValueError, match="strictly positive"):
            bundle_requirement(reference_instance.user_types[0], (1.0, 0.0))


class TestPerJobCost:
    def test_bundled(self, reference_instance):
        plan = BundledPlan(bundle=np.array([1.0, 1.0]), price=2.0)
        assert per_job_cost(reference_instance, plan, 0) == pytest.approx(2.7 * 2.0)

    def test_resource_dot_product(self, reference_instance):
        plan = ResourcePlan(prices=np.array([1.0, 2.0]))
        # type 3 requires (0.6, 0.5) per job
        assert per_job_cost(reference_instance, plan, 2) == pytest.approx(1.6)

    def test_differentiated_identity(self, reference_instance):
        plan = DifferentiatedPlan(prices=np.array([3.0, 1.0, 2.0]))
        assert per_job_cost(reference_instance, plan, 0) == pytest.approx(3.0)

    def test_rejects_zero_cost_type(self):
        instance = Instance(
            resources=ResourceModel(names=("a", "b"), capacities=(1.0, 1.0)),
            user_types=(
                UserType("x", 1, (1.0, 0.0), UtilityParams(0.5, 1.0)),
                UserType("y", 1, (0.0, 1.0), UtilityParams(0.5, 1.0)),
            ),
            discount=1.0,
        )
        plan = ResourcePlan(prices=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="zero per-job cost"):
            plan.per_job_costs(instance)


class TestPlanStructure:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        n=st.integers(1, 8),
        kind=st.sampled_from(PLAN_KINDS),
        own_bundle=st.booleans(),
    )
    def test_evaluate_and_the_optimizer_share_one_price_space(self, seed, m, n, kind, own_bundle):
        rng = np.random.default_rng(seed)
        instance = random_instance(rng, m=m, n=n)
        bundle = rng.uniform(0.2, 3.0, size=m) if kind == "bundled" and own_bundle else None
        problem = _PriceProblem(instance, kind, bundle)
        # loads from well under to well over capacity
        prices = problem.level_for_load(1.0) * rng.lognormal(0.0, 1.0, size=problem.dim)
        plan = problem.make_plan(prices)
        assert np.array_equal(plan.prices, prices)
        out = evaluate(instance, plan)
        assert np.array_equal(out.per_job_costs, problem.costs(prices))
        _, G, limits = plan_structure(instance, kind, bundle)
        assert out.feasible == bool(np.all(G @ out.demands <= limits + FEASIBILITY_ATOL))

    def test_rejects_unknown_kind(self, reference_instance):
        with pytest.raises(ValueError, match="plan kind must be one of"):
            plan_structure(reference_instance, "bogus")

    def test_rejects_bundle_of_wrong_size(self, reference_instance):
        with pytest.raises(ValueError, match="bundle has 3 entries"):
            plan_structure(reference_instance, "bundled", (1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "bundle, message",
        [
            ((1.0, np.nan), "finite and strictly positive"),
            ((1.0, np.inf), "finite and strictly positive"),
            ((0.0, 1.0), "finite and strictly positive"),
            ((1.0, 1.0, 1.0), "bundle has 3 entries"),
        ],
    )
    def test_bundle_rule_is_shared_by_plan_and_structure(self, reference_instance, bundle, message):
        with pytest.raises(ValueError, match=message) as direct:
            plan_structure(reference_instance, "bundled", bundle)
        with pytest.raises(ValueError) as planned:
            evaluate(reference_instance, BundledPlan(bundle=bundle, price=1.0))
        assert str(planned.value) == str(direct.value)


class TestEvaluate:
    def test_single_type_boundary(self, toy_instance):
        out = evaluate(toy_instance, DifferentiatedPlan(prices=np.array([0.5])))
        assert out.demands[0] == pytest.approx(4.0)
        assert out.revenue == pytest.approx(2.0)
        assert out.usage[0] == pytest.approx(4.0)
        assert out.feasible

    def test_reference_unit_demand_usage(self, reference_instance):
        # prices (1,1,1) force one job per user; usage follows from counts
        out = evaluate(reference_instance, DifferentiatedPlan(prices=np.ones(3)))
        assert np.allclose(out.demands, 1.0)
        assert out.usage == pytest.approx([1.08, 3.36])
        assert out.feasible

    def test_infeasible_is_recorded_not_raised(self, toy_instance):
        out = evaluate(toy_instance, DifferentiatedPlan(prices=np.array([0.1])))
        assert out.demands[0] == pytest.approx(100.0)
        assert not out.feasible
        assert out.leftover[0] < 0

    def test_revenue_identity(self, rng):
        # revenue always equals sum_j count_j * r_j * x_j**gamma
        for _ in range(20):
            instance = random_instance(rng)
            for prices in sample_feasible_prices(instance, "resource", rng, 2):
                out = evaluate(instance, ResourcePlan(prices=prices))
                expected = float(
                    np.sum(
                        instance.counts * out.per_job_costs * out.demands**instance.discount
                    )
                )
                assert out.revenue == pytest.approx(expected, rel=1e-9)

    def test_bundled_feasibility_uses_bundle_count(self, toy_instance):
        plan = BundledPlan(bundle=np.array([1.0]), price=0.49)
        out = evaluate(toy_instance, plan)
        assert not out.feasible  # demand 4.16 bundles > 4 available
        plan = BundledPlan(bundle=np.array([1.0]), price=0.51)
        assert evaluate(toy_instance, plan).feasible

    def test_revenue_matches_each_variant_symbolically(self, reference_instance):
        gamma = reference_instance.discount
        counts = reference_instance.counts
        R = reference_instance.requirement_matrix

        bundle = np.array([1.0, 1.0])
        bundled = BundledPlan(bundle=bundle, price=3.0)
        out = evaluate(reference_instance, bundled)
        mu = np.array(
            [bundle_requirement(u, bundle) for u in reference_instance.user_types]
        )
        expected = 3.0 * float(np.sum(counts * (mu * out.demands) ** gamma))
        assert out.revenue == pytest.approx(expected, rel=1e-9)

        prices = np.array([1.0, 2.0])
        out = evaluate(reference_instance, ResourcePlan(prices=prices))
        expected = float(
            sum(
                prices[i] * np.sum(counts * (R[i, :] ** gamma) * out.demands**gamma)
                for i in range(2)
            )
        )
        assert out.revenue == pytest.approx(expected, rel=1e-9)

        per_type = np.array([2.0, 0.3, 1.5])
        out = evaluate(reference_instance, DifferentiatedPlan(prices=per_type))
        expected = float(np.sum(counts * per_type * out.demands**gamma))
        assert out.revenue == pytest.approx(expected, rel=1e-9)


class TestDominantInfo:
    def test_memory_dominant(self, reference_instance):
        index, share = dominant_info(
            reference_instance.user_types[0], reference_instance.resources, demand=1.0
        )
        assert index == 1
        assert share == pytest.approx(2.7 / 6.0)

    def test_cpu_dominant(self, reference_instance):
        index, _ = dominant_info(
            reference_instance.user_types[2], reference_instance.resources, demand=1.0
        )
        assert index == 0  # 0.6/6 > 0.5/6

    def test_tie_breaks_low(self):
        user = UserType("u", 1, (1.0, 1.0), UtilityParams(0.5, 1.0))
        resources = ResourceModel(names=("a", "b"), capacities=(2.0, 2.0))
        index, share = dominant_info(user, resources, demand=1.0)
        assert index == 0
        assert share == pytest.approx(0.5)


class TestLift:
    def test_dot_product(self, reference_instance):
        plan = ResourcePlan(prices=np.array([1.0, 2.0]))
        lifted = lift_resource_to_differentiated(reference_instance, plan)
        assert lifted.prices[2] == pytest.approx(1.6)

    def test_single_resource_priced(self, reference_instance):
        plan = ResourcePlan(prices=np.array([0.0, 2.0]))
        lifted = lift_resource_to_differentiated(reference_instance, plan)
        R = reference_instance.requirement_matrix
        assert np.allclose(lifted.prices, 2.0 * R[1, :])

    def test_outcomes_identical(self, rng):
        for _ in range(10):
            instance = random_instance(rng)
            for prices in sample_feasible_prices(instance, "resource", rng, 2):
                plan = ResourcePlan(prices=prices)
                a = evaluate(instance, plan)
                b = evaluate(instance, lift_resource_to_differentiated(instance, plan))
                assert np.allclose(a.demands, b.demands, rtol=1e-12, atol=0)
                assert a.revenue == pytest.approx(b.revenue, rel=1e-12)
                assert np.allclose(a.usage, b.usage, rtol=1e-12, atol=0)


class TestPriceMonotonicity:
    def test_revenue_decreasing(self, rng):
        for _ in range(5):
            instance = random_instance(rng)
            for prices in sample_feasible_prices(instance, "resource", rng, 5):
                for k in range(prices.size):
                    h = 1e-5 * prices[k]
                    hi, lo = prices.copy(), prices.copy()
                    hi[k] += h
                    lo[k] -= h
                    assert (
                        evaluate(instance, ResourcePlan(prices=hi)).revenue
                        < evaluate(instance, ResourcePlan(prices=lo)).revenue
                    )

    def test_log_utility_revenue_constant(self):
        instance = Instance(
            resources=ResourceModel(names=("r",), capacities=(100.0,)),
            user_types=(UserType("log", 1, (1.0,), UtilityParams(1.0, 2.0)),),
            discount=1.0,
        )
        revenues = {
            evaluate(instance, DifferentiatedPlan(prices=np.array([p]))).revenue
            for p in (0.5, 1.0, 4.0)
        }
        assert max(revenues) - min(revenues) <= 1e-9

    def test_usage_convexity_mixture(self, rng):
        for _ in range(5):
            instance = random_instance(rng)
            p, q = sample_feasible_prices(instance, "resource", rng, 2)
            t = rng.uniform(0.0, 1.0)
            mixed = evaluate(instance, ResourcePlan(prices=t * p + (1 - t) * q)).usage
            bound = np.maximum(
                evaluate(instance, ResourcePlan(prices=p)).usage,
                evaluate(instance, ResourcePlan(prices=q)).usage,
            )
            assert np.all(mixed <= bound + 1e-9)


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ResourceModel(names=("r",), capacities=(0.0,))

    def test_requirements_need_one_positive(self):
        with pytest.raises(ValueError, match="at least one positive"):
            UserType("u", 1, (0.0, 0.0), UtilityParams(0.5, 1.0))

    def test_discount_must_fit_alpha(self):
        with pytest.raises(ValueError, match="discount"):
            Instance(
                resources=ResourceModel(names=("r",), capacities=(1.0,)),
                user_types=(UserType("u", 1, (1.0,), UtilityParams(0.5, 1.0)),),
                discount=0.4,
            )

    def test_discount_rule_matches_demand(self):
        utility = UtilityParams(0.5, 1.0)
        with pytest.raises(ValueError) as direct:
            optimal_demand(utility, 1.0, 0.4)
        with pytest.raises(ValueError) as built:
            Instance(
                resources=ResourceModel(names=("r",), capacities=(1.0,)),
                user_types=(UserType("u", 1, (1.0,), utility),),
                discount=0.4,
            )
        assert str(built.value) == f"user_types[0]: {direct.value}"

    @pytest.mark.parametrize("capacity", [np.inf, np.nan])
    def test_capacity_must_be_finite(self, capacity):
        with pytest.raises(ValueError, match="capacities must be finite"):
            ResourceModel(names=("r",), capacities=(capacity,))

    @pytest.mark.parametrize("requirement", [np.inf, np.nan])
    def test_requirements_must_be_finite(self, requirement):
        with pytest.raises(ValueError, match="requirements must be finite"):
            UserType("u", 1, (1.0, requirement), UtilityParams(0.5, 1.0))

    @pytest.mark.parametrize(
        "count", [pytest.param(10**400, id="10**400"), float("inf"), float("nan"), 0, 2.5]
    )
    def test_count_must_be_a_positive_integer_float(self, count):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            UserType("u", count, (1.0,), UtilityParams(0.5, 1.0))

    def test_large_exact_count_accepted(self):
        assert UserType("u", 10**17 + 1, (1.0,), UtilityParams(0.5, 1.0)).count == 10**17 + 1

    @pytest.mark.parametrize("c, alpha", [(1e300, 0.5), (1e-300, 0.5), (1e300, 1.0)])
    def test_demand_coefficient_must_be_finite_and_positive(self, c, alpha):
        with pytest.raises(ValueError, match=r"user_types\[0\]: demand coefficient"):
            Instance(
                resources=ResourceModel(names=("r",), capacities=(1.0,)),
                user_types=(UserType("u", 1, (1.0,), UtilityParams(alpha, c)),),
                discount=0.9,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="user_types\\[0\\]"):
            Instance(
                resources=ResourceModel(names=("a", "b"), capacities=(1.0, 1.0)),
                user_types=(UserType("u", 1, (1.0,), UtilityParams(0.5, 1.0)),),
                discount=1.0,
            )


class TestJsonInterface:
    def test_round_trip(self, tmp_path, reference_instance):
        path = tmp_path / "instance.json"
        save_instance(reference_instance, path)
        loaded = load_instance(path)
        assert loaded.resources.names == reference_instance.resources.names
        assert np.allclose(loaded.resources.capacities, reference_instance.resources.capacities)
        assert loaded.discount == reference_instance.discount
        assert np.allclose(
            loaded.requirement_matrix, reference_instance.requirement_matrix
        )
        assert instance_to_json(loaded) == instance_to_json(reference_instance)

    def test_error_paths_name_field(self, reference_instance):
        obj = instance_to_json(reference_instance)
        obj["user_types"][1]["alpha"] = -1.0
        with pytest.raises(ValueError, match=r"user_types\[1\]"):
            instance_from_json(obj)

        obj = instance_to_json(reference_instance)
        del obj["resources"][0]["capacity"]
        with pytest.raises(ValueError, match=r"resources\[0\]\.capacity"):
            instance_from_json(obj)

        obj = instance_to_json(reference_instance)
        obj["user_types"][0]["count"] = 1.5
        with pytest.raises(ValueError, match=r"user_types\[0\]\.count"):
            instance_from_json(obj)

        obj = instance_to_json(reference_instance)
        obj["user_types"][2]["requirements"] = [0.6]
        with pytest.raises(ValueError, match=r"user_types\[2\]\.requirements"):
            instance_from_json(obj)

    def test_gamma_alpha_conflict_detected(self, reference_instance):
        obj = instance_to_json(reference_instance)
        obj["gamma"] = 0.2
        with pytest.raises(ValueError, match="discount"):
            instance_from_json(obj)

    def test_reference_file_parses(self, tmp_path):
        obj = instance_to_json(google_cluster_instance())
        text = json.dumps(obj)
        assert instance_from_json(json.loads(text)).n == 3


_DELETE = object()


def _spoiled_json(*edits) -> object:
    """The reference market's JSON with each ``(path, value)`` edit applied;
    ``_DELETE`` removes the field, and an empty path replaces the whole."""
    obj = instance_to_json(google_cluster_instance())
    for path, value in edits:
        if not path:
            obj = value
            continue
        *parents, key = path
        node = obj
        for part in parents:
            node = node[part]
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value
    return obj


_BOUND = "must be finite and nonnegative with at least one positive entry, got"
_LAW = "below that the user's optimum is unbounded or undefined"


# one malformed input per error path of instance_from_json, with its exact message
@pytest.mark.parametrize(
    "edits, message",
    [
        pytest.param([((), [1])], "instance: expected a JSON object", id="not-an-object"),
        pytest.param([(("resources",), _DELETE)], "instance.resources: missing field",
                     id="no-resources"),
        pytest.param([(("resources",), [])], "instance.resources: expected a non-empty list",
                     id="empty-resources"),
        pytest.param([(("resources", 0), "cpu")], "resources[0]: expected an object",
                     id="resource-not-an-object"),
        pytest.param([(("resources", 1, "name"), _DELETE)], "resources[1].name: missing field",
                     id="missing-name"),
        pytest.param([(("resources", 1, "name"), 7)], "resources[1].name: expected a string, got 7",
                     id="number-name"),
        pytest.param([(("resources", 0, "capacity"), _DELETE)],
                     "resources[0].capacity: missing field", id="missing-capacity"),
        pytest.param([(("resources", 0, "capacity"), "4")],
                     "resources[0].capacity: expected a number, got '4'", id="string-capacity"),
        pytest.param([(("resources", 1, "capacity"), 0)],
                     "resources[1].capacity: must be finite and strictly positive, got 0.0",
                     id="zero-capacity"),
        pytest.param([(("resources", 0, "capacity"), math.inf)],
                     "resources[0].capacity: must be finite and strictly positive, got inf",
                     id="infinite-capacity"),
        pytest.param([(("user_types",), _DELETE)], "instance.user_types: missing field",
                     id="no-user-types"),
        pytest.param([(("user_types",), {"a": 1})],
                     "instance.user_types: expected a non-empty list", id="user-types-not-a-list"),
        pytest.param([(("gamma",), _DELETE)], "instance.gamma: missing field", id="no-gamma"),
        pytest.param([(("gamma",), "1")], "instance.gamma: expected a number, got '1'",
                     id="string-gamma"),
        pytest.param([(("user_types", 1), [1, 2])], "user_types[1]: expected an object",
                     id="type-not-an-object"),
        pytest.param([(("user_types", 0, "label"), _DELETE)], "user_types[0].label: missing field",
                     id="missing-label"),
        pytest.param([(("user_types", 0, "label"), None)],
                     "user_types[0].label: expected a string, got None", id="null-label"),
        pytest.param([(("user_types", 2, "count"), _DELETE)], "user_types[2].count: missing field",
                     id="missing-count"),
        pytest.param([(("user_types", 1, "alpha"), _DELETE)], "user_types[1].alpha: missing field",
                     id="missing-alpha"),
        pytest.param([(("user_types", 1, "c"), _DELETE)], "user_types[1].c: missing field",
                     id="missing-c"),
        pytest.param([(("user_types", 0, "requirements"), _DELETE)],
                     "user_types[0].requirements: missing field", id="missing-requirements"),
        pytest.param([(("user_types", 0, "count"), True)],
                     "user_types[0].count: expected a positive integer, got True", id="bool-count"),
        pytest.param([(("user_types", 1, "count"), 2.0)],
                     "user_types[1].count: expected a positive integer, got 2.0", id="float-count"),
        pytest.param([(("user_types", 2, "count"), 0)],
                     "user_types[2].count: expected a positive integer, got 0", id="zero-count"),
        pytest.param([(("user_types", 0, "alpha"), "0.5")],
                     "user_types[0].alpha: expected a number, got '0.5'", id="string-alpha"),
        pytest.param([(("user_types", 2, "c"), None)],
                     "user_types[2].c: expected a number, got None", id="null-c"),
        pytest.param([(("user_types", 1, "requirements", 1), False)],
                     "user_types[1].requirements[1]: expected a number, got False",
                     id="bool-requirement"),
        pytest.param([(("user_types", 0, "requirements", 0), "1")],
                     "user_types[0].requirements[0]: expected a number, got '1'",
                     id="string-requirement"),
        pytest.param([(("user_types", 0, "requirements"), 1.0)],
                     "user_types[0].requirements: expected a list", id="requirements-not-a-list"),
        pytest.param([(("user_types", 2, "requirements"), [0.5])],
                     "instance: user_types[2].requirements: expected 2 entries, got 1",
                     id="short-requirements"),
        pytest.param([(("user_types", 0, "requirements"), [0.5, 1.0, 2.0])],
                     "instance: user_types[0].requirements: expected 2 entries, got 3",
                     id="long-requirements"),
        pytest.param([(("user_types", 0, "requirements", 1), math.nan)],
                     f"user_types[0]: requirements {_BOUND} [0.4 nan]", id="nan-requirement"),
        pytest.param([(("user_types", 1, "requirements", 0), math.inf)],
                     f"user_types[1]: requirements {_BOUND} [ inf 0.02]",
                     id="infinite-requirement"),
        pytest.param([(("user_types", 1, "requirements", 0), -0.5)],
                     f"user_types[1]: requirements {_BOUND} [-0.5   0.02]",
                     id="negative-requirement"),
        pytest.param([(("user_types", 2, "requirements"), [0, 0.0])],
                     f"user_types[2]: requirements {_BOUND} [0. 0.]", id="zero-requirements"),
        pytest.param([(("user_types", 0, "alpha"), 0)],
                     "user_types[0]: alpha must lie in (0, 1], got 0.0", id="zero-alpha"),
        pytest.param([(("user_types", 2, "alpha"), 1.5)],
                     "user_types[2]: alpha must lie in (0, 1], got 1.5", id="large-alpha"),
        pytest.param([(("user_types", 1, "c"), 0.0)],
                     "user_types[1]: c must be finite and positive, got 0.0", id="zero-c"),
        pytest.param([(("user_types", 1, "c"), -2)],
                     "user_types[1]: c must be finite and positive, got -2.0", id="negative-c"),
        pytest.param([(("gamma",), 0)], "instance: discount must lie in (0, 1], got 0.0",
                     id="zero-gamma"),
        pytest.param([(("gamma",), 1.25)], "instance: discount must lie in (0, 1], got 1.25",
                     id="large-gamma"),
        pytest.param([(("gamma",), 0.2)],
                     f"instance: user_types[0]: discount 0.2 must exceed 1 - alpha = 0.6; {_LAW}",
                     id="discount-below-one-minus-alpha"),
        pytest.param([(("gamma",), 0.65), (("user_types", 1, "alpha"), 0.2),
                      (("user_types", 2, "alpha"), 0.3), (("user_types", 2, "requirements"), [1])],
                     f"instance: user_types[1]: discount 0.65 must exceed 1 - alpha = 0.8; {_LAW}",
                     id="first-failing-type-named"),
        pytest.param([(("gamma",), 0.65), (("user_types", 1, "requirements"), [1.0]),
                      (("user_types", 2, "alpha"), 0.3)],
                     "instance: user_types[1].requirements: expected 2 entries, got 1",
                     id="earlier-size-before-later-discount"),
        pytest.param([(("user_types", 2, "c"), 1e300)],
                     "instance: user_types[2]: demand coefficient inf (from c = 1e+300) must be "
                     "a positive float", id="overflowing-coefficient"),
        pytest.param([(("user_types", 1, "c"), 1e-300), (("user_types", 1, "alpha"), 0.5)],
                     "instance: user_types[1]: demand coefficient 0.0 (from c = 1e-300) must be "
                     "a positive float", id="vanishing-coefficient"),
        pytest.param([(("user_types", 0, "c"), 1e300), (("user_types", 0, "alpha"), 1),
                      (("gamma",), 0.5)],
                     "instance: user_types[0]: demand coefficient inf (from c = 1e+300) must be "
                     "a positive float", id="overflowing-log-utility-coefficient"),
    ],
)
def test_parse_error_messages(edits, message):
    with pytest.raises(ValueError) as err:
        instance_from_json(_spoiled_json(*edits))
    assert str(err.value) == message


def _rebuilt_columns(instance: Instance) -> dict:
    """Every per-type array of an instance, rebuilt from its user types."""
    users = instance.user_types
    kernel = NetUtilityKernel([u.utility for u in users], instance.discount)
    return {
        "counts": np.array([u.count for u in users], dtype=float),
        "requirement_matrix": np.column_stack([u.requirements for u in users]),
        "alphas": np.array([u.utility.alpha for u in users]),
        **{f"kernel.{name}": value for name, value in vars(kernel).items()
           if isinstance(value, np.ndarray)},
    }


def _cached_columns(instance: Instance) -> dict:
    kernel = instance.utility_kernel()
    return {
        "counts": instance.counts,
        "requirement_matrix": instance.requirement_matrix,
        "alphas": instance.alphas,
        **{f"kernel.{name}": value for name, value in vars(kernel).items()
           if isinstance(value, np.ndarray)},
    }


class TestCachedColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        n=st.integers(1, 12),
        log_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_round_trip_columns_match_a_rebuild_bit_for_bit(self, seed, m, n, log_share):
        rng = np.random.default_rng(seed)
        market = random_instance(rng, m=m, n=n)
        # log-utility types and zero requirement entries exercise the kernel's masks
        users = []
        for u in market.user_types:
            zeroed = np.where(rng.random(m) < 0.3, 0.0, u.requirements)
            log_type = rng.random() < log_share
            users.append(dataclasses.replace(
                u,
                requirements=zeroed if np.any(zeroed > 0.0) else u.requirements,
                utility=UtilityParams(1.0, u.utility.c) if log_type else u.utility,
            ))
        market = dataclasses.replace(market, user_types=users)
        loaded = instance_from_json(json.loads(json.dumps(instance_to_json(market))))
        cached, rebuilt = _cached_columns(loaded), _rebuilt_columns(loaded)
        assert cached.keys() == rebuilt.keys()
        for name, array in cached.items():
            expected = rebuilt[name]
            assert (array.dtype, array.shape) == (expected.dtype, expected.shape), name
            assert array.tobytes() == expected.tobytes(), name
        assert instance_to_json(loaded) == instance_to_json(market)

    def test_repeated_access_returns_the_same_arrays(self, reference_instance):
        first, second = _cached_columns(reference_instance), _cached_columns(reference_instance)
        assert reference_instance.utility_kernel() is reference_instance.utility_kernel()
        for name, array in first.items():
            assert second[name] is array, name

    def test_arrays_are_read_only(self, reference_instance):
        columns = _cached_columns(reference_instance)
        assert {"kernel.k", "kernel.e", "kernel.A", "kernel.log_types"} <= columns.keys()
        for name, array in columns.items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_replaced_instances_get_fresh_arrays(self, reference_instance):
        old = _cached_columns(reference_instance)
        scaled = dataclasses.replace(reference_instance, discount=0.9)
        new = _cached_columns(scaled)
        for name, array in new.items():
            assert array is not old[name], name
        assert scaled.utility_kernel() is not reference_instance.utility_kernel()
        assert not np.array_equal(new["kernel.e"], old["kernel.e"])
        for name, array in _rebuilt_columns(scaled).items():
            assert np.array_equal(new[name], array), name
