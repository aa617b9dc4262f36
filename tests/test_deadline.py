import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloudpricing.deadline as deadline
import cloudpricing.optimizer as optimizer
from cloudpricing import (
    Instance,
    ObjectiveSpec,
    ResourceModel,
    UserType,
    UtilityParams,
    barrier_optimize,
)
from cloudpricing.deadline import (
    IntervalDemandSpec,
    IntervalMarket,
    horizon_spec_from_json,
    schedule_feasible,
    solve_horizon,
)
from cloudpricing.fairness import beta_fairness
from cloudpricing.pricing import ResourcePlan, evaluate, instance_to_json
from cloudpricing.synth import google_cluster_instance


def single_type_market(capacity: float, c: float = 1.0) -> Instance:
    return Instance(
        resources=ResourceModel(names=("r",), capacities=(capacity,)),
        user_types=(UserType("a", 1, (1.0,), UtilityParams(alpha=0.5, c=c)),),
        discount=1.0,
    )


class TestBuildProgram:
    """Horizon construction and the checks `solve_horizon` makes before it solves."""

    def test_horizon_one_is_single_interval(self):
        spec = IntervalDemandSpec(
            horizon=1,
            intervals=(IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=0.0),),
        )
        assert spec.schedule_vars == ((0, 1, 1),)
        result = solve_horizon(spec, 2.0)
        single = barrier_optimize(
            single_type_market(4.0), "resource", ObjectiveSpec(0.0, 2.0)
        )
        fairness = beta_fairness(single.outcome.net_utilities, 2.0)
        assert result.total_fairness == pytest.approx(fairness, rel=1e-6)
        assert result.total_revenue == pytest.approx(single.outcome.revenue, rel=1e-6)

    def test_variable_enumeration(self):
        spec = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(single_type_market(4.0), deadlines=(2,), nu=0.0),
                IntervalMarket(single_type_market(4.0), deadlines=(2,), nu=0.0),
            ),
        )
        assert spec.schedule_vars == ((0, 1, 1), (0, 1, 2), (0, 2, 2))

    def test_deadline_out_of_range(self):
        with pytest.raises(ValueError, match="deadline 3 outside"):
            IntervalDemandSpec(
                horizon=2,
                intervals=(
                    IntervalMarket(single_type_market(4.0), deadlines=(3,), nu=0.0),
                    IntervalMarket(single_type_market(4.0), deadlines=(2,), nu=0.0),
                ),
            )
        with pytest.raises(ValueError, match="deadline 1 outside"):
            IntervalDemandSpec(
                horizon=2,
                intervals=(
                    IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=0.0),
                    IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=0.0),
                ),
            )

    @pytest.mark.parametrize("nu", [-1.0, float("nan"), float("inf")])
    def test_rejects_nu_outside_finite_nonnegative(self, nu):
        with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
            IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=nu)

    @pytest.mark.parametrize("nu", [-1.0, -1e-300, float("nan"), float("inf"), 0.0, 2.5])
    def test_nu_rule_matches_objective_spec(self, nu):
        # a horizon's revenue weight feeds an ObjectiveSpec, so both take the
        # same values and reject the rest with the same message
        try:
            ObjectiveSpec(nu=nu, beta=2.0)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=nu)
            assert str(caught.value) == str(err)
        else:
            assert IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=nu).nu == nu

    @pytest.mark.parametrize("beta", [0.0, 1.0, float("inf"), float("nan")])
    def test_rejects_beta_outside_the_family(self, beta, monkeypatch):
        spec = IntervalDemandSpec(
            horizon=1,
            intervals=(IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=0.0),),
        )
        calls = []
        monkeypatch.setattr(deadline, "barrier_optimize", lambda *args, **kwargs: calls.append(1))
        with pytest.raises(ValueError, match="beta must be"):
            solve_horizon(spec, beta)
        assert calls == []  # rejected before any price solve

    def test_warns_above_concavity_certificate(self):
        spec = IntervalDemandSpec(
            horizon=1,
            intervals=(IntervalMarket(single_type_market(4.0), deadlines=(1,), nu=5.0),),
        )
        with pytest.warns(UserWarning, match="concavity"):
            solve_horizon(spec, 2.0)

    def test_one_concavity_warning_per_horizon(self):
        nus = (5.0, 0.0, 5.0, 5.0)
        spec = IntervalDemandSpec(
            horizon=len(nus),
            intervals=tuple(
                IntervalMarket(single_type_market(4.0), deadlines=(s,), nu=nu)
                for s, nu in enumerate(nus, start=1)
            ),
        )
        with pytest.warns(UserWarning) as caught:
            solve_horizon(spec, 2.0)
        assert len(caught) == 1
        text = str(caught[0].message)
        assert all(f"interval {s}:" in text for s in (1, 3, 4))
        assert "interval 2:" not in text


def nested_loop_enumeration(spec: IntervalDemandSpec):
    """The schedule system's index arrays, enumerated one triple at a time:
    cohorts by submission interval, then type; each cohort's columns by
    processing interval; each column's capacity rows by resource."""
    m = spec.intervals[0].instance.m
    cohorts, variables, cohort_of, capacity_rows = [], [], [], []
    for s, interval in enumerate(spec.intervals, start=1):
        for j, tau in enumerate(interval.deadlines):
            cohorts.append((j, s, tau))
            for t in range(s, tau + 1):
                variables.append((j, s, t))
                cohort_of.append(len(cohorts) - 1)
                capacity_rows.append([(t - 1) * m + i for i in range(m)])
    return tuple(cohorts), tuple(variables), cohort_of, capacity_rows


@st.composite
def enumeration_horizons(draw):
    """One to six intervals of one or two resources, one to four types each,
    every type's deadline anywhere in [s, T]."""
    T, m = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    intervals = []
    for s in range(1, T + 1):
        n = draw(st.integers(1, 4))
        market = Instance(
            resources=ResourceModel(names=tuple(f"r{i}" for i in range(m)), capacities=[1.0] * m),
            user_types=tuple(
                UserType(f"t{j}", draw(st.integers(1, 9)), (1.0,) * m, UtilityParams(0.5, 1.0))
                for j in range(n)
            ),
            discount=1.0,
        )
        deadlines = tuple(draw(st.integers(s, T)) for _ in range(n))
        intervals.append(IntervalMarket(market, deadlines=deadlines))
    return IntervalDemandSpec(horizon=T, intervals=tuple(intervals))


@settings(max_examples=100, deadline=None)
@given(enumeration_horizons())
def test_schedule_system_matches_nested_loop_enumeration(spec):
    cohorts, variables, cohort_of, capacity_rows = nested_loop_enumeration(spec)
    system = spec._schedule_system
    assert spec.schedule_vars == variables
    assert system.cohorts == cohorts
    assert system.cohort_of.tolist() == cohort_of
    assert system.capacity_rows.tolist() == capacity_rows
    assert system.counts.tolist() == [
        spec.intervals[s - 1].instance.user_types[j].count for j, s, _ in cohorts
    ]


class TestScheduleFeasible:
    def two_interval_spec(self, capacity: float, deadlines=(2, 2)):
        return IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(single_type_market(capacity), deadlines=(deadlines[0],), nu=0.0),
                IntervalMarket(single_type_market(capacity), deadlines=(deadlines[1],), nu=0.0),
            ),
        )

    def test_zero_demand(self):
        ok, schedule = schedule_feasible([[0.0], [0.0]], self.two_interval_spec(1.0))
        assert ok
        assert schedule.amounts == {}

    def test_split_across_deadline_window(self):
        ok, schedule = schedule_feasible([[2.0], [0.0]], self.two_interval_spec(1.0))
        assert ok
        assert schedule.amounts[(0, 1, 1)] == pytest.approx(1.0)
        assert schedule.amounts[(0, 1, 2)] == pytest.approx(1.0)

    def test_immediate_deadline_overload(self):
        ok, certificate = schedule_feasible(
            [[2.0], [0.0]], self.two_interval_spec(1.0, deadlines=(1, 2))
        )
        assert not ok
        text = str(certificate)
        assert "interval 1" in text and "capacity saturated" in text
        assert "misses deadline" in text

    def test_witness_residuals(self):
        spec = self.two_interval_spec(1.5)
        demands = [[2.2], [0.6]]
        ok, schedule = schedule_feasible(demands, spec)
        assert ok
        # deadline coverage to 1e-9
        assert schedule.delivered(0, 1) >= 2.2 - 1e-9
        assert schedule.delivered(0, 2) >= 0.6 - 1e-9
        for t in (1, 2):
            usage = schedule.interval_usage(spec, t)
            assert np.all(usage <= 1.5 + 1e-9)

    def test_simple_feasible(self):
        ok, schedule = schedule_feasible([[1.0], [0.0]], self.two_interval_spec(2.0))
        assert ok
        assert schedule.delivered(0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_simple_infeasible(self):
        # three jobs, one slot, no deferral
        ok, certificate = schedule_feasible(
            [[3.0], [0.0]], self.two_interval_spec(1.0, deadlines=(1, 2))
        )
        assert not ok
        assert "misses deadline 1 by 2 jobs" in str(certificate)

    def test_witness_satisfies_all_constraints(self):
        market = Instance(
            resources=ResourceModel(names=("cpu", "mem"), capacities=(3.0, 1.0)),
            user_types=(
                UserType("a", 1, (1.0, 0.0), UtilityParams(alpha=0.5, c=1.0)),
                UserType("b", 1, (1.0, 1.0), UtilityParams(alpha=0.5, c=1.0)),
            ),
            discount=1.0,
        )
        spec = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(market, deadlines=(2, 2)),
                IntervalMarket(market, deadlines=(2, 2)),
            ),
        )
        demands = [[2.0, 1.5], [1.0, 0.5]]
        ok, schedule = schedule_feasible(demands, spec)
        assert ok
        assert_valid_witness(spec, demands, schedule)

    def test_witness_never_negative(self):
        ok, schedule = schedule_feasible([[2.5], [0.5]], self.two_interval_spec(1.5))
        assert ok
        assert all(amount > 0.0 for amount in schedule.amounts.values())

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError, match="nonnegative"):
            schedule_feasible([[-1.0], [0.0]], self.two_interval_spec(1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_demand_not_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="interval 1: demands must be finite and nonnegative"):
            schedule_feasible([[bad], [0.0]], self.two_interval_spec(1.0))

    def test_tiny_demand_raises_no_floating_point_warning(self):
        # the repair's start point and trial steps overflow at this scale;
        # the overflow stays inside the repair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, _ = schedule_feasible([[1e-300], [0.0]], self.two_interval_spec(1.0))
        assert ok

    def test_zero_demand_trivially_feasible(self):
        # a zero-demand cohort beside a loaded one drops out of the witness
        market = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(
                UserType("a", 1, (1.0,), UtilityParams(alpha=0.5, c=1.0)),
                UserType("b", 1, (2.0,), UtilityParams(alpha=0.5, c=1.0)),
            ),
            discount=1.0,
        )
        spec = IntervalDemandSpec(horizon=1, intervals=(IntervalMarket(market, deadlines=(1, 1)),))
        ok, schedule = schedule_feasible([[0.5, 0.0]], spec)
        assert ok
        assert set(schedule.amounts) == {(0, 1, 1)}
        assert schedule.delivered(1, 1) == 0.0

    def test_matches_scipy_on_random_systems(self, rng):
        for _ in range(60):
            spec, demands = random_horizon(rng)
            ok, answer = schedule_feasible(demands, spec)
            assert ok == highs_schedulable(spec, demands)
            if ok:
                assert_valid_witness(spec, demands, answer)
            else:
                assert "misses deadline" in str(answer)


def random_horizon(rng: np.random.Generator):
    """Up to three intervals of one or two resources and up to three types,
    with uniform requirements, capacities, demands and deadlines."""
    T, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    intervals, demands = [], []
    for s in range(1, T + 1):
        n = int(rng.integers(1, 4))
        market = Instance(
            resources=ResourceModel(
                names=tuple(f"r{i}" for i in range(m)),
                capacities=tuple(rng.uniform(0.5, 4.0, size=m)),
            ),
            user_types=tuple(
                UserType(
                    f"t{j}", 1, tuple(rng.uniform(0.1, 2.0, size=m)), UtilityParams(alpha=0.5, c=1.0)
                )
                for j in range(n)
            ),
            discount=1.0,
        )
        deadlines = tuple(int(rng.integers(s, T + 1)) for _ in range(n))
        intervals.append(IntervalMarket(market, deadlines=deadlines))
        demands.append(list(rng.uniform(0.0, 1.0, size=n)))
    return IntervalDemandSpec(horizon=T, intervals=tuple(intervals)), demands


def assert_valid_witness(spec: IntervalDemandSpec, demands, schedule) -> None:
    """Each cohort delivered inside its window, short by at most 1e-9 of its
    demand; every capacity respected; every amount positive."""
    for (j, s, t), amount in schedule.amounts.items():
        assert amount > 0.0
        assert s <= t <= spec.intervals[s - 1].deadlines[j]
    for s, row in enumerate(demands, start=1):
        for j, demand in enumerate(row):
            assert schedule.delivered(j, s) >= demand * (1.0 - 1e-9) - 1e-12
    for t, interval in enumerate(spec.intervals, start=1):
        capacities = interval.instance.resources.capacities
        assert np.all(schedule.interval_usage(spec, t) <= capacities * (1.0 + 1e-12))


@st.composite
def small_horizons(draw):
    """Horizons of up to four intervals with half-integer requirements,
    capacities and demands, some demands zero.  Every vertex of such a
    schedule system is a rational with a small denominator, so an
    unschedulable load misses by far more than either solver's tolerance."""
    T, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    halves = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    intervals, demands = [], []
    for s in range(1, T + 1):
        n = draw(st.integers(1, 3))
        user_types = []
        for j in range(n):
            requirements = draw(st.lists(halves, min_size=m, max_size=m))
            if not any(requirements):
                requirements[draw(st.integers(0, m - 1))] = 1.0
            user_types.append(
                UserType(f"t{j}", 1, tuple(requirements), UtilityParams(alpha=0.5, c=1.0))
            )
        capacity = st.sampled_from([0.5, 1.0, 2.5, 4.0, 7.0])
        capacities = draw(st.lists(capacity, min_size=m, max_size=m))
        market = Instance(
            resources=ResourceModel(names=tuple(f"r{i}" for i in range(m)), capacities=capacities),
            user_types=tuple(user_types),
            discount=1.0,
        )
        deadlines = tuple(draw(st.integers(s, T)) for _ in range(n))
        intervals.append(IntervalMarket(market, deadlines=deadlines))
        demand = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.0])
        demands.append(draw(st.lists(demand, min_size=n, max_size=n)))
    return IntervalDemandSpec(horizon=T, intervals=tuple(intervals)), demands


@settings(max_examples=150, deadline=None)
@given(small_horizons())
def test_verdict_and_witness_match_highs(case):
    spec, demands = case
    ok, answer = schedule_feasible(demands, spec)
    assert ok == highs_schedulable(spec, demands)
    if ok:
        assert_valid_witness(spec, demands, answer)
    else:
        assert "misses deadline" in str(answer)


@pytest.mark.filterwarnings("ignore:interval .*concavity:UserWarning")
class TestSolveHorizon:
    def test_immediate_deadlines_decouple(self):
        market = single_type_market(4.0)
        spec = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(market, deadlines=(1,), nu=1.0),
                IntervalMarket(market, deadlines=(2,), nu=1.0),
            ),
        )
        result = solve_horizon(spec, 2.0)
        single = barrier_optimize(market, "resource", ObjectiveSpec(1.0, 2.0))
        fairness = beta_fairness(single.outcome.net_utilities, 2.0)
        assert result.price_scale == 1.0
        assert result.total_revenue == pytest.approx(2 * single.outcome.revenue, rel=1e-6)
        assert result.total_fairness == pytest.approx(2 * fairness, rel=1e-6)

    @pytest.mark.parametrize("tolerance", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tolerance):
        market = single_type_market(4.0)
        spec = IntervalDemandSpec(horizon=1, intervals=(IntervalMarket(market, deadlines=(1,)),))
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            solve_horizon(spec, 2.0, tolerance)

    def test_tight_interval_defers_mass(self):
        # both intervals have unit capacity; interval-1 jobs may finish in
        # interval 2, so its relaxed price solve demands more than one unit
        spec = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(single_type_market(1.0), deadlines=(2,), nu=0.0),
                IntervalMarket(single_type_market(1.0), deadlines=(2,), nu=0.0),
            ),
        )
        result = solve_horizon(spec, 2.0)
        deferred = result.schedule.amounts.get((0, 1, 2), 0.0)
        assert deferred > 0.0
        assert result.price_scale > 1.0
        for t in (1, 2):
            assert np.all(result.schedule.interval_usage(spec, t) <= 1.0 + 1e-6)

    def test_totals_are_interval_sums(self):
        market = single_type_market(4.0)
        spec = IntervalDemandSpec(
            horizon=3,
            intervals=(
                IntervalMarket(market, deadlines=(1,), nu=0.5),
                IntervalMarket(single_type_market(2.0), deadlines=(2,), nu=0.5),
                IntervalMarket(market, deadlines=(3,), nu=0.5),
            ),
        )
        result = solve_horizon(spec, 2.0)
        from cloudpricing.pricing import evaluate

        revenue = sum(
            evaluate(interval.instance, plan).revenue
            for interval, plan in zip(spec.intervals, result.plans)
        )
        assert result.total_revenue == pytest.approx(revenue, rel=1e-12)

    def test_deadline_constraint_set_convex(self, rng):
        # convex combinations of feasible (demand, schedule) pairs stay feasible
        spec = IntervalDemandSpec(
            horizon=2,
            intervals=(
                IntervalMarket(single_type_market(2.0), deadlines=(2,), nu=0.0),
                IntervalMarket(single_type_market(2.0), deadlines=(2,), nu=0.0),
            ),
        )
        for _ in range(20):
            d1 = [rng.uniform(0, 2.5, size=1), rng.uniform(0, 1.0, size=1)]
            d2 = [rng.uniform(0, 2.5, size=1), rng.uniform(0, 1.0, size=1)]
            ok1, s1 = schedule_feasible(d1, spec)
            ok2, s2 = schedule_feasible(d2, spec)
            if not (ok1 and ok2):
                continue
            t = float(rng.uniform(0, 1))
            mixed = [t * a + (1 - t) * b for a, b in zip(d1, d2)]
            ok, _ = schedule_feasible(mixed, spec)
            assert ok


class TestHorizonJson:
    def test_round_trip(self):
        market = single_type_market(4.0)
        payload = {
            "horizon": 2,
            "intervals": [
                {"instance": instance_to_json(market), "deadlines": [2], "nu": 0.5},
                {"instance": instance_to_json(market), "deadlines": [2]},
            ],
        }
        spec = horizon_spec_from_json(payload)
        assert spec.horizon == 2
        assert spec.intervals[0].nu == 0.5
        assert spec.intervals[1].nu == 0.0

    def test_error_paths(self):
        with pytest.raises(ValueError, match="horizon"):
            horizon_spec_from_json({"intervals": []})
        market = single_type_market(4.0)
        with pytest.raises(ValueError, match=r"intervals\[0\]\.deadlines"):
            horizon_spec_from_json(
                {
                    "horizon": 1,
                    "intervals": [
                        {"instance": instance_to_json(market), "deadlines": [1.5]}
                    ],
                }
            )


def slack_horizon(T: int, slack: int, market: Instance | None = None) -> IntervalDemandSpec:
    """``T`` copies of a market whose jobs may run until ``slack`` intervals later."""
    market = market or google_cluster_instance()
    return IntervalDemandSpec(
        horizon=T,
        intervals=tuple(
            IntervalMarket(market, deadlines=(min(T, s + slack),) * market.n, nu=0.0)
            for s in range(1, T + 1)
        ),
    )


def highs_schedulable(spec: IntervalDemandSpec, masses) -> bool:
    """Independent oracle: does HiGHS find a schedule delivering ``masses``?"""
    from scipy.optimize import linprog

    columns = [
        (j, s, t)
        for s, interval in enumerate(spec.intervals, start=1)
        for j, tau in enumerate(interval.deadlines)
        for t in range(s, tau + 1)
    ]
    cohorts = [(j, s) for s, row in enumerate(masses, start=1) for j in range(len(row))]
    m = spec.intervals[0].instance.m
    A_eq = np.zeros((len(cohorts), len(columns)))
    A_ub = np.zeros((spec.horizon * m, len(columns)))
    for col, (j, s, t) in enumerate(columns):
        A_eq[cohorts.index((j, s)), col] = 1.0
        A_ub[(t - 1) * m : t * m, col] = spec.intervals[s - 1].instance.user_types[j].requirements
    b_eq = [masses[s - 1][j] for j, s in cohorts]
    b_ub = np.concatenate([interval.instance.resources.capacities for interval in spec.intervals])
    result = linprog(
        np.zeros(len(columns)), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs"
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


def posted_masses(spec: IntervalDemandSpec, plans, factor: float = 1.0) -> list:
    """Demanded job masses per interval at the plans' prices times ``factor``."""
    return [
        interval.instance.counts
        * evaluate(interval.instance, ResourcePlan(prices=plan.prices * factor)).demands
        for interval, plan in zip(spec.intervals, plans)
    ]


@st.composite
def reference_horizons(draw):
    """Up to four reference-market intervals with drawn memory and deadlines."""
    T = draw(st.integers(1, 4))
    intervals = []
    for s in range(1, T + 1):
        market = google_cluster_instance(memory_capacity=draw(st.sampled_from([4.5, 6.0, 7.5])))
        deadlines = tuple(draw(st.integers(s, T)) for _ in range(market.n))
        intervals.append(IntervalMarket(market, deadlines=deadlines, nu=0.0))
    return IntervalDemandSpec(horizon=T, intervals=tuple(intervals))


class TestDeliveryTolerance:
    """Every cohort gets its demand at the posted prices, small cohorts too,
    and the repaired price scale is the smallest that HiGHS can schedule."""

    def check_minimal(self, spec: IntervalDemandSpec):
        result = solve_horizon(spec, 2.0)
        assert result.converged
        masses = posted_masses(spec, result.plans)
        for s, row in enumerate(masses, start=1):
            for j, mass in enumerate(row):
                delivered = result.schedule.delivered(j, s)
                assert delivered >= mass * (1.0 - 1e-6), (s, j, delivered, mass)
        assert highs_schedulable(spec, masses)
        if result.price_scale > 1.0:
            assert not highs_schedulable(spec, posted_masses(spec, result.plans, 1.0 - 1e-4))
        return result

    @pytest.mark.parametrize("T, slack", [(16, 3), (4, 1), (32, 3)])
    def test_reference_market_cohorts_fully_delivered(self, T, slack):
        result = self.check_minimal(slack_horizon(T, slack))
        assert result.price_scale > 1.0

    @settings(max_examples=20, deadline=None)
    @given(reference_horizons())
    def test_repair_minimal_on_random_horizons(self, spec):
        self.check_minimal(spec)


def relabeled(market: Instance, suffix: str) -> Instance:
    """The same numbers under other type labels."""
    return Instance(
        resources=market.resources,
        user_types=tuple(
            UserType(u.label + suffix, u.count, u.requirements, u.utility)
            for u in market.user_types
        ),
        discount=market.discount,
    )


def market_numbers(market: Instance) -> tuple:
    return (
        tuple(market.resources.capacities),
        tuple(map(tuple, market.requirement_matrix)),
        tuple(market.counts),
        tuple((u.utility.alpha, u.utility.c) for u in market.user_types),
        market.discount,
    )


@pytest.mark.filterwarnings("ignore:interval .*concavity:UserWarning")
class TestStageOneSharing:
    """Intervals with the same stage-one numbers share one price solve."""

    def spec(self) -> IntervalDemandSpec:
        base = google_cluster_instance()
        markets = [
            base,
            relabeled(base, "-b"),
            base,
            relabeled(base, "-c"),
            google_cluster_instance(memory_capacity=7.0),
            base,
        ]
        nus = [0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
        T = len(markets)
        return IntervalDemandSpec(
            horizon=T,
            intervals=tuple(
                IntervalMarket(market, deadlines=(min(T, s + 1),) * market.n, nu=nu)
                for s, (market, nu) in enumerate(zip(markets, nus), start=1)
            ),
        )

    def solve_counting(self, spec, monkeypatch):
        # every solve starts cold: with sharing off, an interval's warm start
        # would come from another predecessor, and the bits would differ
        calls = []
        original = deadline.barrier_optimize

        def counting(*args, start=None, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(deadline, "barrier_optimize", counting)
        result = solve_horizon(spec, 2.0)
        monkeypatch.setattr(deadline, "barrier_optimize", original)
        return result, len(calls)

    def test_one_solve_per_distinct_market(self, monkeypatch):
        spec = self.spec()
        distinct = {
            (market_numbers(interval.instance), min(interval.deadlines) - s + 1, interval.nu)
            for s, interval in enumerate(spec.intervals, start=1)
        }
        assert len(distinct) == 4  # labels alone do not make a market distinct
        result, calls = self.solve_counting(spec, monkeypatch)
        assert calls == len(distinct)
        assert result.interval_results[0] is result.interval_results[1]
        assert result.interval_results[0] is result.interval_results[3]

    def test_shared_solves_match_separate_solves(self, monkeypatch):
        spec = self.spec()
        shared, _ = self.solve_counting(spec, monkeypatch)
        # a fresh key per interval turns the sharing off
        monkeypatch.setattr(deadline, "_stage_one_key", lambda market, nu: object())
        separate, calls = self.solve_counting(spec, monkeypatch)
        assert calls == spec.horizon
        assert shared.price_scale > 1.0
        assert shared.price_scale == separate.price_scale
        assert shared.total_revenue == separate.total_revenue
        assert shared.total_fairness == separate.total_fairness
        assert shared.converged == separate.converged
        assert shared.schedule.amounts == separate.schedule.amounts
        for a, b in zip(shared.plans, separate.plans):
            np.testing.assert_array_equal(a.prices, b.prices)
        for a, b in zip(shared.interval_results, separate.interval_results):
            np.testing.assert_array_equal(a.plan.prices, b.plan.prices)
            np.testing.assert_array_equal(a.outcome.demands, b.outcome.demands)
            np.testing.assert_array_equal(a.outcome.net_utilities, b.outcome.net_utilities)
            np.testing.assert_array_equal(a.outcome.leftover, b.outcome.leftover)
            assert (a.objective_value, a.iterations, a.converged, a.gap, a.message) == (
                b.objective_value,
                b.iterations,
                b.converged,
                b.gap,
                b.message,
            )


@pytest.mark.filterwarnings("ignore:.*exceeds the concavity certificate")
class TestWarmStageOne:
    """Each stage-one solve starts from the last converged optimum of the horizon."""

    def spec(self) -> IntervalDemandSpec:
        T = 9
        return IntervalDemandSpec(
            horizon=T,
            intervals=tuple(
                IntervalMarket(
                    google_cluster_instance(memory_capacity=2.0 + 0.75 * s),
                    deadlines=(min(T, s + 1),) * 3,
                    nu=(0.0, 0.5, 1.0)[(s - 1) % 3],
                )
                for s in range(1, T + 1)
            ),
        )

    def solve(self, spec, monkeypatch, stall_warm=False):
        """Solve the horizon, recording each start and stalling warm ladders if asked."""
        starts, stalls, stall_next = [], [], [False]
        original, ladder = deadline.barrier_optimize, optimizer._barrier_ladder

        def recording(*args, start=None, **kwargs):
            starts.append(start)
            # the warm candidate is the first ladder of a warm-started solve
            stall_next[0] = stall_warm and start is not None
            return original(*args, start=start, **kwargs)

        def stalling(problem, spec, tolerance, prices):
            if stall_next[0]:
                stall_next[0] = False
                stalls.append(prices)
                return optimizer._LadderResult(prices, 80, -np.inf, np.inf, False, "stalled")
            return ladder(problem, spec, tolerance, prices)

        monkeypatch.setattr(deadline, "barrier_optimize", recording)
        monkeypatch.setattr(optimizer, "_barrier_ladder", stalling)
        return solve_horizon(spec, 2.0), starts, stalls

    def cold_solves(self, spec):
        return [
            barrier_optimize(
                deadline._window_relaxed(interval, s), "resource", ObjectiveSpec(interval.nu, 2.0)
            )
            for s, interval in enumerate(spec.intervals, start=1)
        ]

    def test_matches_cold_solves(self, monkeypatch):
        spec = self.spec()
        result, starts, _ = self.solve(spec, monkeypatch)
        assert len(starts) == spec.horizon and starts[0] is None
        assert all(start is not None for start in starts[1:])
        for warm, cold in zip(result.interval_results, self.cold_solves(spec)):
            assert warm.converged == cold.converged
            assert abs(warm.objective_value - cold.objective_value) <= 1e-6 * abs(
                cold.objective_value
            )
        assert result.converged
        for t, interval in enumerate(spec.intervals, start=1):
            capacity = interval.instance.resources.capacities
            assert np.all(result.schedule.interval_usage(spec, t) <= capacity)

    def test_stalled_warm_ladders_fall_back_to_cold(self, monkeypatch):
        spec = self.spec()
        result, starts, stalls = self.solve(spec, monkeypatch, stall_warm=True)
        assert len(stalls) == spec.horizon - 1
        for warm, cold in zip(result.interval_results, self.cold_solves(spec)):
            assert warm.converged and cold.converged
            assert warm.objective_value == cold.objective_value
            assert np.array_equal(warm.plan.prices, cold.plan.prices)
        assert result.converged
