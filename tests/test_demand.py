import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudpricing.demand import (
    NetUtilityKernel,
    UtilityParams,
    _check_demand_law,
    _demand_law_violations,
    demand_by_bisection,
    demand_point,
    demand_power_law,
    demand_sensitivity,
    net_utility,
    optimal_demand,
)
from kernel_laws import law_derivatives


def bisection_oracle(utility: UtilityParams, cost: float, discount: float) -> float:
    """Independent numeric route used to pin expected values."""
    return demand_by_bisection(utility.marginal, cost, discount)


class TestOptimalDemand:
    def test_unit_everything(self):
        assert optimal_demand(UtilityParams(0.5, 1.0), 1.0, 1.0) == pytest.approx(1.0)

    def test_doubled_cost(self):
        # bisection oracle gives 0.25 == 2**-2
        u = UtilityParams(0.5, 1.0)
        assert optimal_demand(u, 2.0, 1.0) == pytest.approx(0.25, rel=1e-12)
        assert optimal_demand(u, 2.0, 1.0) == pytest.approx(
            bisection_oracle(u, 2.0, 1.0), rel=1e-9
        )

    def test_discounted(self):
        # closed form (0.375)**-4 == 4096/81, confirmed by bisection
        u = UtilityParams(0.5, 2.0)
        x = optimal_demand(u, 1.0, 0.75)
        assert x == pytest.approx(4096.0 / 81.0, rel=1e-12)
        assert x == pytest.approx(bisection_oracle(u, 1.0, 0.75), rel=1e-9)

    def test_log_utility(self):
        assert optimal_demand(UtilityParams(1.0, 3.0), 1.5, 1.0) == pytest.approx(2.0)
        # gamma < 1: c/x == r*gamma*x**(gamma-1)  =>  x == (c/(r*gamma))**(1/gamma)
        x = optimal_demand(UtilityParams(1.0, 1.0), 2.0, 0.5)
        assert x == pytest.approx((1.0 / (2.0 * 0.5)) ** 2.0)
        assert x == pytest.approx(bisection_oracle(UtilityParams(1.0, 1.0), 2.0, 0.5), rel=1e-9)

    def test_rejects_flat_discount(self):
        with pytest.raises(ValueError, match="must exceed 1 - alpha"):
            optimal_demand(UtilityParams(0.5, 1.0), 1.0, 0.5)
        with pytest.raises(ValueError, match="must exceed 1 - alpha"):
            optimal_demand(UtilityParams(0.5, 1.0), 1.0, 0.4)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_c_outside_finite_positive(self, c):
        with pytest.raises(ValueError, match="c must be finite and positive"):
            UtilityParams(0.5, c)

    def test_rejects_free_jobs(self):
        with pytest.raises(ValueError, match="unbounded"):
            optimal_demand(UtilityParams(0.5, 1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            optimal_demand(UtilityParams(0.5, 1.0), -1.0, 1.0)

    def test_power_law_matches(self):
        u = UtilityParams(0.3, 2.5)
        k, e = demand_power_law(u, 0.9)
        for r in (0.2, 1.0, 7.0):
            assert k * r**e == pytest.approx(optimal_demand(u, r, 0.9), rel=1e-12)


class TestBisection:
    def test_expands_bracket(self):
        # root far above the default bracket
        u = UtilityParams(0.95, 0.1)
        x = demand_by_bisection(u.marginal, 0.01, 0.1)
        assert x == pytest.approx(optimal_demand(u, 0.01, 0.1), rel=1e-9)

    def test_rejects_multi_crossing(self):
        def wobbly(x: float) -> float:
            return 1.0 + 0.5 * math.sin(3.0 * math.log(x))

        with pytest.raises(ValueError, match="changes sign"):
            demand_by_bisection(wobbly, 1.0, 1.0)


class TestSensitivity:
    def test_frozen_values(self):
        # central finite differences (h=1e-6) give -2 and -0.25
        u = UtilityParams(0.5, 1.0)
        assert demand_sensitivity(u, 1.0, 1.0) == pytest.approx(-2.0, rel=1e-9)
        assert demand_sensitivity(u, 2.0, 1.0) == pytest.approx(-0.25, rel=1e-9)

    def test_matches_finite_difference(self, rng):
        for _ in range(50):
            alpha = rng.uniform(0.1, 0.9)
            gamma = rng.uniform(1.0 - alpha + 0.05, 1.0)
            u = UtilityParams(alpha, rng.uniform(0.2, 5.0))
            r = rng.uniform(0.05, 50.0)
            h = 1e-6 * r
            numeric = (optimal_demand(u, r + h, gamma) - optimal_demand(u, r - h, gamma)) / (
                2.0 * h
            )
            assert demand_sensitivity(u, r, gamma) == pytest.approx(numeric, rel=1e-5)

    @given(
        alpha=st.floats(0.1, 0.9),
        extra=st.floats(0.05, 0.5),
        cost=st.floats(0.01, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_negative(self, alpha, extra, cost):
        gamma = min(1.0, 1.0 - alpha + extra + 0.01)
        assert demand_sensitivity(UtilityParams(alpha, 1.0), cost, gamma) < 0.0

    def test_log_utility_sensitivity(self):
        u = UtilityParams(1.0, 2.0)
        for gamma in (1.0, 0.7, 0.4):
            r = 1.3
            h = 1e-6 * r
            numeric = (optimal_demand(u, r + h, gamma) - optimal_demand(u, r - h, gamma)) / (
                2.0 * h
            )
            assert demand_sensitivity(u, r, gamma) == pytest.approx(numeric, rel=1e-6)


class TestNetUtility:
    def test_frozen_values(self):
        u = UtilityParams(0.5, 1.0)
        assert net_utility(u, 1.0, 1.0) == pytest.approx(1.0)  # U(1) - 1 = 2 - 1
        assert net_utility(u, 2.0, 1.0) == pytest.approx(0.5)  # 1 - 0.5

    def test_surplus_identity(self, rng):
        # surplus == (gamma/(1-alpha) - 1) * r * x**gamma for alpha < 1
        for _ in range(100):
            alpha = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(1.0 - alpha + 0.05, 1.0)
            u = UtilityParams(alpha, rng.uniform(0.1, 10.0))
            r = rng.uniform(0.01, 100.0)
            x = optimal_demand(u, r, gamma)
            expected = (gamma / (1.0 - alpha) - 1.0) * r * x**gamma
            assert net_utility(u, r, gamma) == pytest.approx(expected, rel=1e-9)

    def test_log_utility_clamps_to_opt_out(self):
        # interior solution loses money at high prices; the user sits out
        u = UtilityParams(1.0, 1.0)
        assert net_utility(u, 10.0, 1.0) == 0.0
        assert net_utility(u, 0.1, 1.0) == pytest.approx(math.log(10.0) - 1.0)

    def test_zero_jobs_zero_utility(self):
        assert UtilityParams(0.5, 1.0).value(0.0) == 0.0
        assert UtilityParams(1.0, 1.0).value(0.0) == 0.0


@st.composite
def mixed_markets(draw):
    """Utilities of 1 to 6 types, some with log utility, and a valid discount."""
    alphas = draw(
        st.lists(st.one_of(st.just(1.0), st.floats(0.05, 0.95)), min_size=1, max_size=6)
    )
    utilities = [UtilityParams(a, draw(st.floats(0.1, 10.0))) for a in alphas]
    # a discount at least 0.05 above 1 - alpha keeps the surplus of every
    # alpha < 1 type at least 1/20 of its utility, so the direct route
    # U(x) - r * x**gamma loses at most a factor 20 to cancellation
    gamma = draw(st.floats(min(1.0, 1.05 - min(alphas)), 1.0))
    return utilities, gamma


class TestNetUtilityKernel:
    @given(market=mixed_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_type_net_utility(self, market, data):
        utilities, gamma = market
        n = len(utilities)
        columns = data.draw(st.integers(0, 4))  # 0 draws the 1-d shape
        shape = (n,) if columns == 0 else (n, columns)
        costs = np.array(
            data.draw(st.lists(st.floats(0.01, 100.0), min_size=n * max(columns, 1),
                               max_size=n * max(columns, 1)))
        ).reshape(shape)
        values = NetUtilityKernel(utilities, gamma)(costs)
        assert values.shape == shape
        for index in np.ndindex(shape):
            u, r = utilities[index[0]], float(costs[index])
            direct = net_utility(u, r, gamma)
            x = optimal_demand(u, r, gamma)
            if u.alpha == 1.0:
                # c * log(x) - r * x**gamma: judge against the terms, since
                # their difference can cancel to nothing
                scale = abs(u.value(x)) + r * x**gamma
                if direct == 0.0:  # opted out: the kernel reports the loss
                    assert values[index] <= 1e-12 * scale
                    continue
            else:
                scale = direct
            assert abs(values[index] - direct) <= 1e-12 * scale

    @given(market=mixed_markets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_derivatives(self, market, data):
        utilities, gamma = market
        n = len(utilities)
        costs = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
        kernel = NetUtilityKernel(utilities, gamma)
        slope, _ = law_derivatives(kernel, "demand", costs)
        for j, u in enumerate(utilities):
            exact = demand_sensitivity(u, float(costs[j]), gamma)
            assert slope[j] == pytest.approx(exact, rel=1e-12)

        h = 1e-4 * costs
        # a log type's surplus c * log(x) - A can cancel: its rounding error
        # scales with the terms, not with the difference
        terms = kernel.bill(costs) * (1.0 + np.abs(np.log(kernel.demand(costs))))

        def matches(value, exact, magnitude=0.0):
            numeric = (value(costs + h) - value(costs - h)) / (2.0 * h)
            rounding = 1e-13 * (np.abs(value(costs + h)) + np.abs(value(costs - h)) + magnitude)
            assert np.all(np.abs(numeric - exact) <= 1e-5 * np.abs(exact) + rounding / h)

        for law, value in (("demand", kernel.demand), ("bill", kernel.bill), ("surplus", kernel)):
            first, second = law_derivatives(kernel, law, costs)
            matches(value, first, terms if law == "surplus" else 0.0)
            matches(lambda r: law_derivatives(kernel, law, r)[0], second)


class TestInvariants:
    def test_closed_form_vs_bisection_bulk(self, rng):
        for _ in range(250):
            alpha = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(1.0 - alpha + 0.05, 1.0)
            u = UtilityParams(alpha, rng.uniform(0.1, 10.0))
            r = rng.uniform(0.01, 100.0)
            assert optimal_demand(u, r, gamma) == pytest.approx(
                bisection_oracle(u, r, gamma), rel=1e-9
            )

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_in_cost(self, data):
        alpha = data.draw(st.floats(0.1, 0.9))
        gamma = data.draw(st.floats(1.0 - alpha + 0.05, 1.0))
        u = UtilityParams(alpha, 1.0)
        # quantize draws: adjacent floats can round to the same demand
        raw = data.draw(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=6))
        costs = sorted({round(value, 6) for value in raw})
        if len(costs) < 2:
            return
        values = [optimal_demand(u, r, gamma) for r in costs]
        assert all(b < a for a, b in zip(values, values[1:]))

    @given(
        types=st.lists(
            st.tuples(
                st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
                st.floats(-300.0, 300.0),
            ),
            min_size=1,
            max_size=8,
        ),
        discount=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_demand_law_columns_match_the_per_type_check(self, types, discount):
        # the vectorized rule against its loop reference, across coefficients
        # that overflow or vanish
        utilities = [UtilityParams(alpha, 10.0**exponent) for alpha, exponent in types]
        expected = []
        for u in utilities:
            try:
                _check_demand_law(u, discount)
                expected.append(False)
            except ValueError:
                expected.append(True)
        alphas = np.array([u.alpha for u in utilities])
        cs = np.array([u.c for u in utilities])
        assert _demand_law_violations(alphas, cs, discount).tolist() == expected

    def test_second_order_condition(self, rng):
        for _ in range(100):
            alpha = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(1.0 - alpha + 0.05, 1.0)
            u = UtilityParams(alpha, rng.uniform(0.1, 10.0))
            r = rng.uniform(0.01, 100.0)
            x = optimal_demand(u, r, gamma)
            assert u.curvature(x) < gamma * (gamma - 1.0) * x ** (gamma - 2.0) * r


class TestDemandPoint:
    def test_carries_consistent_fields(self):
        point = demand_point(UtilityParams(0.5, 1.0), 2.0, 1.0)
        assert point.jobs == pytest.approx(0.25)
        assert point.net_utility == pytest.approx(0.5)
        assert point.per_job_cost == 2.0
        assert point.discount == 1.0

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            UtilityParams(alpha=0.0, c=1.0)
        with pytest.raises(ValueError):
            UtilityParams(alpha=1.2, c=1.0)
        with pytest.raises(ValueError):
            UtilityParams(alpha=0.5, c=0.0)
