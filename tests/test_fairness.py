import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudpricing.fairness import (
    LOG_DOMAIN_BETA,
    FairnessSpec,
    _log_power_sum,
    beta_fairness,
    beta_lambda_fairness,
    envy_free,
    equitability_efficiency_split,
    log_sum_exp,
    pareto_probe,
)

positive_vectors = st.lists(st.floats(0.05, 20.0), min_size=2, max_size=6)


class TestBetaFairness:
    def test_beta_two(self):
        assert beta_fairness([1.0, 2.0], 2.0) == pytest.approx(-1.5)

    def test_beta_half(self):
        assert beta_fairness([1.0, 2.0], 0.5) == pytest.approx(2.0 * (1.0 + math.sqrt(2.0)))

    def test_equal_users_monotone_in_level(self):
        for beta in (0.5, 2.0, 20.0):
            lower = beta_fairness([1.0] * 4, beta)
            higher = beta_fairness([1.5] * 4, beta)
            assert higher > lower
            assert lower == pytest.approx(4 * 1.0 ** (1 - beta) / (1 - beta))

    def test_weights_replicate_entries(self):
        direct = beta_fairness([1.0, 1.0, 1.0, 2.0], 2.0)
        weighted = beta_fairness([1.0, 2.0], 2.0, weights=[3.0, 1.0])
        assert weighted == pytest.approx(direct, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="strictly positive"):
            beta_fairness([1.0, 0.0], 2.0)
        with pytest.raises(ValueError, match="beta = 1"):
            beta_fairness([1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="positive"):
            beta_fairness([1.0, 2.0], 0.0)

    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_rejects_non_finite_beta(self, beta):
        # at beta = inf the power sum would read -inf or -0.0, not a fairness
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            beta_fairness([1.0, 2.0], beta)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            FairnessSpec(beta, 0.0)


class TestBetaLambdaFairness:
    def test_two_user_cases(self):
        # direct evaluation: sgn(1-b) * (sum u**(1-b))**(1/b) * (sum u)**(lam+1-1/b)
        assert beta_lambda_fairness([1.0, 2.0], FairnessSpec(2.0, -0.5)) == pytest.approx(
            -math.sqrt(1.5)
        )
        # at beta=0.5, lam=-1 the direct value is (1+sqrt(2))**2 / 9
        assert beta_lambda_fairness([1.0, 2.0], FairnessSpec(0.5, -1.0)) == pytest.approx(
            (1.0 + math.sqrt(2.0)) ** 2 / 9.0
        )

    def test_single_user_reduces_to_power(self):
        for beta, lam, value in ((2.0, 0.7, 3.0), (0.5, -0.3, 5.0)):
            expected = math.copysign(1.0, 1.0 - beta) * value**lam
            assert beta_lambda_fairness([value], FairnessSpec(beta, lam)) == pytest.approx(
                expected
            )

    @given(values=positive_vectors, beta=st.sampled_from([0.5, 2.0, 20.0]))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, values, beta):
        spec = FairnessSpec(beta=beta, lam=-0.25)
        forward = beta_lambda_fairness(values, spec)
        backward = beta_lambda_fairness(list(reversed(values)), spec)
        assert forward == pytest.approx(backward, rel=1e-9)


class TestSplit:
    def test_efficiency_zeroth_power(self):
        _, efficiency = equitability_efficiency_split([1.0, 1.0], FairnessSpec(2.0, 0.0))
        assert efficiency == pytest.approx(1.0)

    def test_product_consistency(self, rng):
        for _ in range(50):
            values = rng.uniform(0.1, 10.0, size=rng.integers(2, 6))
            spec = FairnessSpec(
                beta=float(rng.choice([0.5, 2.0, 20.0])), lam=float(rng.uniform(-2, 2))
            )
            equity, efficiency = equitability_efficiency_split(values, spec)
            assert equity * efficiency == pytest.approx(
                beta_lambda_fairness(values, spec), rel=1e-9
            )

    def test_equitability_scale_invariant(self, rng):
        values = rng.uniform(0.5, 5.0, size=4)
        spec = FairnessSpec(beta=2.0, lam=-0.5)
        base, _ = equitability_efficiency_split(values, spec)
        for t in (0.1, 3.0, 250.0):
            scaled, _ = equitability_efficiency_split(t * values, spec)
            assert scaled == pytest.approx(base, rel=1e-9)


class TestWeightedReading:
    def test_fairness_of_surplus_equals_weighted_jobs(self, rng):
        # without a discount, each surplus is (1/(1-alpha) - 1) * r times the
        # jobs processed, so fairness over surpluses equals fairness over
        # those weighted job counts
        from cloudpricing.demand import UtilityParams, net_utility, optimal_demand

        for beta in (0.5, 2.0):
            alphas = rng.uniform(0.2, 0.8, size=4)
            costs = rng.uniform(0.2, 5.0, size=4)
            surpluses = []
            weighted_jobs = []
            for alpha, r in zip(alphas, costs):
                utility = UtilityParams(float(alpha), 1.0)
                surpluses.append(net_utility(utility, float(r), 1.0))
                weight = (1.0 / (1.0 - alpha) - 1.0) * r
                weighted_jobs.append(weight * optimal_demand(utility, float(r), 1.0))
            assert beta_fairness(surpluses, beta) == pytest.approx(
                beta_fairness(weighted_jobs, beta), rel=1e-9
            )


class TestRankingEquivalence:
    def test_matched_exponent_orders_identically(self, rng):
        for beta in (0.5, 2.0, 5.0):
            spec = FairnessSpec(beta=beta, lam=1.0 / beta - 1.0)
            vectors = [rng.uniform(0.1, 10.0, size=4) for _ in range(300)]
            by_power_sum = sorted(range(300), key=lambda i: beta_fairness(vectors[i], beta))
            by_two_param = sorted(
                range(300), key=lambda i: beta_lambda_fairness(vectors[i], spec)
            )
            assert by_power_sum == by_two_param


class TestLogDomain:
    def test_matches_extended_precision(self, rng):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        beta = 20.0
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=5))
            ours = beta_fairness(values, beta)
            reference = float(
                mpmath.fsum(mpmath.mpf(float(v)) ** (1.0 - beta) for v in values)
                / (1.0 - beta)
            )
            assert ours == pytest.approx(reference, rel=1e-6)

    @given(
        beta=st.floats(10.0, 200.0),
        logs=st.lists(st.floats(math.log(1e-6), math.log(1e6)), min_size=2, max_size=12),
        weights=st.lists(st.integers(1, 1000), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_log_sum_exp_matches_extended_precision(self, beta, logs, weights):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        # the values fill a (n, 2) grid: each column is one utility vector
        u = np.exp(np.array(logs[: len(logs) // 2 * 2])).reshape(-1, 2)
        w = np.array(weights[: u.shape[0]], dtype=float)
        columns = log_sum_exp((1.0 - beta) * np.log(u), w[:, None], axis=0)
        for col in range(2):
            exact = mpmath.fsum(
                mpmath.mpf(float(wj)) * mpmath.mpf(float(uj)) ** (1.0 - beta)
                for wj, uj in zip(w, u[:, col])
            )
            reference = float(mpmath.log(exact))
            ours = float(log_sum_exp((1.0 - beta) * np.log(u[:, col]), w))
            assert abs(ours - reference) <= 1e-12 * max(1.0, abs(reference))
            assert columns[col] == pytest.approx(ours, rel=1e-15, abs=1e-15)
            fairness = beta_fairness(u[:, col], beta, weights=w)
            if exact / (1.0 - beta) < -np.finfo(float).max:
                assert fairness == -math.inf  # past the float range, not an error
            else:
                assert fairness == pytest.approx(float(exact / (1.0 - beta)), rel=1e-9)

    @given(
        beta=st.floats(LOG_DOMAIN_BETA, 200.0),
        logs=st.lists(st.floats(math.log(1e-6), math.log(1e6)), min_size=1, max_size=12),
        weights=st.lists(st.integers(1, 1000), min_size=12, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_vector_power_sum_is_log_sum_exp_exactly(self, beta, logs, weights):
        # the log-domain power sum is log_sum_exp of the vectors; same floats
        u = np.exp(np.array(logs))
        w = np.array(weights[: u.size], dtype=float)
        expected = float(log_sum_exp((1.0 - beta) * np.log(u), w))
        assert _log_power_sum(u, w, beta) == expected


class TestEnvyFree:
    def test_identical_users_and_allocations(self):
        req = [[1.0, 2.0], [1.0, 2.0]]
        assert envy_free([[1.0, 2.0], [1.0, 2.0]], req)

    def test_complementary_requirements(self):
        # swapping gives user 1 only min(2/1, 1/2) = 0.5 jobs < 1
        alloc = [[1.0, 2.0], [2.0, 1.0]]
        req = [[1.0, 2.0], [2.0, 1.0]]
        assert envy_free(alloc, req)

    def test_empty_handed_user_envies(self):
        alloc = [[0.0, 0.0], [1.0, 2.0]]
        req = [[1.0, 2.0], [1.0, 2.0]]
        assert not envy_free(alloc, req)

    def test_strict_mode_rejects_ties(self):
        req = [[1.0, 2.0], [1.0, 2.0]]
        assert not envy_free([[1.0, 2.0], [1.0, 2.0]], req, strict=True)

    def test_max_mode_differs(self):
        # exact-fit allocations: under min semantics nobody gains by
        # swapping, but max semantics lets user 0 covet user 1's surplus
        # of a resource user 0 barely needs
        alloc = [[1.0, 1.0], [1.0, 10.0]]
        req = [[1.0, 1.0], [1.0, 10.0]]
        assert envy_free(alloc, req, mode="min")
        assert not envy_free(alloc, req, mode="max")

    def test_all_zero_requirements(self):
        with pytest.raises(ValueError, match="all-zero"):
            envy_free([[1.0, 1.0]], [[0.0, 0.0]], mode="min")
        assert envy_free([[1.0, 1.0], [2.0, 2.0]], [[0.0, 0.0], [1.0, 1.0]], mode="max")


class TestParetoProbe:
    def test_dominating_pair_with_matched_sign(self):
        # beta > 1 needs lam <= 1/beta - 1 for Pareto efficiency
        assert pareto_probe(FairnessSpec(2.0, -0.5), [2.0, 2.0], [1.0, 2.0])

    def test_small_bump(self):
        assert pareto_probe(FairnessSpec(2.0, -0.5), [1.1, 1.0], [1.0, 1.0])
        assert pareto_probe(FairnessSpec(0.5, 1.0), [1.1, 1.0], [1.0, 1.0])

    def test_positive_lambda_with_large_beta_can_fail(self):
        # the efficiency exponent must sit on the same side as 1/beta - 1:
        # at beta=2, lam=+0.5 a dominating vector scores lower
        spec = FairnessSpec(2.0, 0.5)
        assert beta_lambda_fairness([2.0, 2.0], spec) < beta_lambda_fairness([1.0, 2.0], spec)

    def test_rejects_non_dominating(self):
        with pytest.raises(ValueError, match="dominate"):
            pareto_probe(FairnessSpec(2.0, -0.5), [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="dominate"):
            pareto_probe(FairnessSpec(2.0, -0.5), [2.0, 0.5], [1.0, 1.0])

    def test_bulk_random_pairs(self, rng):
        for _ in range(200):
            beta = float(rng.uniform(0.2, 3.0))
            if abs(beta - 1.0) < 0.05:
                continue
            lam = (1.0 / beta - 1.0) * (1.0 + rng.uniform(0.0, 1.5))
            spec = FairnessSpec(beta=beta, lam=lam)
            v = rng.uniform(0.1, 5.0, size=rng.integers(2, 6))
            u = v + rng.uniform(0.01, 1.0, size=v.size) * (rng.random(v.size) < 0.7)
            if not np.any(u > v):
                continue
            assert pareto_probe(spec, u, v)
