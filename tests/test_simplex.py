import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from cloudpricing.simplex import phase_one


def scipy_feasible(A_ge, b_ge, A_le, b_le) -> bool:
    """Independent feasibility oracle via scipy's LP solver."""
    n = np.atleast_2d(A_ge).shape[1] if len(b_ge) else np.atleast_2d(A_le).shape[1]
    A_ub = np.vstack([-np.atleast_2d(A_ge), np.atleast_2d(A_le)])
    b_ub = np.concatenate([-np.asarray(b_ge, float), np.asarray(b_le, float)])
    result = linprog(c=np.zeros(n), A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * n)
    return result.status == 0


class TestPhaseOne:
    def test_simple_feasible(self):
        # x1 + x2 >= 1, x1 <= 2, x2 <= 2
        result = phase_one([[1.0, 1.0]], [1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0])
        assert result.feasible
        assert result.x.sum() >= 1.0 - 1e-9

    def test_simple_infeasible(self):
        # x >= 3 but x <= 1
        result = phase_one([[1.0]], [3.0], [[1.0]], [1.0])
        assert not result.feasible
        assert result.total_violation == pytest.approx(2.0, abs=1e-9)
        assert result.ge_violations[0] == pytest.approx(2.0, abs=1e-9)

    def test_witness_satisfies_all_constraints(self):
        A_ge = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        b_ge = [2.0, 1.5]
        A_le = [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        b_le = [1.0, 3.0]
        result = phase_one(A_ge, b_ge, A_le, b_le)
        assert result.feasible
        x = result.x
        assert np.all(x >= -1e-12)
        assert np.all(np.asarray(A_ge) @ x >= np.asarray(b_ge) - 1e-9)
        assert np.all(np.asarray(A_le) @ x <= np.asarray(b_le) + 1e-9)

    def test_witness_never_negative(self):
        # rounding in the pivots puts x[2] at -8.9e-16 unless basic values are clamped
        result = phase_one([[3, 0.5, 0], [0.5, 0.5, 0.5]], [2.5, 2.5], [[0, 0, 0]], [0])
        assert result.feasible
        assert np.all(result.x >= 0.0)

    def test_zero_demand_trivially_feasible(self):
        result = phase_one([[1.0, 0.0]], [0.0], [[1.0, 1.0]], [1.0])
        assert result.feasible

    def test_rejects_negative_rhs(self):
        with pytest.raises(ValueError, match="nonnegative"):
            phase_one([[1.0]], [-1.0], [[1.0]], [1.0])

    def test_matches_scipy_on_random_systems(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            n_ge = int(rng.integers(1, 4))
            n_le = int(rng.integers(1, 4))
            A_ge = rng.uniform(0.0, 2.0, size=(n_ge, n))
            A_le = rng.uniform(0.0, 2.0, size=(n_le, n))
            b_ge = rng.uniform(0.0, 4.0, size=n_ge)
            b_le = rng.uniform(0.0, 4.0, size=n_le)
            ours = phase_one(A_ge, b_ge, A_le, b_le)
            assert ours.feasible == scipy_feasible(A_ge, b_ge, A_le, b_le)
            if ours.feasible:
                assert np.all(A_ge @ ours.x >= b_ge - 1e-8)
                assert np.all(A_le @ ours.x <= b_le + 1e-8)


@st.composite
def feasibility_systems(draw):
    """Systems of up to 40 variables with zero right-hand sides and duplicated
    rows.  Half-integer data make every vertex a rational whose denominator
    is a small determinant, so an infeasible system misses by far more than
    either solver's tolerance."""
    n = draw(st.integers(1, 40))
    coefficients = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    rhs = st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0, 7.0])
    system = []
    for rows in (draw(st.integers(1, 6)), draw(st.integers(1, 6))):
        A = draw(hnp.arrays(float, (rows, n), elements=coefficients))
        b = draw(hnp.arrays(float, rows, elements=rhs))
        duplicates = draw(st.lists(st.integers(0, rows - 1), max_size=2))
        system += [np.vstack([A, A[duplicates]]), np.concatenate([b, b[duplicates]])]
    return tuple(system)


@settings(max_examples=150, deadline=None)
@given(feasibility_systems())
def test_verdict_and_witness_match_highs(system):
    A_ge, b_ge, A_le, b_le = system
    ours = phase_one(A_ge, b_ge, A_le, b_le)
    assert ours.feasible == scipy_feasible(A_ge, b_ge, A_le, b_le)
    if ours.feasible:
        assert np.all(ours.x >= 0.0)
        assert np.all(A_ge @ ours.x >= b_ge - 1e-8)
        assert np.all(A_le @ ours.x <= b_le + 1e-8)
