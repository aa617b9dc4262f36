"""User demand under isoelastic utilities and volume discounts.

A user with utility U submits jobs until the marginal utility of one more
job equals its marginal (discounted) cost.  With a per-job cost ``r`` and a
volume-discount exponent ``gamma`` in (0, 1], the user pays ``r * x**gamma``
for ``x`` jobs and solves

    max_x  U(x) - r * x**gamma.

For the isoelastic family the maximizer has the closed form of a power law
in ``r``; a bisection fallback is provided as an independent numeric route
and for non-isoelastic marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "UtilityParams",
    "DemandPoint",
    "optimal_demand",
    "demand_by_bisection",
    "demand_sensitivity",
    "net_utility",
    "NetUtilityKernel",
    "demand_power_law",
    "demand_point",
]

#: Relative tolerance met by the closed-form demand (stationarity residual).
STATIONARITY_RTOL = 1e-9


@dataclass(frozen=True)
class UtilityParams:
    """Isoelastic utility ``U(x) = c * x**(1-alpha) / (1-alpha)``.

    ``alpha`` in (0, 1] controls concavity (price sensitivity); at
    ``alpha == 1`` the utility degenerates to ``c * log(x)``.  ``c > 0``
    scales the utility level, in dollars per job**(1-alpha).
    """

    alpha: float
    c: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be finite and positive, got {self.c}")

    def value(self, jobs: float) -> float:
        """Utility of processing ``jobs`` jobs; U(0) = 0 by convention."""
        if jobs == 0.0:
            return 0.0
        if self.alpha == 1.0:
            return self.c * math.log(jobs)
        return self.c * jobs ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def marginal(self, jobs: float) -> float:
        """U'(jobs) = c * jobs**(-alpha)."""
        return self.c * jobs ** (-self.alpha)

    def curvature(self, jobs: float) -> float:
        """U''(jobs) = -alpha * c * jobs**(-alpha - 1)."""
        return -self.alpha * self.c * jobs ** (-self.alpha - 1.0)


@dataclass(frozen=True)
class DemandPoint:
    """One evaluated point on a user's demand curve."""

    jobs: float
    per_job_cost: float
    discount: float
    net_utility: float


def _check_demand_law(utility: UtilityParams, discount: float) -> None:
    """Demand ``k * r**e`` needs a discount above ``1 - alpha`` and a float ``k > 0``."""
    if utility.alpha < 1.0 and discount <= 1.0 - utility.alpha:
        raise ValueError(
            f"discount {discount} must exceed 1 - alpha = {1.0 - utility.alpha}; "
            "below that the user's optimum is unbounded or undefined"
        )
    try:
        k = demand_power_law(utility, discount)[0]
    except ArithmeticError:  # overflow, or a zero base to a negative power
        k = math.inf
    if not 0.0 < k < math.inf:
        raise ValueError(f"demand coefficient {k} (from c = {utility.c}) must be a positive float")


def _demand_law_violations(alphas: np.ndarray, cs: np.ndarray, discount: float) -> np.ndarray:
    """Where :func:`_check_demand_law` rejects, for columns of alpha and c at once."""
    log_types = alphas == 1.0
    with np.errstate(all="ignore"):
        e = np.where(log_types, 1.0 / discount, 1.0 / (1.0 - alphas - discount))
        k = np.where(log_types, cs / discount, discount / cs) ** e
    return ((alphas < 1.0) & (discount <= 1.0 - alphas)) | ~((0.0 < k) & (k < np.inf))


def _check_args(utility: UtilityParams, per_job_cost: float, discount: float) -> None:
    if not (0.0 < discount <= 1.0):
        raise ValueError(f"discount must lie in (0, 1], got {discount}")
    _check_demand_law(utility, discount)
    if per_job_cost <= 0.0:
        raise ValueError(
            f"per_job_cost must be positive, got {per_job_cost} (free jobs make demand unbounded)"
        )


def demand_power_law(utility: UtilityParams, discount: float) -> tuple[float, float]:
    """Coefficient and exponent of the demand curve ``x*(r) = k * r**e``.

    For ``alpha < 1``: k = (gamma/c)**(1/(1-alpha-gamma)), e = 1/(1-alpha-gamma).
    For ``alpha == 1`` (log utility): k = (c/gamma)**(1/gamma), e = -1/gamma.
    The exponent is strictly negative whenever the arguments are valid.
    """
    gamma = discount
    if utility.alpha == 1.0:
        return (utility.c / gamma) ** (1.0 / gamma), -1.0 / gamma
    e = 1.0 / (1.0 - utility.alpha - gamma)
    return (gamma / utility.c) ** e, e


def optimal_demand(utility: UtilityParams, per_job_cost: float, discount: float) -> float:
    """Utility-maximizing number of jobs at the given discounted per-job cost.

    Solves the stationarity condition U'(x) = per_job_cost * gamma * x**(gamma-1)
    in closed form.  Requires ``discount > 1 - alpha`` (strictly) so that the
    stationary point is a maximum.
    """
    _check_args(utility, per_job_cost, discount)
    k, e = demand_power_law(utility, discount)
    return k * per_job_cost**e


def demand_by_bisection(
    marginal_utility: Callable[[float], float], per_job_cost: float, discount: float
) -> float:
    """Numeric root of U'(x) = r * gamma * x**(gamma-1) on a geometric bracket.

    Independent of the closed form: works from the marginal utility alone, so
    it also serves non-isoelastic utilities.  The bracket [1e-12, 1e12] is
    widened geometrically when the root falls outside it, and up to 200
    halvings of its log-width stop at a relative width of 1e-12.
    Inputs whose net marginal changes sign more than once on the bracket are
    rejected (the root would be ambiguous).
    """
    if per_job_cost <= 0.0:
        raise ValueError("per_job_cost must be positive")
    if not (0.0 < discount <= 1.0):
        raise ValueError("discount must lie in (0, 1]")

    def residual(x: float) -> float:
        return marginal_utility(x) - per_job_cost * discount * x ** (discount - 1.0)

    lo, hi = 1e-12, 1e12
    for _ in range(64):  # widen until the root is bracketed
        if residual(lo) > 0.0:
            break
        lo /= 1e3
        if lo < 1e-290:
            raise ValueError("no positive bracket: net marginal utility never positive")
    for _ in range(64):
        if residual(hi) < 0.0:
            break
        hi *= 1e3
        if hi > 1e290:
            raise ValueError("demand does not saturate: no finite root found")

    # Reject non-monotone (non-isoelastic) inputs with several crossings.
    samples = [lo * (hi / lo) ** (i / 64.0) for i in range(65)]
    signs = [residual(x) > 0.0 for x in samples]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if crossings > 1:
        raise ValueError(
            f"net marginal utility changes sign {crossings} times on the bracket; "
            "demand is ambiguous for this utility"
        )

    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * lo:
            break
    return math.sqrt(lo * hi)


def demand_sensitivity(utility: UtilityParams, per_job_cost: float, discount: float) -> float:
    """Rate of change of demand with the per-job cost, d(x*)/dr.

    Evaluates gamma * x**(gamma-1) / (U''(x) + gamma*(1-gamma)*x**(gamma-2)*r)
    at the optimal demand.  Strictly negative under the validity conditions.
    """
    _check_args(utility, per_job_cost, discount)
    gamma = discount
    x = optimal_demand(utility, per_job_cost, discount)
    denom = utility.curvature(x) + gamma * (1.0 - gamma) * x ** (gamma - 2.0) * per_job_cost
    return gamma * x ** (gamma - 1.0) / denom


def net_utility(utility: UtilityParams, per_job_cost: float, discount: float) -> float:
    """Consumer surplus U(x*) - r * (x*)**gamma at the optimal demand.

    Never negative: a user whose best interior option loses money processes
    zero jobs instead (relevant only for log utility; for ``alpha < 1`` the
    interior optimum is always profitable).
    """
    _check_args(utility, per_job_cost, discount)
    x = optimal_demand(utility, per_job_cost, discount)
    surplus = utility.value(x) - per_job_cost * x**discount
    return max(surplus, 0.0)


def demand_point(utility: UtilityParams, per_job_cost: float, discount: float) -> DemandPoint:
    """Evaluate demand, cost, and surplus together, checking stationarity."""
    x = optimal_demand(utility, per_job_cost, discount)
    if x > 0.0:
        residual = abs(
            utility.marginal(x) - per_job_cost * discount * x ** (discount - 1.0)
        )
        if not residual <= STATIONARITY_RTOL * per_job_cost:
            raise AssertionError(
                f"stationarity residual {residual:.3e} exceeds tolerance at x={x!r}"
            )
    return DemandPoint(
        jobs=x,
        per_job_cost=per_job_cost,
        discount=discount,
        net_utility=net_utility(utility, per_job_cost, discount),
    )


class NetUtilityKernel:
    """Every per-type power law of a market as a vectorized function of cost.

    Built once per market from the types' utilities and the discount.  At
    the optimal demand ``x = k * r**e`` the bill is ``r * x**gamma =
    A * r**q`` with ``A = k**gamma`` and ``q = 1 + gamma * e``, and the
    surplus is the closed form ``(gamma/(1-alpha) - 1) * A * r**q`` for
    ``alpha < 1`` or ``c * log(x) - A`` for log utility.  By the envelope
    theorem the surplus falls at ``-x**gamma = -A * r**(q-1)`` for every type.

    Calling the kernel gives net utilities; :meth:`demand` and :meth:`bill`
    give the other two power laws.  Costs have shape ``(n,)`` or ``(n, c)``:
    row ``j`` holds type ``j``'s costs and the columns are independent
    candidates (say, the points of a price grid).
    Unlike :func:`net_utility` the kernel neither validates nor clamps: a
    log-utility type's surplus comes back negative when it would opt out.
    Its arrays are read-only, as a market keeps its kernel.
    """

    def __init__(self, utilities: Sequence[UtilityParams], discount: float):
        pairs = [demand_power_law(u, discount) for u in utilities]
        self.k = np.array([k for k, _ in pairs])
        self.e = np.array([e for _, e in pairs])
        self.A = self.k**discount
        self.q = 1.0 + discount * self.e
        alphas = np.array([u.alpha for u in utilities])
        self.log_types = alphas == 1.0
        self.any_log = bool(np.any(self.log_types))
        self.c = np.array([u.c for u in utilities])
        self.log_k = np.log(self.k)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = (discount / (1.0 - alphas) - 1.0) * self.A
        self.surplus_coef = np.where(self.log_types, 0.0, coef)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    # costs are transposed so that the per-type constants run along their
    # last axis, which serves both shapes
    def __call__(self, costs: np.ndarray, powered=None) -> np.ndarray:
        """Net utilities at per-job costs of shape ``(n,)`` or ``(n, c)``;
        ``powered`` is ``costs.T**q`` if the caller has it (the bill's power)."""
        powered = costs.T**self.q if powered is None else powered
        out = (self.surplus_coef * powered).T
        if self.any_log:
            m = self.log_types
            out[m] = (self.c[m] * (self.log_k[m] + self.e[m] * np.log(costs[m]).T) - self.A[m]).T
        return out

    def demand(self, costs: np.ndarray) -> np.ndarray:
        """Jobs per user ``k * r**e``."""
        return (self.k * costs.T**self.e).T

    def bill(self, costs: np.ndarray, weights=1.0) -> np.ndarray:
        """What one user pays, ``A * r**q``, times ``weights`` (say, the counts)."""
        return (weights * self.A * costs.T**self.q).T

