"""Markets and the paper's closed forms, written apart from ``cloudpricing``.

The benchmark builds every input from its own seeded generators and checks
every output against these formulas, so a change to the library can change
neither what is measured nor what counts as correct.

A market has ``m`` resources with capacities ``caps`` and ``n`` user types.
Type ``j`` has ``counts[j]`` identical users, a per-job requirement column
``R[:, j]`` and the isoelastic utility ``U(x) = c x**(1-alpha) / (1-alpha)``.
A user facing the per-job cost ``r`` under the volume discount ``gamma``
pays ``r x**gamma`` for ``x`` jobs, so stationarity ``c x**-alpha =
gamma r x**(gamma-1)`` gives the demand ``x = (c / (gamma r))**(1/(alpha+gamma-1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PLANS = ("bundled", "resource", "differentiated")


@dataclass(frozen=True, eq=False)
class Market:
    names: tuple
    caps: np.ndarray  # (m,)
    labels: tuple
    counts: np.ndarray  # (n,)
    alphas: np.ndarray  # (n,)
    cs: np.ndarray  # (n,)
    R: np.ndarray  # (m, n) requirements, one column per type
    gamma: float

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_json(self) -> dict:
        """The instance-file layout that ``cloudpricing`` reads."""
        return {
            "resources": [{"name": n, "capacity": float(c)} for n, c in zip(self.names, self.caps)],
            "user_types": [
                {
                    "label": label,
                    "count": int(self.counts[j]),
                    "alpha": float(self.alphas[j]),
                    "c": float(self.cs[j]),
                    "requirements": [float(v) for v in self.R[:, j]],
                }
                for j, label in enumerate(self.labels)
            ],
            "gamma": float(self.gamma),
        }


def reference_market(memory: float = 6.0) -> Market:
    """The paper's three-type market clustered from the Google cluster trace."""
    return Market(
        names=("cpu", "mem"),
        caps=np.array([6.0, memory]),
        labels=("type1", "type2", "type3"),
        counts=np.array([1.0, 8.0, 1.0]),
        alphas=np.array([0.4, 0.7, 0.5]),
        cs=np.ones(3),
        R=np.array([[0.4, 0.01, 0.6], [2.7, 0.02, 0.5]]),
        gamma=1.0,
    )


def random_market(rng: np.random.Generator, n: int, m: int = 3) -> Market:
    """A random market drawn with the distributions of ``synth.random_instance``.

    alpha ~ U(0.25, 0.75); gamma ~ U(f + 0.1 (1 - f), 1) with f = 1 - min alpha;
    requirements ~ U(0.1, 3); capacities ~ U(2, 10); counts in 1..5; c ~ U(0.5, 2).
    """
    alphas = rng.uniform(0.25, 0.75, size=n)
    floor = 1.0 - float(np.min(alphas))
    gamma = float(rng.uniform(floor + 0.1 * (1.0 - floor), 1.0))
    requirements = rng.uniform(0.1, 3.0, size=(n, m))
    caps = rng.uniform(2.0, 10.0, size=m)
    counts, cs = [], []
    for _ in range(n):
        counts.append(int(rng.integers(1, 6)))
        cs.append(float(rng.uniform(0.5, 2.0)))
    return Market(
        names=tuple(f"r{i}" for i in range(m)),
        caps=caps,
        labels=tuple(f"type{j + 1}" for j in range(n)),
        counts=np.array(counts, float),
        alphas=alphas,
        cs=np.array(cs),
        R=requirements.T.copy(),
        gamma=gamma,
    )


def mix_counts(n: int, target: int, fraction: float, population: int) -> list:
    """Populations of a mix sweep point, by the rule ``cloudpricing sweep`` documents.

    The swept type gets ``fraction`` of the population; with three or more
    types the last keeps 10%; the others split the rest evenly; every type
    keeps at least one user.
    """
    shares = [0.0] * n
    shares[target] = fraction
    rest = 1.0 - fraction
    if n >= 3:
        shares[-1] = 0.1
        rest -= 0.1
        others = [i for i in range(n - 1) if i != target]
    else:
        others = [i for i in range(n) if i != target]
    for i in others:
        shares[i] = max(rest, 0.0) / max(len(others), 1)
    return [max(1, round(s * population)) for s in shares]


# ---------------------------------------------------------------------------
# closed forms


def bundle_sizes(market: Market) -> np.ndarray:
    """Bundles per job with the capacity vector as the bundle: max_i R_ij / cap_i."""
    return np.max(market.R / market.caps[:, None], axis=0)


def per_job_costs(market: Market, plan: str, prices) -> np.ndarray:
    p = np.asarray(prices, float)
    if plan == "bundled":
        return bundle_sizes(market) ** market.gamma * p[0]
    if plan == "resource":
        return (market.R**market.gamma).T @ p
    if plan == "differentiated":
        return p.copy()
    raise ValueError(f"unknown plan {plan!r}")


def demands(market: Market, costs) -> np.ndarray:
    exponent = 1.0 / (market.alphas + market.gamma - 1.0)
    return (market.cs / (market.gamma * np.asarray(costs, float))) ** exponent


def net_utilities(market: Market, costs, jobs) -> np.ndarray:
    value = market.cs * jobs ** (1.0 - market.alphas) / (1.0 - market.alphas)
    return value - np.asarray(costs, float) * jobs**market.gamma


def fairness(utilities, counts, beta: float) -> float:
    """Count-weighted F_beta = sum_j w_j u_j**(1-beta) / (1-beta), summed in logs."""
    terms = (1.0 - beta) * np.log(utilities) + np.log(counts)
    top = float(np.max(terms))
    return math.exp(top + math.log(float(np.sum(np.exp(terms - top))))) / (1.0 - beta)


@dataclass(frozen=True, eq=False)
class Outcome:
    costs: np.ndarray
    demands: np.ndarray
    utilities: np.ndarray
    usage: np.ndarray
    leftover: np.ndarray
    revenue: float
    bundle_load: float  # bundles used over bundles available (bundled plan)


def outcome(market: Market, plan: str, prices) -> Outcome:
    r = per_job_costs(market, plan, prices)
    x = demands(market, r)
    usage = market.R @ (market.counts * x)
    return Outcome(
        costs=r,
        demands=x,
        utilities=net_utilities(market, r, x),
        usage=usage,
        leftover=market.caps - usage,
        revenue=float(np.sum(market.counts * r * x**market.gamma)),
        bundle_load=float(np.sum(market.counts * bundle_sizes(market) * x)),
    )


def feasible(market: Market, plan: str, out: Outcome, rtol: float = 1e-9) -> bool:
    """Capacity holds (and the bundle count, for bundled plans) with positive utilities."""
    ok = bool(np.all(out.usage <= market.caps * (1.0 + rtol)) and np.all(out.utilities > 0.0))
    if plan == "bundled":
        ok = ok and out.bundle_load <= 1.0 + rtol
    return ok


def objective(market: Market, plan: str, prices, nu: float, beta: float) -> float:
    out = outcome(market, plan, prices)
    return nu * out.revenue + fairness(out.utilities, market.counts, beta)


def lowest_bundle_price(market: Market) -> float:
    """Bundle price at which bundle demand exactly fills the available bundles.

    Demand falls in the price, so the feasible prices are a half-line and
    this is its end; bisection in log price to 1e-13 relative.
    """

    def load(price: float) -> float:
        return outcome(market, "bundled", [price]).bundle_load

    lo = hi = 1.0
    for _ in range(2000):
        if load(lo) > 1.0:
            break
        lo /= 2.0
    for _ in range(2000):
        if load(hi) <= 1.0:
            break
        hi *= 2.0
    if not load(lo) > 1.0 >= load(hi):
        raise ValueError("no bundle price brackets the available bundles")
    while hi - lo > 1e-13 * hi:
        mid = math.sqrt(lo * hi)
        if load(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi
