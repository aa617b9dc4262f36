"""Synthetic markets and traces for experiments and verification.

Provides the three-type reference market derived from clustering a public
Google cluster workload trace, a seeded random-instance generator, feasible
price sampling, and a planted-cluster trace generator for exercising the
ingestion pipeline end to end.
"""

from __future__ import annotations

import numpy as np

from .demand import UtilityParams
from .pricing import Instance, ResourceModel, UserType
from .trace import TaskRecord

__all__ = [
    "google_cluster_instance",
    "random_instance",
    "sample_feasible_prices",
    "planted_trace",
]


def google_cluster_instance(memory_capacity: float = 6.0, gamma: float = 1.0) -> Instance:
    """Three-type market distilled from a public Google cluster trace.

    Type 1 jobs are memory-heavy (0.4 CPU, 2.7 memory per job), type 2 jobs
    are tiny (0.01, 0.02), and type 3 jobs are CPU-leaning (0.6, 0.5); the
    population is 1/8/1 users.  CPU capacity is fixed at 6 units and the
    memory capacity is a parameter so capacity sweeps can reuse this market.
    """
    resources = ResourceModel(names=("cpu", "mem"), capacities=(6.0, memory_capacity))
    user_types = (
        UserType("type1", 1, (0.4, 2.7), UtilityParams(alpha=0.4, c=1.0)),
        UserType("type2", 8, (0.01, 0.02), UtilityParams(alpha=0.7, c=1.0)),
        UserType("type3", 1, (0.6, 0.5), UtilityParams(alpha=0.5, c=1.0)),
    )
    return Instance(resources=resources, user_types=user_types, discount=gamma)


def random_instance(
    rng: np.random.Generator,
    m: int | None = None,
    n: int | None = None,
    gamma: float | None = None,
) -> Instance:
    """A small random market with valid demand parameters.

    Elasticities alpha are uniform on [0.25, 0.75] and populations on 1..5.
    The discount is drawn above ``1 - min(alpha)`` with a safety margin so
    every type's demand is well-defined and strictly price-elastic.
    """
    m = int(rng.integers(1, 4)) if m is None else m
    n = int(rng.integers(1, 4)) if n is None else n
    alphas = rng.uniform(0.25, 0.75, size=n)
    if gamma is None:
        floor = 1.0 - float(np.min(alphas))
        gamma = float(rng.uniform(floor + 0.1 * (1.0 - floor), 1.0))
    requirements = rng.uniform(0.1, 3.0, size=(n, m))
    resources = ResourceModel(
        names=tuple(f"r{i}" for i in range(m)),
        capacities=rng.uniform(2.0, 10.0, size=m),
    )
    user_types = tuple(
        UserType(
            label=f"type{j + 1}",
            count=int(rng.integers(1, 6)),
            requirements=requirements[j],
            utility=UtilityParams(alpha=float(alphas[j]), c=float(rng.uniform(0.5, 2.0))),
        )
        for j in range(n)
    )
    return Instance(resources=resources, user_types=user_types, discount=gamma)


def sample_feasible_prices(
    instance: Instance,
    plan_kind: str,
    rng: np.random.Generator,
    count: int,
    bundle=None,
    load_target: float = 0.9,
) -> list[np.ndarray]:
    """Strictly feasible price vectors with positive net utilities.

    Finds the uniform price level where the binding usage ratio hits
    ``load_target``, then scales each coordinate up by independent random
    factors.  Usage falls in every price, so the samples stay feasible.
    """
    from .optimizer import _PriceProblem

    problem = _PriceProblem(instance, plan_kind, bundle)
    base = problem.level_for_load(load_target)
    samples = []
    while len(samples) < count:
        factors = 1.0 + rng.exponential(0.5, size=problem.dim)
        prices = base * factors
        costs = problem.costs(prices)
        utils = problem.kernel(costs)
        if np.all(problem.slacks(costs) > 0.0) and np.all(utils > 0.0):
            samples.append(prices)
    return samples


def planted_trace(centers, jobs_per_cluster: int, noise: float, seed: int = 0) -> list[TaskRecord]:
    """Task records whose per-job totals cluster around the given centers.

    Each job's total usage is its center plus Gaussian noise, split across a
    random number of tasks (1 to 4) and time intervals (0 to 2) so
    aggregation has real work to do.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    records: list[TaskRecord] = []
    job_counter = 0
    for center in centers:
        for _ in range(jobs_per_cluster):
            total = np.maximum(center + rng.normal(0.0, noise, size=center.size), 1e-6)
            job_id = f"job{job_counter:05d}"
            job_counter += 1
            n_tasks = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(n_tasks))
            for task_idx, weight in enumerate(weights):
                records.append(
                    TaskRecord(
                        time=int(rng.integers(0, 3)),
                        job_id=job_id,
                        task_id=f"t{task_idx}",
                        cpu=float(total[0] * weight),
                        mem=float(total[1] * weight),
                    )
                )
    return records
