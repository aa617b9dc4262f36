"""Market instances and the three pricing plans.

An :class:`Instance` is a market: resource capacities, user types (each a
population of identical clients with a per-job resource requirement column
and an isoelastic utility), and a volume-discount exponent.  A pricing plan
maps to a per-job cost for every type:

* bundled      -- one price ``p`` for a fixed resource bundle ``b``; a job
                  needs ``mu = max_i R_i / b_i`` bundles, so costs ``mu**gamma * p``;
* resource     -- a unit price per resource; a job costs ``sum_i p_i * R_i**gamma``;
* differentiated -- an operator-chosen per-type job price.

Billing is discounted (``r * x**gamma``) but physical usage is not: capacity
is consumed at ``R_ij * x_j`` regardless of the discount.

Each kind's price space is defined once, by :func:`plan_structure`: a matrix
``D`` with per-job costs ``D @ prices`` (none for differentiated plans, whose
prices are the costs) and capacity rows ``G @ x <= limits`` on the
per-client demands ``x``.  Plan evaluation and the price optimizer both
read it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .demand import NetUtilityKernel, UtilityParams, _check_demand_law, _demand_law_violations

__all__ = [
    "ResourceModel",
    "UserType",
    "Instance",
    "BundledPlan",
    "ResourcePlan",
    "DifferentiatedPlan",
    "PricingPlan",
    "PLAN_KINDS",
    "plan_structure",
    "Outcome",
    "bundle_requirement",
    "per_job_cost",
    "evaluate",
    "dominant_info",
    "lift_resource_to_differentiated",
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
]

#: Absolute slack allowed when comparing usage against capacity.
FEASIBILITY_ATOL = 1e-9

#: The pricing plans, in the order the command line lists them.
PLAN_KINDS = ("bundled", "resource", "differentiated")


def _check_plan_kind(plan_kind: str) -> None:
    if plan_kind not in PLAN_KINDS:
        raise ValueError(f"plan kind must be one of {PLAN_KINDS}, got {plan_kind!r}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _freeze(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return _read_only(arr)


@dataclass(frozen=True, eq=False)
class ResourceModel:
    """Named resources and their strictly positive capacities."""

    names: tuple[str, ...]
    capacities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "capacities", _freeze(self.capacities, "capacities"))
        if len(self.names) != self.capacities.size or not self.names:
            raise ValueError("need at least one resource, with one capacity per name")
        if not np.all((self.capacities > 0.0) & (self.capacities < np.inf)):
            raise ValueError(
                f"capacities must be finite and strictly positive, got {self.capacities}"
            )

    @property
    def m(self) -> int:
        return len(self.names)


@dataclass(frozen=True, eq=False)
class UserType:
    """A population of ``count`` identical clients.

    ``requirements[i]`` is the amount of resource ``i`` one job consumes;
    at least one entry must be positive.
    """

    label: str
    count: int
    requirements: np.ndarray
    utility: UtilityParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "requirements", _freeze(self.requirements, "requirements"))
        # Instance.counts holds the counts as floats
        if not (1 <= self.count <= sys.float_info.max and int(self.count) == self.count):
            raise ValueError(f"count must be a positive integer in float range, got {self.count}")
        req = self.requirements  # NaN fails both comparisons, as min and max propagate it
        if not (req.size and req.min() >= 0.0 and 0.0 < req.max() < np.inf):
            raise ValueError(
                f"requirements must be finite and nonnegative with at least one positive "
                f"entry, got {req}"
            )


@dataclass(frozen=True, eq=False)
class Instance:
    """A market: resources, user types, and the volume discount.

    Its per-type columns and kernel are built on first use and kept, read-only."""

    resources: ResourceModel
    user_types: tuple[UserType, ...]
    discount: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "user_types", tuple(self.user_types))
        if not self.user_types:
            raise ValueError("need at least one user type")
        if not (0.0 < self.discount <= 1.0):
            raise ValueError(f"discount must lie in (0, 1], got {self.discount}")
        cs = np.array([u.utility.c for u in self.user_types])
        violations = _demand_law_violations(self.alphas, cs, self.discount).tolist()
        for j, user in enumerate(self.user_types):
            if user.requirements.size != self.resources.m:
                raise ValueError(
                    f"user_types[{j}].requirements: expected {self.resources.m} entries, "
                    f"got {user.requirements.size}"
                )
            if violations[j]:
                try:
                    _check_demand_law(user.utility, self.discount)
                except ValueError as err:
                    raise ValueError(f"user_types[{j}]: {err}") from None

    @property
    def n(self) -> int:
        return len(self.user_types)

    @property
    def m(self) -> int:
        return self.resources.m

    @cached_property
    def requirement_matrix(self) -> np.ndarray:
        """Resources-by-types matrix R with R[i, j] = requirements of type j."""
        return _read_only(np.column_stack([u.requirements for u in self.user_types]))

    @cached_property
    def counts(self) -> np.ndarray:
        return _read_only(np.array([u.count for u in self.user_types], dtype=float))

    @cached_property
    def alphas(self) -> np.ndarray:
        return _read_only(np.array([u.utility.alpha for u in self.user_types]))

    @cached_property
    def _kernel(self) -> NetUtilityKernel:
        return NetUtilityKernel([u.utility for u in self.user_types], self.discount)

    def utility_kernel(self) -> NetUtilityKernel:
        """Per-type demand, bill and net utility as power laws of the per-job cost."""
        return self._kernel


class _Plan:
    """Per-job costs ``D @ prices`` on the plan kind's :func:`plan_structure`."""

    def per_job_costs(self, instance: Instance) -> np.ndarray:
        D, _, _ = plan_structure(instance, self.kind, self.bundle)
        expected = instance.n if D is None else D.shape[1]
        if self.prices.size != expected:
            raise ValueError(f"expected {expected} {self.kind} prices, got {self.prices.size}")
        costs = self.prices.copy() if D is None else D @ self.prices
        if np.any(costs <= 0.0):
            j = int(np.argmax(costs <= 0.0))
            raise ValueError(
                f"user_types[{j}] ({instance.user_types[j].label}) has zero per-job "
                f"cost under these {self.kind} prices; its demand would be unbounded"
            )
        return costs


@dataclass(frozen=True, eq=False)
class BundledPlan(_Plan):
    """One unit price for a fixed bundle of resources."""

    bundle: np.ndarray
    price: float
    kind = "bundled"

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundle", _bundle_entries(self.bundle))
        if not self.price > 0.0:
            raise ValueError(f"bundle price must be positive, got {self.price}")

    @property
    def prices(self) -> np.ndarray:
        """The bundle price as a one-entry price vector."""
        return np.array([float(self.price)])


@dataclass(frozen=True, eq=False)
class ResourcePlan(_Plan):
    """An independent unit price per resource."""

    prices: np.ndarray
    kind = "resource"
    bundle = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prices", _freeze(self.prices, "prices"))
        if np.any(self.prices < 0.0) or not np.any(self.prices > 0.0):
            raise ValueError(
                f"resource prices must be nonnegative with at least one positive, "
                f"got {self.prices}"
            )


@dataclass(frozen=True, eq=False)
class DifferentiatedPlan(_Plan):
    """An operator-chosen per-type job price."""

    prices: np.ndarray
    kind = "differentiated"
    bundle = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prices", _freeze(self.prices, "prices"))
        if not np.all(self.prices > 0.0):
            raise ValueError(f"differentiated prices must be positive, got {self.prices}")


PricingPlan = Union[BundledPlan, ResourcePlan, DifferentiatedPlan]


@dataclass(frozen=True, eq=False)
class Outcome:
    """Evaluation of a plan on an instance.

    ``usage`` and ``leftover`` are physical (undiscounted); ``revenue`` is
    billed (discounted).  ``feasible`` reflects the plan's own capacity
    rows (:func:`plan_structure`): the capacity vector for resource and
    differentiated plans, the bundle count for bundled plans.
    """

    demands: np.ndarray
    per_job_costs: np.ndarray
    net_utilities: np.ndarray
    revenue: float
    usage: np.ndarray
    leftover: np.ndarray
    feasible: bool


def _bundle_entries(bundle) -> np.ndarray:
    """The bundle rule: finite, strictly positive entries, as a frozen vector."""
    b = _freeze(bundle, "bundle")
    if not np.all((b > 0.0) & (b < np.inf)):
        raise ValueError(f"bundle entries must be finite and strictly positive, got {b}")
    return b


def _check_bundle(bundle, m: int) -> np.ndarray:
    b = _bundle_entries(bundle)
    if b.size != m:
        raise ValueError(f"bundle has {b.size} entries, requirements {m}")
    return b


def bundle_requirement(user: UserType, bundle) -> float:
    """Bundles needed per job: max_i requirements[i] / bundle[i]."""
    return float(np.max(user.requirements / _check_bundle(bundle, user.requirements.size)))


def plan_structure(
    instance: Instance, kind: str, bundle=None
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Cost map and capacity rows of a plan kind's price space.

    Returns ``(D, G, limits)``: the per-job costs of prices ``p`` are
    ``D @ p``, and per-client demands ``x`` fit iff ``G @ x <= limits``.
    A bundled plan (``bundle`` defaults to the capacities) has one price,
    ``mu_j**gamma`` bundles' worth of cost per job and one row, the bundle
    count; resource and differentiated plans have one price per resource or
    per type and one row per resource.  A differentiated plan's prices are
    its per-job costs, so its ``D`` (the identity) is ``None``.
    """
    _check_plan_kind(kind)
    R = instance.requirement_matrix
    counts = instance.counts
    capacities = instance.resources.capacities
    if kind == "bundled":
        b = capacities if bundle is None else _check_bundle(bundle, instance.m)
        mu = np.max(R / b[:, None], axis=0)
        limits = np.array([float(np.min(capacities / b))])
        return (mu**instance.discount)[:, None], (counts * mu)[None, :], limits
    D = (R**instance.discount).T if kind == "resource" else None
    return D, R * counts[None, :], capacities.copy()


def per_job_cost(instance: Instance, plan: PricingPlan, user_index: int) -> float:
    """Per-job cost of one user type under the plan."""
    return float(plan.per_job_costs(instance)[user_index])


def evaluate(instance: Instance, plan: PricingPlan) -> Outcome:
    """Demands, utilities, usage, and revenue induced by a plan.

    Never raises on an over-capacity plan; infeasibility is recorded in the
    ``feasible`` flag so that searches can step through infeasible points.
    """
    costs = plan.per_job_costs(instance)
    _, G, limits = plan_structure(instance, plan.kind, plan.bundle)
    kernel = instance.utility_kernel()
    demands = kernel.demand(costs)
    # a log-utility type whose interior optimum loses money opts out: its
    # surplus is reported as 0, as demand.net_utility does
    utilities = np.maximum(kernel(costs), 0.0)
    counts = instance.counts
    usage = instance.requirement_matrix @ (counts * demands)
    return Outcome(
        demands=demands,
        per_job_costs=costs,
        net_utilities=utilities,
        revenue=float(np.sum(kernel.bill(costs, counts))),
        usage=usage,
        leftover=instance.resources.capacities - usage,
        feasible=bool(np.all(G @ demands <= limits + FEASIBILITY_ATOL)),
    )


def dominant_info(user: UserType, resources: ResourceModel, demand: float) -> tuple[int, float]:
    """Dominant resource index and dominant share at the given demand.

    The dominant resource maximizes ``requirements[i] / capacity[i]``; ties
    break to the lowest index.  The share is that ratio times the demand.
    """
    ratios = user.requirements / resources.capacities
    index = int(np.argmax(ratios))
    return index, float(ratios[index] * demand)


def lift_resource_to_differentiated(instance: Instance, plan: ResourcePlan) -> DifferentiatedPlan:
    """Differentiated plan charging each type its resource-plan job cost.

    The per-job cost of every type is unchanged, so demands, utilities,
    usage, and revenue are identical to the resource plan's.
    """
    if not isinstance(plan, ResourcePlan):
        raise TypeError(f"expected a ResourcePlan, got {type(plan).__name__}")
    return DifferentiatedPlan(prices=plan.per_job_costs(instance))


# ---------------------------------------------------------------------------
# JSON interface


def instance_to_json(instance: Instance) -> dict:
    """Plain-dict form of an instance (stable field order)."""
    return {
        "resources": [
            {"name": name, "capacity": float(cap)}
            for name, cap in zip(instance.resources.names, instance.resources.capacities)
        ],
        "user_types": [
            {
                "label": u.label,
                "count": int(u.count),
                "alpha": float(u.utility.alpha),
                "c": float(u.utility.c),
                "requirements": [float(v) for v in u.requirements],
            }
            for u in instance.user_types
        ],
        "gamma": float(instance.discount),
    }


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValueError(f"{path}.{key}: missing field")
    return obj[key]


def _number(value, path: str, index=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        where = path if index is None else f"{path}[{index}]"
        raise ValueError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{path}: expected a string, got {value!r}")
    return value


def _user_type(raw) -> UserType:
    """One ``user_types`` entry; errors name the field by its path inside the
    entry, which the caller prefixes, so no path is formatted unless raised."""
    if not isinstance(raw, dict):
        raise ValueError(": expected an object")
    label = _string(_require(raw, "label", ""), ".label")
    count = _require(raw, "count", "")
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f".count: expected a positive integer, got {count!r}")
    alpha = _number(_require(raw, "alpha", ""), ".alpha")
    c = _number(_require(raw, "c", ""), ".c")
    reqs = _require(raw, "requirements", "")
    if not isinstance(reqs, list):
        raise ValueError(".requirements: expected a list")
    reqs = [_number(v, ".requirements", i) for i, v in enumerate(reqs)]
    try:
        return UserType(label, count, reqs, UtilityParams(alpha=alpha, c=c))
    except ValueError as err:
        raise ValueError(f": {err}") from None


def instance_from_json(obj: dict) -> Instance:
    """Parse and validate an instance, naming the offending field on errors."""
    if not isinstance(obj, dict):
        raise ValueError("instance: expected a JSON object")
    resources = _require(obj, "resources", "instance")
    if not isinstance(resources, list) or not resources:
        raise ValueError("instance.resources: expected a non-empty list")
    names, capacities = [], []
    for i, res in enumerate(resources):
        path = f"resources[{i}]"
        if not isinstance(res, dict):
            raise ValueError(f"{path}: expected an object")
        names.append(_string(_require(res, "name", path), f"{path}.name"))
        cap = _number(_require(res, "capacity", path), f"{path}.capacity")
        if not 0.0 < cap < np.inf:
            raise ValueError(f"{path}.capacity: must be finite and strictly positive, got {cap}")
        capacities.append(cap)

    raw_types = _require(obj, "user_types", "instance")
    if not isinstance(raw_types, list) or not raw_types:
        raise ValueError("instance.user_types: expected a non-empty list")
    gamma = _number(_require(obj, "gamma", "instance"), "instance.gamma")

    user_types = []
    for j, raw in enumerate(raw_types):
        try:
            user_types.append(_user_type(raw))
        except ValueError as err:
            raise ValueError(f"user_types[{j}]{err}") from None

    try:
        return Instance(
            resources=ResourceModel(names=tuple(names), capacities=capacities),
            user_types=tuple(user_types),
            discount=gamma,
        )
    except ValueError as err:
        raise ValueError(f"instance: {err}") from None


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_json(instance), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
