"""Fairness measures over per-user net utilities.

Two related families are provided.  The single-parameter family

    F_beta(u) = (1/(1-beta)) * sum_j u_j**(1-beta),      beta > 0, beta != 1

grows "more fair" with beta (beta -> infinity approximates max-min).  The
two-parameter family factors fairness into equitability and efficiency:

    sgn(1-beta) * (sum_j u_j**(1-beta))**(1/beta) * (sum_j u_j)**(lam + 1 - 1/beta)

where ``lam`` weights total utility.  At ``lam = 1/beta - 1`` the two
families rank utility vectors identically.

All utilities must be strictly positive; callers are expected to exclude
users priced out of the market rather than pass zeros.  Large ``beta``
(>= 10) is evaluated in the log domain to avoid overflow in intermediates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FairnessSpec",
    "beta_fairness",
    "beta_lambda_fairness",
    "equitability_efficiency_split",
    "envy_free",
    "log_sum_exp",
    "pareto_probe",
]

#: betas at or above this are evaluated via log-sum-exp.
LOG_DOMAIN_BETA = 10.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class FairnessSpec:
    """Equitability exponent ``beta`` and efficiency exponent ``lam``."""

    beta: float
    lam: float

    def __post_init__(self) -> None:
        _check_beta(self.beta)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if beta == 1.0:
        raise ValueError("beta must be != 1: beta = 1 degenerates the power sum")


def _check_utilities(utilities, weights) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(utilities, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("utilities must be a non-empty one-dimensional vector")
    if not np.all(u > 0.0):
        raise ValueError(
            "all utilities must be strictly positive; exclude priced-out users upstream"
        )
    if weights is None:
        w = np.ones_like(u)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != u.shape or np.any(w <= 0.0):
            raise ValueError("weights must be positive and match utilities in shape")
    return u, w


def log_sum_exp(a: np.ndarray, weights: np.ndarray, axis=None):
    """log( sum w * exp(a) ) along ``axis``, shifted by the largest term.

    Subtracting the maximum keeps every exponential at most one, so nothing
    overflows; ``weights`` must be positive and broadcast against ``a``.
    """
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    total = (weights * np.exp(a - shift)).sum(axis=axis, keepdims=True)
    return (np.log(total) + shift).squeeze(axis=axis)


def _log_power_sum(u: np.ndarray, w: np.ndarray, beta: float) -> float:
    """log( sum_j w_j * u_j**(1-beta) ); from LOG_DOMAIN_BETA on, :func:`log_sum_exp` of vectors."""
    if beta >= LOG_DOMAIN_BETA:
        return float(log_sum_exp((1.0 - beta) * np.log(u), w))
    return math.log(float((w * u ** (1.0 - beta)).sum()))


def beta_fairness(utilities, beta: float, weights=None) -> float:
    """Power-sum fairness (1/(1-beta)) * sum_j u_j**(1-beta).

    ``weights`` replicate entries (a weight of 8 counts a utility eight
    times), which avoids materializing one entry per identical user.
    """
    _check_beta(beta)
    u, w = _check_utilities(utilities, weights)
    return _power_fairness(u, w, beta)


def _power_fairness(u: np.ndarray, w: np.ndarray, beta: float) -> float:
    """:func:`beta_fairness` of inputs it would accept, as float vectors, unchecked."""
    if beta >= LOG_DOMAIN_BETA:
        log_total = _log_power_sum(u, w, beta)
        if log_total > _LOG_FLOAT_MAX:
            # the sum is past the float range, but its quotient may not be;
            # -inf beyond it, as in the direct branch
            log_quotient = log_total - math.log(beta - 1.0)
            return -math.exp(log_quotient) if log_quotient <= _LOG_FLOAT_MAX else -math.inf
        total = math.exp(log_total)
    else:
        total = float((w * u ** (1.0 - beta)).sum())
    return total / (1.0 - beta)


def beta_lambda_fairness(utilities, spec: FairnessSpec, weights=None) -> float:
    """Equitability-efficiency fairness of a positive utility vector."""
    u, w = _check_utilities(utilities, weights)
    beta, lam = spec.beta, spec.lam
    sign = 1.0 if beta < 1.0 else -1.0
    log_total = math.log(float(np.sum(w * u)))
    log_equity = _log_power_sum(u, w, beta) / beta
    return sign * math.exp(log_equity + (lam + 1.0 - 1.0 / beta) * log_total)


def equitability_efficiency_split(
    utilities, spec: FairnessSpec, weights=None
) -> tuple[float, float]:
    """Factor the two-parameter fairness into (equitability, efficiency).

    Efficiency is ``(sum u)**lam``; equitability is the remaining
    scale-invariant factor.  Their product equals
    :func:`beta_lambda_fairness`.
    """
    u, w = _check_utilities(utilities, weights)
    beta, lam = spec.beta, spec.lam
    sign = 1.0 if beta < 1.0 else -1.0
    log_total = math.log(float(np.sum(w * u)))
    log_power = _log_power_sum(u, w, beta)
    equitability = sign * math.exp(log_power / beta + (1.0 - 1.0 / beta) * log_total)
    efficiency = math.exp(lam * log_total)
    return equitability, efficiency


def _jobs_processable(allocation: np.ndarray, requirements: np.ndarray, mode: str) -> float:
    positive = requirements > 0.0
    if not np.any(positive):
        if mode == "min":
            raise ValueError("a user with an all-zero requirement row has no job size")
        return math.inf
    ratios = allocation[positive] / requirements[positive]
    return float(np.min(ratios) if mode == "min" else np.max(ratios))


def envy_free(allocations, requirements, mode: str = "min", strict: bool = False) -> bool:
    """Whether no user could process more jobs with another user's allocation.

    ``allocations`` and ``requirements`` are (users x resources) arrays.  A
    job needs all of its resources at once, so the jobs processable from an
    allocation default to the minimum ratio over required resources
    (``mode="min"``); ``mode="max"`` uses the most-abundant ratio instead.
    With ``strict=True`` a user must strictly prefer its own allocation.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    alloc = np.asarray(allocations, dtype=float)
    req = np.asarray(requirements, dtype=float)
    if alloc.shape != req.shape or alloc.ndim != 2:
        raise ValueError("allocations and requirements must be equal-shape 2-d arrays")
    if np.any(alloc < 0.0) or np.any(req < 0.0):
        raise ValueError("allocations and requirements must be nonnegative")
    n = alloc.shape[0]
    for j in range(n):
        own = _jobs_processable(alloc[j], req[j], mode)
        for k in range(n):
            if j == k:
                continue
            swapped = _jobs_processable(alloc[k], req[j], mode)
            if (own < swapped) or (strict and own <= swapped):
                return False
    return True


def pareto_probe(spec: FairnessSpec, u, v, weights=None) -> bool:
    """Whether fairness strictly increases from ``v`` to a dominating ``u``.

    Requires ``u`` to Pareto-dominate ``v`` (componentwise >= with at least
    one strict improvement); rejects non-dominating pairs.
    """
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    if ua.shape != va.shape:
        raise ValueError("u and v must have the same shape")
    if not (np.all(ua >= va) and np.any(ua > va)):
        raise ValueError("u must Pareto-dominate v (>= everywhere, > somewhere)")
    return beta_lambda_fairness(ua, spec, weights) > beta_lambda_fairness(va, spec, weights)
