"""Output checks, computed from the posted prices with the formulas in ``market``.

Each check returns a list of reasons; an empty list means the output
passed.  Nothing here calls ``cloudpricing``: the checks read what the
program wrote (CSV rows, SVG text, schedule JSON, solve results) and
recompute everything else.
"""

from __future__ import annotations

import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from market import Market, feasible, fairness, lowest_bundle_price, objective, outcome

#: The solver's stated accuracy: the barrier gap relative to max(1, |objective|).
SOLVER_TOL = 1e-6
#: Agreement between two evaluations of the same closed form in floating point.
FORMULA_RTOL = 1e-9
#: The bundled optimum sits at the capacity wall up to the solver's barrier gap.
BUNDLE_PRICE_RTOL = 1e-5
#: Accuracy the horizon solver documents for its price-scale bisection.
HORIZON_RTOL = 1e-6
#: How far below the posted price scale demand must become unschedulable.
HORIZON_PROBE = 1e-4


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)))
    )


def _slack(value: float) -> float:
    return SOLVER_TOL * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# priced markets: one sweep row or one solve


def check_priced(market: Market, plan: str, prices, nu: float, beta: float, claimed: dict) -> list:
    """Recompute a priced market and compare with what the program reported.

    ``claimed`` may hold ``utilities``, ``leftover``, ``revenue``, ``fairness``,
    ``costs``, ``demands`` and ``objective``; absent keys are not compared.
    """
    reasons = []
    prices = np.asarray(prices, float)
    if prices.size == 0 or not np.all(np.isfinite(prices)) or not np.all(prices > 0.0):
        return [f"prices not positive and finite: {prices}"]
    out = outcome(market, plan, prices)
    if not feasible(market, plan, out):
        reasons.append("plan infeasible or a net utility is not positive")
    if not np.all(out.utilities > 0.0):
        return reasons
    fair = fairness(out.utilities, market.counts, beta)
    recomputed = {
        "costs": out.costs,
        "demands": out.demands,
        "utilities": out.utilities,
        "revenue": out.revenue,
        "fairness": fair,
        "objective": nu * out.revenue + fair,
    }
    for key, mine in recomputed.items():
        if key in claimed and not _close(claimed[key], mine, FORMULA_RTOL):
            reasons.append(f"{key} {claimed[key]} differs from the closed form {mine}")
    if "leftover" in claimed:
        left = np.asarray(claimed["leftover"], float)
        if left.shape != out.leftover.shape or not np.all(
            np.abs(left - out.leftover) <= FORMULA_RTOL * market.caps
        ):
            reasons.append(f"leftover {left} differs from the closed form {out.leftover}")
    if plan == "bundled":
        floor = lowest_bundle_price(market)
        if abs(prices[0] - floor) > BUNDLE_PRICE_RTOL * floor:
            reasons.append(f"bundle price {prices[0]!r} is not the lowest feasible {floor!r}")
    return reasons


def check_split(fair: float, equitability: float, efficiency: float, beta: float) -> list:
    """equitability * efficiency = -((1 - beta) F)**(1/beta) for beta > 1."""
    expected = -(((1.0 - beta) * fair) ** (1.0 / beta))
    if not _close(equitability * efficiency, expected, FORMULA_RTOL):
        return [f"equitability*efficiency {equitability * efficiency!r} != {expected!r}"]
    return []


def check_dominance(resource_value: float, differentiated_value: float) -> list:
    """Every resource plan lifts to a differentiated plan with the same outcome."""
    floor = resource_value - _slack(resource_value) - _slack(differentiated_value)
    if differentiated_value < floor:
        return [
            f"differentiated objective {differentiated_value!r} below resource "
            f"{resource_value!r}"
        ]
    return []


def check_nondecreasing(previous: float, current: float) -> list:
    """Objective along a sweep whose feasible sets grow."""
    if current < previous - _slack(previous) - _slack(current):
        return [f"objective fell from {previous!r} to {current!r} as capacity grew"]
    return []


def check_neighbourhood(
    market: Market, plan: str, prices, nu: float, beta: float, rng: np.random.Generator,
    draws: int = 32, scale: float = 1e-3,
) -> list:
    """Feasible perturbations of about ``scale`` relative must not beat the optimum."""
    prices = np.asarray(prices, float)
    best = objective(market, plan, prices, nu, beta)
    for _ in range(draws):
        trial = prices * (1.0 + scale * rng.uniform(-1.0, 1.0, size=prices.size))
        if not feasible(market, plan, outcome(market, plan, trial), rtol=0.0):
            continue
        value = objective(market, plan, trial, nu, beta)
        if value > best + _slack(best):
            return [f"perturbed prices reach objective {value!r} above the optimum {best!r}"]
    return []


# ---------------------------------------------------------------------------
# sweep CSV and chart


SWEEP_HEADER = (
    "value,nu,gamma,plan,revenue,fairness,equitability,efficiency,"
    "utilities,leftover,prices,converged"
)


def parse_sweep_csv(text: str) -> list:
    """Rows as dicts; raises ValueError on a malformed file."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError("sweep CSV header differs from the documented columns")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 12:
            raise ValueError(f"sweep CSV row has {len(cells)} cells: {line!r}")
        row = {"value": float(cells[0]), "nu": float(cells[1]), "gamma": float(cells[2]),
               "plan": cells[3], "converged": cells[11] == "True"}
        if row["converged"]:
            for i, key in enumerate(("revenue", "fairness", "equitability", "efficiency"), 4):
                row[key] = float(cells[i])
            for i, key in enumerate(("utilities", "leftover", "prices"), 8):
                row[key] = [float(v) for v in cells[i].split(";")]
        rows.append(row)
    return rows


def check_sweep_rows(rows: list, market_at, beta: float, monotone: bool) -> list:
    """Per-row reasons for one sweep's rows.

    ``market_at(value)`` gives the swept market at a grid value.  With
    ``monotone`` the nu=0 resource and differentiated objectives must not
    fall as the value grows.
    """
    reasons = [[] for _ in rows]
    values = {}
    for i, row in enumerate(rows):
        if not row["converged"]:
            reasons[i].append("solver reported converged=False")
            continue
        market = market_at(row["value"])
        if row["gamma"] != market.gamma:
            reasons[i].append(f"gamma column {row['gamma']} != {market.gamma}")
        reasons[i] += check_priced(market, row["plan"], row["prices"], row["nu"], beta, row)
        reasons[i] += check_split(row["fairness"], row["equitability"], row["efficiency"], beta)
        if not reasons[i]:
            values[(row["value"], row["nu"], row["plan"])] = (
                i, objective(market, row["plan"], row["prices"], row["nu"], beta)
            )
    for (value, nu, plan), (i, diff) in values.items():
        if plan == "differentiated" and (value, nu, "resource") in values:
            reasons[i] += check_dominance(values[(value, nu, "resource")][1], diff)
    if monotone:
        for plan in ("resource", "differentiated"):
            points = sorted((v, entry) for (v, nu, p), entry in values.items()
                            if nu == 0.0 and p == plan)
            for (_, (_, before)), (_, (i, after)) in zip(points, points[1:]):
                reasons[i] += check_nondecreasing(before, after)
    return reasons


def check_svg(text: str) -> list:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"SVG does not parse as XML: {err}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag!r}"]
    return []


# ---------------------------------------------------------------------------
# deadline horizons


def _schedulable(problems: list) -> list:
    """HiGHS feasibility of processing every cohort's mass in its window.

    ``problems`` holds ``(markets, deadlines, masses)`` triples.  They are
    solved in a child process, so that ``scipy.optimize`` and HiGHS do not
    count in the peak memory of the process that runs the workload.
    """
    payload = [{"R": [mk.R.tolist() for mk in markets], "caps": [mk.caps.tolist() for mk in markets],
                "deadlines": deadlines, "masses": [np.asarray(m, float).tolist() for m in masses]}
               for markets, deadlines, masses in problems]
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          input=json.dumps(payload), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"HiGHS check exited with code {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def _highs_feasible(R: list, caps: list, deadlines: list, masses: list) -> bool:
    """One schedulability LP; runs in the child process of ``_schedulable``."""
    from scipy.optimize import linprog

    T, m = len(R), len(caps[0])
    columns = [(j, s, t) for s, row in enumerate(deadlines) for j, tau in enumerate(row)
               for t in range(s, tau)]
    A_eq = np.zeros((sum(len(row) for row in deadlines), len(columns)))
    A_ub = np.zeros((T * m, len(columns)))
    cohort = {}
    for s, row in enumerate(deadlines):
        for j in range(len(row)):
            cohort[(j, s)] = len(cohort)
    for c, (j, s, t) in enumerate(columns):
        A_eq[cohort[(j, s)], c] = 1.0
        A_ub[t * m:(t + 1) * m, c] = np.asarray(R[s])[:, j]
    b_eq = np.array([masses[s][j] for (j, s) in cohort])
    b_ub = np.concatenate([np.asarray(c, float) for c in caps])
    res = linprog(np.zeros(len(columns)), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return res.status == 0


def check_horizon(markets, deadlines, result: dict) -> list:
    """Checks on one ``schedule --out`` payload.

    ``markets[s]`` and ``deadlines[s][j]`` (1-based interval numbers) describe
    interval ``s + 1`` of the horizon.
    """
    T = len(markets)
    reasons = []
    prices = [np.asarray(p, float) for p in result.get("prices", [])]
    if len(prices) != T or any(p.size != mk.caps.size or not np.all(p > 0.0)
                               for p, mk in zip(prices, markets)):
        return ["posted prices missing, misshapen or not positive"]
    masses = [mk.counts * outcome(mk, "resource", p).demands for mk, p in zip(markets, prices)]
    delivered = [np.zeros(mk.n) for mk in markets]
    usage = np.zeros((T, markets[0].caps.size))
    for entry in result.get("schedule", []):
        j, s, t, amount = entry["type"], entry["submitted"], entry["processed"], entry["amount"]
        if not (1 <= s <= T and 0 <= j < markets[s - 1].n):
            reasons.append(f"schedule entry for unknown cohort {(j, s)}")
            continue
        if not amount >= 0.0:
            reasons.append(f"negative amount {amount} for cohort {(j, s)}")
        if not s <= t <= deadlines[s - 1][j]:
            reasons.append(f"cohort {(j, s)} processed in interval {t}, outside its window")
            continue
        delivered[s - 1][j] += amount
        usage[t - 1] += markets[s - 1].R[:, j] * amount
    for s in range(T):
        short = (masses[s] - delivered[s]) / masses[s]
        worst = int(np.argmax(short))
        if short[worst] > HORIZON_RTOL:
            reasons.append(
                f"interval {s + 1} {markets[s].labels[worst]} got {delivered[s][worst]:.9g} "
                f"of {masses[s][worst]:.9g} jobs ({short[worst]:.2e} short)"
            )
        over = usage[s] - markets[s].caps
        if np.any(over > FORMULA_RTOL * markets[s].caps):
            reasons.append(f"interval {s + 1} usage {usage[s]} exceeds capacity {markets[s].caps}")
    if result.get("price_scale", 1.0) > 1.0:
        lowered = [mk.counts * outcome(mk, "resource", p * (1.0 - HORIZON_PROBE)).demands
                   for mk, p in zip(markets, prices)]
        posted_ok, lowered_ok = _schedulable(
            [(markets, deadlines, masses), (markets, deadlines, lowered)])
        if not posted_ok:
            reasons.append("HiGHS finds the demand at the posted prices unschedulable")
        if lowered_ok:
            reasons.append("HiGHS schedules the demand at prices lowered by 1e-4: "
                           "the price scale is not minimal")
    return reasons


if __name__ == "__main__":
    # child side of _schedulable: problems as JSON on stdin, verdicts on stdout
    print(json.dumps([_highs_feasible(**problem) for problem in json.load(sys.stdin)]))

