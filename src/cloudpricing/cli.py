"""Command-line front end.

Subcommands: ``optimize`` a single instance, ``sweep`` a parameter range and
emit CSV (plus optional SVG), ``ingest`` a workload trace into an instance
file, ``verify`` the library's numeric properties, and ``schedule`` a
deadline horizon.  Exit codes: 0 success, 1 input error, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from .charts import render_contours
from .deadline import load_horizon_spec, solve_horizon
from .fairness import FairnessSpec, beta_fairness, equitability_efficiency_split
from .optimizer import (
    ObjectiveSpec,
    SolveResult,
    _check_tolerance,
    barrier_optimize,
)
from .pricing import (
    PLAN_KINDS,
    Instance,
    ResourceModel,
    UserType,
    _check_plan_kind,
    load_instance,
    save_instance,
)
from .trace import (
    aggregate_and_filter,
    build_instance,
    cluster_report,
    kmeans,
    parse_trace,
    trace_statistics,
)
from .verify import SCOPES, run_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2

SWEEP_COLUMNS = (
    "value,nu,gamma,plan,revenue,fairness,equitability,efficiency,"
    "utilities,leftover,prices,converged"
)


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _fmt_vec(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def _result_payload(instance: Instance, result: SolveResult, beta: float) -> dict:
    outcome = result.outcome
    fairness = beta_fairness(outcome.net_utilities, beta, weights=instance.counts)
    return {
        "plan": result.plan.kind,
        "prices": [float(v) for v in result.plan.prices],
        "objective": result.objective_value,
        "revenue": outcome.revenue,
        "fairness": fairness,
        "demands": [float(v) for v in outcome.demands],
        "net_utilities": [float(v) for v in outcome.net_utilities],
        "usage": [float(v) for v in outcome.usage],
        "leftover": [float(v) for v in outcome.leftover],
        "converged": result.converged,
        "gap": result.gap,
        "iterations": result.iterations,
    }


def _cmd_optimize(args) -> int:
    if args.bundle is not None and args.plan != "bundled":
        raise ValueError(f"--bundle applies only to --plan bundled, not {args.plan}")
    instance = load_instance(args.instance)
    if args.gamma is not None:
        instance = replace(instance, discount=args.gamma)
    spec = ObjectiveSpec(nu=args.nu, beta=args.beta)
    bundle = np.array(_floats(args.bundle)) if args.bundle else None
    result = barrier_optimize(instance, args.plan, spec, args.tol, bundle=bundle)
    payload = _result_payload(instance, result, args.beta)

    print(f"plan: {args.plan}")
    print(f"prices: {' '.join(f'{p:.6g}' for p in payload['prices'])}")
    for user, x, u in zip(instance.user_types, payload["demands"], payload["net_utilities"]):
        print(f"  {user.label}: jobs={x:.6g} net_utility={u:.6g}")
    print(f"revenue: {payload['revenue']:.6g}")
    print(f"fairness (beta={args.beta:g}): {payload['fairness']:.6g}")
    print(f"objective (nu={args.nu:g}): {payload['objective']:.6g}")
    for name, left in zip(instance.resources.names, payload["leftover"]):
        print(f"leftover {name}: {left:.6g}")
    print(f"converged: {result.converged} (gap {result.gap:.3g})")
    if result.message:
        print(f"note: {result.message}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _mix_counts(n: int, target: int, fraction: float, population: int) -> list[int]:
    """Integer populations for a mix sweep.

    Type ``target`` receives ``fraction`` of the population.  With three or
    more types the last type's share stays fixed at 10%; the remaining types
    split what is left evenly.  Every type keeps at least one user.
    """
    fixed = n >= 3  # the last type's share stays at 10%
    rest = 1.0 - fraction - 0.1 * fixed
    if fraction < 0.0 or rest < -1e-9:
        raise ValueError(f"mix sweep: share {fraction} lies outside [0, {1.0 - 0.1 * fixed:g}]")
    others = [i for i in range(n - fixed) if i != target]
    shares = np.zeros(n)
    shares[others] = max(rest, 0.0) / max(len(others), 1)
    shares[target] = fraction
    if fixed:
        shares[-1] = 0.1
    return [max(1, round(share * population)) for share in shares]


def _sweep_target(instance: Instance, parameter: str, population: int):
    """Parse and check ``--param`` once; returns the market at a grid value.

    A malformed parameter is an input error (exit 1).  Errors raised by the
    returned function concern one grid value only, and the sweep turns them
    into ``converged=False`` rows.
    """
    kind, colon, name = parameter.partition(":")
    if colon and kind == "capacity":
        names = instance.resources.names
        if name not in names:
            raise ValueError(f"capacity sweep: no resource named {name!r}")
        if names.count(name) > 1:
            raise ValueError(f"capacity sweep: {names.count(name)} resources are named {name!r}")
        index = names.index(name)

        def at_capacity(value: float) -> Instance:
            caps = instance.resources.capacities.copy()
            caps[index] = value
            return replace(instance, resources=ResourceModel(names=names, capacities=caps))

        return at_capacity
    if colon and kind == "mix":
        labels = [u.label for u in instance.user_types]
        if name not in labels:
            raise ValueError(f"mix sweep: no user type labeled {name!r}")
        if labels.count(name) > 1:
            raise ValueError(f"mix sweep: {labels.count(name)} user types are labeled {name!r}")
        target = labels.index(name)
        if len(labels) >= 3 and target == len(labels) - 1:
            raise ValueError("mix sweep: the last type's share is fixed; sweep another type")

        def at_mix(value: float) -> Instance:
            counts = _mix_counts(len(labels), target, value, population)
            user_types = tuple(
                UserType(u.label, c, u.requirements, u.utility)
                for u, c in zip(instance.user_types, counts)
            )
            return replace(instance, user_types=user_types)

        return at_mix
    if parameter == "gamma":
        return lambda value: replace(instance, discount=value)
    raise ValueError(
        f"unknown sweep parameter {parameter!r}; use capacity:<resource>, mix:<type>, or gamma"
    )


def _sweep_point(
    args, base: Instance, market_at, value: float, spec: ObjectiveSpec, plan_kind: str,
    warm: dict,
) -> str:
    """One CSV row; ``warm`` maps each plan kind to its last converged prices."""
    beta, nu = spec.beta, spec.nu
    gamma = base.discount
    try:
        instance = market_at(value)
        gamma = instance.discount
        result = barrier_optimize(instance, plan_kind, spec, args.tol, start=warm.get(plan_kind))
        if result.converged:
            warm[plan_kind] = result.plan.prices
        outcome = result.outcome
        counts = instance.counts
        fairness = beta_fairness(outcome.net_utilities, beta, weights=counts)
        split_spec = FairnessSpec(beta=beta, lam=1.0 / beta - 1.0)
        equit, eff = equitability_efficiency_split(
            outcome.net_utilities, split_spec, weights=counts
        )
        return ",".join(
            [
                repr(float(value)),
                repr(float(nu)),
                repr(float(gamma)),
                plan_kind,
                repr(outcome.revenue),
                repr(fairness),
                repr(equit),
                repr(eff),
                _fmt_vec(outcome.net_utilities),
                _fmt_vec(outcome.leftover),
                _fmt_vec(result.plan.prices),
                str(result.converged),
            ]
        )
    except ValueError:  # InfeasibleError among them
        return ",".join(
            [repr(float(value)), repr(float(nu)), repr(float(gamma)), plan_kind]
            + [""] * 7
            + ["False"]
        )


def _cmd_sweep(args) -> int:
    instance = load_instance(args.instance)
    if args.gamma is not None and args.param != "gamma":
        instance = replace(instance, discount=args.gamma)
    if args.steps < 2:
        raise ValueError("steps must be at least 2")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValueError(f"start and stop must be finite, got {args.start} and {args.stop}")
    if args.stop <= args.start:
        raise ValueError("start must be below stop")
    if args.population < 1:
        raise ValueError(f"population must be at least 1, got {args.population}")
    market_at = _sweep_target(instance, args.param, args.population)
    try:
        values = np.linspace(args.start, args.stop, args.steps)
    except MemoryError:
        raise ValueError(f"a grid of {args.steps} steps does not fit in memory") from None
    _check_tolerance(args.tol)
    specs = [ObjectiveSpec(nu=nu, beta=args.beta) for nu in _floats(args.nu)]
    plans = [p.strip() for p in args.plans.split(",") if p.strip()]
    if not specs or not plans:
        raise ValueError("--nu and --plans must each name at least one value")
    for plan_kind in plans:
        _check_plan_kind(plan_kind)

    if args.workers is not None:
        print("warning: --workers is deprecated and ignored; sweeps run sequentially",
              file=sys.stderr)
    # instance construction happens inside each point so that a bad grid
    # point (say a discount below what a type's elasticity allows) becomes
    # a converged=False row instead of aborting the sweep.  Each row starts
    # from the previous converged row of its plan, so the order matters.
    warm: dict = {}
    rows = [
        _sweep_point(args, instance, market_at, float(value), spec, plan_kind, warm)
        for value in values
        for spec in specs
        for plan_kind in plans
    ]

    lines = [SWEEP_COLUMNS] + rows
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")

    if args.svg:
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            cells = row.split(",")
            if cells[11] != "True":
                continue
            label = f"{cells[3]} nu={float(cells[1]):g}"
            series.setdefault(label, []).append((float(cells[4]), float(cells[5])))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(
                render_contours(
                    series, x_label="revenue", y_label="fairness", title=f"sweep {args.param}"
                )
            )
        print(f"wrote chart to {args.svg}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    records = parse_trace(args.trace)
    # usage statistics describe the raw job population, before outlier removal
    stats = trace_statistics(aggregate_and_filter(records, k_std=float("inf")))
    print(
        f"jobs: {int(stats['jobs'])}  mean cpu: {stats['mean_cpu']:.6g}  "
        f"mean mem: {stats['mean_mem']:.6g}"
    )
    print(
        f"dispersion (std/mean): cpu {stats['std_over_mean_cpu']:.6g}  "
        f"mem {stats['std_over_mean_mem']:.6g}"
    )
    jobs = aggregate_and_filter(records, k_std=args.k_std)
    if not jobs:
        raise ValueError("no jobs survive aggregation and filtering")
    print(f"retained for clustering: {len(jobs)} jobs (k_std={args.k_std:g})")
    model = kmeans(jobs, k=args.k, restarts=args.restarts, seed=args.seed)
    print(cluster_report(model), end="")
    instance = build_instance(
        model,
        capacities=_floats(args.capacities),
        gamma=args.gamma,
        alphas=_floats(args.alphas),
        cs=_floats(args.cs),
        counts=_ints(args.counts),
    )
    save_instance(instance, args.out)
    print(f"wrote instance to {args.out} (seed {args.seed})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    scopes = [s.strip() for s in args.scope.split(",")] if args.scope else list(SCOPES)
    results = run_checks(scopes=scopes, seed=args.seed, samples=args.samples)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        print(f"[{status}] {result.check_id}: {result.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_INPUT


def _cmd_schedule(args) -> int:
    spec = load_horizon_spec(args.spec)
    result = solve_horizon(spec, args.beta, args.tol)
    print(f"horizon: {spec.horizon} intervals; price scale {result.price_scale:.6g}")
    for s, (interval, plan) in enumerate(zip(spec.intervals, result.plans), start=1):
        prices = " ".join(f"{p:.6g}" for p in plan.prices)
        print(f"interval {s}: prices {prices}")
    deferred = {
        key: amount for key, amount in result.schedule.amounts.items() if key[2] > key[1]
    }
    print(f"total revenue: {result.total_revenue:.6g}")
    print(f"total fairness: {result.total_fairness:.6g}")
    print(f"deferred mass: {sum(deferred.values()):.6g} across {len(deferred)} cohorts")
    if not result.converged:
        stalled = [s for s, r in enumerate(result.interval_results, start=1) if not r.converged]
        if stalled:
            plural = "s" if len(stalled) > 1 else ""
            where = ", ".join(map(str, stalled))
            print(f"note: stage one did not close its gap in interval{plural} {where}")
        else:
            print("note: the schedule repair did not close its gap")
    if args.out:
        payload = {
            "horizon": spec.horizon,
            "price_scale": result.price_scale,
            "prices": [[float(p) for p in plan.prices] for plan in result.plans],
            "total_revenue": result.total_revenue,
            "total_fairness": result.total_fairness,
            "schedule": [
                {"type": j, "submitted": s, "processed": t, "amount": amount}
                for (j, s, t), amount in sorted(result.schedule.amounts.items())
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


@cache  # one parser per process: in-process callers run many commands
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudpricing",
        description="Multi-resource cloud pricing: optimization, sweeps, and trace ingestion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="optimize one instance's prices")
    opt.add_argument("--instance", required=True)
    opt.add_argument("--plan", required=True, choices=PLAN_KINDS)
    opt.add_argument("--nu", type=float, default=1.0)
    opt.add_argument("--beta", type=float, default=2.0)
    opt.add_argument("--gamma", type=float, default=None, help="override instance discount")
    opt.add_argument("--tol", type=float, default=1e-6)
    opt.add_argument("--bundle", default=None, help="bundle contents, e.g. '1,1'")
    opt.add_argument("--out", default=None, help="write the result as JSON")
    opt.set_defaults(func=_cmd_optimize)

    swp = sub.add_parser("sweep", help="sweep capacity, type mix, or discount")
    swp.add_argument("--instance", required=True)
    swp.add_argument("--param", required=True, help="capacity:<resource>, mix:<type>, or gamma")
    swp.add_argument("--start", type=float, required=True)
    swp.add_argument("--stop", type=float, required=True)
    swp.add_argument("--steps", type=int, required=True)
    swp.add_argument("--nu", default="0,1", help="comma list of revenue weights")
    swp.add_argument("--beta", type=float, default=20.0)
    swp.add_argument("--gamma", type=float, default=None)
    swp.add_argument("--plans", default=",".join(PLAN_KINDS))
    swp.add_argument("--population", type=int, default=10, help="total users for mix sweeps")
    swp.add_argument("--tol", type=float, default=1e-6)
    swp.add_argument(
        "--workers", type=int, default=None, help="deprecated and ignored; sweeps run sequentially"
    )
    swp.add_argument("--out", default=None, help="CSV output path")
    swp.add_argument("--svg", default=None, help="fairness-revenue chart path")
    swp.set_defaults(func=_cmd_sweep)

    ing = sub.add_parser("ingest", help="cluster a workload trace into an instance")
    ing.add_argument("--trace", required=True)
    ing.add_argument("--k", type=int, required=True)
    ing.add_argument("--restarts", type=int, default=30)
    ing.add_argument("--seed", type=int, default=0)
    ing.add_argument("--k-std", type=float, default=1.0, dest="k_std")
    ing.add_argument("--capacities", required=True)
    ing.add_argument("--alphas", required=True)
    ing.add_argument("--cs", required=True)
    ing.add_argument("--counts", required=True)
    ing.add_argument("--gamma", type=float, default=1.0)
    ing.add_argument("--out", required=True)
    ing.set_defaults(func=_cmd_ingest)

    ver = sub.add_parser("verify", help="run the numeric property checks")
    ver.add_argument("--scope", default=None, help=f"comma list from {','.join(SCOPES)}")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=200)
    ver.set_defaults(func=_cmd_verify)

    sch = sub.add_parser("schedule", help="solve a deadline horizon")
    sch.add_argument("--spec", required=True, help="horizon JSON file")
    sch.add_argument("--beta", type=float, default=2.0)
    sch.add_argument("--tol", type=float, default=1e-6)
    sch.add_argument("--out", default=None, help="write the schedule as JSON")
    sch.set_defaults(func=_cmd_schedule)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # InfeasibleError and JSONDecodeError among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
