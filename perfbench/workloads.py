"""The three workloads: inputs made from the seed, one timed pass, output checks.

A workload is built once per process (that is the set-up the benchmark
times) and then runs whole passes.  Every pass attempts the same
operations, so the share of failed operations is the same in every run.
``run_pass(clock)`` times each call into ``cloudpricing`` (one CLI command
or one solve) on ``clock`` under a label from ``labels``, and returns, per
operation, the reasons its output failed the checks (none when it passed).

The checks are deterministic functions of an output, so an output equal to
one already checked gets that one's reasons without checking it again; a
pass whose outputs all repeat costs little more than its timed calls, and a
run fits more passes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from market import PLANS, mix_counts, random_market, reference_market

# calls go through module attributes so that the tracer's wrappers see them
from cloudpricing import cli, optimizer
from cloudpricing.pricing import instance_from_json


class _Verdicts:
    """Reasons per distinct output, computed once per output."""

    def __init__(self) -> None:
        self._seen = {}

    def __call__(self, key, check):
        if key not in self._seen:
            self._seen[key] = check()
        return self._seen[key]

    def __len__(self) -> int:
        return len(self._seen)


def _cli(argv):
    """Run one CLI command in-process; returns its exit code or the exception."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as err:  # a crash fails the operation, not the run
            return f"{type(err).__name__}: {err}"


class TradeoffSweep:
    """The paper's experiment: three ``sweep`` commands on the reference market."""

    name = "tradeoff-sweep"
    BETA = 20.0
    STEPS = 3
    known_faults: dict = {}
    #: the sweep's thread pool may use every CPU, as it does for users
    one_cpu = False

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.verdicts = _Verdicts()
        self.dir = workdir
        self.market = reference_market()
        self.instance_path = workdir / "reference.json"
        self.instance_path.write_text(json.dumps(self.market.to_json()))
        # grid ends jitter with the seed; the number of rows does not.  The
        # jitter is narrow because the solves' work changes along the grids:
        # near gamma = 0.65 a point costs 6 to 12% more Newton iterations per
        # 0.01 less discount.  Below gamma = 0.641 the bundled solve overflows
        # (see CHANGES.md).
        self.sweeps = [
            ("capacity:mem", rng.uniform(0.33, 0.34), rng.uniform(7.7, 7.8), True,
             lambda v: replace(self.market, caps=np.array([6.0, v]))),
            ("mix:type1", rng.uniform(0.09, 0.10), rng.uniform(0.77, 0.78), False,
             lambda v: replace(self.market, counts=np.array(mix_counts(3, 0, v, 10), float))),
            ("gamma", rng.uniform(0.70, 0.71), rng.uniform(0.98, 0.99), False,
             lambda v: replace(self.market, gamma=v)),
        ]

    @property
    def labels(self) -> list:
        return [sweep[0] for sweep in self.sweeps]

    def run_pass(self, clock) -> list:
        results = []
        for k, (param, start, stop, with_svg, market_at) in enumerate(self.sweeps):
            csv_path, svg_path = self.dir / f"sweep{k}.csv", self.dir / f"sweep{k}.svg"
            argv = ["sweep", "--instance", str(self.instance_path), "--param", param,
                    "--start", repr(float(start)), "--stop", repr(float(stop)),
                    "--steps", str(self.STEPS), "--nu", "0,1", "--beta", repr(self.BETA),
                    "--out", str(csv_path)]
            if with_svg:
                argv += ["--svg", str(svg_path)]
            for path in (csv_path, svg_path):
                path.unlink(missing_ok=True)
            code = clock.timed(param, _cli, argv)
            csv = csv_path.read_text() if csv_path.exists() else None
            svg = svg_path.read_text() if with_svg and svg_path.exists() else None
            results += self.verdicts(
                (param, code, csv, svg),
                lambda: self._check(param, code, csv, with_svg, svg, market_at))
        return results

    def _check(self, param, code, csv, with_svg, svg, market_at) -> list:
        expected = self.STEPS * 2 * len(PLANS)
        names = [f"{param} row {i}" for i in range(expected)]
        try:
            if csv is None:
                raise ValueError("no CSV written")
            rows = checks.parse_sweep_csv(csv)
        except ValueError as err:
            return [(name, [f"exit {code}; {err}"]) for name in names]
        common = [] if code == 0 else [f"sweep returned {code}"]
        if len(rows) != expected:
            common.append(f"{len(rows)} rows instead of {expected}")
        if with_svg:
            common += checks.check_svg(svg) if svg is not None else ["no SVG written"]
        reasons = checks.check_sweep_rows(rows, market_at, self.BETA,
                                          monotone=param.startswith("capacity:"))
        reasons += [[] for _ in range(expected - len(rows))]
        return [(name, common + r) for name, r in zip(names, reasons)]


def _digest(name, market, plan, result) -> tuple:
    """Everything the checks read from one solve's result."""
    if isinstance(result, str):
        return name, result
    out = result.outcome
    prices = [result.plan.price] if plan == "bundled" else result.plan.prices
    return (name, result.converged, result.message, result.objective_value,
            *(np.asarray(a, float).tobytes() for a in (
                prices, out.per_job_costs, out.demands, out.net_utilities, out.leftover,
                out.revenue)))


class WideMarket:
    """``barrier_optimize`` on random 3-resource markets of 2 to 300 user types."""

    name = "wide-market"
    NU, BETA = 1.0, 2.0
    #: every size is priced under bundled and resource pricing; two markets
    #: per size keep the work of a pass steady from seed to seed
    SIZES = (5, 5, 20, 20, 50, 50, 100, 100, 200, 200, 300, 300)
    #: sizes also priced under differentiated pricing; from n = 4 upwards the
    #: differentiated solve stalls on some seeds (see README), which would make
    #: the failed share depend on the seed
    DIFFERENTIATED_SIZES = (2, 3, 3)
    #: one differentiated solve, an n x n Newton system at scale, on a market
    #: that does not depend on the seed; it stalls every time
    STALL_SIZE, STALL_SEED = 100, 20121201
    known_faults = {
        "n100-fixed differentiated": "differentiated stall in optimizer._barrier_ladder",
    }
    #: one thread: held on one CPU, whose speed the clock's kernel then measures
    one_cpu = True

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.verdicts = _Verdicts()
        self.probe_seed = seed
        self.ops = []  # (name, market, instance, plan)
        for k, n in enumerate(self.SIZES):
            market = random_market(rng, n)
            for plan in ("bundled", "resource"):
                self.ops.append((f"n{n}#{k} {plan}", market, plan))
        for k, n in enumerate(self.DIFFERENTIATED_SIZES):
            market = random_market(rng, n)
            for plan in PLANS:
                self.ops.append((f"n{n}#d{k} {plan}", market, plan))
        stall = random_market(np.random.default_rng(self.STALL_SEED), self.STALL_SIZE)
        self.ops.append((f"n{self.STALL_SIZE}-fixed differentiated", stall, "differentiated"))
        self.ops = [(name, market, instance_from_json(market.to_json()), plan)
                    for name, market, plan in self.ops]
        self.spec = optimizer.ObjectiveSpec(nu=self.NU, beta=self.BETA)

    @property
    def labels(self) -> list:
        return [op[0] for op in self.ops]

    def _solve(self, instance, plan):
        try:
            return optimizer.barrier_optimize(instance, plan, self.spec)
        except Exception as err:  # a crash fails the operation, not the run
            return f"{type(err).__name__}: {err}"

    def run_pass(self, clock) -> list:
        solved = []
        for name, market, instance, plan in self.ops:
            result = clock.timed(name, self._solve, instance, plan)
            solved.append((name, market, plan, result))
        return self.verdicts(tuple(_digest(*op) for op in solved),
                                    lambda: self._check(solved))

    def _check(self, solved) -> list:
        rng = np.random.default_rng([self.probe_seed, 3])
        results, values = [], {}
        for name, market, plan, result in solved:
            if isinstance(result, str):
                results.append((name, [result]))
                continue
            reasons = [] if result.converged else [
                f"solver reported converged=False: {result.message}"]
            prices = [result.plan.price] if plan == "bundled" else result.plan.prices
            out = result.outcome
            claimed = {"costs": out.per_job_costs, "demands": out.demands,
                       "utilities": out.net_utilities, "leftover": out.leftover,
                       "revenue": out.revenue, "objective": result.objective_value}
            if result.converged:
                reasons += checks.check_priced(market, plan, prices, self.NU, self.BETA,
                                               claimed)
            if not reasons:
                reasons += checks.check_neighbourhood(market, plan, prices, self.NU,
                                                      self.BETA, rng)
                values[(id(market), plan)] = result.objective_value
            if plan == "differentiated" and not reasons and (id(market), "resource") in values:
                reasons += checks.check_dominance(values[(id(market), "resource")],
                                                  result.objective_value)
            results.append((name, reasons))
        return results


class DeadlineHorizon:
    """``schedule`` commands on horizons built from the reference market."""

    name = "deadline-horizon"
    BETA = 2.0
    #: immediate-deadline horizons drawn from the seed split this many intervals
    IMMEDIATE_INTERVALS = 36
    #: slack-deadline horizons (length, deadline slack), the same for every seed
    SLACK = ((8, 1), (12, 1), (24, 1), (8, 3), (12, 3), (16, 3))
    known_faults = {
        "T16 slack3": "schedule shortfall from simplex.phase_one's absolute tolerance",
    }
    #: one thread: held on one CPU, whose speed the clock's kernel then measures
    one_cpu = True

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 4])
        self.verdicts = _Verdicts()
        first = int(rng.integers(8, 17))
        second = int(rng.integers(8, 17))
        horizons = []
        for k, T in enumerate((first, second, self.IMMEDIATE_INTERVALS - first - second)):
            markets = [reference_market(memory=float(rng.uniform(4.5, 7.5))) for _ in range(T)]
            nus = [float(rng.choice([0.0, 0.5, 1.0])) for _ in range(T)]
            horizons.append((f"T{T}#{k} immediate", markets, nus, 0))
        for T, slack in self.SLACK:
            horizons.append((f"T{T} slack{slack}", [reference_market()] * T, [0.0] * T, slack))
        self.ops = []
        for k, (name, markets, nus, slack) in enumerate(horizons):
            T = len(markets)
            deadlines = [[min(T, s + slack)] * markets[s - 1].n for s in range(1, T + 1)]
            spec = {"horizon": T, "intervals": [
                {"instance": mk.to_json(), "deadlines": dl, "nu": nu}
                for mk, dl, nu in zip(markets, deadlines, nus)]}
            path = workdir / f"horizon{k}.json"
            path.write_text(json.dumps(spec))
            self.ops.append((name, markets, deadlines, path, workdir / f"schedule{k}.json"))

    @property
    def labels(self) -> list:
        return [op[0] for op in self.ops]

    def run_pass(self, clock) -> list:
        results = []
        for name, markets, deadlines, spec_path, out_path in self.ops:
            out_path.unlink(missing_ok=True)
            code = clock.timed(name, _cli, ["schedule", "--spec", str(spec_path),
                                            "--beta", repr(self.BETA), "--out", str(out_path)])
            if code != 0:
                results.append((name, [f"schedule returned {code}"]))
                continue
            text = out_path.read_text()
            results.append((name, self.verdicts((name, text), lambda: checks.check_horizon(
                markets, deadlines, json.loads(text)))))
        return results


WORKLOADS = {w.name: w for w in (TradeoffSweep, WideMarket, DeadlineHorizon)}

