#!/usr/bin/env python3
"""Self-tests: every output check passes a correct output and flags a corrupted one.

    python3 perfbench/selftest.py

The correct outputs are built from the closed forms in ``market``, not by
the program, so the checks are tested apart from what they check.  Exits
with code 1 when a check misses a corruption or rejects a correct output.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import io
import json
import shutil
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from market import (  # noqa: E402
    fairness, lowest_bundle_price, outcome, random_market, reference_market)

FAILURES = []


def expect(label: str, reasons: list, flagged: bool) -> None:
    if bool(reasons) != flagged:
        FAILURES.append(f"{label}: expected {'a flag' if flagged else 'a pass'}, got {reasons}")
    print(f"{'ok  ' if bool(reasons) == flagged else 'FAIL'} {label}")


def _row(market, plan, prices, nu, beta) -> dict:
    out = outcome(market, plan, prices)
    fair = fairness(out.utilities, market.counts, beta)
    total = float(np.sum(market.counts * out.utilities))
    equitability = -((1.0 - beta) * fair) ** (1.0 / beta) / total ** (1.0 / beta - 1.0)
    return {"value": market.caps[1], "nu": nu, "gamma": market.gamma, "plan": plan,
            "converged": True, "revenue": out.revenue, "fairness": fair,
            "equitability": equitability, "efficiency": total ** (1.0 / beta - 1.0),
            "utilities": list(out.utilities), "leftover": list(out.leftover),
            "prices": list(prices)}


def _scaled_to_capacity(market, plan, base) -> np.ndarray:
    """Smallest multiple of ``base`` whose demand fits every capacity."""
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        out = outcome(market, plan, base * mid)
        lo, hi = (mid, hi) if np.any(out.usage > market.caps) else (lo, mid)
    return base * hi


def test_priced() -> None:
    market = reference_market()
    floor = lowest_bundle_price(market)
    row = _row(market, "bundled", [floor], 1.0, 20.0)
    expect("priced: correct bundled row", checks.check_priced(
        market, "bundled", [floor], 1.0, 20.0, row), False)
    for key, factor in (("utilities", 1.0 + 1e-6), ("revenue", 1.0 - 1e-6),
                        ("fairness", 1.0 + 1e-6)):
        bad = dict(row, **{key: np.asarray(row[key]) * factor})
        expect(f"priced: corrupted {key}", checks.check_priced(
            market, "bundled", [floor], 1.0, 20.0, bad), True)
    bad = dict(row, leftover=np.asarray(row["leftover"]) + 1e-6)
    expect("priced: corrupted leftover", checks.check_priced(
        market, "bundled", [floor], 1.0, 20.0, bad), True)
    above = floor * (1.0 + 1e-3)
    expect("priced: bundle price above the lowest feasible", checks.check_priced(
        market, "bundled", [above], 1.0, 20.0, _row(market, "bundled", [above], 1.0, 20.0)),
        True)
    below = floor * (1.0 - 1e-6)
    expect("priced: bundle price below capacity (infeasible)", checks.check_priced(
        market, "bundled", [below], 1.0, 20.0, {}), True)

    wide = random_market(np.random.default_rng(7), 6)
    prices = _scaled_to_capacity(wide, "resource", np.ones(3)) * 1.01
    out = outcome(wide, "resource", prices)
    value = 1.0 * out.revenue + fairness(out.utilities, wide.counts, 2.0)
    claimed = {"costs": out.costs, "demands": out.demands, "objective": value}
    expect("priced: correct solve", checks.check_priced(
        wide, "resource", prices, 1.0, 2.0, claimed), False)
    for key in claimed:
        bad = dict(claimed, **{key: np.asarray(claimed[key]) * (1.0 + 1e-7)})
        expect(f"priced: corrupted {key}", checks.check_priced(
            wide, "resource", prices, 1.0, 2.0, bad), True)


def test_split_dominance_monotone() -> None:
    market = reference_market()
    row = _row(market, "bundled", [lowest_bundle_price(market)], 0.0, 20.0)
    expect("split: correct", checks.check_split(
        row["fairness"], row["equitability"], row["efficiency"], 20.0), False)
    expect("split: corrupted equitability", checks.check_split(
        row["fairness"], row["equitability"] * (1.0 + 1e-6), row["efficiency"], 20.0), True)
    expect("dominance: differentiated above resource", checks.check_dominance(-5.0, -4.0), False)
    expect("dominance: differentiated below resource", checks.check_dominance(-5.0, -5.1), True)
    expect("monotone: objective grows", checks.check_nondecreasing(-3.0, -2.0), False)
    expect("monotone: objective falls", checks.check_nondecreasing(-3.0, -3.1), True)


def test_neighbourhood() -> None:
    market = reference_market()
    floor = lowest_bundle_price(market)
    rng = np.random.default_rng(0)
    expect("neighbourhood: optimum", checks.check_neighbourhood(
        market, "bundled", [floor], 1.0, 2.0, rng), False)
    expect("neighbourhood: price 1% above the optimum", checks.check_neighbourhood(
        market, "bundled", [floor * 1.01], 1.0, 2.0, rng), True)


def test_sweep_csv_and_svg() -> None:
    market = reference_market()
    lines = [checks.SWEEP_HEADER]
    for memory in (4.0, 6.0):
        at = replace(market, caps=np.array([6.0, memory]))
        row = _row(at, "bundled", [lowest_bundle_price(at)], 0.0, 20.0)
        cells = [repr(memory), "0.0", "1.0", "bundled"] + [
            repr(row[k]) for k in ("revenue", "fairness", "equitability", "efficiency")] + [
            ";".join(repr(float(v)) for v in row[k]) for k in ("utilities", "leftover", "prices")]
        lines.append(",".join(cells + ["True"]))
    text = "\n".join(lines) + "\n"

    def reasons(csv_text: str) -> list:
        try:
            rows = checks.parse_sweep_csv(csv_text)
        except ValueError as err:
            return [str(err)]
        return [r for per_row in checks.check_sweep_rows(
            rows, lambda v: replace(market, caps=np.array([6.0, v])), 20.0, monotone=True) for r in per_row]

    expect("sweep: correct CSV", reasons(text), False)
    expect("sweep: row not converged", reasons(text.replace(",True\n", ",False\n", 1)), True)
    expect("sweep: header changed", reasons(text.replace("value,", "x,", 1)), True)
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) * 1.001)
    expect("sweep: revenue cell corrupted",
           reasons("\n".join([lines[0], ",".join(cells), lines[2]]) + "\n"), True)

    svg = '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"><g/></svg>'
    expect("svg: well formed", checks.check_svg(svg), False)
    expect("svg: truncated", checks.check_svg(svg[:-6]), True)


def test_horizon() -> None:
    market = reference_market()
    markets, deadlines = [market, market], [[1, 1, 1], [2, 2, 2]]
    base = _scaled_to_capacity(market, "resource", np.array([1.0, 1e-8]))

    def payload(prices, scale=1.0, tweak=None) -> dict:
        out = outcome(market, "resource", prices)
        schedule = [{"type": j, "submitted": s, "processed": s,
                     "amount": float(market.counts[j] * out.demands[j])}
                    for s in (1, 2) for j in range(3)]
        if tweak:
            tweak(schedule)
        return {"price_scale": scale, "prices": [list(prices)] * 2, "schedule": schedule}

    expect("horizon: correct", checks.check_horizon(markets, deadlines, payload(base)), False)
    expect("horizon: minimal price scale", checks.check_horizon(
        markets, deadlines, payload(base * (1.0 + 1e-7), scale=1.5)), False)

    def negative(schedule):
        schedule.append({"type": 0, "submitted": 1, "processed": 1, "amount": -1e-3})

    def late(schedule):
        schedule[0]["processed"] = 2

    def short(schedule):
        schedule[0]["amount"] *= 1.0 - 1e-5

    expect("horizon: negative amount", checks.check_horizon(
        markets, deadlines, payload(base, tweak=negative)), True)
    expect("horizon: processed after the deadline", checks.check_horizon(
        markets, deadlines, payload(base, tweak=late)), True)
    expect("horizon: cohort short of its demand", checks.check_horizon(
        markets, deadlines, payload(base, tweak=short)), True)
    expect("horizon: usage over capacity", checks.check_horizon(
        markets, deadlines, payload(base * 0.99)), True)
    expect("horizon: price scale not minimal", checks.check_horizon(
        markets, deadlines, payload(base * 1.01, scale=1.5)), True)
    expect("horizon: posted prices unschedulable", checks.check_horizon(
        markets, deadlines, payload(base * (1.0 - 1e-5), scale=1.5)), True)


def test_tracer() -> None:
    """Thread-safe counts, pool solves as children of cli.main, the declared metric names."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from tracer import Tracer

    import cloudpricing.cli as cli
    import cloudpricing.optimizer as optimizer
    from cloudpricing.pricing import save_instance
    from cloudpricing.synth import google_cluster_instance

    market = google_cluster_instance()
    spec = optimizer.ObjectiveSpec(nu=1.0, beta=2.0)
    work = HERE / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    save_instance(market, work / "market.json")
    tracer = Tracer()
    tracer.install()
    try:
        workers = [threading.Thread(target=lambda: [optimizer.barrier_optimize(
            market, "resource", spec) for _ in range(3)]) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--instance", str(work / "market.json"), "--param", "gamma",
                      "--start", "0.8", "--stop", "1.0", "--steps", "4", "--nu", "0",
                      "--plans", "resource", "--beta", "2", "--workers", "2",
                      "--out", str(work / "sweep.csv")])
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    metrics = tracer.metrics(1)
    value = {name: metric["value"] for name, metric in metrics.items()}
    ok = (value["optimizer.barrier_optimize.calls"] == 16 and not any(w.is_alive() for w in workers)
          and 0.0 < value["optimizer.barrier_optimize.self_s"] < value["optimizer.barrier_optimize.s"])
    expect("tracer: 16 solves from 6 threads, self time within total",
           [] if ok else [str(value)], False)
    main_s, main_self = value["cli.main.s"], value["cli.main.self_s"]
    expect("tracer: pool solves count as children of cli.main",
           [] if 0.0 <= main_self < 0.5 * main_s else [f"cli.main s {main_s}, self {main_self}"],
           False)
    declared = {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set(metrics) | {"tracing.overhead_s"}
    expect("tracer: reports exactly the per-layer metrics of BENCHMARK.json",
           sorted(declared ^ reported), False)


def main() -> int:
    for test in (test_priced, test_split_dominance_monotone, test_neighbourhood,
                 test_sweep_csv_and_svg, test_horizon, test_tracer):
        test()
    if FAILURES:
        print("\n".join(FAILURES))
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
