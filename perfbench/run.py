#!/usr/bin/env python3
"""Benchmark of ``cloudpricing``: tradeoff sweeps, wide markets and deadline horizons.

    python3 perfbench/run.py --workload tradeoff-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of the repository.  One workload runs in this process
and prints its metrics with units, the operations attempted and failed,
and as its last line one JSON object.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced passes and then traced
ones, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs each workload in its own process and writes the
results under ``perfbench/results/``.
"""

from __future__ import annotations

import os

# One thread for the numeric libraries: the benchmark drives the program from
# one process and one thread, and BLAS threads would add noise on small cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tradeoff-sweep", "wide-market", "deadline-horizon")
#: set-ups timed per run, spread over the run; the median is reported
SETUP_PROBES = 9


def _import_program() -> None:
    """Import ``cloudpricing`` from this checkout's ``src``, or exit with code 1."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cloudpricing
    except ImportError as err:
        sys.exit(f"error: cannot import cloudpricing from {ROOT / 'src'}: {err}")
    if Path(cloudpricing.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"error: cloudpricing was imported from {cloudpricing.__file__}, not src/")


def _build(name: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir)


def _probe_setup(args) -> None:
    """Child side of a set-up measurement: import, build the inputs, say so."""
    _import_program()
    workdir = HERE / ".work" / f"probe-{os.getpid()}"
    try:
        _build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(args) -> float:
    """Time from process start to inputs ready, in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit(f"error: set-up probe failed with code {child.returncode}")
    return elapsed


def _passes(workload, seconds: float, tally: dict, clock, probe=None) -> tuple:
    """Whole passes filling about ``seconds`` (at least one).

    A new pass starts while it would end less than half a pass late.  With
    ``probe``, ``SETUP_PROBES`` calls of it are spread evenly over the run,
    between passes, and recorded on ``clock`` under ``"set-up"``.  Set-up
    is one thread, so each probe, its child process and the clock's kernel
    beside it are held on one CPU.  Returns the number of passes.
    """
    passes = 0
    due = SETUP_PROBES if probe else 0
    probes = clock.samples["set-up"]
    start = time.perf_counter()

    def run_due_probes(until: int) -> None:
        while len(probes) < until and (
                until == due or time.perf_counter() - start >= len(probes) * seconds / due):
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            try:
                clock.measure("set-up", probe)
            finally:
                os.sched_setaffinity(0, cpus)

    while not passes or (time.perf_counter() - start) * (1.0 + 0.5 / passes) < seconds:
        run_due_probes(due - 1)
        for op, reasons in workload.run_pass(clock):
            tally["attempted"] += 1
            if reasons:
                tally["failed"] += 1
                tally["reasons"].setdefault(op, "; ".join(reasons))
        passes += 1
    run_due_probes(due)
    return passes


def run_workload(args) -> dict:
    _import_program()
    warnings.simplefilter("ignore")
    from clock import Clock

    workdir = HERE / ".work" / f"run-{os.getpid()}"
    try:
        workload = _build(args.workload, args.seed, workdir)
        if workload.one_cpu:
            # before any thread starts: children and later threads inherit it
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        tally = {"attempted": 0, "failed": 0, "reasons": {}}
        if args.trace:
            from tracer import Tracer

            untraced = Clock()
            _passes(workload, args.seconds / 2.0, tally, untraced)
            tracer, traced = Tracer(), Clock()
            tracer.install()
            try:
                passes = _passes(workload, args.seconds / 2.0, tally, traced)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(passes)
            metrics["tracing.overhead_s"] = {
                "value": traced.total(workload.labels) - untraced.total(workload.labels),
                "unit": "s"}
            for layer in tracer.absent():
                print(f"absent layer: {layer}")
        else:
            clock = Clock()
            passes = _passes(workload, args.seconds, tally, clock,
                             probe=lambda: _setup_seconds(args))
            raw = sum(statistics.median(t for t, _ in clock.samples[label])
                      for label in workload.labels)
            print(f"passes: {passes}; median pass before rescaling: {raw:.4f} s; "
                  f"machine slowdown beside the calls: {clock.slowdown():.3f}")
            print("set-up seconds: " + " ".join(f"{t:.4f}" for t in clock.rescaled("set-up")))
            print("median seconds per call: " + "; ".join(
                f"{label} {clock.median(label):.4f}" for label in workload.labels))
            wall = clock.total(workload.labels)
            passed_per_pass = (tally["attempted"] - tally["failed"]) / passes
            metrics = {
                "setup_s": {"value": clock.median("set-up"), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "ops_per_s": {"value": passed_per_pass / wall, "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"distinct outputs checked: {len(workload.verdicts)}")
    unexpected = {op: why for op, why in tally["reasons"].items()
                  if op not in workload.known_faults}
    for op, why in tally["reasons"].items():
        label = workload.known_faults.get(op, "UNEXPECTED")
        print(f"failed ({label}): {op}: {why}")
    for key, metric in metrics.items():
        print(f"{args.workload} {key}: {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted: {tally['attempted']} failed: {tally['failed']}")
    return {"correct": not unexpected, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; results go to perfbench/results/."""
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    summary, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            code = 1
            continue
        summary[name] = json.loads(lines[-1])
    path = out_dir / f"seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        _probe_setup(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
