"""Workload-trace ingestion: parse, aggregate, filter, cluster.

A trace is a CSV of per-interval task measurements.  Task usage is summed
into per-job totals, jobs far from the mean are dropped, and k-means over
the totals yields a small set of job types whose centroids become the
per-job resource requirements of a market instance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .demand import UtilityParams
from .pricing import Instance, ResourceModel, UserType

__all__ = [
    "TaskRecord",
    "JobUsage",
    "ClusterModel",
    "parse_trace",
    "aggregate_and_filter",
    "trace_statistics",
    "kmeans",
    "build_instance",
    "cluster_report",
]

TRACE_FIELDS = ("time", "job_id", "task_id", "cpu", "mem")
MAX_REPORTED_ERRORS = 10


@dataclass(frozen=True)
class TaskRecord:
    """One task's resource usage during one time interval."""

    time: int
    job_id: str
    task_id: str
    cpu: float
    mem: float


@dataclass(frozen=True, eq=False)
class JobUsage:
    """A job's usage summed over all its tasks and intervals."""

    job_id: str
    totals: np.ndarray  # (cpu_total, mem_total)


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Best-of-restarts k-means result over job usage points.

    ``inertia`` is the sum of squared distances to assigned centroids;
    ``restart_inertias`` records every restart so the best-of reduction can
    be audited.  ``objective_history`` tracks the winning run's Lloyd
    iterations (non-increasing by construction).
    """

    centroids: np.ndarray
    counts: np.ndarray
    inertia: float
    seed: int
    restart_inertias: tuple[float, ...]
    objective_history: tuple[float, ...]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def parse_trace(path) -> list[TaskRecord]:
    """Read and validate task records; malformed rows are reported by line.

    The file must carry the header ``time,job_id,task_id,cpu,mem``.  Usage
    must be numeric and nonnegative; (job_id, task_id, time) must be unique.
    """
    records: list[TaskRecord] = []
    problems: list[str] = []
    seen: set[tuple[str, str, int]] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {','.join(TRACE_FIELDS)}")
        if tuple(h.strip() for h in header) != TRACE_FIELDS:
            raise ValueError(
                f"{path}: line 1: expected header {','.join(TRACE_FIELDS)}, "
                f"got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(TRACE_FIELDS):
                problems.append(f"line {line_no}: expected {len(TRACE_FIELDS)} fields")
                continue
            raw_time, job_id, task_id, raw_cpu, raw_mem = (cell.strip() for cell in row)
            try:
                time = int(raw_time)
            except ValueError:
                problems.append(f"line {line_no}: time {raw_time!r} is not an integer")
                continue
            try:
                cpu, mem = float(raw_cpu), float(raw_mem)
            except ValueError:
                problems.append(f"line {line_no}: non-numeric usage {raw_cpu!r},{raw_mem!r}")
                continue
            if cpu < 0.0 or mem < 0.0:
                problems.append(f"line {line_no}: negative usage cpu={cpu} mem={mem}")
                continue
            key = (job_id, task_id, time)
            if key in seen:
                problems.append(f"line {line_no}: duplicate (job_id, task_id, time) {key}")
                continue
            seen.add(key)
            records.append(TaskRecord(time=time, job_id=job_id, task_id=task_id, cpu=cpu, mem=mem))
    if problems:
        shown = problems[:MAX_REPORTED_ERRORS]
        extra = len(problems) - len(shown)
        suffix = f" (and {extra} more)" if extra else ""
        raise ValueError(f"{path}: {'; '.join(shown)}{suffix}")
    return records


def aggregate_and_filter(records, k_std: float = 1.0) -> list[JobUsage]:
    """Sum usage per job, then drop jobs far from the population mean.

    A job is dropped when its cpu or memory total deviates from the
    respective mean by more than ``k_std`` standard deviations; statistics
    are computed once over the unfiltered job totals.  Output is sorted by
    job id, so the result is independent of record order.
    """
    totals: dict[str, np.ndarray] = {}
    for record in records:
        entry = totals.setdefault(record.job_id, np.zeros(2))
        entry += (record.cpu, record.mem)
    jobs = [JobUsage(job_id=job_id, totals=totals[job_id]) for job_id in sorted(totals)]
    if not jobs or math.isinf(k_std):
        return jobs
    points = np.array([job.totals for job in jobs])
    mean = points.mean(axis=0)
    std = points.std(axis=0)
    keep = np.all(np.abs(points - mean) <= k_std * std, axis=1)
    return [job for job, ok in zip(jobs, keep) if ok]


def trace_statistics(jobs) -> dict[str, float]:
    """Per-job usage means and dispersion ratios (std over mean)."""
    points = np.array([job.totals for job in jobs])
    mean = points.mean(axis=0)
    std = points.std(axis=0)
    return {
        "jobs": float(len(jobs)),
        "mean_cpu": float(mean[0]),
        "mean_mem": float(mean[1]),
        "std_over_mean_cpu": float(std[0] / mean[0]) if mean[0] else math.inf,
        "std_over_mean_mem": float(std[1] / mean[1]) if mean[1] else math.inf,
    }


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int = 300):
    """Lloyd iterations from given centroids; returns (centroids, labels, history)."""
    history: list[float] = []
    labels = None
    for _ in range(max_iter):
        distances = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(distances, axis=1)
        objective = float(np.sum(distances[np.arange(points.shape[0]), new_labels]))
        if history and objective > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise AssertionError("Lloyd objective increased between iterations")
        history.append(objective)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for idx in range(centroids.shape[0]):
            members = points[labels == idx]
            if members.size:
                centroids[idx] = members.mean(axis=0)
            # empty clusters keep their previous centroid
    return centroids, labels, history


def kmeans(jobs, k: int, restarts: int = 30, seed: int = 0) -> ClusterModel:
    """Best of ``restarts`` seeded Lloyd runs on the job-usage points.

    Initial centroids are drawn without replacement from the distinct
    points; runs are compared by intra-cluster squared distance with ties
    going to the earliest restart.  Deterministic for a fixed seed.
    """
    if k < 1 or restarts < 1:
        raise ValueError("k and restarts must be positive")
    points = np.array([job.totals for job in jobs], dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("need at least one job")
    distinct = np.unique(points, axis=0)
    if distinct.shape[0] < k:
        raise ValueError(
            f"k={k} exceeds the {distinct.shape[0]} distinct job-usage points"
        )
    rng = np.random.default_rng(seed)
    best = None
    restart_inertias: list[float] = []
    for restart in range(restarts):
        chosen = rng.choice(distinct.shape[0], size=k, replace=False)
        centroids, labels, history = _lloyd(points, distinct[chosen].copy())
        inertia = history[-1]
        restart_inertias.append(inertia)
        if best is None or inertia < best[0]:
            best = (inertia, centroids, labels, history)
    inertia, centroids, labels, history = best
    counts = np.bincount(labels, minlength=k)
    return ClusterModel(
        centroids=centroids,
        counts=counts,
        inertia=inertia,
        seed=seed,
        restart_inertias=tuple(restart_inertias),
        objective_history=tuple(history),
    )


def build_instance(model: ClusterModel, capacities, gamma: float, alphas, cs, counts) -> Instance:
    """Turn cluster centroids into a market instance.

    Centroid ``j`` becomes the per-job requirement column of type ``j`` over
    the resources ``cpu`` and ``mem``; utility parameters and populations
    are supplied per cluster.
    """
    alphas, cs, counts = list(alphas), list(cs), list(counts)
    if not (len(alphas) == len(cs) == len(counts) == model.k):
        raise ValueError(
            f"alphas, cs, and counts must each have one entry per cluster ({model.k})"
        )
    resources = ResourceModel(names=("cpu", "mem"), capacities=capacities)
    user_types = tuple(
        UserType(
            label=f"type{j + 1}",
            count=int(counts[j]),
            requirements=model.centroids[j],
            utility=UtilityParams(alpha=float(alphas[j]), c=float(cs[j])),
        )
        for j in range(model.k)
    )
    return Instance(resources=resources, user_types=user_types, discount=float(gamma))


def cluster_report(model: ClusterModel) -> str:
    """CSV report: cluster_id, centroid_cpu, centroid_mem, count."""
    lines = ["cluster_id,centroid_cpu,centroid_mem,count"]
    for idx in range(model.k):
        cx, cy = (float(v) for v in model.centroids[idx])
        lines.append(f"{idx},{cx!r},{cy!r},{int(model.counts[idx])}")
    return "\n".join(lines) + "\n"
