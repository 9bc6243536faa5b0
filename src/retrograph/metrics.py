"""Study metrics over planning results: success-rate curves, expanded
versus unique-molecule redundancy, and intermediate reuse across routes."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .planner import PlanResult, RouteTree, TraceRecord

RunTrace = list[TraceRecord]


def success_curve(results: list[PlanResult], limits: list[int]) -> dict:
    """Fraction of targets first proved within each iteration limit, plus
    averages at the largest limit.

    Iteration averages come in two variants because failed runs have no
    first-success count: capped (failures count their consumed iterations)
    and success-only (failures excluded).
    """
    if not results:
        raise ValueError("success_curve needs at least one result")
    if not limits or any(l < 1 for l in limits) or sorted(limits) != list(limits):
        raise ValueError(f"limits must be ascending positive integers, got {limits}")
    outcomes: list[tuple[bool, int | None, int]] = []
    for res in results:
        for t in res.targets:
            outcomes.append((t.success, t.first_success_iteration, res.iterations))
    fractions = {}
    for limit in limits:
        hits = sum(1 for ok, it, _ in outcomes if ok and it is not None and it <= limit)
        fractions[limit] = hits / len(outcomes)
    capped = [it if ok and it is not None else used for ok, it, used in outcomes]
    solved = [it for ok, it, _ in outcomes if ok and it is not None]
    return {
        "limits": {str(l): fractions[l] for l in limits},
        "n_targets": len(outcomes),
        "n_results": len(results),
        "avg_iterations_capped": sum(capped) / len(capped),
        "avg_iterations_success_only": (sum(solved) / len(solved)) if solved else None,
        "avg_molecule_nodes": sum(r.molecule_nodes for r in results) / len(results),
        "avg_reaction_nodes": sum(r.reaction_nodes for r in results) / len(results),
    }


@dataclass(frozen=True)
class RedundancyPoint:
    expanded: int
    unique: int


@dataclass
class RedundancyStudy:
    points: list[RedundancyPoint]
    slope: float | None
    intercept: float | None
    r_squared: float | None
    mean_ratio: float | None


def redundancy_study(traces: list[RunTrace]) -> RedundancyStudy:
    """Per-run (expanded nodes, unique molecules) points with a
    least-squares fit of unique against expanded. The fit is None when
    there are fewer than two runs or every run expanded the same number of
    nodes; the mean ratio is None when there are no runs."""
    points = []
    for trace in traces:
        if not trace:
            raise ValueError("redundancy_study got an empty trace")
        points.append(RedundancyPoint(
            expanded=len(trace),
            unique=len({rec.expanded for rec in trace}),
        ))
    if not points:
        return RedundancyStudy(points=points, slope=None, intercept=None,
                               r_squared=None, mean_ratio=None)
    xs = [p.expanded for p in points]
    ys = [p.unique for p in points]
    n = len(points)
    mean_ratio = sum(p.unique / p.expanded for p in points) / n
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return RedundancyStudy(points=points, slope=None, intercept=None,
                               r_squared=None, mean_ratio=mean_ratio)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return RedundancyStudy(points=points, slope=slope, intercept=intercept,
                           r_squared=r_squared, mean_ratio=mean_ratio)


@dataclass
class ReuseStats:
    counts: dict[str, int]
    mean: float
    top: list[tuple[str, int]]


def reuse_histogram(routes: list[RouteTree], top_n: int = 10) -> ReuseStats:
    """How many routes each reactant molecule appears in; the mean over
    distinct reactants measures cross-route sharing."""
    if not routes:
        raise ValueError("reuse_histogram needs at least one route")
    counts: Counter[str] = Counter()

    def reactants(tree: RouteTree, acc: set[str]) -> None:
        if tree.reaction is None:
            return
        for child in tree.reaction.children:
            acc.add(child.molecule)
            reactants(child, acc)

    for route in routes:
        acc: set[str] = set()
        reactants(route, acc)
        counts.update(acc)
    if not counts:
        raise ValueError("no reactants found in any route")
    mean = sum(counts.values()) / len(counts)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return ReuseStats(counts=dict(counts), mean=mean, top=top)


# -- CSV output (stable column order, repr floats) ---------------------------

def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """A header row, then one line per row of *rows*."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_curve_csv(path: str | Path, curve: dict) -> None:
    write_csv(path, ["limit", "success_fraction"],
              ([limit, repr(fraction)] for limit, fraction in curve["limits"].items()))


def write_redundancy_csv(path: str | Path, rows: list[dict]) -> None:
    write_csv(path, ["target", "mode", "expanded", "unique"],
              ([row["target"], row["mode"], row["expanded"], row["unique"]] for row in rows))


def write_reuse_csv(path: str | Path, stats: ReuseStats) -> None:
    write_csv(path, ["molecule", "routes"],
              ([molecule, stats.counts[molecule]] for molecule in sorted(stats.counts)))


def write_trace_csv(path: str | Path, traces: list[tuple[str, RunTrace]]) -> None:
    """One row per iteration, tagged with the run it belongs to."""
    write_csv(path, ["run", "iteration", "expanded", "molecule_nodes",
                     "reaction_nodes", "targets_successful"],
              ([run, rec.iteration, rec.expanded, rec.molecule_nodes,
                rec.reaction_nodes, sum(rec.successes)]
               for run, trace in traces for rec in trace))
