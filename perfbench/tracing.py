"""Span recording around retrograph's public functions, installed from outside.

The benchmark never edits the package. It replaces module attributes and
class attributes with thin wrappers that record one span per call: a name,
a start and end time from ``time.perf_counter``, and the index of the span
that was open when the call began. Spans live in flat lists until the run
ends. A few hooks also count work at the same boundary (reactant slots per
merge, open nodes priced, tensors allocated) so that ratios are measured
where the work happens.

Untraced runs install only the probes that the end-to-end latency numbers
need (the per-target or per-batch ``plan`` call and the training epochs);
traced runs install every wrapper in :func:`install`.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    """Flat in-memory span store plus per-pass counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.results: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counts: Counter[str] = Counter()
        self.nodes_max = 0
        self.expand_seen: set[tuple[str, int | None]] = set()
        self.check_errors: list[str] = []

    # -- recording ---------------------------------------------------------

    def begin_pass(self) -> int:
        """Reset the per-pass counters; returns the first span index of the
        pass."""
        self.counts = Counter()
        self.results.clear()
        self.nodes_max = 0
        self.expand_seen = set()
        return len(self.names)

    def wrap(self, name: str, fn, hook=None, keep_result: bool = False):
        """A wrapper recording one span per call of *fn*.

        *hook(args, kwargs)* runs before the call, outside the span, and may
        return a callable that receives the result after the span closes.
        """
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        results = self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = hook(args, kwargs) if hook is not None else None
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep_result:
                results[idx] = result
            if finish is not None:
                finish(result)
            return result

        return wrapper

    def count_calls(self, counter: str, fn):
        """A span-free wrapper that only counts calls (for hot constructors)."""
        counts = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``. For a module-level function every loaded
        retrograph module that imported it by name is patched too, so calls
        through ``from .x import f`` are seen as well."""
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "retrograph"
                                      or mod_name.startswith("retrograph.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def spans_named(self, name: str, first: int) -> list[int]:
        return [i for i in range(first, len(self.names)) if self.names[i] == name]

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start, end (seconds)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i]!r},"
                         f"{self.ends[i]!r}\n")


# -- what gets wrapped -------------------------------------------------------

def _merge_hook(tracer: Tracer):
    def hook(args, kwargs):
        # every caller passes the reactions as a list, so len() is safe
        graph = args[0]
        reactions = args[2] if len(args) > 2 else kwargs["reactions"]
        before = len(graph.nodes)
        slots = sum(len(r.reactants) for r in reactions)

        def finish(_result):
            added = len(graph.nodes) - before
            new_molecules = added - len(reactions)
            tracer.counts["reactant_slots"] += slots
            tracer.counts["reactant_reused"] += slots - new_molecules
            tracer.nodes_max = max(tracer.nodes_max, len(graph.nodes))
        return finish
    return hook


def _expand_hook(tracer: Tracer):
    def hook(args, kwargs):
        molecule = args[1] if len(args) > 1 else kwargs["molecule"]
        k = args[2] if len(args) > 2 else kwargs.get("k")
        key = (molecule, k)
        if key in tracer.expand_seen:
            tracer.counts["expand_repeats"] += 1
        else:
            tracer.expand_seen.add(key)
        return None
    return hook


def _count_results(tracer: Tracer, counter: str):
    """Adds len(result) to *counter* after each call."""
    def hook(args, kwargs):
        def finish(result):
            tracer.counts[counter] += len(result)
        return finish
    return hook


def _score_hook(tracer: Tracer):
    """Counts nodes scored and checks the normalized scores against the
    open molecule nodes recounted from the snapshot itself."""
    def hook(args, kwargs):
        snap = args[0] if args else kwargs["snap"]

        def finish(result):
            tracer.counts["nodes_scored"] += len(result.normalized)
            open_ids = {i for i, n in enumerate(snap["nodes"])
                        if n["kind"] == "molecule" and n["open"]}
            if set(result.normalized) != open_ids:
                tracer.check_errors.append(
                    f"score keys {sorted(result.normalized)} are not the open "
                    f"molecule nodes {sorted(open_ids)}")
            total = math.fsum(result.normalized.values())
            if not abs(total - 1.0) <= 1e-9:
                tracer.check_errors.append(
                    f"normalized scores sum to {total!r}, not 1 within 1e-9")
        return finish
    return hook


def _save_dataset_hook(tracer: Tracer):
    def hook(args, kwargs):
        path = args[0] if args else kwargs["path"]

        def finish(_result):
            tracer.counts["dataset_bytes"] += os.path.getsize(path)
        return finish
    return hook


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap the probes every run needs and, when *traced*, every layer."""
    from retrograph import (cli, costmodel, metrics, molspace, numerics, planner,
                            policygnn, searchgraph, traindata)

    # always on: the per-target / per-batch plan call and training epochs
    tracer.patch(planner, "plan", tracer.wrap("planner.plan", planner.plan,
                                              keep_result=True))
    tracer.patch(policygnn, "train", tracer.wrap("policygnn.train", policygnn.train))
    tracer.patch(policygnn, "evaluate",
                 tracer.wrap("policygnn.evaluate", policygnn.evaluate))
    if not traced:
        return

    def fn(owner, attr, name, hook=None):
        tracer.patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], hook))

    fn(cli, "main", "cli.main")
    fn(molspace.ExpansionOracle, "expand", "molspace.expand", _expand_hook(tracer))
    fn(molspace, "features", "molspace.features")
    graph = searchgraph.SearchGraph
    fn(graph, "merge_expand", "searchgraph.merge_expand", _merge_hook(tracer))
    fn(graph, "propagate_update", "searchgraph.propagate_update")
    for scan in SCANS:
        fn(graph, scan, f"searchgraph.{scan}")
    fn(graph, "snapshot", "searchgraph.snapshot")
    fn(graph, "check_invariants", "searchgraph.check_invariants")
    for model in (costmodel.ZeroCost, costmodel.ValueNetCost, costmodel.GnnCost):
        fn(model, "open_costs", "costmodel.open_costs",
           _count_results(tracer, "open_nodes_priced"))
    fn(planner, "batch_plan", "planner.batch_plan")
    fn(planner, "select_next", "planner.select_next")
    fn(planner, "extract_route", "planner.extract_route")
    fn(planner, "kmeans", "planner.kmeans")
    fn(policygnn, "score", "policygnn.score", _score_hook(tracer))
    fn(policygnn, "init_encoding", "policygnn.init_encoding")
    fn(policygnn, "meta_layer", "policygnn.meta_layer")
    fn(policygnn, "example_loss", "policygnn.example_loss")
    fn(numerics.Tensor, "backward", "numerics.backward")
    fn(numerics.AdamState, "step", "numerics.adam_step")
    tracer.patch(numerics.Tensor, "__init__",
                 tracer.count_calls("tensor_allocs", numerics.Tensor.__init__))
    fn(traindata, "generate", "traindata.generate", _count_results(tracer, "examples"))
    fn(traindata, "replay_route", "traindata.replay_route")
    fn(traindata, "save_dataset", "traindata.save_dataset", _save_dataset_hook(tracer))
    fn(traindata, "load_dataset", "traindata.load_dataset",
       _count_results(tracer, "examples_loaded"))
    fn(metrics, "write_trace_csv", "metrics.write_trace_csv")


SCANS = ("open_nodes", "molecule_count", "reaction_count", "all_targets_successful")

LAYERS = ("molspace", "searchgraph", "costmodel", "planner", "policygnn",
          "numerics", "traindata", "metrics", "cli")


# -- per-layer metrics of one pass -----------------------------------------

def layer_metrics(tracer: Tracer, first: int, output_bytes: int) -> dict[str, float]:
    """Per-layer numbers for the spans recorded since index *first*."""
    n = len(tracer.names)
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    child_time = [0.0] * (n - first)
    for i in range(first, n):
        d = tracer.ends[i] - tracer.starts[i]
        calls[tracer.names[i]] += 1
        total[tracer.names[i]] += d
        p = tracer.parents[i]
        if p >= first:
            child_time[p - first] += d
    layer_self: Counter[str] = Counter()
    layer_total: Counter[str] = Counter()
    layer_of = [name.split(".", 1)[0] for name in tracer.names[first:n]]
    for i in range(first, n):
        layer = layer_of[i - first]
        layer_self[layer] += tracer.ends[i] - tracer.starts[i] - child_time[i - first]
        p = tracer.parents[i]
        while p >= first and layer_of[p - first] != layer:
            p = tracer.parents[p]
        if p < first:  # outermost span of its layer
            layer_total[layer] += tracer.ends[i] - tracer.starts[i]
    c = tracer.counts
    expand_calls = calls["molspace.expand"]
    plan_spans = tracer.spans_named("planner.plan", first)
    out = {
        "molspace.expand_calls": expand_calls,
        "molspace.expand_s": total["molspace.expand"],
        "molspace.expand_repeat_ratio": (c["expand_repeats"] / expand_calls
                                         if expand_calls else 0.0),
        "molspace.features_calls": calls["molspace.features"],
        "molspace.features_s": total["molspace.features"],
        "searchgraph.merge_expand_calls": calls["searchgraph.merge_expand"],
        "searchgraph.merge_expand_s": total["searchgraph.merge_expand"],
        "searchgraph.propagate_s": total["searchgraph.propagate_update"],
        "searchgraph.scan_calls": sum(calls[f"searchgraph.{s}"] for s in SCANS),
        "searchgraph.scan_s": sum(total[f"searchgraph.{s}"] for s in SCANS),
        "searchgraph.snapshot_calls": calls["searchgraph.snapshot"],
        "searchgraph.snapshot_s": total["searchgraph.snapshot"],
        "searchgraph.check_invariants_s": total["searchgraph.check_invariants"],
        "searchgraph.reactant_reuse_ratio": (
            c["reactant_reused"] / c["reactant_slots"] if c["reactant_slots"] else 0.0),
        "searchgraph.nodes_max": tracer.nodes_max,
        "costmodel.open_costs_calls": calls["costmodel.open_costs"],
        "costmodel.open_costs_s": total["costmodel.open_costs"],
        "costmodel.open_nodes_priced": c["open_nodes_priced"],
        "planner.plan_calls": calls["planner.plan"],
        "planner.plan_s": total["planner.plan"],
        "planner.select_next_s": total["planner.select_next"],
        "planner.extract_route_calls": calls["planner.extract_route"],
        "planner.extract_route_s": total["planner.extract_route"],
        "planner.kmeans_s": total["planner.kmeans"],
        "planner.expansions": sum(tracer.results[i].iterations for i in plan_spans),
        "policygnn.score_calls": calls["policygnn.score"],
        "policygnn.score_s": total["policygnn.score"],
        "policygnn.nodes_scored": c["nodes_scored"],
        "policygnn.init_encoding_s": total["policygnn.init_encoding"],
        "policygnn.meta_layer_s": total["policygnn.meta_layer"],
        "policygnn.example_loss_calls": calls["policygnn.example_loss"],
        "policygnn.example_loss_s": total["policygnn.example_loss"],
        "policygnn.evaluate_s": total["policygnn.evaluate"],
        # examples x epochs per second inside train(); one evaluate() per epoch
        "policygnn.train_examples_per_s": (
            c["examples_loaded"] * calls["policygnn.evaluate"] / total["policygnn.train"]
            if total["policygnn.train"] else 0.0),
        "numerics.tensor_allocs": c["tensor_allocs"],
        "numerics.backward_s": total["numerics.backward"],
        "numerics.adam_step_s": total["numerics.adam_step"],
        "traindata.generate_s": total["traindata.generate"],
        "traindata.replay_route_s": total["traindata.replay_route"],
        "traindata.examples": c["examples"],
        "traindata.save_dataset_s": total["traindata.save_dataset"],
        "traindata.load_dataset_s": total["traindata.load_dataset"],
        "traindata.dataset_bytes": c["dataset_bytes"],
        "metrics.write_trace_csv_s": total["metrics.write_trace_csv"],
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.total_s"] = layer_total[layer]
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
