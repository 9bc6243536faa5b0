"""Independent checks on the files the CLI writes.

Nothing here uses retrograph's own validators: routes, traces, datasets and
training logs are parsed from the files and checked against the additive-
split domain's rules directly. Every function returns a list of error
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

INVENTORY = frozenset({"1", "2", "3"})

TRACE_HEADER = ["run", "iteration", "expanded", "molecule_nodes",
                "reaction_nodes", "targets_successful"]


# -- routes and result.json ---------------------------------------------------

def check_route(route: dict, where: str) -> list[str]:
    """Walk one route tree: inventory leaves, additive splits, positive
    finite costs, and no molecule repeated on a root-to-leaf path."""
    errors: list[str] = []

    def walk(tree: dict, path: frozenset[str]) -> None:
        mol = tree["molecule"]
        if not (isinstance(mol, str) and mol.isdigit() and int(mol) >= 1
                and str(int(mol)) == mol):
            errors.append(f"{where}: molecule {mol!r} is not a canonical integer")
            return
        if mol in path:
            errors.append(f"{where}: molecule {mol} repeats on a root-to-leaf path")
            return
        rxn = tree["reaction"]
        if rxn is None:
            if mol not in INVENTORY:
                errors.append(f"{where}: leaf {mol} is not in the inventory")
            return
        cost = rxn["cost"]
        if not (isinstance(cost, (int, float)) and math.isfinite(cost) and cost > 0):
            errors.append(f"{where}: reaction at {mol} has cost {cost!r}")
        children = rxn["children"]
        values = [int(c["molecule"]) for c in children
                  if isinstance(c.get("molecule"), str) and c["molecule"].isdigit()]
        n = int(mol)
        split = ((len(children) == 2 and len(values) == 2 and sum(values) == n)
                 or (len(children) == 1 and len(values) == 1 and 2 * values[0] == n))
        if not split:
            errors.append(f"{where}: children {[c.get('molecule') for c in children]} "
                          f"are not an additive split of {mol}")
        for child in children:
            walk(child, path | {mol})

    walk(route, frozenset())
    return errors


def check_result(payload: dict, targets: list[str], budget: int,
                 batch_size: int | None = None) -> list[str]:
    """result.json of `plan` (one target per result) or `batch-plan`
    (*batch_size* set: the batches must partition *targets*)."""
    errors: list[str] = []
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        return ["result.json has no results"]
    seen: list[str] = []
    limit = 1 if batch_size is None else batch_size
    for i, res in enumerate(results):
        mols = [t["molecule"] for t in res["targets"]]
        seen.extend(mols)
        if not 1 <= len(mols) <= limit:
            errors.append(f"result {i} holds {len(mols)} targets, expected 1..{limit}")
        iterations = res["totals"]["iterations"]
        if not 0 <= iterations <= budget * len(mols):
            errors.append(f"result {i} ran {iterations} iterations, budget "
                          f"{budget} x {len(mols)}")
        for t in res["targets"]:
            where = f"result {i} target {t['molecule']}"
            first = t["first_success_iteration"]
            if t["success"] != (t["route"] is not None):
                errors.append(f"{where}: success={t['success']} but route "
                              f"{'missing' if t['route'] is None else 'present'}")
            if t["success"] and not (isinstance(first, int) and 0 <= first <= iterations):
                errors.append(f"{where}: first success iteration {first!r} "
                              f"outside 0..{iterations}")
            if not t["success"] and first is not None:
                errors.append(f"{where}: unsolved but first success {first!r}")
            if t["route"] is not None:
                if t["route"]["molecule"] != t["molecule"]:
                    errors.append(f"{where}: route root is {t['route']['molecule']!r}")
                errors.extend(check_route(t["route"], where))
    if sorted(seen) != sorted(targets) or len(set(seen)) != len(seen):
        kind = "batches" if batch_size is not None else "results"
        errors.append(f"{kind} do not partition the {len(targets)} targets")
    return errors


# -- trace.csv -------------------------------------------------------------------

def check_trace(text: str, payload: dict, budget: int,
                batched: bool = False) -> list[str]:
    """trace.csv against its result.json: iterations 1..n with n equal to
    the run's total and within budget, node counts never decreasing, and no
    molecule expanded twice in one graph-mode run."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TRACE_HEADER:
        return [f"trace.csv header is {rows[0] if rows else None}"]
    runs: dict[str, list[list[str]]] = {}
    order: list[str] = []
    for row in rows[1:]:
        if len(row) != len(TRACE_HEADER):
            return [f"trace.csv row {row} has {len(row)} fields"]
        if row[0] not in runs:
            runs[row[0]] = []
            order.append(row[0])
        elif order[-1] != row[0]:
            return [f"trace.csv rows of run {row[0]} are not contiguous"]
        runs[row[0]].append(row)
    errors: list[str] = []
    results = payload["results"]
    expected_tags = []
    for i, res in enumerate(results):
        tag = f"batch{i}" if batched else res["targets"][0]["molecule"]
        if res["totals"]["iterations"] > 0:
            expected_tags.append(tag)
        errors.extend(_check_run(tag, runs.get(tag, []), res, budget,
                                 payload.get("mode") == "graph"))
    if order != expected_tags:
        errors.append(f"trace.csv runs {order[:5]}... do not match the results")
    return errors


def _check_run(tag: str, rows: list[list[str]], res: dict, budget: int,
               graph_mode: bool) -> list[str]:
    errors: list[str] = []
    n = res["totals"]["iterations"]
    iterations = [int(r[1]) for r in rows]
    if iterations != list(range(1, len(rows) + 1)):
        errors.append(f"run {tag}: iterations do not run 1..{len(rows)}")
    if len(rows) != n:
        errors.append(f"run {tag}: {len(rows)} trace rows, totals.iterations is {n}")
    if len(rows) > budget * len(res["targets"]):
        errors.append(f"run {tag}: {len(rows)} iterations exceed the budget")
    for col, name in ((3, "molecule"), (4, "reaction")):
        counts = [int(r[col]) for r in rows]
        if any(b < a for a, b in zip(counts, counts[1:])):
            errors.append(f"run {tag}: {name} node count decreases")
        if counts and counts[-1] != res["totals"][f"{name}_nodes"]:
            errors.append(f"run {tag}: last {name} count {counts[-1]} != totals")
    expanded = [r[2] for r in rows]
    if graph_mode and len(set(expanded)) != len(expanded):
        errors.append(f"run {tag}: a molecule was expanded twice in graph mode")
    return errors


# -- training data and training log ----------------------------------------------

def check_dataset(text: str) -> tuple[list[str], int]:
    """dataset.jsonl: labels cover exactly the open molecule nodes with at
    least one positive; every snapshot bipartite with one product per
    reaction node. Returns (errors, number of examples)."""
    lines = text.splitlines()
    if not lines or json.loads(lines[0]) != {"kind": "header", "schema_version": 1}:
        return ["dataset.jsonl has no version-1 header"], 0
    errors: list[str] = []
    count = 0
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        count += 1
        rec = json.loads(line)
        nodes, edges, labels = rec["nodes"], rec["edges"], rec["labels"] or {}
        open_ids = {i for i, nd in enumerate(nodes)
                    if nd["kind"] == "molecule" and nd["open"]}
        if {int(k) for k in labels} != open_ids:
            errors.append(f"line {lineno}: labels do not cover exactly the open nodes")
        if any(v not in (0, 1) for v in labels.values()):
            errors.append(f"line {lineno}: labels are not 0/1")
        if 1 not in labels.values():
            errors.append(f"line {lineno}: no positive label")
        products = [0] * len(nodes)
        for src, dst in edges:
            if not (0 <= src < len(nodes) and 0 <= dst < len(nodes)):
                errors.append(f"line {lineno}: edge {src}->{dst} out of range")
                continue
            if nodes[src]["kind"] == nodes[dst]["kind"]:
                errors.append(f"line {lineno}: edge {src}->{dst} is not bipartite")
            if nodes[dst]["kind"] == "reaction":
                products[dst] += 1
        for i, nd in enumerate(nodes):
            if nd["kind"] == "reaction" and products[i] != 1:
                errors.append(f"line {lineno}: reaction node {i} has "
                              f"{products[i]} products")
    return errors, count


def check_train_log(text: str, epochs: int) -> list[str]:
    """train_log.csv: one row per epoch, every loss finite, and the last
    epoch's training loss below the first."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["epoch", "bce", "rank", "total", "val_rank"]:
        return ["train_log.csv has the wrong header"]
    body = rows[1:]
    errors: list[str] = []
    if [int(r[0]) for r in body] != list(range(1, epochs + 1)):
        errors.append(f"train_log.csv epochs are not 1..{epochs}")
    for r in body:
        if not all(math.isfinite(float(x)) for x in r[1:]):
            errors.append(f"epoch {r[0]}: a logged loss is not finite")
    if len(body) >= 2 and not float(body[-1][3]) < float(body[0][3]):
        errors.append(f"last epoch's training loss {body[-1][3]} is not below "
                      f"the first {body[0][3]}")
    return errors


# -- reruns ------------------------------------------------------------------------

def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under *root*, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare_digests(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """A later pass must write exactly the files of the first, byte for byte."""
    if first == later:
        return []
    changed = sorted(k for k in set(first) | set(later) if first.get(k) != later.get(k))
    return [f"output differs from the first pass: {', '.join(changed)}"]
