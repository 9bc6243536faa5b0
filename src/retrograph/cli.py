"""Command-line front end.

Subcommands cover the whole workflow: plan single targets, plan batches in
shared graphs, generate training data, train the policy network, evaluate
result files, and run the graph-versus-tree redundancy study. Settings come
from an optional JSON config file with flags taking precedence; the seed
falls back to the RETROGRAPH_SEED environment variable. Outputs are fully
determined by config plus seed, so reruns are byte-identical.

Exit codes: 0 all targets succeeded, 1 some target failed, 2 config or IO
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import metrics, policygnn, traindata
from .costmodel import make_cost_model
from .molspace import ExpansionOracle, Inventory, TableDomain, make_domain
from .planner import PlanConfig, PlanResult, PlanningError, batch_plan, plan
from .searchgraph import ContractViolation

ENV_SEED = "RETROGRAPH_SEED"


class ConfigError(ValueError):
    """Bad configuration or unusable input files."""


@dataclass
class RunConfig:
    domain: str = "additive-split"
    inventory: str | None = None
    inventory_max: int = 3
    targets: str | None = None
    mode: str = "graph"
    cost: str = "zero"
    checkpoint: str | None = None
    budget: int = 100
    k: int = 50
    batch_size: int = 1
    clusters: int = 1
    seed: int = 0
    out: str = "out"
    bits: int = 2048
    lam: float = 1.0
    limits: list[int] = dataclasses.field(default_factory=lambda: [10, 20, 50, 100])
    full_k: bool = False
    epochs: int = 20
    lr: float = 1e-4
    train_batch: int = 32
    val_n: int = 32
    hidden: int = 128
    rbf_n: int = 64
    layers: int = 3
    drop_rate: float = 0.1
    margin: float = 4.0


# a config-file value's accepted types, by RunConfig field annotation
_INT = lambda x: isinstance(x, int) and not isinstance(x, bool)
_VALUE_OK = {
    "str": lambda x: isinstance(x, str),
    "str | None": lambda x: x is None or isinstance(x, str),
    "int": _INT,
    "float": policygnn.is_float_setting,
    "bool": lambda x: isinstance(x, bool),
    "list[int]": lambda x: isinstance(x, list) and all(_INT(i) for i in x),
}

_FLAG_FIELDS = ("domain", "inventory", "targets", "mode", "cost", "checkpoint",
                "budget", "k", "batch_size", "clusters", "seed", "out")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Config file first, then flag overrides, then the seed fallback."""
    values: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        unknown = set(raw) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _VALUE_OK[types[key]](value):
                raise ConfigError(f"config key {key!r} must be {types[key]}, got {value!r}")
        values.update(raw)
    for name in _FLAG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if values.get("seed") is None:
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                values["seed"] = int(env)
            except ValueError as exc:
                raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        else:
            values.pop("seed", None)
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        plan_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def plan_config(cfg: RunConfig) -> PlanConfig:
    return PlanConfig(budget=cfg.budget, k=cfg.k, mode=cfg.mode,
                      batch_size=cfg.batch_size, clusters=cfg.clusters,
                      seed=cfg.seed)


def _inputs(cfg: RunConfig) -> tuple[ExpansionOracle, Inventory, list[str]]:
    """The domain, the inventory and the non-blank target lines, checked in
    that order; a missing or blank target file, or a line the domain cannot
    parse, is a config error."""
    try:
        domain = make_domain(cfg.domain, seed=cfg.seed)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot build domain {cfg.domain!r}: {exc}") from exc
    if cfg.inventory is not None:
        try:
            inventory = Inventory.from_file(cfg.inventory)
        except OSError as exc:
            raise ConfigError(f"cannot read inventory {cfg.inventory}: {exc}") from exc
    elif isinstance(domain, TableDomain):
        raise ConfigError("table domains need an explicit --inventory file")
    else:
        try:
            inventory = Inventory.integer_range(cfg.inventory_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.targets is None:
        raise ConfigError("this command needs --targets (one molecule per line)")
    try:
        lines = Path(cfg.targets).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read targets {cfg.targets}: {exc}") from exc
    targets = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                domain.canonical(line)
            except ValueError as exc:
                raise ConfigError(f"{cfg.targets} line {number}: {exc}") from exc
            targets.append(line.strip())
    if not targets:
        raise ConfigError(f"no targets in {cfg.targets}")
    return domain, inventory, targets


def _cost_model(cfg: RunConfig):
    try:
        return make_cost_model(cfg.cost, cfg.checkpoint, cfg.lam)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot build cost model {cfg.cost!r}: {exc}") from exc


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def cmd_plan(cfg: RunConfig) -> int:
    domain, inventory, targets = _inputs(cfg)
    cost_model = _cost_model(cfg)
    pcfg = plan_config(cfg)
    out = _outdir(cfg)
    results = []
    traces = []
    for target in targets:
        result = plan([target], domain, inventory, pcfg, cost_model)
        results.append(result)
        traces.append((result.targets[0].molecule, result.trace))
    _dump_json(out / "result.json", {
        "version": 1, "command": "plan", "mode": cfg.mode, "cost": cfg.cost,
        "seed": cfg.seed, "results": [r.to_dict() for r in results],
    })
    metrics.write_trace_csv(out / "trace.csv", traces)
    return 0 if all(r.all_success for r in results) else 1


def cmd_batch_plan(cfg: RunConfig) -> int:
    domain, inventory, targets = _inputs(cfg)
    cost_model = _cost_model(cfg)
    try:
        results = batch_plan(targets, domain, inventory, plan_config(cfg),
                             cost_model, bits=cfg.bits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(cfg)
    _dump_json(out / "result.json", {
        "version": 1, "command": "batch-plan", "mode": cfg.mode, "cost": cfg.cost,
        "seed": cfg.seed, "batch_size": cfg.batch_size, "clusters": cfg.clusters,
        "results": [r.to_dict() for r in results],
    })
    metrics.write_trace_csv(
        out / "trace.csv",
        [(f"batch{i}", r.trace) for i, r in enumerate(results)],
    )
    return 0 if all(r.all_success for r in results) else 1


def cmd_gen_data(cfg: RunConfig) -> int:
    domain, inventory, targets = _inputs(cfg)
    examples = traindata.generate(targets, domain, inventory, plan_config(cfg),
                                  full_k=cfg.full_k)
    out = _outdir(cfg)
    traindata.save_dataset(out / "dataset.jsonl", examples)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    if cfg.targets is None or not Path(cfg.targets).exists():
        raise ConfigError("train needs --targets pointing at a dataset JSONL file")
    try:
        dataset = traindata.load_dataset(cfg.targets)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load dataset {cfg.targets}: {exc}") from exc
    if len(dataset) < 2:
        raise ConfigError(f"dataset {cfg.targets} has too few examples to train on")
    val_n = min(cfg.val_n, len(dataset) - 1)
    try:
        train_set, val_set = traindata.split(dataset, val_n, cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        hyper = policygnn.GnnHyper(
            hidden=cfg.hidden, rbf_n=cfg.rbf_n, layers=cfg.layers,
            feature_bits=cfg.bits, drop_rate=cfg.drop_rate, margin=cfg.margin,
        )
        result = policygnn.train(train_set, val_set, hyper, seed=cfg.seed,
                                 epochs=cfg.epochs, batch_size=cfg.train_batch,
                                 lr=cfg.lr)
    except ValueError as exc:
        raise ConfigError(f"cannot train: {exc}") from exc
    out = _outdir(cfg)
    result.params.save(out / "gnn.bin")
    metrics.write_csv(out / "train_log.csv", ["epoch", "bce", "rank", "total", "val_rank"],
                      ([row["epoch"], repr(row["bce"]), repr(row["rank"]),
                        repr(row["total"]), repr(row["val_rank"])] for row in result.log))
    _dump_json(out / "train_summary.json", {
        "version": 1, "command": "train", "best_epoch": result.best_epoch,
        "epochs": cfg.epochs, "examples": len(dataset), "seed": cfg.seed,
    })
    return 0


def _load_results(paths: list[str]) -> list[PlanResult]:
    results = []
    for path in paths:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            results.extend(PlanResult.from_dict(r) for r in payload["results"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load results {path}: {exc}") from exc
    return results


def cmd_eval(cfg: RunConfig, result_files: list[str]) -> int:
    results = _load_results(result_files)
    try:
        curve = metrics.success_curve(results, cfg.limits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(cfg)
    metrics.write_curve_csv(out / "curve.csv", curve)
    routes = [t.route for r in results for t in r.targets if t.route is not None]
    summary = {"version": 1, "command": "eval", "curve": curve}
    if routes:
        reuse = metrics.reuse_histogram(routes)
        summary["reuse"] = {"mean": reuse.mean, "top": reuse.top}
        metrics.write_reuse_csv(out / "reuse.csv", reuse)
    _dump_json(out / "summary.json", summary)
    return 0


def cmd_study_redundancy(cfg: RunConfig) -> int:
    domain, inventory, targets = _inputs(cfg)
    if len(targets) < 2:
        raise ConfigError("study-redundancy needs at least two targets")
    cost_model = _cost_model(cfg)
    rows = []
    traces: dict[str, list] = {"graph": [], "tree": []}
    for mode in ("graph", "tree"):
        pcfg = replace(plan_config(cfg), mode=mode)
        for target in targets:
            result = plan([target], domain, inventory, pcfg, cost_model)
            if not result.trace:
                continue
            traces[mode].append(result.trace)
            rows.append({
                "target": result.targets[0].molecule, "mode": mode,
                "expanded": len(result.trace),
                "unique": len({rec.expanded for rec in result.trace}),
            })
    out = _outdir(cfg)
    metrics.write_redundancy_csv(out / "redundancy.csv", rows)
    summary = {"version": 1, "command": "study-redundancy"}
    for mode in ("graph", "tree"):
        study = metrics.redundancy_study(traces[mode])
        summary[mode] = {
            "slope": study.slope, "intercept": study.intercept,
            "r_squared": study.r_squared, "mean_ratio": study.mean_ratio,
            "runs": len(study.points),
        }
    _dump_json(out / "summary.json", summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrograph",
        description="Plan syntheses on a deduplicated AND-OR search graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--domain", default=None,
                       help="additive-split, factor-split, or a reactions JSONL path")
        p.add_argument("--inventory", default=None, help="inventory file, one key per line")
        p.add_argument("--targets", default=None, help="targets file, one molecule per line")
        p.add_argument("--mode", default=None, choices=["graph", "tree"])
        p.add_argument("--cost", default=None, choices=["zero", "value_net", "gnn"])
        p.add_argument("--checkpoint", default=None, help="cost-model weight file")
        p.add_argument("--budget", default=None, type=int)
        p.add_argument("--k", default=None, type=int)
        p.add_argument("--batch-size", dest="batch_size", default=None, type=int)
        p.add_argument("--clusters", default=None, type=int)
        p.add_argument("--seed", default=None, type=int,
                       help=f"falls back to ${ENV_SEED}, then 0")
        p.add_argument("--out", default=None, help="output directory")

    for name in ("plan", "batch-plan", "gen-data", "train", "study-redundancy"):
        common(sub.add_parser(name))
    eval_p = sub.add_parser("eval")
    common(eval_p)
    eval_p.add_argument("results", nargs="+", help="result JSON files from plan runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "eval":
            return cmd_eval(cfg, args.results)
        # the parser admits only these commands
        return {"plan": cmd_plan, "batch-plan": cmd_batch_plan, "gen-data": cmd_gen_data,
                "train": cmd_train, "study-redundancy": cmd_study_redundancy}[args.command](cfg)
    except (ConfigError, PlanningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, FloatingPointError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
