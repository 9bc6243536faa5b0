"""The four benchmark workloads: their inputs, commands, checks and samples.

Every workload uses the additive-split domain with program seed 0 and the
inventory {1, 2, 3}. The benchmark's ``--seed`` never reaches the program;
it only changes how the inputs are written (the order of targets where the
outputs do not depend on it, and the spelling of each target: leading
zeros and surrounding blanks, which the CLI canonicalizes away).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import checks

ODD_TARGETS = [str(n) for n in range(101, 300, 2)]
EVEN_TARGETS = [str(n) for n in range(100, 300, 2)]

# acceptance-criterion network size (criteria 07 and 08)
GNN_SIZE = {"hidden": 256, "rbf_n": 32, "layers": 2, "bits": 256}
GNN_TARGETS = ODD_TARGETS[:6]
TRAIN_TARGETS = EVEN_TARGETS[:7]   # 99 replay examples with full_k
TRAIN_EPOCHS = 2


def spell(target: str, rng: random.Random) -> str:
    """One of the spellings the CLI must canonicalize to *target*."""
    blank = lambda: " " * rng.randrange(2)
    return blank() + "0" * rng.randrange(3) + target + blank()


def write_targets(path: Path, targets: list[str], rng: random.Random) -> None:
    path.write_text("".join(spell(t, rng) + "\n" for t in targets), encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    out: Path


def _plan_argv(command: str, inputs: dict, budget: int, k: int, out: Path) -> list[str]:
    return [command, "--domain", "additive-split", "--seed", "0",
            "--targets", str(inputs["targets"]), "--budget", str(budget),
            "--k", str(k), "--config", str(inputs["config"]), "--out", str(out)]


class Workload:
    name = ""
    why = ""
    budget = 0
    k = 0

    def prepare(self, work: Path, rng: random.Random) -> dict:
        """Write the input files into *work*; returns their paths."""
        raise NotImplementedError

    def commands(self, inputs: dict, out: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, command: Command) -> list[str]:
        raise NotImplementedError

    def latency_samples(self, tracer, first: int) -> list[float]:
        """Per-target (or per-batch) seconds: the top-level plan calls."""
        return [tracer.duration(i) for i in tracer.spans_named("planner.plan", first)]


class _PlanWorkload(Workload):
    command = "plan"
    targets: list[str] = []
    shuffle = True
    batch_size: int | None = None
    config: dict = {}

    def prepare(self, work: Path, rng: random.Random) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        order = list(self.targets)
        if self.shuffle:
            rng.shuffle(order)
        inputs = {"targets": work / "targets.txt", "config": work / "config.json"}
        write_targets(inputs["targets"], order, rng)
        write_json(inputs["config"], self.make_config(work))
        return inputs

    def make_config(self, work: Path) -> dict:
        return self.config

    def commands(self, inputs: dict, out: Path) -> list[Command]:
        argv = _plan_argv(self.command, inputs, self.budget, self.k, out)
        if self.batch_size is not None:
            argv += ["--batch-size", str(self.batch_size), "--clusters", "4"]
        return [Command(self.command, argv, out)]

    def check(self, command: Command) -> list[str]:
        payload = json.loads((command.out / "result.json").read_text(encoding="utf-8"))
        errors = checks.check_result(payload, self.targets, self.budget, self.batch_size)
        if errors:
            return errors
        trace = (command.out / "trace.csv").read_text(encoding="utf-8")
        return checks.check_trace(trace, payload, self.budget,
                                  batched=self.batch_size is not None)


class PlanSingle(_PlanWorkload):
    name = "plan-single"
    why = ("plan at CLI defaults, one graph per target: oracle expansion and "
           "per-iteration whole-graph scans dominate")
    targets = ODD_TARGETS
    budget, k = 100, 50


class PlanBatch(_PlanWorkload):
    name = "plan-batch"
    why = ("batch-plan of the same targets in shared graphs of 8: inter-target "
           "dedup, with route extraction the largest cost")
    command = "batch-plan"
    targets = ODD_TARGETS
    shuffle = False   # the file order decides the batches, so it stays fixed
    budget, k = 100, 50
    batch_size = 8
    config = {"bits": 2048}


class PlanGnn(_PlanWorkload):
    name = "plan-gnn"
    why = ("plan guided by the policy network at acceptance size: GNN "
           "inference is nearly all of the time")
    targets = GNN_TARGETS
    budget, k = 50, 6

    def make_config(self, work: Path) -> dict:
        """Saves the seeded, untrained network as the checkpoint to plan with."""
        from retrograph import policygnn
        hyper = policygnn.GnnHyper(
            hidden=GNN_SIZE["hidden"], rbf_n=GNN_SIZE["rbf_n"], layers=GNN_SIZE["layers"],
            feature_bits=GNN_SIZE["bits"], drop_rate=0.0, margin=4.0)
        policygnn.GnnParameters(hyper, seed=0).save(work / "gnn.bin")
        return {"cost": "gnn", "checkpoint": str(work / "gnn.bin"), "lam": 0.5}


class Train(Workload):
    name = "train"
    why = ("gen-data with full_k then a short training run: gradients and Adam "
           "through the same network layer as plan-gnn")
    budget, k = 120, 6

    def prepare(self, work: Path, rng: random.Random) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        order = list(TRAIN_TARGETS)
        rng.shuffle(order)   # gen-data sorts targets, so the order must not matter
        inputs = {"targets": work / "targets.txt", "config": work / "gen.json",
                  "train_config": work / "train.json"}
        write_targets(inputs["targets"], order, rng)
        write_json(inputs["config"], {"full_k": True})
        write_json(inputs["train_config"], dict(
            GNN_SIZE, drop_rate=0.0, margin=4.0, epochs=TRAIN_EPOCHS, train_batch=32,
            val_n=16, lr=1e-4))
        return inputs

    def commands(self, inputs: dict, out: Path) -> list[Command]:
        data, model = out / "data", out / "model"
        gen = _plan_argv("gen-data", inputs, self.budget, self.k, data)
        train = ["train", "--config", str(inputs["train_config"]), "--seed", "0",
                 "--targets", str(data / "dataset.jsonl"), "--out", str(model)]
        return [Command("gen-data", gen, data), Command("train", train, model)]

    def check(self, command: Command) -> list[str]:
        if command.label == "gen-data":
            text = (command.out / "dataset.jsonl").read_text(encoding="utf-8")
            errors, count = checks.check_dataset(text)
            return errors if count else ["dataset.jsonl holds no examples"]
        log = (command.out / "train_log.csv").read_text(encoding="utf-8")
        errors = checks.check_train_log(log, TRAIN_EPOCHS)
        summary_file = command.out / "train_summary.json"
        summary = json.loads(summary_file.read_text(encoding="utf-8"))
        if not 1 <= summary["best_epoch"] <= TRAIN_EPOCHS:
            errors.append(f"best epoch {summary['best_epoch']} outside 1..{TRAIN_EPOCHS}")
        return errors

    def latency_samples(self, tracer, first: int) -> list[float]:
        """Seconds per training epoch: each epoch ends when its validation
        pass (``evaluate``) returns."""
        samples = []
        for t in tracer.spans_named("policygnn.train", first):
            mark = tracer.starts[t]
            for e in tracer.spans_named("policygnn.evaluate", t):
                if tracer.ends[e] <= tracer.ends[t]:
                    samples.append(tracer.ends[e] - mark)
                    mark = tracer.ends[e]
        return samples


WORKLOADS = {w.name: w for w in (PlanSingle(), PlanBatch(), PlanGnn(), Train())}

