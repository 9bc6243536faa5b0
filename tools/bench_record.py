"""Record a parent/change benchmark comparison as a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent REV --change REV --out BENCH_10.json \
        --what "..." --claim plan-gnn:wall_s:"rule" \
        --workload plan-gnn:10:201 --workload plan-single:5:211 --trace-seed 231

Both revisions are unpacked with ``git archive`` into separate directories
under ``--work``, so the two sides run identical benchmark code from clean
checkouts. Each ``--workload NAME:PAIRS:FIRST_SEED`` runs PAIRS alternated
pairs of ``perfbench/run.py --trace 0`` on seeds FIRST_SEED, FIRST_SEED+1,
...; an even pair runs the parent first, an odd pair the change. Then one
``--trace 1`` run per side on ``--trace-seed`` gives the per-layer metrics.
Runs go one at a time. The file is rewritten after every workload, so an
interrupted recording keeps the workloads already finished. ``--claim`` is
optional: a change that claims no gain is recorded with ``"claim": null``.

``--ab-rounds N`` adds an ``in_process_ab`` section, for metrics whose
spread between processes is wider than their bound. Import time: each of
4N rounds runs ``python -c "import retrograph.cli"`` from one side's
``src/`` and then the other's, the first side flipped every round. CLI CPU:
both sides' packages are imported into this process, and each of N rounds
calls each copy's ``cli.main`` on the command lines of perfbench's four
workloads, the first side flipped every round. The parent's
``perfbench/workloads.py`` supplies those command lines and writes their
inputs, so the A/B runs what perfbench runs.

Each end-to-end metric gets a ``"verdict"`` from its ``BENCHMARK.json``
bound: ``worse`` when the change median is worse than the parent median by
more than the bound; otherwise ``unresolved`` when the parent's IQR over its
median exceeds the bound and not every change run beats every parent run
(record more pairs on new seeds); otherwise ``within``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench's BLAS settings, for the interpreters started here and for the
# in-process A/B; they take effect only before numpy is first imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> None:
    """A clean copy of *rev*'s tracked files at *dest*."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON summary line of one perfbench run in *tree*."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_record: no output from {' '.join(argv)} in {tree}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else (runs[0],) * 3)
    return {"runs": [round(r, 4) for r in runs], "q1": round(q1, 4),
            "median": round(median, 4), "q3": round(q3, 4)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within``, as the module docstring says;
    *bound* is a fraction of the parent median."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse"
    q = quartiles(parent)
    spread = (q["q3"] - q["q1"]) / abs(p_med) if p_med else 0.0
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    return "unresolved" if spread > bound and not beats_all else "within"


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' runs and quartiles, the ratio of medians, and how many
    pairs the change won (ties count for neither side)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"better": better, "parent": quartiles(parent), "change": quartiles(change),
            "change_over_parent_median": round(c_med / p_med, 4) if p_med else None,
            "change_wins": wins, "ties": ties}


def record_workload(trees: dict[str, Path], name: str, pairs: int, first_seed: int,
                    trace_seed: int, seconds: float, end_to_end: dict[str, dict]) -> dict:
    seeds = list(range(first_seed, first_seed + pairs))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(trees[side], name, seed, seconds, 0))
            metrics = runs[side][-1]["metrics"]
            print(f"{name} seed {seed} {side}: wall_s {metrics['wall_s']['value']:.3f}",
                  file=sys.stderr, flush=True)
    traced = {side: run_bench(trees[side], name, trace_seed, seconds, 1)
              for side in ("parent", "change")}
    values = lambda side, metric: [r["metrics"][metric]["value"] for r in runs[side]]
    end = {}
    for m, spec in end_to_end.items():
        parent, change = values("parent", m), values("change", m)
        end[m] = dict(compare(parent, change, spec["better"]),
                      verdict=verdict(parent, change, spec["better"], spec["bound"]))
    return {
        "pairs": pairs,
        "seeds": seeds,
        "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "end_to_end": end,
        "trace_seed": trace_seed,
        "traced_correct": {s: traced[s]["correct"] for s in traced},
        "per_layer": {m: {s: round(traced[s]["metrics"][m]["value"], 4) for s in traced}
                      for m in traced["parent"]["metrics"]},
    }


def import_seconds(tree: Path) -> float:
    """Wall seconds of a fresh interpreter importing *tree*'s ``retrograph.cli``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import retrograph.cli"], cwd=tree, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


@contextlib.contextmanager
def own_modules(path: Path, *tops: str):
    """Imports in the block come from *path*, under module objects of their
    own, so that another copy can be imported beside them. The modules under
    the top-level names *tops* loaded before the block are loaded again
    after it."""
    def take() -> dict:
        return {n: sys.modules.pop(n) for n in list(sys.modules)
                if n.split(".")[0] in tops}

    before = take()
    sys.path.insert(0, str(path))
    try:
        yield
    finally:
        sys.path.remove(str(path))
        take()
        sys.modules.update(before)


def load_cli(tree: Path):
    """*tree*'s ``retrograph.cli``, under module objects of its own."""
    with own_modules(tree / "src", "retrograph"):
        return importlib.import_module("retrograph.cli")


def load_workloads(tree: Path):
    """*tree*'s ``perfbench/workloads.py``, under module objects of its own."""
    with own_modules(tree / "perfbench", "workloads", "checks"):
        return importlib.import_module("workloads")


# perfbench's --seed for the A/B's inputs; it changes only their target
# order and spelling
AB_SEED = 0


def ab_commands(tree: Path, work: Path, sides) -> dict[str, dict[str, list[list[str]]]]:
    """The argv of each perfbench workload's CLI calls, in order, keyed by
    workload name and then side. *tree*'s perfbench writes the inputs under
    *work* as ``perfbench/run.py --seed AB_SEED`` would, with *tree*'s
    package importable to save plan-gnn's checkpoint; each side's outputs
    go under ``work/side``."""
    workloads = load_workloads(tree)
    calls = {}
    with own_modules(tree / "src", "retrograph"):
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.prepare(work / "inputs" / name, random.Random(AB_SEED))
            calls[name] = {side: [c.argv for c in workload.commands(inputs,
                                                                    work / side / name)]
                           for side in sides}
    return calls


def cli_seconds(cli, argv: list[str]) -> tuple[float, float]:
    """(CPU, wall) seconds of one ``cli.main(argv)`` call that exits 0 or 1."""
    c0, t0 = time.process_time(), time.perf_counter()
    rc = cli.main(argv)
    c1, t1 = time.process_time(), time.perf_counter()
    if rc not in (0, 1):
        raise SystemExit(f"bench_record: {' '.join(argv)} exited {rc}")
    return c1 - c0, t1 - t0


def in_process_ab(trees: dict[str, Path], rounds: int) -> dict:
    """The ``in_process_ab`` section: import seconds over 4 * *rounds*
    rounds, and CPU and wall seconds of each perfbench workload (the sum
    over its calls, from :func:`ab_commands`) over *rounds* rounds; the side
    that goes first flips every round."""
    orders = [("parent", "change"), ("change", "parent")]
    imports: dict[str, list[float]] = {"parent": [], "change": []}
    for side in trees:   # warm the bytecode caches
        import_seconds(trees[side])
    for i in range(4 * rounds):
        for side in orders[i % 2]:
            imports[side].append(import_seconds(trees[side]))
    section = {
        "method": ("import: a fresh interpreter runs `import retrograph.cli` from each "
                   "side's src/, bytecode caches warmed first. Workloads: both sides' "
                   "packages imported into one process, each copy's cli.main called "
                   "in turn on the command lines of the parent's "
                   "perfbench/workloads.py, whose prepare writes the inputs (seed "
                   f"{AB_SEED}; the parent's package saves plan-gnn's checkpoint); times "
                   "are per workload, WORK is the temporary directory. The side that "
                   "goes first flips every round. Written by tools/bench_record.py "
                   "--ab-rounds."),
        "import": dict(compare(imports["parent"], imports["change"], "lower"),
                       command="python -c 'import retrograph.cli'", rounds=4 * rounds),
    }
    clis = {side: load_cli(tree) for side, tree in trees.items()}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        work = Path(tmp)
        for name, calls in ab_commands(trees["parent"], work, list(trees)).items():
            times = {side: {"cpu": [], "wall": []} for side in trees}
            for i in range(rounds):
                for side in orders[i % 2]:
                    cpu = wall = 0.0
                    for argv in calls[side]:
                        call_cpu, call_wall = cli_seconds(clis[side], argv)
                        cpu, wall = cpu + call_cpu, wall + call_wall
                    times[side]["cpu"].append(cpu)
                    times[side]["wall"].append(wall)
            section[name] = {
                "command": "; ".join(" ".join(argv).replace(str(work), "WORK")
                                     for argv in calls["parent"]),
                "rounds": rounds,
                "cpu_s": compare(times["parent"]["cpu"], times["change"]["cpu"], "lower"),
                "wall_s": compare(times["parent"]["wall"], times["change"]["wall"], "lower"),
            }
            print(f"in-process A/B {name}: CPU median parent "
                  f"{section[name]['cpu_s']['parent']['median']}, change "
                  f"{section[name]['cpu_s']['change']['median']}", file=sys.stderr,
                  flush=True)
    return section


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    os.environ.update(BLAS_ENV)
    import numpy

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", required=True, help="one line: what the change does")
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC:RULE; omit when no gain is claimed")
    parser.add_argument("--workload", action="append", default=[],
                        help="NAME:PAIRS:FIRST_SEED (repeatable)")
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--ab-rounds", type=int, default=0,
                        help="rounds of the in-process A/B; 0 skips it")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_build")
    args = parser.parse_args(argv)

    claim = None
    if args.claim is not None:
        workload, metric, rule = args.claim.split(":", 2)
        claim = {"workload": workload, "metric": metric, "rule": rule}
    specs = []
    for spec in args.workload:
        name, pairs, first = spec.split(":")
        specs.append((name, int(pairs), int(first)))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", args.change)}
    trees = {side: args.work / side for side in revs}
    for side, rev in revs.items():
        checkout(rev, trees[side])

    record = {
        "what": args.what,
        "claim": claim,
        "method": (f"perfbench/run.py --workload W --seed S --seconds "
                   f"{bench['run_seconds']} --trace 0 from a clean checkout of each "
                   "commit (git archive), one run at a time; pairs alternate which side "
                   "runs first (even pair: parent first). Per-layer metrics from one "
                   f"--trace 1 run per side (seed {args.trace_seed}). Written by "
                   "tools/bench_record.py."),
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_name(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "blas_threads": 1},
        "workloads": {},
    }
    for name, pairs, first in specs:
        record["workloads"][name] = record_workload(
            trees, name, pairs, first, args.trace_seed, bench["run_seconds"], end_to_end)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.ab_rounds > 0:
        record["in_process_ab"] = in_process_ab(trees, args.ab_rounds)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
