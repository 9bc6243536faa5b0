"""Benchmark runner for retrograph: one workload per invocation.

    python3 perfbench/run.py --workload plan-single --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory, never from an installed copy. Set-up is repeated and
timed, then whole passes of the workload run through ``retrograph.cli.main``
in this process until ``--seconds`` have passed. There are at least two
passes, so that every later pass is compared byte for byte with the first.
``checks.py`` checks every output file on every pass.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (counting CLI commands), and ``metrics``. With
``--trace 0`` these are the end-to-end metrics; with ``--trace 1`` the
per-layer metrics from wrapped module functions. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5
MIN_PASSES = 2

# One process and one BLAS thread: steadier on a small shared machine, and
# the same thread count on every machine. Set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "expansions_per_s": "1/s", "targets_solved": "count",
    "latency_p50_s": "s", "latency_p90_s": "s", "peak_rss_mb": "MB",
}


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile of *samples* (inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Terminated(BaseException):
    """SIGTERM, raised past the per-command error handling so that the run
    still removes its scratch directory on the way out."""


def _terminate(signum, _frame):
    raise Terminated(signum)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_cli():
    """Import retrograph.cli from this checkout's src/, or exit."""
    if not (SRC / "retrograph" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no retrograph sources under {SRC}")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import retrograph.cli
    if Path(retrograph.cli.__file__).resolve().parent != SRC / "retrograph":
        raise SystemExit(f"perfbench: imported {retrograph.cli.__file__}, not {SRC}")
    return retrograph.cli


def time_setup(workload, work: Path, seed: int) -> tuple[float, dict]:
    """One set-up: import the CLI in a fresh interpreter, then write the
    workload's input files. Returns (seconds, input paths)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import retrograph.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    inputs = workload.prepare(work, random.Random(seed))
    return time.perf_counter() - t0, inputs


def run_command(cli, argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI command in-process; returns (exit code, crash text)."""
    try:
        return cli.main(argv), ""
    except SystemExit as exc:   # argparse rejected the arguments
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit({exc.code})"
    except Exception:  # a crash is one failed operation, not the end of the run
        return None, traceback.format_exc()


class Run:
    """Passes of one workload, with their checks and measurements."""

    def __init__(self, cli, workload, inputs: dict, work: Path, tracer, traced: bool):
        self.cli, self.workload, self.inputs = cli, workload, inputs
        self.work, self.tracer, self.traced = work, tracer, traced
        self.attempted = self.failed = 0
        self.correct = True
        self.first_digests: dict[str, dict[str, str]] = {}
        self.passes: list[dict] = []

    def run_pass(self) -> None:
        p = len(self.passes)
        name = self.workload.name
        first = self.tracer.begin_pass()
        out = self.work / f"pass{p}"
        wall = 0.0
        for command in self.workload.commands(self.inputs, out):
            self.attempted += 1
            t0 = time.perf_counter()
            rc, crash = run_command(self.cli, command.argv)
            wall += time.perf_counter() - t0
            if rc not in (0, 1):
                self.failed += 1
                log(f"[{name}] pass {p} {command.label}: exit {rc}\n{crash}")
                continue
            errors = self.workload.check(command) + self.tracer.check_errors
            self.tracer.check_errors.clear()
            digests = checks.digest_tree(command.out)
            if p == 0:
                self.first_digests[command.label] = digests
            else:
                first_digests = self.first_digests[command.label]
                errors += checks.compare_digests(first_digests, digests)
            if errors:
                self.failed += 1
                self.correct = False
                log(f"[{name}] pass {p} {command.label}: " + "; ".join(errors[:5]))
        results = [self.tracer.results[i]
                   for i in self.tracer.spans_named("planner.plan", first)]
        record = {
            "wall_s": wall,
            "expansions": sum(r.iterations for r in results),
            "targets_solved": sum(t.success for r in results for t in r.targets),
            "samples": self.workload.latency_samples(self.tracer, first),
        }
        if self.traced:
            size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            record["layers"] = tracing.layer_metrics(self.tracer, first, size)
        log(f"[{name}] pass {p}: {wall:.3f} s, {record['expansions']} expansions, "
            f"{record['targets_solved']} solved")
        if p > 0:
            shutil.rmtree(out)
        self.passes.append(record)

    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        passes = self.passes
        # Every pass plans the same inputs in the same order, so sample i is
        # the same target, batch or epoch in every pass: average it over the
        # passes, then take percentiles over the samples.
        means = [statistics.fmean(s) for s in zip(*(p["samples"] for p in passes))]
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "expansions_per_s": statistics.median(p["expansions"] / p["wall_s"]
                                                  for p in passes),
            "targets_solved": statistics.median(p["targets_solved"] for p in passes),
            "latency_p50_s": statistics.median(means),
            "latency_p90_s": percentile(means, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        names = self.passes[0]["layers"]
        return {n: statistics.median(p["layers"][n] for p in self.passes) for n in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    signal.signal(signal.SIGTERM, _terminate)
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    tracer = tracing.Tracer()
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            seconds, inputs = time_setup(workload, work / f"setup{i}", args.seed)
            setup_times.append(seconds)
        tracing.install(tracer, traced)
        run = Run(cli, workload, inputs, work, tracer, traced)
        start = time.perf_counter()
        while len(run.passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            run.run_pass()
        if traced:
            metrics = run.per_layer()
            units = {name: tracing.unit(name) for name in metrics}
            spans = RUNS / "spans" / f"{workload.name}.csv"
            tracer.write(spans)
            log(f"[{workload.name}] traced wall_s "
                f"{statistics.median(p['wall_s'] for p in run.passes):.4f}; "
                f"{len(tracer.names)} spans in {spans}")
        else:
            metrics = run.end_to_end(setup_times)
            units = END_TO_END_UNITS
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
