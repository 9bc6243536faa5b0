"""The BENCH recorder's statistics, checked against a committed record.

``BENCH_9.json`` stores each run as well as its quartiles, wins and ties;
recomputing them from the stored (rounded) runs must give the same numbers
to the last stored digit.
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_record
    for name, value in bench_record.BLAS_ENV.items():   # main() sets them
        monkeypatch.setenv(name, value)
    yield bench_record
    sys.modules.pop("bench_record", None)


def test_compare_reproduces_a_committed_record(bench_record):
    record = json.loads((ROOT / "BENCH_9.json").read_text(encoding="utf-8"))
    for workload in record["workloads"].values():
        for entry in workload["end_to_end"].values():
            got = bench_record.compare(entry["parent"]["runs"], entry["change"]["runs"],
                                       entry["better"])
            assert (got["change_wins"], got["ties"]) == (entry["change_wins"],
                                                        entry["ties"])
            for side in ("parent", "change"):
                assert got[side]["runs"] == entry[side]["runs"]
                for q in ("q1", "median", "q3"):
                    assert got[side][q] == pytest.approx(entry[side][q], abs=1.5e-4)


def test_wins_follow_the_better_direction(bench_record):
    lower = bench_record.compare([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "lower")
    higher = bench_record.compare([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "higher")
    assert (lower["change_wins"], lower["ties"]) == (1, 1)
    assert (higher["change_wins"], higher["ties"]) == (1, 1)
    assert lower["change_over_parent_median"] == 1.0
    assert lower["change"] == {"runs": [1.0, 2.0, 3.0], "q1": 1.5, "median": 2.0,
                               "q3": 2.5}


@pytest.mark.parametrize("parent, change, better, want", [
    # the change median is 30% worse, beyond the 0.25 bound
    ([1.0] * 5, [1.3] * 5, "lower", "worse"),
    ([10.0] * 5, [7.0] * 5, "higher", "worse"),
    # the parent's IQR is half its median, and the runs overlap
    ([1.0, 1.5, 2.0, 2.5, 3.0], [1.9, 2.0, 2.1, 2.2, 2.3], "lower", "unresolved"),
    # as wide a parent, but every change run beats every parent run
    ([2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.0, 1.2, 1.5, 1.9], "lower", "within"),
    # 10% worse with a steady parent: inside the bound
    ([1.0, 0.99, 1.0, 1.01, 1.0], [1.1] * 5, "lower", "within"),
])
def test_verdicts(bench_record, parent, change, better, want):
    assert bench_record.verdict(parent, change, better, 0.25) == want


def test_claim_is_optional(bench_record, monkeypatch, tmp_path):
    # no checkouts and no benchmark runs: every run reports 1.0 per metric
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = {"correct": True, "attempted": 1, "failed": 0,
           "metrics": {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}}
    monkeypatch.setattr(bench_record, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_record, "checkout",
                        lambda rev, dest: (dest / "src").mkdir(parents=True, exist_ok=True))
    monkeypatch.setattr(bench_record, "run_bench", lambda *args: run)
    argv = ["--parent", "p", "--change", "c", "--what", "w", "--trace-seed", "9",
            "--workload", "train:2:5", "--work", str(tmp_path / "work")]
    out = tmp_path / "no_claim.json"
    assert bench_record.main(argv + ["--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["claim"] is None
    assert record["workloads"]["train"]["seeds"] == [5, 6]
    assert {e["verdict"] for e in record["workloads"]["train"]["end_to_end"].values()} \
        == {"within"}
    out = tmp_path / "claim.json"
    assert bench_record.main(argv + ["--out", str(out), "--claim", "train:wall_s:a:b"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["claim"] == {"workload": "train", "metric": "wall_s", "rule": "a:b"}


def test_load_cli_imports_a_separate_copy(bench_record, tmp_path):
    # two copies of one tree: distinct module objects that both plan, and
    # the copy the test process already holds is left in place
    from retrograph import cli as held

    first, second = bench_record.load_cli(ROOT), bench_record.load_cli(ROOT)
    assert first is not second and first is not held
    assert sys.modules["retrograph.cli"] is held
    (tmp_path / "t.txt").write_text("9\n", encoding="utf-8")
    argv = ["plan", "--domain", "additive-split", "--budget", "5", "--k", "3",
            "--targets", str(tmp_path / "t.txt")]
    for i, copy in enumerate((first, second)):
        assert copy.main(argv + ["--out", str(tmp_path / str(i))]) in (0, 1)
    assert ((tmp_path / "0" / "result.json").read_bytes()
            == (tmp_path / "1" / "result.json").read_bytes())


def test_in_process_ab_alternates_and_summarizes(bench_record, monkeypatch, tmp_path):
    # no imports and no planning: each side reports a fixed time per call,
    # and every call is logged, so the order of sides and the summaries
    # (summed over a workload's calls) can be checked
    calls = []
    seconds = {"parent": 2.0, "change": 1.0}
    side_of = {tmp_path / "p": "parent", tmp_path / "c": "change"}

    def fake_import(tree):
        calls.append(("import", side_of[tree]))
        return seconds[side_of[tree]] / 10

    def fake_cli_seconds(cli, argv):
        calls.append((argv[0], cli))
        return seconds[cli], seconds[cli] + 0.5

    monkeypatch.setattr(bench_record, "import_seconds", fake_import)
    monkeypatch.setattr(bench_record, "load_cli", lambda tree: side_of[tree])
    monkeypatch.setattr(bench_record, "write_ab_inputs", lambda work, cli: None)
    monkeypatch.setattr(bench_record, "cli_seconds", fake_cli_seconds)
    section = bench_record.in_process_ab(
        {"parent": tmp_path / "p", "change": tmp_path / "c"}, rounds=3)
    imports = [side for kind, side in calls if kind == "import"][2:]   # after warm-up
    assert imports == ["parent", "change", "change", "parent"] * 6
    commands = [call for call in calls if call[0] != "import"]
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    want = [(line.split()[0], side)
            for lines in bench_record.AB_COMMANDS.values()
            for side in sides for line in lines]
    assert commands == want
    for name, lines in bench_record.AB_COMMANDS.items():
        entry = section[name]
        assert entry["rounds"] == 3
        assert entry["cpu_s"]["parent"]["median"] == 2.0 * len(lines)
        assert entry["cpu_s"]["change"]["median"] == 1.0 * len(lines)
        assert entry["wall_s"]["change"]["median"] == 1.5 * len(lines)
        assert entry["cpu_s"]["change_wins"] == 3
    assert section["import"]["rounds"] == 12
    assert section["import"]["change_wins"] == 12
    assert section["import"]["parent"]["runs"] == [0.2] * 12


def test_in_process_ab_runs_every_workload(bench_record, monkeypatch):
    # one real round per workload, this tree on both sides, with fewer
    # targets and a smaller network than perfbench's; a call that exits 2
    # (a bad argument or input file) would end the A/B
    monkeypatch.setattr(bench_record, "import_seconds", lambda tree: 0.1)
    monkeypatch.setattr(bench_record, "AB_ODD", ["101", "103", "105", "107"])
    monkeypatch.setattr(bench_record, "AB_EVEN", ["100", "102"])
    monkeypatch.setattr(bench_record, "AB_GNN", dict(bench_record.AB_GNN, hidden=8,
                                                     rbf_n=4))
    section = bench_record.in_process_ab({"parent": ROOT, "change": ROOT}, rounds=1)
    assert set(section) == {"method", "import", "plan", "batch-plan", "plan-gnn", "train"}
    assert section["train"]["command"].startswith("gen-data ")
    assert "; train --config" in section["train"]["command"]
    for name in bench_record.AB_COMMANDS:
        for side in ("parent", "change"):
            (cpu,) = section[name]["cpu_s"][side]["runs"]
            assert cpu > 0.0


def test_ab_rounds_add_the_section(bench_record, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_record, "checkout",
                        lambda rev, dest: (dest / "src").mkdir(parents=True, exist_ok=True))
    monkeypatch.setattr(bench_record, "in_process_ab", lambda trees, rounds: {"rounds": rounds})
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    out = tmp_path / "ab.json"
    assert bench_record.main(["--parent", "p", "--change", "c", "--what", "w",
                              "--trace-seed", "9", "--ab-rounds", "4", "--out", str(out),
                              "--work", str(tmp_path / "work")]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["workloads"] == {} and record["in_process_ab"] == {"rounds": 4}
    # the A/B runs with perfbench's one BLAS thread
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
