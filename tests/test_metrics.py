"""Metrics tests against hand-computed statistics.

The least-squares fixture uses points (2,2) (4,3) (6,3): slope 2/8, intercept
8/3 - 1, residual sum 1/6 against total 2/3, hence r^2 = 3/4. The reuse
fixture shares one intermediate across two of three routes.
"""

import pytest

from retrograph.metrics import (
    RedundancyPoint,
    redundancy_study,
    reuse_histogram,
    success_curve,
    write_curve_csv,
    write_redundancy_csv,
    write_reuse_csv,
    write_trace_csv,
)
from retrograph.planner import (
    PlanResult,
    RouteReaction,
    RouteTree,
    TargetResult,
    TraceRecord,
)


def result(outcomes, iterations, mols=10, rxns=8):
    targets = [
        TargetResult(molecule=f"t{i}", success=ok,
                     first_success_iteration=it, route=None)
        for i, (ok, it) in enumerate(outcomes)
    ]
    return PlanResult(targets=targets, iterations=iterations,
                      molecule_nodes=mols, reaction_nodes=rxns, mode="graph")


def trace(keys):
    return [
        TraceRecord(iteration=i + 1, expanded=key, molecule_nodes=i + 2,
                    reaction_nodes=i + 1, successes=(False,))
        for i, key in enumerate(keys)
    ]


class TestSuccessCurve:
    FIXTURE = [
        result([(True, 1), (True, 150)], iterations=150, mols=10, rxns=8),
        result([(False, None)], iterations=40, mols=6, rxns=2),
    ]

    def test_fractions_by_limit(self):
        curve = success_curve(self.FIXTURE, [1, 10, 100, 200])
        assert curve["limits"] == {
            "1": 1 / 3, "10": 1 / 3, "100": 1 / 3, "200": 2 / 3,
        }
        assert curve["n_targets"] == 3
        assert curve["n_results"] == 2

    def test_iteration_averages(self):
        curve = success_curve(self.FIXTURE, [200])
        # capped: [1, 150, 40-iterations-consumed-by-the-failure]
        assert curve["avg_iterations_capped"] == pytest.approx(191 / 3)
        assert curve["avg_iterations_success_only"] == pytest.approx(75.5)
        assert curve["avg_molecule_nodes"] == 8.0
        assert curve["avg_reaction_nodes"] == 5.0

    def test_all_failures_have_no_success_average(self):
        curve = success_curve([result([(False, None)], 9)], [10])
        assert curve["limits"] == {"10": 0.0}
        assert curve["avg_iterations_success_only"] is None
        assert curve["avg_iterations_capped"] == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            success_curve([], [10])
        fix = self.FIXTURE
        with pytest.raises(ValueError):
            success_curve(fix, [])
        with pytest.raises(ValueError):
            success_curve(fix, [10, 5])
        with pytest.raises(ValueError):
            success_curve(fix, [0, 10])


class TestRedundancyStudy:
    def test_hand_computed_fit(self):
        traces = [
            trace(["a", "b"]),                      # (2, 2)
            trace(["a", "b", "c", "a"]),            # (4, 3)
            trace(["a", "b", "c", "a", "b", "c"]),  # (6, 3)
        ]
        study = redundancy_study(traces)
        assert study.points == [RedundancyPoint(2, 2), RedundancyPoint(4, 3),
                                RedundancyPoint(6, 3)]
        assert study.slope == pytest.approx(0.25)
        assert study.intercept == pytest.approx(5 / 3)
        assert study.r_squared == pytest.approx(0.75)
        assert study.mean_ratio == pytest.approx(0.75)

    def test_constant_unique_is_perfect_fit(self):
        study = redundancy_study([trace(["a", "a"]), trace(["a", "a", "a"])])
        assert study.slope == 0.0
        assert study.intercept == 1.0
        assert study.r_squared == 1.0

    def test_no_repeats_gives_identity_line(self):
        study = redundancy_study([trace(["a", "b"]), trace(["a", "b", "c"])])
        assert study.slope == pytest.approx(1.0)
        assert study.intercept == pytest.approx(0.0)
        assert study.mean_ratio == 1.0

    def test_validation(self):
        # one run has no line to fit; no runs have no mean ratio either
        study = redundancy_study([trace(["a"])])
        assert (study.slope, study.intercept, study.r_squared) == (None, None, None)
        assert study.mean_ratio == 1.0
        study = redundancy_study([])
        assert study.points == [] and study.mean_ratio is None
        assert (study.slope, study.intercept, study.r_squared) == (None, None, None)
        with pytest.raises(ValueError):
            redundancy_study([trace(["a"]), []])
        # equal expanded counts leave the fit undefined, not an error
        study = redundancy_study([trace(["a", "b"]), trace(["c", "c"])])
        assert (study.slope, study.intercept, study.r_squared) == (None, None, None)
        assert study.mean_ratio == 0.75


def leaf(m):
    return RouteTree(molecule=m)


def node(m, *children, cost=1.0):
    return RouteTree(molecule=m, reaction=RouteReaction(cost=cost,
                                                        children=list(children)))


class TestReuseHistogram:
    ROUTES = [
        node("T1", node("C", leaf("I")), leaf("I")),
        node("T2", leaf("C"), leaf("J")),
        leaf("T3"),
    ]

    def test_counts_and_mean(self):
        stats = reuse_histogram(self.ROUTES)
        assert stats.counts == {"C": 2, "I": 1, "J": 1}
        assert stats.mean == pytest.approx(4 / 3)
        assert stats.top == [("C", 2), ("I", 1), ("J", 1)]

    def test_top_n_truncates(self):
        stats = reuse_histogram(self.ROUTES, top_n=1)
        assert stats.top == [("C", 2)]

    def test_target_molecule_not_counted(self):
        stats = reuse_histogram([node("T", leaf("T"))])
        assert stats.counts == {"T": 1}   # only the reactant occurrence

    def test_validation(self):
        with pytest.raises(ValueError):
            reuse_histogram([])
        with pytest.raises(ValueError, match="no reactants"):
            reuse_histogram([leaf("T")])


class TestCsvWriters:
    def test_curve_csv_bytes(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, {"limits": {"2": 0.5, "5": 1.0}})
        assert path.read_bytes() == b"limit,success_fraction\r\n2,0.5\r\n5,1.0\r\n"

    def test_curve_csv_repr_floats(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, {"limits": {"3": 1 / 3}})
        assert b"0.3333333333333333" in path.read_bytes()

    def test_redundancy_csv_bytes(self, tmp_path):
        path = tmp_path / "red.csv"
        write_redundancy_csv(path, [
            {"target": "9", "mode": "graph", "expanded": 4, "unique": 3},
            {"target": "9", "mode": "tree", "expanded": 7, "unique": 3},
        ])
        assert path.read_bytes() == (b"target,mode,expanded,unique\r\n"
                                     b"9,graph,4,3\r\n9,tree,7,3\r\n")

    def test_reuse_csv_sorted_by_molecule(self, tmp_path):
        path = tmp_path / "reuse.csv"
        write_reuse_csv(path, reuse_histogram(TestReuseHistogram.ROUTES))
        assert path.read_bytes() == (b"molecule,routes\r\n"
                                     b"C,2\r\nI,1\r\nJ,1\r\n")

    def test_trace_csv_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        rec = TraceRecord(iteration=1, expanded="9", molecule_nodes=3,
                          reaction_nodes=2, successes=(True, False))
        write_trace_csv(path, [("run0", [rec])])
        assert path.read_bytes() == (
            b"run,iteration,expanded,molecule_nodes,reaction_nodes,"
            b"targets_successful\r\nrun0,1,9,3,2,1\r\n")
