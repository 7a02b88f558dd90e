"""Timing harness: sample metadata, protocol schedule, report arithmetic."""

import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import extinf.bench as bench
from extinf.bench import (
    COMPARISON_CSV_COLUMNS,
    TIMING_CSV_COLUMNS,
    ComparisonRow,
    TimingSample,
    aggregates,
    comparison_csv,
    comparison_jsonable,
    comparison_table,
    improvement,
    run_comparison,
    schedule,
    time_dijkstra,
    timing_csv,
)
from extinf.fixtures import fixture
from extinf.shortest_path import SENTINEL, UnknownNodeError

positive_seconds = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False)


class TestTimeDijkstra:
    def test_single_iteration_sample(self):
        sample = time_dijkstra(fixture("Linear_Chain_1"), "A", SENTINEL, 1)
        assert sample.per_iteration == sample.elapsed
        assert sample.iterations == 1
        assert sample.impl == "sentinel"
        assert sample.source == "A"
        assert sample.elapsed >= 0

    def test_repeated_samples_share_identity_fields(self):
        graph = fixture("Linear_Chain_1")
        first = time_dijkstra(graph, "A", "ieee_baseline", 3, graph_id="chain")
        second = time_dijkstra(graph, "A", "ieee_baseline", 3, graph_id="chain")
        for field in ("impl", "graph_id", "source", "iterations"):
            assert getattr(first, field) == getattr(second, field)

    @pytest.mark.parametrize("iterations", [0, -1, 2.5, "10"])
    def test_bad_iterations(self, iterations):
        with pytest.raises(ValueError):
            time_dijkstra(fixture("Linear_Chain_1"), "A", SENTINEL, iterations)

    def test_unknown_source_propagates(self):
        with pytest.raises(UnknownNodeError):
            time_dijkstra(fixture("Linear_Chain_1"), "Q", SENTINEL, 1)

    def test_sample_invariants_enforced(self):
        with pytest.raises(ValueError):
            TimingSample("sentinel", "g", "A", 2, 1.0, 0.9)
        with pytest.raises(ValueError):
            TimingSample("sentinel", "g", "A", 2, -1.0, -0.5)


class TestImprovement:
    def test_published_style_rows(self):
        assert improvement(0.1874, 0.1647) == pytest.approx(12.11, abs=5e-3)
        assert improvement(2.0755, 1.8738) == pytest.approx(9.72, abs=5e-3)

    def test_no_change_is_zero(self):
        assert improvement(3.3, 3.3) == 0.0

    def test_regression_is_negative(self):
        assert improvement(1.0, 1.5) == -50.0

    @pytest.mark.parametrize("baseline", [0.0, -1.0])
    def test_requires_positive_baseline(self, baseline):
        with pytest.raises(ValueError, match="baseline"):
            improvement(baseline, 1.0)

    @given(positive_seconds, positive_seconds)
    def test_swap_identity(self, a, b):
        # improvement(a,b)*a and -improvement(b,a)*b both equal (a-b)*100.
        assert improvement(a, b) * a == pytest.approx(
            -improvement(b, a) * b, rel=1e-12
        )


class TestSchedule:
    def test_alternates_within_graph_blocks(self):
        assert schedule(["g1", "g2"], 2) == [
            ("g1", "ieee_baseline"),
            ("g1", "sentinel"),
            ("g1", "ieee_baseline"),
            ("g1", "sentinel"),
            ("g2", "ieee_baseline"),
            ("g2", "sentinel"),
            ("g2", "ieee_baseline"),
            ("g2", "sentinel"),
        ]

    @given(st.integers(1, 6), st.integers(1, 5))
    def test_counts(self, graphs_count, repetitions):
        ids = [f"g{i}" for i in range(graphs_count)]
        plan = schedule(ids, repetitions)
        per_arm = graphs_count * repetitions
        assert len(plan) == 2 * per_arm
        assert sum(arm == "sentinel" for _, arm in plan) == per_arm


def _fake_time_dijkstra(elapsed_by_call):
    """A deterministic stand-in recording its call order."""
    calls = []

    def fake(graph, source, domain, iterations, *, graph_id="graph"):
        name = domain if isinstance(domain, str) else domain.name
        calls.append((graph_id, name))
        elapsed = elapsed_by_call[len(calls) - 1]
        return TimingSample(name, graph_id, source, iterations, elapsed, elapsed / iterations)

    return fake, calls


class TestRunComparison:
    def test_execution_follows_schedule(self, monkeypatch):
        entries = [
            ("g1", fixture("Linear_Chain_1"), "A"),
            ("g2", fixture("Cycle_Graph_1"), "A"),
        ]
        fake, calls = _fake_time_dijkstra([float(i + 1) for i in range(8)])
        monkeypatch.setattr(bench, "time_dijkstra", fake)
        run_comparison(entries, iterations=10, repetitions=2)
        assert calls == schedule(["g1", "g2"], 2)

    def test_rows_and_pools_from_known_elapsed(self, monkeypatch):
        entries = [("g1", fixture("Linear_Chain_1"), "A")]
        # elapsed: baseline 2.0, sentinel 1.0, baseline 4.0, sentinel 3.0
        fake, _ = _fake_time_dijkstra([2.0, 1.0, 4.0, 3.0])
        monkeypatch.setattr(bench, "time_dijkstra", fake)
        rows, report = run_comparison(entries, iterations=10, repetitions=2)
        (row,) = rows
        assert row.baseline_mean == 3.0
        assert row.sentinel_mean == 2.0
        assert row.improvement_pct == pytest.approx(100 * (3.0 - 2.0) / 3.0)
        # Pools hold per-iteration times; A = sentinel, B = baseline.
        assert report.n_a == report.n_b == 2
        assert report.mean_a == pytest.approx(0.2)
        assert report.mean_b == pytest.approx(0.3)

    def test_real_smoke_run(self):
        entries = [
            ("chain", fixture("Linear_Chain_1"), "A"),
            ("star", fixture("Star_Graph_1"), "A"),
        ]
        rows, report = run_comparison(entries, iterations=3, repetitions=2, alpha=0.01)
        assert [r.graph_id for r in rows] == ["chain", "star"]
        assert all(r.baseline_mean > 0 and r.sentinel_mean > 0 for r in rows)
        assert report.n_a == report.n_b == 4
        assert 0.0 <= report.p_one_tailed <= 1.0
        assert report.alpha == 0.01

    def test_repeated_graph_ids_give_one_row_each_in_input_order(self, monkeypatch):
        entries = [
            ("same", fixture("Linear_Chain_1"), "A"),
            ("same", fixture("Cycle_Graph_1"), "A"),
        ]
        # elapsed per call, baseline then sentinel: entry 0 is 1,2,3,4; entry 1 is 5,6,7,8
        fake, _ = _fake_time_dijkstra([float(i + 1) for i in range(8)])
        monkeypatch.setattr(bench, "time_dijkstra", fake)
        rows, _ = run_comparison(entries, iterations=10, repetitions=2)
        assert [(r.graph_id, r.baseline_mean, r.sentinel_mean) for r in rows] == [
            ("same", 2.0, 3.0),
            ("same", 6.0, 7.0),
        ]

    def test_unknown_source_fails_before_any_timing(self, monkeypatch):
        entries = [
            ("g1", fixture("Linear_Chain_1"), "A"),
            ("g2", {"B": {"C": 2}, "C": {}}, "A"),
        ]
        fake, calls = _fake_time_dijkstra([1.0] * 8)
        monkeypatch.setattr(bench, "time_dijkstra", fake)
        with pytest.raises(UnknownNodeError, match="'A' in graph 'g2'"):
            run_comparison(entries, iterations=10, repetitions=2)
        assert calls == []

    def test_validation(self):
        entry = ("g", fixture("Linear_Chain_1"), "A")
        with pytest.raises(ValueError, match="at least one graph"):
            run_comparison([], iterations=1)
        with pytest.raises(ValueError, match="repetitions"):
            run_comparison([entry], iterations=1, repetitions=0)
        with pytest.raises(ValueError, match="two samples per arm"):
            run_comparison([entry], iterations=1, repetitions=1)


class TestReportSurfaces:
    ROWS = [
        ComparisonRow.from_means("g1", 4.0, 3.0),
        ComparisonRow.from_means("g2", 2.0, 2.5),
    ]

    def _report(self):
        from extinf.stats import welch_test

        return welch_test([0.9, 1.0, 1.1], [1.1, 1.2, 1.3], alpha=0.01)

    def test_comparison_csv_round_trips(self):
        text = comparison_csv(self.ROWS)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert tuple(rows[0]) == COMPARISON_CSV_COLUMNS
        assert float(rows[0]["improvement_pct"]) == self.ROWS[0].improvement_pct
        assert rows[1]["graph_id"] == "g2"

    def test_timing_csv_round_trips(self):
        sample = time_dijkstra(fixture("Linear_Chain_1"), "A", SENTINEL, 2, graph_id="chain")
        text = timing_csv([sample])
        (row,) = list(csv.DictReader(io.StringIO(text)))
        assert tuple(row) == TIMING_CSV_COLUMNS
        assert float(row["per_iteration"]) == sample.per_iteration
        assert int(row["iterations"]) == 2

    def test_jsonable_document(self):
        report = self._report()
        doc = comparison_jsonable(self.ROWS, report, {"iterations": 5})
        json.dumps(doc)  # must be serializable as-is
        assert {r["graph_id"] for r in doc["rows"]} == {"g1", "g2"}
        assert doc["welch"]["alpha"] == 0.01
        assert doc["config"] == {"iterations": 5}
        assert set(doc["aggregates"]) == {
            "mean_of_per_graph_improvements_pct",
            "improvement_of_pooled_means_pct",
        }

    def test_aggregates_arithmetic(self):
        report = self._report()
        agg = aggregates(self.ROWS, report)
        assert agg["mean_of_per_graph_improvements_pct"] == pytest.approx(
            (25.0 + -25.0) / 2
        )
        assert agg["improvement_of_pooled_means_pct"] == pytest.approx(
            improvement(report.mean_b, report.mean_a)
        )

    def test_table_layout(self):
        report = self._report()
        table = comparison_table(self.ROWS, report)
        lines = table.splitlines()
        assert lines[0].split() == [
            "graph_id",
            "baseline_s",
            "sentinel_s",
            "improvement_%",
        ]
        assert "g1" in lines[1] and "25.00" in lines[1]
        assert any(line.startswith("mean of per-graph improvements:") for line in lines)
        assert any(line.startswith("improvement of pooled means:") for line in lines)
        assert "H0 at alpha=0.01" in table
