"""Self-tests of the benchmark: span arithmetic, output checks, yardstick.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
from extinf import bench, shortest_path  # noqa: E402
from tracing import Tracer, installed, self_times  # noqa: E402


def span(name, parent, start, end):
    return [name, parent, start, end, None]


class TestSelfTimes:
    def test_synthetic_tree(self):
        tree = [
            span("root", -1, 0.0, 10.0),
            span("a", 0, 1.0, 4.0),
            span("a.leaf", 1, 2.0, 3.0),
            span("b", 0, 5.0, 9.0),
            span("c", 0, 8.0, 11.0),  # overlaps b and outlives the root
        ]
        # root: 10 - |[1,4] u [5,9] u [8,10]| = 10 - (3 + 5) = 2
        assert self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span("only", -1, 1.5, 4.0)]) == [2.5]

    def test_nested_child_covered_once(self):
        tree = [span("root", -1, 0.0, 6.0), span("a", 0, 1.0, 5.0), span("b", 0, 2.0, 3.0)]
        assert self_times(tree) == pytest.approx([2.0, 4.0, 1.0])


def test_dijkstra_self_time_keeps_its_conversions():
    tree = [
        span("query.sentinel", -1, 0.0, 0.010),
        span("shortest_path.dijkstra.sentinel", 0, 0.001, 0.009),
        span("shortest_path.linear_scan_distances.sentinel", 1, 0.002, 0.006),
        span("weights.from_binary64", 1, 0.006, 0.007),
        span("weights.from_binary64", 1, 0.007, 0.0075),
    ]
    phase = harness.Phase()
    phase.add_trees([tree], 1.0)
    # 8 ms - 4 ms of kernel: the 1.5 ms of conversion stays in dijkstra's self time
    assert phase.layers["shortest_path.dijkstra.sentinel"].own[0] == pytest.approx(4.0)
    assert phase.from_binary64[0][0] == 2
    assert phase.from_binary64[1][0] == pytest.approx(1.5)


class TestTracer:
    def test_wrapped_calls_nest_and_originals_come_back(self):
        tracer = Tracer()
        original = shortest_path.validate
        targets = [(shortest_path, "validate", lambda a: "graphs.validate", harness.TRACE_TARGETS[1][3])]
        with installed(tracer, targets):
            with tracer.span("root"):
                shortest_path.dijkstra({"A": {"B": 2}, "B": {}}, "A")
        assert shortest_path.validate is original
        (tree,) = tracer.drain()
        assert [s[0] for s in tree] == ["root", "graphs.validate"]
        assert tree[1][1] == 0 and tree[1][4] == {"edges": 1}
        assert tree[0][2] <= tree[1][2] <= tree[1][3] <= tree[0][3]


def test_reference_loop_imports_nothing_from_extinf():
    code = (
        "import sys, refspeed; refspeed.reference_ms();"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'extinf'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestCompareDocument:
    def good(self):
        text = json.dumps(
            bench.comparison_jsonable(
                *bench.run_comparison(
                    [("g", {"A": {"B": 1}, "B": {}}, "A")], iterations=2, repetitions=2
                ),
                {"iterations": 2, "repetitions": 2, "alpha": 0.01},
            )
        )
        return text

    def test_real_output_passes(self):
        assert harness.compare_document_problem(self.good(), ["g"], 2, 2) is None

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda doc: "{not json",
            lambda doc: json.dumps({k: v for k, v in json.loads(doc).items() if k != "welch"}),
            lambda doc: doc.replace('"graph_id": "g"', '"graph_id": "h"'),
            lambda doc: doc.replace('"n_a": 2', '"n_a": 3'),
        ],
    )
    def test_malformed_output_is_reported(self, mangle):
        assert harness.compare_document_problem(mangle(self.good()), ["g"], 2, 2) is not None


def short_run(tmp_path, seconds=0.3):
    runner = harness.Runner("paper_fixtures", 3, 0.5)
    runner.prepare(str(tmp_path))
    runner.warm_up()
    runner.measure(seconds)
    return runner.tally


def test_clean_program_has_no_failures(tmp_path):
    tally = short_run(tmp_path)
    assert tally.attempted > 10 and tally.failed == 0


def test_wrong_distance_map_raises_failed_ratio(tmp_path, monkeypatch):
    real_dijkstra = shortest_path.dijkstra

    def wrong_dijkstra(graph, source, domain=shortest_path.SENTINEL):
        result = real_dijkstra(graph, source, domain)
        result[source] = shortest_path.from_binary64(1.0)
        return result

    monkeypatch.setattr(shortest_path, "dijkstra", wrong_dijkstra)
    tally = short_run(tmp_path)
    assert tally.ratio > 0
    assert "differs from bellman_ford" in tally.problems[0]


def test_malformed_compare_document_raises_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "comparison_jsonable", lambda rows, report, config=None: {"rows": []})
    tally = short_run(tmp_path)
    assert tally.ratio > 0
    assert tally.problems[0].startswith("compare output is malformed")


def test_environment_block():
    env = harness.environment(7, 0.5)
    for key in ("python", "implementation", "platform", "cpu_count", "perf_counter", "gc"):
        assert env[key] is not None
    assert env["seed"] == 7 and env["ref_nominal_ms"] == 0.5
    assert "git_revision" in env


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == harness.END_TO_END_UNITS
    layers = harness.per_layer(harness.Phase(), harness.Phase())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
