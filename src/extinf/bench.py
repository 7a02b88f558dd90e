"""Paired timing of the search kernel under both infinity representations.

Protocol: for each graph, repetitions alternate baseline then sentinel (A/B
interleaving damps thermal and clock-frequency drift between arms); every
timed block is preceded by an untimed warm-up run; elapsed time comes from the
monotonic high-resolution counter; each result is folded into a module-level
sink so no run can be skipped as dead code.  Timing is strictly sequential and
single-threaded; concurrent use would invalidate the samples.

Report surfaces:

    CSV    graph_id,baseline_mean,sentinel_mean,improvement_pct
    JSON   {"config": ..., "rows": [...], "aggregates": ..., "welch": ...}
    table  fixed-width text, same column order as the CSV

where the means are total elapsed seconds over the iteration budget and
improvement_pct = (baseline - sentinel) / baseline * 100.  Because the mean
runtime across rows and the improvement of the pooled means aggregate the same
data differently, reports print both, labelled.
"""

import csv
import io
import time
from collections import defaultdict, namedtuple

from .shortest_path import (
    IEEE_BASELINE,
    SENTINEL,
    UnknownNodeError,
    dijkstra,
    get_domain,
    linear_scan_distances,
)
from .stats import SampleSet, WelchReport, mean, welch_test

__all__ = [
    "COMPARISON_CSV_COLUMNS",
    "TIMING_CSV_COLUMNS",
    "ComparisonRow",
    "TimingSample",
    "aggregates",
    "comparison_csv",
    "comparison_jsonable",
    "comparison_table",
    "improvement",
    "run_comparison",
    "schedule",
    "time_dijkstra",
    "timing_csv",
]

TIMING_CSV_COLUMNS = (
    "impl",
    "graph_id",
    "source",
    "iterations",
    "elapsed",
    "per_iteration",
)
COMPARISON_CSV_COLUMNS = (
    "graph_id",
    "baseline_mean",
    "sentinel_mean",
    "improvement_pct",
)

_sink = 0


def _consume(result):
    global _sink
    _sink ^= len(result)


class TimingSample(namedtuple("TimingSample", TIMING_CSV_COLUMNS)):
    """One measured repetition of an iteration block."""

    __slots__ = ()

    def __new__(cls, impl, graph_id, source, iterations, elapsed, per_iteration):
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if elapsed < 0:
            raise ValueError("elapsed time cannot be negative")
        if per_iteration != elapsed / iterations:
            raise ValueError("per_iteration must equal elapsed/iterations")
        return super().__new__(cls, impl, graph_id, source, iterations, elapsed, per_iteration)


def time_dijkstra(graph, source, domain, iterations, *, graph_id="graph") -> TimingSample:
    """Time `iterations` searches after one untimed warm-up run."""
    domain = get_domain(domain)
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        raise ValueError(f"iterations must be a positive integer, got {iterations!r}")
    _consume(dijkstra(graph, source, domain))  # warm-up; also validates inputs
    infinity = domain.infinity
    clock = time.perf_counter
    start = clock()
    for _ in range(iterations):
        _consume(linear_scan_distances(graph, source, infinity))
    elapsed = clock() - start
    return TimingSample(
        impl=domain.name,
        graph_id=graph_id,
        source=source,
        iterations=iterations,
        elapsed=elapsed,
        per_iteration=elapsed / iterations,
    )


def improvement(baseline: float, candidate: float) -> float:
    """Percentage improvement of candidate over a positive baseline."""
    if not baseline > 0:
        raise ValueError(f"baseline must be positive, got {baseline!r}")
    return (baseline - candidate) / baseline * 100.0


class ComparisonRow(namedtuple("ComparisonRow", COMPARISON_CSV_COLUMNS)):
    __slots__ = ()

    @classmethod
    def from_means(cls, graph_id, baseline_mean, sentinel_mean):
        return cls(
            graph_id,
            baseline_mean,
            sentinel_mean,
            improvement(baseline_mean, sentinel_mean),
        )


def schedule(graph_ids, repetitions: int) -> list:
    """Measurement order: per graph, `repetitions` x (baseline, sentinel)."""
    return [
        (graph_id, arm)
        for graph_id in graph_ids
        for _ in range(repetitions)
        for arm in (IEEE_BASELINE.name, SENTINEL.name)
    ]


def run_comparison(entries, iterations: int = 50_000, repetitions: int = 2, alpha: float = 0.01):
    """Run the paired protocol over (graph_id, graph, source) triples.

    Timing follows schedule(), after every source has been checked, so an
    unknown source fails before anything is timed.  Returns (rows, report):
    one ComparisonRow per entry, in input order, from per-graph mean elapsed
    times, and a WelchReport over the pooled per-iteration times with arm A =
    sentinel, arm B = baseline (alternative: A is faster).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("run_comparison needs at least one graph")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions!r}")
    if len(entries) * repetitions < 2:
        raise ValueError("need at least two samples per arm overall")
    for graph_id, graph, source in entries:
        if source not in graph:
            raise UnknownNodeError(f"unknown source node {source!r} in graph {graph_id!r}")
    # Indices, not graph ids, key the samples: ids may repeat.
    elapsed = defaultdict(list)  # (entry index, arm) -> elapsed per repetition
    pools = defaultdict(list)  # arm -> per-iteration times over every graph
    for index, arm in schedule(range(len(entries)), repetitions):
        graph_id, graph, source = entries[index]
        sample = time_dijkstra(graph, source, arm, iterations, graph_id=graph_id)
        elapsed[index, arm].append(sample.elapsed)
        pools[arm].append(sample.per_iteration)
    rows = [
        ComparisonRow.from_means(
            graph_id,
            mean(elapsed[index, IEEE_BASELINE.name]),
            mean(elapsed[index, SENTINEL.name]),
        )
        for index, (graph_id, _, _) in enumerate(entries)
    ]
    report = welch_test(
        SampleSet(tuple(pools[SENTINEL.name]), label=SENTINEL.name),
        SampleSet(tuple(pools[IEEE_BASELINE.name]), label=IEEE_BASELINE.name),
        alpha=alpha,
    )
    return rows, report


def aggregates(rows, report: WelchReport) -> dict:
    """The two labelled aggregate improvements a run supports."""
    return {
        "mean_of_per_graph_improvements_pct": mean([r.improvement_pct for r in rows]),
        "improvement_of_pooled_means_pct": improvement(report.mean_b, report.mean_a),
    }


def _csv(columns, records) -> str:
    # Each record's fields are the columns, in order.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(records)
    return out.getvalue()


def timing_csv(samples) -> str:
    return _csv(TIMING_CSV_COLUMNS, samples)


def comparison_csv(rows) -> str:
    return _csv(COMPARISON_CSV_COLUMNS, rows)


def comparison_jsonable(rows, report: WelchReport, config: dict = None) -> dict:
    doc = {
        "rows": [r._asdict() for r in rows],
        "aggregates": aggregates(rows, report),
        "welch": report.to_jsonable(),
    }
    if config is not None:
        doc["config"] = dict(config)
    return doc


def comparison_table(rows, report: WelchReport) -> str:
    """Fixed-width report: per-graph rows, both aggregates, the verdict."""
    id_width = max(len("graph_id"), *(len(r.graph_id) for r in rows))
    lines = [
        f"{'graph_id':<{id_width}}  {'baseline_s':>12}  {'sentinel_s':>12}  {'improvement_%':>13}"
    ]
    for r in rows:
        lines.append(
            f"{r.graph_id:<{id_width}}  {r.baseline_mean:>12.6g}  "
            f"{r.sentinel_mean:>12.6g}  {r.improvement_pct:>13.2f}"
        )
    agg = aggregates(rows, report)
    lines.append("")
    lines.append(
        f"mean of per-graph improvements: {agg['mean_of_per_graph_improvements_pct']:.2f}%"
    )
    lines.append(
        f"improvement of pooled means:    {agg['improvement_of_pooled_means_pct']:.2f}%"
    )
    lines.append(report.verdict_line())
    return "\n".join(lines) + "\n"
