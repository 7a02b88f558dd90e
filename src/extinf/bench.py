"""Paired timing of the search kernel under both infinity representations.

Protocol: every query passes shortest_path.check_query once, before anything
is timed; then, for each graph, repetitions alternate baseline then candidate
(A/B interleaving damps thermal and clock-frequency drift between arms).  The
two arms are the domains of DOMAINS, baseline first.  A timed block holds the
raw kernel and nothing else, and is preceded by one untimed run of it.
Elapsed time comes from the monotonic high-resolution counter.  Timing is
strictly sequential and single-threaded; concurrent use would invalidate the
samples.

Report surfaces:

    CSV    graph_id,baseline_mean,sentinel_mean,improvement_pct
    JSON   {"config": ..., "rows": [...], "aggregates": ..., "welch": ...}
    table  fixed-width text, same column order as the CSV

where the means are total elapsed seconds over the iteration budget and
improvement_pct = (baseline - sentinel) / baseline * 100.  Because the mean
runtime across rows and the improvement of the pooled means aggregate the same
data differently, reports print both, labelled.
"""

import io
import time
from collections import defaultdict, namedtuple

from .shortest_path import (
    DOMAINS,
    check_query,
    dijkstra,  # not called here; tracers wrap bench.dijkstra by name
    get_domain,
    linear_scan_distances,
)
from .stats import WelchReport, _require_alpha, mean, welch_test

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

_ARMS = tuple(DOMAINS)  # (baseline, candidate) domain ids, in DOMAINS' order


class TimingSample(namedtuple("TimingSample", TIMING_CSV_COLUMNS)):
    """One measured repetition of an iteration block.

    _make (and _replace, which calls it) builds through the constructor, so
    neither skips its checks.
    """

    __slots__ = ()

    def __new__(cls, impl, graph_id, source, iterations, elapsed, per_iteration):
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if elapsed < 0:
            raise ValueError("elapsed time cannot be negative")
        if per_iteration != elapsed / iterations:
            raise ValueError("per_iteration must equal elapsed/iterations")
        return super().__new__(cls, impl, graph_id, source, iterations, elapsed, per_iteration)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _require_positive_int(name, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _time_block(graph, source, domain, iterations, *, graph_id) -> TimingSample:
    """One untimed kernel run, then `iterations` timed ones; inputs unchecked."""
    infinity = domain.infinity
    linear_scan_distances(graph, source, infinity)
    clock = time.perf_counter
    start = clock()
    for _ in range(iterations):
        linear_scan_distances(graph, source, infinity)
    elapsed = clock() - start
    return TimingSample(
        impl=domain.name,
        graph_id=graph_id,
        source=source,
        iterations=iterations,
        elapsed=elapsed,
        per_iteration=elapsed / iterations,
    )


def time_dijkstra(graph, source, domain, iterations, *, graph_id="graph") -> TimingSample:
    """Time `iterations` kernel searches after one untimed kernel run.

    Each call passes check_query, naming graph_id, before anything runs;
    ``extinf run`` times through here.
    """
    domain = get_domain(domain)
    _require_positive_int("iterations", iterations)
    check_query(graph, source, graph_id)
    return _time_block(graph, source, domain, iterations, graph_id=graph_id)


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
    """Measurement order: per graph, `repetitions` x (baseline, candidate)."""
    return [(graph_id, arm) for graph_id in graph_ids for _ in range(repetitions) for arm in _ARMS]


def run_comparison(entries, iterations: int = 50_000, repetitions: int = 2, alpha: float = 0.01):
    """Run the paired protocol over (graph_id, graph, source) triples.

    The arguments, then each entry through check_query, are checked first,
    so a bad one fails, named by its graph id, before anything is timed;
    timing then follows schedule(), one unchecked warm-up plus timed block
    each.  Returns (rows, report): one ComparisonRow per entry, in input
    order, from per-graph mean elapsed times, and a WelchReport over the
    pooled per-iteration times with arm A = candidate, arm B = baseline
    (alternative: A is faster).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("run_comparison needs at least one graph")
    _require_positive_int("iterations", iterations)
    _require_positive_int("repetitions", repetitions)
    _require_alpha(alpha)
    if len(entries) * repetitions < 2:
        raise ValueError("need at least two samples per arm overall")
    for graph_id, graph, source in entries:
        check_query(graph, source, graph_id)
    # Indices, not graph ids, key the samples: ids may repeat.
    indices = range(len(entries))
    elapsed = defaultdict(list)  # (entry index, arm) -> elapsed per repetition
    for index, arm in schedule(indices, repetitions):
        graph_id, graph, source = entries[index]
        sample = _time_block(graph, source, DOMAINS[arm], iterations, graph_id=graph_id)
        elapsed[index, arm].append(sample.elapsed)
    rows = [
        ComparisonRow.from_means(graph_id, *(mean(elapsed[index, arm]) for arm in _ARMS))
        for index, (graph_id, _, _) in enumerate(entries)
    ]
    # Each arm's pool holds its per-iteration times in schedule order.
    baseline, candidate = (
        [e / iterations for index in indices for e in elapsed[index, arm]] for arm in _ARMS
    )
    return rows, welch_test(candidate, baseline, alpha=alpha)


def aggregates(rows, report: WelchReport) -> dict:
    """The two labelled aggregate improvements a run supports."""
    return {
        "mean_of_per_graph_improvements_pct": mean([r.improvement_pct for r in rows]),
        "improvement_of_pooled_means_pct": improvement(report.mean_b, report.mean_a),
    }


def _csv(columns, records) -> str:
    import csv  # only reports need it, so importing bench does not load it

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
