"""Measurement loop, output checks and reports of the extinf benchmark.

One process, one thread, one closed-loop client: the next query is sent only
after the last one returned.  Queries alternate between the two arms on the
same graph, and which arm goes first flips with every pair.  A verdict
(``cli.main(["compare", ...])`` in process) runs after every stretch of
queries twice as long as the previous verdict took.

Every timing is kept raw and also scaled to reference speed per sample: the
reference loop (refspeed.py) runs between blocks of queries that end with
the first query to finish ``BLOCK_S`` after the block began (and around each
verdict), and each sample of a block is multiplied by
``ref_nominal_ms / mean(reference before, reference after)``.
"""

import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

import refspeed
import workloads
from extinf import bench, cli, generators, graphs, primary_fixture_names, shortest_path
from tracing import Tracer, installed, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ARMS = ("ieee_baseline", "sentinel")
BLOCK_S = 0.005
VERDICT_EVERY = 2.0  # queries run for this many times the last verdict's duration
MIN_SAMPLES = 100  # per arm, so that p90 has at least ten samples beyond it
RESERVOIR = 20_000  # samples kept per series, so memory does not grow with speed
DUMP_TREES = 3  # span trees kept in the dump per root name
TRACE_STRETCHES = 6  # a traced run alternates untraced and traced stretches
SETUP_RUNS = 15  # fresh processes timed for setup_s

# compare --iterations / --repetitions per workload, fixed so verdict_s is
# the same amount of work on every commit.
VERDICT_BUDGET = {"paper_fixtures": (300, 2), "sparse_scan": (1, 2), "dense_oneshot": (5, 2)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_ms.ieee_baseline.p50": "ms",
    "query_ms.ieee_baseline.p90": "ms",
    "query_ms.sentinel.p50": "ms",
    "query_ms.sentinel.p90": "ms",
    "verdict_s": "s",
    "peak_rss_mib": "MiB",
}


def _arm_of(infinity):
    return "sentinel" if infinity is shortest_path.SENTINEL.infinity else "ieee_baseline"


def _edges(graph):
    return {"edges": graphs.count_edges(graph)}


# (module, attribute, span name of the call's args, counts of args and result)
TRACE_TARGETS = (
    (graphs, "parse_graph", lambda a: "graphs.parse_graph", lambda a, r: {"bytes": len(a[0])}),
    (shortest_path, "validate", lambda a: "graphs.validate", lambda a, r: _edges(a[0])),
    (
        shortest_path,
        "linear_scan_distances",
        lambda a: "shortest_path.linear_scan_distances." + _arm_of(a[2]),
        None,
    ),
    (shortest_path, "from_binary64", lambda a: "weights.from_binary64", None),
    (generators, "generate", lambda a: "generators.generate", lambda a, r: _edges(r)),
    (bench, "run_comparison", lambda a: "bench.run_comparison", None),
    (bench, "time_dijkstra", lambda a: "bench.time_dijkstra", None),
    (bench, "dijkstra", lambda a: "bench.time_dijkstra.warmup", None),
    (
        bench,
        "linear_scan_distances",
        lambda a: "shortest_path.linear_scan_distances." + _arm_of(a[2]),
        None,
    ),
    (bench, "welch_test", lambda a: "stats.welch_test", None),
)


def git_revision():
    """The commit checked out at ROOT, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def environment(seed, ref_nominal_ms) -> dict:
    clock = time.get_clock_info("perf_counter")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "perf_counter": {
            "implementation": clock.implementation,
            "monotonic": clock.monotonic,
            "adjustable": clock.adjustable,
            "resolution": clock.resolution,
        },
        "gc": {"enabled": gc.isenabled(), "thresholds": list(gc.get_threshold())},
        "git_revision": git_revision(),
        "seed": seed,
        "ref_nominal_ms": ref_nominal_ms,
    }


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def compare_document_problem(text, graph_ids, iterations, repetitions):
    """What is wrong with one ``compare --format json`` output, or None."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"compare output is not JSON: {exc}"
    try:
        config, rows, welch = doc["config"], doc["rows"], doc["welch"]
        if (config["iterations"], config["repetitions"]) != (iterations, repetitions):
            return f"compare config {config} does not match the budget"
        if [row["graph_id"] for row in rows] != list(graph_ids):
            return "compare rows do not list the requested graphs in order"
        for row in rows:
            base, sent = row["baseline_mean"], row["sentinel_mean"]
            if not (base > 0 and sent > 0):
                return f"compare row {row['graph_id']} has a non-positive mean"
            if not math.isclose(row["improvement_pct"], (base - sent) / base * 100, rel_tol=1e-9):
                return f"compare row {row['graph_id']} has a wrong improvement_pct"
        samples = len(graph_ids) * repetitions
        if welch["n_a"] != samples or welch["n_b"] != samples:
            return f"welch pools {welch['n_a']}/{welch['n_b']} samples, expected {samples}"
        pooled = statistics.fmean(row["sentinel_mean"] for row in rows) / iterations
        if not math.isclose(welch["mean_a"], pooled, rel_tol=1e-9):
            return "welch mean_a does not match the rows"
        if not 0.0 <= welch["p_one_tailed"] <= 1.0:
            return f"welch p value {welch['p_one_tailed']} is not a probability"
        if welch["reject_null"] != (welch["p_one_tailed"] < welch["alpha"]):
            return "welch reject_null contradicts p and alpha"
        aggregates = doc["aggregates"]
        for key in ("mean_of_per_graph_improvements_pct", "improvement_of_pooled_means_pct"):
            if not math.isfinite(aggregates[key]):
                return f"compare aggregate {key} is not finite"
    except (KeyError, TypeError) as exc:
        return f"compare output is malformed: {type(exc).__name__}: {exc}"
    return None


class Query:
    """One query graph with its oracle answer and the counts it implies."""

    def __init__(self, graph_id, payload, source, graph):
        self.graph_id = graph_id
        self.payload = payload
        self.source = source
        self.expected = shortest_path.bellman_ford(graph, source)
        nodes = len(graph)
        self.scan_compares = nodes * (nodes - 1) // 2
        self.relax_attempts = graphs.count_edges(graph)
        self.unreached = sum(1 for w in self.expected.values() if w.is_infinite)


class Layer:
    """Per-span durations (ms at reference speed) and summed counts of one name."""

    def __init__(self):
        self.total = array("d")
        self.own = array("d")
        self.counts = {}

    def add(self, total_ms, own_ms, attrs):
        self.total.append(total_ms)
        self.own.append(own_ms)
        for key, value in (attrs or {}).items():
            self.counts[key] = self.counts.get(key, 0) + value


class Reservoir:
    """A uniform random sample of at most RESERVOIR items from a series."""

    def __init__(self, rng):
        self.seen = 0
        self.items = []
        self._rng = rng

    def add(self, item):
        self.seen += 1
        if len(self.items) < RESERVOIR:
            self.items.append(item)
        else:
            slot = self._rng.randrange(self.seen)
            if slot < RESERVOIR:
                self.items[slot] = item

    def column(self, index) -> list:
        return [item[index] for item in self.items]


class Phase:
    """Everything measured in one stretch of the run, traced or not."""

    def __init__(self, seed=0):
        rng = random.Random(seed)
        self.queries = {arm: Reservoir(rng) for arm in ARMS}  # (raw ms, ms at reference speed)
        self.ratios = Reservoir(rng)  # (raw sentinel / ieee_baseline time of one pair,)
        self.verdict_raw_s = []
        self.verdict_norm_s = []
        self.refs_ms = array("d")
        self.layers = {}
        self.from_binary64 = (array("d"), array("d"))  # calls, ms per enclosing call
        self.timed_shares = []
        self.query_counts = {"queries": 0, "scan_compares": 0, "relax_attempts": 0, "unreached": 0}
        self.dump = {}

    def add_trees(self, trees, factor):
        for tree in trees:
            kept = self.dump.setdefault(tree[0][0], [])
            if len(kept) < DUMP_TREES:
                kept.append(tree)
            # A result conversion is reported on its own and also stays in its
            # caller's self time, so dijkstra's self time is conversion plus glue.
            owns = self_times(tree)
            conversions = {}
            for name, parent, start, end, _ in tree:
                if name == "weights.from_binary64":
                    entry = conversions.setdefault(parent, [0, 0.0])
                    entry[0] += 1
                    entry[1] += end - start
                    owns[parent] += end - start
            for span, own in zip(tree, owns):
                name, parent, start, end, attrs = span
                if name == "weights.from_binary64":
                    continue
                layer = self.layers.get(name)
                if layer is None:
                    layer = self.layers[name] = Layer()
                layer.add((end - start) * 1e3 * factor, own * 1e3 * factor, attrs)
            for calls, seconds in conversions.values():
                self.from_binary64[0].append(calls)
                self.from_binary64[1].append(seconds * 1e3 * factor)


class Runner:
    """Builds one workload's inputs and measures the program on them."""

    def __init__(self, workload, seed, ref_nominal_ms):
        self.workload = workload
        self.seed = seed
        self.ref_nominal_ms = ref_nominal_ms
        self.tally = Tally()
        self.tracer = None
        self._rng = random.Random(seed)
        self._last = None

    def _factor(self, ref_before_ms, ref_after_ms):
        return 2 * self.ref_nominal_ms / (ref_before_ms + ref_after_ms)

    @contextlib.contextmanager
    def _tracing(self, traced):
        if not traced:
            yield
            return
        self.tracer = Tracer()
        try:
            with installed(self.tracer, TRACE_TARGETS):
                yield
        finally:
            self.tracer = None

    def prepare(self, workdir, phase=None):
        """Build inputs (traced into phase, if given), write verdict files, run the oracle."""
        before = refspeed.reference_ms()
        with self._tracing(phase is not None):
            if self.tracer is None:
                inputs = workloads.build_inputs(self.workload, self.seed)
            else:
                with self.tracer.span("setup"):
                    inputs = workloads.build_inputs(self.workload, self.seed)
                trees = self.tracer.drain()
        if phase is not None:
            phase.add_trees(trees, self._factor(before, refspeed.reference_ms()))
        self.parse = inputs.parsed
        self.queries = []
        for graph_id, payload, source in inputs.queries:
            graph = graphs.parse_graph(payload) if self.parse else payload
            self.queries.append(Query(graph_id, payload, source, graph))
        iterations, repetitions = VERDICT_BUDGET[self.workload]
        self.budget = (iterations, repetitions)
        argv = ["compare"]
        if inputs.files:
            self.verdict_ids = []
            for graph_id, text in inputs.files.items():
                path = os.path.join(workdir, graph_id + ".json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                self.verdict_ids.append(path)
                argv += ["--graph", path]
        else:
            self.verdict_ids = primary_fixture_names()
            argv += ["--fixtures", "all"]
        argv += ["--iterations", str(iterations), "--repetitions", str(repetitions)]
        self.verdict_argv = argv + ["--format", "json"]
        self._items = self._schedule()

    def _schedule(self):
        order = list(range(len(self.queries)))
        pair = 0
        while True:
            self._rng.shuffle(order)
            for index in order:
                arms = ARMS if (pair + self.seed) % 2 == 0 else ARMS[::-1]
                for arm in arms:
                    yield self.queries[index], arm, pair
                pair += 1

    def _query(self, query, arm):
        """Run one query; return its elapsed seconds, or None if it failed."""
        domain = shortest_path.DOMAINS[arm]
        clock = time.perf_counter
        try:
            if self.tracer is not None:
                start = clock()
                with self.tracer.span("query." + arm):
                    graph = graphs.parse_graph(query.payload) if self.parse else query.payload
                    with self.tracer.span("shortest_path.dijkstra." + arm):
                        result = shortest_path.dijkstra(graph, query.source, domain)
                elapsed = clock() - start
            elif self.parse:
                start = clock()
                result = shortest_path.dijkstra(graphs.parse_graph(query.payload), query.source, domain)
                elapsed = clock() - start
            else:
                start = clock()
                result = shortest_path.dijkstra(query.payload, query.source, domain)
                elapsed = clock() - start
        except Exception as exc:  # a failed query is counted, and the run goes on
            self.tally.record(f"{query.graph_id} [{arm}] raised {type(exc).__name__}: {exc}")
            return None
        # Both arms must equal the oracle, which also makes them equal to each other.
        if result != query.expected:
            self.tally.record(f"{query.graph_id} [{arm}] differs from bellman_ford")
            return None
        self.tally.record(None)
        return elapsed

    def _verdict(self):
        """Run one verdict; return (elapsed s, summed timed s), or None if it failed."""
        out = io.StringIO()
        clock = time.perf_counter
        try:
            with contextlib.redirect_stdout(out):
                if self.tracer is None:
                    start = clock()
                    code = cli.main(self.verdict_argv)
                    elapsed = clock() - start
                else:
                    start = clock()
                    with self.tracer.span("cli.compare"):
                        code = cli.main(self.verdict_argv)
                    elapsed = clock() - start
        except Exception as exc:  # a failed verdict is counted, and the run goes on
            self.tally.record(f"compare raised {type(exc).__name__}: {exc}")
            return None
        iterations, repetitions = self.budget
        if code != 0:
            problem = f"compare exited with status {code}"
        else:
            problem = compare_document_problem(out.getvalue(), self.verdict_ids, iterations, repetitions)
        self.tally.record(problem)
        if problem is not None:
            return None
        rows = json.loads(out.getvalue())["rows"]
        timed = repetitions * sum(row["baseline_mean"] + row["sentinel_mean"] for row in rows)
        return elapsed, timed

    def warm_up(self):
        """One untimed pair per graph and one verdict, checked like the rest."""
        for query in self.queries:
            for arm in ARMS:
                self._query(query, arm)
        self._verdict()

    def _add_queries(self, phase, samples, factor):
        counts = phase.query_counts
        for query, arm, pair, elapsed in samples:
            phase.queries[arm].add((elapsed * 1e3, elapsed * 1e3 * factor))
            counts["queries"] += 1
            counts["scan_compares"] += query.scan_compares
            counts["relax_attempts"] += query.relax_attempts
            counts["unreached"] += query.unreached
            last = self._last
            if last is not None and last[0] == pair and last[1] != arm:
                ieee, sentinel = (last[2], elapsed) if arm == "sentinel" else (elapsed, last[2])
                phase.ratios.add((sentinel / ieee,))
            self._last = (pair, arm, elapsed)

    def measure(self, seconds, traced=False, phase=None) -> Phase:
        phase = Phase(self.seed) if phase is None else phase
        self._last = None
        clock = time.perf_counter
        deadline = clock() + seconds
        next_verdict = clock()
        ref_before = refspeed.reference_ms()
        phase.refs_ms.append(ref_before)
        with self._tracing(traced):
            while clock() < deadline:
                verdict = None
                samples = []
                if clock() >= next_verdict:
                    verdict = self._verdict()
                    spent = verdict[0] if verdict is not None else 1.0
                    next_verdict = clock() + VERDICT_EVERY * spent
                else:
                    block_end = clock() + BLOCK_S
                    while True:
                        query, arm, pair = next(self._items)
                        elapsed = self._query(query, arm)
                        if elapsed is not None:
                            samples.append((query, arm, pair, elapsed))
                        if clock() >= block_end:
                            break
                ref_after = refspeed.reference_ms()
                phase.refs_ms.append(ref_after)
                factor = self._factor(ref_before, ref_after)
                ref_before = ref_after
                self._add_queries(phase, samples, factor)
                if verdict is not None:
                    phase.verdict_raw_s.append(verdict[0])
                    phase.verdict_norm_s.append(verdict[0] * factor)
                if self.tracer is not None:
                    trees = self.tracer.drain()
                    if verdict is not None:
                        spans = [s for s in trees[0] if s[0] == "bench.run_comparison"]
                        phase.timed_shares.append(verdict[1] / (spans[0][3] - spans[0][2]))
                    phase.add_trees(trees, factor)
        return phase


def probe_setup(workload, seed, runs, ref_nominal_ms) -> list:
    """setup_s samples (raw s, s at reference speed), one fresh process each."""
    probe = os.path.join(HERE, "setup_probe.py")
    # Bytecode caching on, as for an installed package: the first process
    # writes the cache and later ones load it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for attempt in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if attempt == 0:
            continue
        before, setup_ms, after = (float(field) for field in proc.stdout.split())
        samples.append((setup_ms / 1e3, setup_ms / 1e3 * 2 * ref_nominal_ms / (before + after)))
    return samples


def _median(values):
    return statistics.median(values) if len(values) else None


def _quantile(values, decile):
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=10)[decile - 1]


def _difference(a, b):
    return None if a is None or b is None else a - b


def end_to_end(setup, phase, peak_rss_mib, normalized=True) -> dict:
    """The end-to-end metrics of one untraced phase, at reference speed or raw."""
    column = 1 if normalized else 0
    metrics = {"setup_s": _median([sample[column] for sample in setup])}
    for arm in ARMS:
        samples = phase.queries[arm].column(column)
        metrics[f"query_ms.{arm}.p50"] = _quantile(samples, 5)
        metrics[f"query_ms.{arm}.p90"] = _quantile(samples, 9)
    metrics["verdict_s"] = _median(phase.verdict_norm_s if normalized else phase.verdict_raw_s)
    metrics["peak_rss_mib"] = peak_rss_mib
    return metrics


def per_layer(plain, traced) -> dict:
    """Per-layer metrics, (value, unit), from the traced phase and its untraced twin."""
    layers = traced.layers

    def own(name):
        layer = layers.get(name)
        return _median(layer.own) if layer else 0.0

    def total(name):
        layer = layers.get(name)
        return _median(layer.total) if layer else 0.0

    def per_call(name, key):
        layer = layers.get(name)
        return layer.counts.get(key, 0) / len(layer.own) if layer else 0.0

    counts = traced.query_counts
    queries = max(counts["queries"], 1)
    calls, conversion_ms = traced.from_binary64
    metrics = {
        "graphs.parse_graph.self_ms": (own("graphs.parse_graph"), "ms"),
        "graphs.parse_graph.bytes": (per_call("graphs.parse_graph", "bytes"), "bytes"),
        "graphs.validate.self_ms": (own("graphs.validate"), "ms"),
        "graphs.validate.edges": (per_call("graphs.validate", "edges"), "count"),
        "generators.generate.ms": (total("generators.generate"), "ms"),
        "generators.generate.edges": (per_call("generators.generate", "edges"), "count"),
        "weights.from_binary64.calls": (statistics.fmean(calls) if calls else 0.0, "count"),
        "weights.from_binary64.ms": (_median(conversion_ms) or 0.0, "ms"),
    }
    for arm in ARMS:
        metrics[f"shortest_path.linear_scan_distances.{arm}.self_ms"] = (
            own(f"shortest_path.linear_scan_distances.{arm}"),
            "ms",
        )
    for arm in ARMS:
        metrics[f"shortest_path.dijkstra.{arm}.self_ms"] = (own(f"shortest_path.dijkstra.{arm}"), "ms")
    metrics.update(
        {
            "shortest_path.scan_compares": (counts["scan_compares"] / queries, "count"),
            "shortest_path.relax_attempts": (counts["relax_attempts"] / queries, "count"),
            "shortest_path.unreached_nodes": (counts["unreached"] / queries, "count"),
            "shortest_path.sentinel_over_ieee.p50": (_median(plain.ratios.column(0)), "ratio"),
            "bench.time_dijkstra.warmup_ms": (total("bench.time_dijkstra.warmup"), "ms"),
            "bench.run_comparison.self_ms": (own("bench.run_comparison"), "ms"),
            "bench.timed_share": (_median(traced.timed_shares), "ratio"),
            "stats.welch_test.ms": (total("stats.welch_test"), "ms"),
            "cli.compare.self_ms": (own("cli.compare"), "ms"),
        }
    )
    for arm in ARMS:
        metrics[f"trace.overhead.query_ms.{arm}.p50"] = (
            _difference(
                _quantile(traced.queries[arm].column(1), 5),
                _quantile(plain.queries[arm].column(1), 5),
            ),
            "ms",
        )
    metrics["trace.overhead.verdict_s"] = (
        _difference(_median(traced.verdict_norm_s), _median(plain.verdict_norm_s)),
        "s",
    )
    return metrics


def span_dump(phase) -> dict:
    """Kept span trees with times in ms from each tree's root start."""
    dump = {}
    for root, trees in phase.dump.items():
        dump[root] = [
            [
                [name, parent, (start - tree[0][2]) * 1e3, (end - tree[0][2]) * 1e3, attrs]
                for name, parent, start, end, attrs in tree
            ]
            for tree in trees
        ]
    return {"fields": ["name", "parent", "start_ms", "end_ms", "attrs"], "trees": dump}


def run_workload(workload, seed, seconds, trace, ref_nominal_ms) -> dict:
    """Measure one workload; returns the full report (see run.py)."""
    env = environment(seed, ref_nominal_ms)
    setup = probe_setup(workload, seed, SETUP_RUNS, ref_nominal_ms)
    runner = Runner(workload, seed, ref_nominal_ms)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        traced = Phase(seed) if trace else None
        runner.prepare(workdir, traced)
        runner.warm_up()
        # Taken before the timed loop keeps samples, so it is the program's
        # memory (inputs, oracle answers, one pair per graph and one verdict)
        # and does not grow with query throughput.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            # Alternating keeps host-speed phases from landing on one side of
            # the tracing overhead.
            plain = Phase(seed)
            for stretch in range(TRACE_STRETCHES):
                on = stretch % 2 == 1
                runner.measure(seconds / TRACE_STRETCHES, traced=on, phase=traced if on else plain)
        else:
            plain = runner.measure(seconds)
    normalized = end_to_end(setup, plain, peak_rss_mib)
    raw = end_to_end(setup, plain, peak_rss_mib, normalized=False)
    report = {
        "environment": env,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "samples": {
            "setup_runs": len(setup),
            "queries_per_arm": {arm: plain.queries[arm].seen for arm in ARMS},
            "quantiles_from": {arm: len(plain.queries[arm].items) for arm in ARMS},
            "verdicts": len(plain.verdict_norm_s),
            "reference_ms_median": _median(plain.refs_ms),
        },
        "end_to_end": {
            name: {"value": normalized[name], "raw": raw[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "failed_ratio": runner.tally.ratio,
        "problems": runner.tally.problems,
    }
    if trace:
        report["per_layer"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in per_layer(plain, traced).items()
        }
        report["spans"] = span_dump(traced)
    return report
