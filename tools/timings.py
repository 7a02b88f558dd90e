"""Sentinel operator costs, kernel ratios and generation times, on any
CPython >= 3.10, in one round protocol.

Stdlib only, so it runs on interpreters that have no pytest::

    python3 tools/timings.py

It puts this checkout's ``src/`` and ``perfbench/`` on the import path and
times three groups of cells, each a labelled zero-argument callable:

- ``operators``: each of the four operator uses of a sentinel query, next to
  the float operation it stands for.  One call runs the statement
  ``OPERATIONS`` times in ``timeit``'s loop.
- ``kernel``: ``linear_scan_distances`` over the three graphs of each
  perfbench ``sparse_scan`` kind (seed ``KERNEL_SEED``), one cell per arm,
  the two arms of a kind side by side.
- ``generation``: ``generate``, ``emit_graph`` and ``parse_graph`` (of the
  emitted text) on the graphs of the README's generation table (seed
  ``GENERATION_SEED``).

Each cell's call count is sized once, from the fastest of three calls, to
fill about ``BUDGET_S``, and ``timeit`` runs the calls with the garbage
collector off.  Then each of ``ROUNDS`` rounds times every cell, in list
order on even rounds and reversed on odd ones, so a drift in host speed
lands on every cell alike and each pair of arms runs in both orders.  A
row of cells (the two arms of a pair, or the three cells of a graph) is
bracketed by readings of ``perfbench/refspeed.reference_ms()``, and its
times are scaled by ``nominal_ref_ms()``, the ``--ref-nominal-ms`` of
``BENCHMARK.json``'s command, over the mean of the two, as
``perfbench/run.py`` scales its own.  So the scaling follows the host's
speed from row to row, and a pair's two arms share one factor, which
leaves their ratio the raw one.  Reported: the median and quartiles of the
reference readings, and over rounds of every cell's raw and scaled
per-call ms, and, for each pair of arms, of the sentinel's time less the
IEEE one's (``extra``, operators) or over it (``ratio``, kernel) in the
same round.

It checks nothing: ``tools/cross_check.py`` checks the operators, the
generated bytes and the parse, and every ``perfbench/run.py`` run checks both
kernels against ``bellman_ford``.  The output is the README's table rows for
this run (see ``rows``), then the whole report as one line of JSON, whose
``sentinel_comparisons`` names the implementation of INFINITY's comparisons
that was timed, ``c`` or ``python``, and ``native_failure`` why the C one
was not, or null.  ``BENCH_timings.json`` holds one such report per
interpreter and implementation.
"""

import itertools
import json
import operator
import platform
import statistics
import sys
import timeit
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from extinf.generators import GeneratorSpec, generate  # noqa: E402
from extinf.graphs import emit_graph, parse_graph  # noqa: E402
from extinf.shortest_path import DOMAINS, linear_scan_distances  # noqa: E402
from extinf.weights import INFINITY, NATIVE_FAILURE, SENTINEL_COMPARISONS  # noqa: E402
from refspeed import reference_ms  # noqa: E402
from workloads import GENERATED, build_inputs  # noqa: E402

KERNEL_SEED = 501
GENERATION_SEED = 12345
ROUNDS = 31
BUDGET_S = 0.01  # the time one measurement of a cell aims to fill
OPERATIONS = 10**6  # per operator call, so its ms per call read as ns per operation
BASELINE, CANDIDATE = DOMAINS  # the arms' names, IEEE's first

# (label, sentinel statement, IEEE statement): the four operator uses of a
# sentinel query, each next to the float operation it stands for.
OPERATORS = (
    ("INFINITY < float", "i < x", "f < x"),
    ("INFINITY < INFINITY", "i < i", "f < f"),
    ("float < INFINITY", "x < i", "x < f"),
    ("INFINITY + int", "i + n", "f + n"),
)
GRAPHS = (("dense", 100), ("equal_weights", 200), ("grid", 400), ("grid", 1600), ("dense", 800))
# Per pair of arms: the name of its per-round statistic and how it is made.
PAIRED = {"operators": ("extra", operator.sub), "kernel": ("ratio", operator.truediv)}


def _scan(graphs, infinity):
    for graph, source in graphs:
        linear_scan_distances(graph, source, infinity)


def make_cells():
    """Every timed cell, as ((group, row, column), zero-argument callable)."""
    out = []
    names = {"i": INFINITY, "f": float("inf"), "x": 1.0, "n": 3}
    for label, sentinel, ieee in OPERATORS:
        for arm, statement in ((BASELINE, ieee), (CANDIDATE, sentinel)):
            timer = timeit.Timer(statement, globals=names)
            out.append((("operators", label, arm), partial(timer.timeit, OPERATIONS)))
    queries = build_inputs("sparse_scan", KERNEL_SEED).queries
    for kind, _nodes in GENERATED["sparse_scan"]:
        graphs = [(g, s) for graph_id, g, s in queries if graph_id.startswith(kind + "_")]
        for arm, domain in DOMAINS.items():
            out.append((("kernel", kind, arm), partial(_scan, graphs, domain.infinity)))
    for kind, nodes in GRAPHS:
        row = f"{kind}, {nodes:,} nodes"
        spec = GeneratorSpec(kind, nodes, seed=GENERATION_SEED)
        graph = generate(spec)
        out.append((("generation", row, "generate"), partial(generate, spec)))
        out.append((("generation", row, "emit_graph"), partial(emit_graph, graph)))
        out.append((("generation", row, "parse_graph"), partial(parse_graph, emit_graph(graph))))
    return out


def quartiles(samples):
    """The median and quartiles of samples, to four significant digits."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {name: float(f"{q:.4g}") for name, q in (("p25", q1), ("median", median), ("p75", q3))}


def _timer(call):
    """Per-call ms of call, over enough calls to fill about BUDGET_S.

    The count comes from the fastest of three calls, so a slow first call
    does not shrink it for every round."""
    timer = timeit.Timer(call)
    fastest = min(timer.timeit(1) for _ in range(3))
    number = max(1, int(BUDGET_S / max(fastest, 1e-7)))
    return lambda: timer.timeit(number) / number * 1e3


def nominal_ref_ms():
    """The --ref-nominal-ms of BENCHMARK.json's command."""
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return float(command[command.index("--ref-nominal-ms") + 1])


def measure(cells, nominal_ms, rounds=ROUNDS):
    """The reference readings, one before each round and one after each row,
    and each cell's raw per-call ms and its ms at nominal_ms reference speed,
    one of each per round.

    A row is a run of cells whose labels share group and row."""
    timers = [(label, _timer(call)) for label, call in cells]
    rows = [list(row) for _, row in itertools.groupby(timers, key=lambda cell: cell[0][:2])]
    reference, samples = [], {label: {"raw": [], "scaled": []} for label, _ in cells}
    for r in range(rounds):
        before = reference_ms()
        reference.append(before)
        for row in rows if r % 2 == 0 else [row[::-1] for row in reversed(rows)]:
            times = [(label, timer()) for label, timer in row]
            after = reference_ms()
            reference.append(after)
            for label, ms in times:
                samples[label]["raw"].append(ms)
                samples[label]["scaled"].append(ms * 2 * nominal_ms / (before + after))
            before = after
    return reference, samples


def summary(reference, samples):
    """Quartiles of the reference loop, of every cell and of every pair."""
    report = {"reference_ms": quartiles(reference)}
    for (group, row, column), ways in samples.items():
        table = report.setdefault(group, {}).setdefault(row, {})
        table[column] = {way: quartiles(ms) for way, ms in ways.items()}
        if group in PAIRED and column == CANDIDATE:
            name, combine = PAIRED[group]
            baseline = samples[group, row, BASELINE]
            table[name] = {
                way: quartiles(list(map(combine, ms, baseline[way]))) for way, ms in ways.items()
            }
    return report


def _span(q, spec, unit=""):
    """'median [p25, p75]', each formatted by spec without a trailing point."""
    p25, median, p75 = (f"{q[name]:{spec}}".rstrip(".") for name in ("p25", "median", "p75"))
    return f"{median}{unit} [{p25}, {p75}]"


def rows(report):
    """README's Markdown rows for one report, all at reference speed: its
    kernel-ratio row, its operators' extra-cost row and one generation row
    per graph."""
    comparisons = {"c": "C", "python": "fallback (`partial`)"}[report["sentinel_comparisons"]]
    head = f"| {report['python']} | {comparisons} |"

    def row(*texts):
        return head + "".join(f" {text} |" for text in texts)

    return [
        row(*(_span(pair["ratio"]["scaled"], ".3f") for pair in report["kernel"].values())),
        row(*(_span(op["extra"]["scaled"], "#.3g", " ns") for op in report["operators"].values())),
        *(
            row(graph, *(_span(ms["scaled"], "#.3g", " ms") for ms in times.values()))
            for graph, times in report["generation"].items()
        ),
    ]


def main():
    nominal_ms = nominal_ref_ms()
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sentinel_comparisons": SENTINEL_COMPARISONS,
        "native_failure": NATIVE_FAILURE,
        "rounds": ROUNDS,
        "kernel_seed": KERNEL_SEED,
        "generation_seed": GENERATION_SEED,
        "nominal_ref_ms": nominal_ms,
        **summary(*measure(make_cells(), nominal_ms)),
    }
    print(*rows(report), json.dumps(report), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
