"""Times of ``generate``, ``emit_graph`` and ``parse_graph`` per graph, on any
CPython >= 3.10.

Stdlib only, so it runs on interpreters that have no pytest::

    python3 tools/generate_timings.py

It puts this checkout's ``src/`` and ``perfbench/`` on the import path and,
for the graphs of the README's "Generating and writing" table (seed
``SEED``), runs ``ROUNDS`` rounds.  Each round reads
``perfbench/refspeed.reference_ms()`` once, then times ``generate``,
``emit_graph`` and ``parse_graph`` (of the emitted text) once on every
graph in turn, so a drift in host speed lands on every graph alike.  Each
round's times are also scaled by ``NOMINAL_REF_MS`` over that round's
reading, as ``perfbench`` scales its own with ``--ref-nominal-ms``, so that
runs at different host speeds can be set side by side.  Reported per graph
and function: the median and quartiles of the raw and of the scaled
per-call times over the rounds, next to the same for the reference loop.
It checks nothing: ``tools/cross_check.py`` checks the generated bytes and
the parse.  The last line of output is the whole report as JSON.
"""

import json
import platform
import statistics
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from extinf.generators import GeneratorSpec, generate  # noqa: E402
from extinf.graphs import emit_graph, parse_graph  # noqa: E402
from refspeed import reference_ms  # noqa: E402

SEED = 12345
ROUNDS = 21
NOMINAL_REF_MS = 0.5  # the --ref-nominal-ms of BENCHMARK.json's command
TABLE = (("dense", 100), ("equal_weights", 200), ("grid", 400), ("grid", 1600), ("dense", 800))


def quartiles(samples):
    """The median and quartiles of samples, in ms to three places."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"p25": round(q1, 3), "median": round(median, 3), "p75": round(q3, 3)}


def _timer(call, budget_s=0.01):
    """Per-call ms of call, over enough calls to fill about budget_s."""
    number = max(1, int(budget_s / max(timeit.timeit(call, number=1), 1e-6)))
    timer = timeit.Timer(call)
    return lambda: timer.timeit(number) / number * 1e3


def timings():
    timers = []
    for kind, node_count in TABLE:
        spec = GeneratorSpec(kind, node_count, seed=SEED)
        graph = generate(spec)
        text = emit_graph(graph)
        timers.append(
            {
                "generate_ms": _timer(lambda spec=spec: generate(spec)),
                "emit_graph_ms": _timer(lambda graph=graph: emit_graph(graph)),
                "parse_graph_ms": _timer(lambda text=text: parse_graph(text)),
            }
        )
    reference = []
    samples = [{name: {"raw": [], "scaled": []} for name in row} for row in timers]
    for _ in range(ROUNDS):
        reading = reference_ms()
        reference.append(reading)
        for row, times in zip(timers, samples):
            for name, timer in row.items():
                ms = timer()
                times[name]["raw"].append(ms)
                times[name]["scaled"].append(ms * NOMINAL_REF_MS / reading)
    rows = [
        {"kind": kind, "nodes": node_count}
        | {name: {way: quartiles(ms) for way, ms in ways.items()} for name, ways in times.items()}
        for (kind, node_count), times in zip(TABLE, samples)
    ]
    return quartiles(reference), rows


def _cell(ms):
    return f"{ms['median']:8.2f} ms [{ms['p25']:.2f}, {ms['p75']:.2f}]"


def _cells(times):
    return f"raw {_cell(times['raw'])}  scaled {_cell(times['scaled'])}"


def main():
    reference, rows = timings()
    report = {
        "python": platform.python_version(),
        "seed": SEED,
        "rounds": ROUNDS,
        "nominal_ref_ms": NOMINAL_REF_MS,
        "reference_ms": reference,
        "graphs": rows,
    }
    print(f"reference loop {_cell(reference)}")
    for row in rows:
        print(f"{row['kind']:14} {row['nodes']:5} nodes")
        for name in ("generate", "emit_graph", "parse_graph"):
            print(f"  {name:11} {_cells(row[name + '_ms'])}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
