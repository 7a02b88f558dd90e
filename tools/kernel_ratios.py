"""Sentinel-over-IEEE kernel ratios per graph kind, on any CPython >= 3.10.

Stdlib only, so it runs on interpreters that have no pytest::

    python3 tools/kernel_ratios.py

It puts this checkout's ``src/`` and ``perfbench/`` on the import path,
builds perfbench's ``sparse_scan`` graphs for seed ``SEED`` (three 400-node
graphs of each kind) and times two things:

1. The minimum-of-repeats ``timeit`` cost of each hot sentinel operator next
   to the float operation it stands for.
2. ``linear_scan_distances`` per kind.  Each of ``ROUNDS`` rounds runs every
   graph of a kind once per arm, arms in alternating order, and its ratio is
   the sentinel's summed time over IEEE's.  Reported per kind: the median and
   quartiles of the round ratios and the fastest round's per-query time of
   each arm.

It checks nothing: ``tests/test_weights.py`` pins the operators, and every
``perfbench/run.py`` run checks both arms against ``bellman_ford``.  The last
line of output is the whole report as JSON.
"""

import json
import math
import platform
import statistics
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from extinf.shortest_path import linear_scan_distances  # noqa: E402
from extinf.weights import INFINITY  # noqa: E402
from workloads import GENERATED, build_inputs  # noqa: E402

SEED = 501
ROUNDS = 31

# (label, sentinel statement, IEEE statement): the four operator uses of a
# sentinel query, each next to the float operation it stands for.
OPERATORS = (
    ("INFINITY < float", "i < x", "f < x"),
    ("INFINITY < INFINITY", "i < i", "f < f"),
    ("float < INFINITY", "x < i", "x < f"),
    ("INFINITY + int", "i + n", "f + n"),
)


def operator_costs(repeat=15, number=200_000):
    """ns per call of each operator use, minimum over repeat runs."""
    names = {"i": INFINITY, "f": math.inf, "x": 1.0, "n": 3}
    out = {}
    for label, sentinel, ieee in OPERATORS:
        ns = {}
        for arm, stmt in (("sentinel", sentinel), ("ieee", ieee)):
            runs = timeit.repeat(stmt, globals=names, repeat=repeat, number=number)
            ns[arm] = min(runs) / number * 1e9
        ns["extra"] = ns["sentinel"] - ns["ieee"]
        out[label] = {k: round(v, 1) for k, v in ns.items()}
    return out


def kernel_ratios(queries):
    """Per kind: round ratios' quartiles and fastest per-query ms per arm."""
    report = {}
    for kind, _nodes in GENERATED["sparse_scan"]:
        graphs = [(g, s) for graph_id, g, s in queries if graph_id.startswith(kind + "_")]
        ratios, best = [], {"ieee": math.inf, "sentinel": math.inf}
        for r in range(ROUNDS):
            arms = (("ieee", math.inf), ("sentinel", INFINITY))
            total = {}
            for name, infinity in arms if r % 2 else arms[::-1]:
                start = time.perf_counter()
                for graph, source in graphs:
                    linear_scan_distances(graph, source, infinity)
                total[name] = time.perf_counter() - start
                best[name] = min(best[name], total[name] / len(graphs) * 1e3)
            ratios.append(total["sentinel"] / total["ieee"])
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        report[kind] = {
            "ratio_p25": round(q1, 3),
            "ratio_median": round(median, 3),
            "ratio_p75": round(q3, 3),
            "ieee_ms": round(best["ieee"], 3),
            "sentinel_ms": round(best["sentinel"], 3),
        }
    return report


def main():
    queries = build_inputs("sparse_scan", SEED).queries
    report = {
        "python": platform.python_version(),
        "seed": SEED,
        "rounds": ROUNDS,
        "operators_ns": operator_costs(),
        "kernel": kernel_ratios(queries),
    }
    for label, ns in report["operators_ns"].items():
        print(
            f"{label:22} {ns['sentinel']:7.1f} ns  "
            f"(float {ns['ieee']:.1f}, extra {ns['extra']:.1f})"
        )
    for kind, row in report["kernel"].items():
        print(
            f"{kind:16} sentinel/ieee {row['ratio_median']:.3f} "
            f"[{row['ratio_p25']:.3f}, {row['ratio_p75']:.3f}]  "
            f"ieee {row['ieee_ms']:.2f} ms  sentinel {row['sentinel_ms']:.2f} ms"
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
