"""Times of ``generate`` and ``emit_graph`` per graph, on any CPython >= 3.10.

Stdlib only, so it runs on interpreters that have no pytest::

    python3 tools/generate_timings.py

It puts this checkout's ``src/`` on the import path and, for each graph of
the README's "Generating and writing" table (seed ``SEED``), prints the
minimum-of-repeats ``timeit`` time of ``generate`` and of ``emit_graph``.
It checks nothing: ``tools/cross_check.py`` checks the generated bytes.
The last line of output is the whole report as JSON.
"""

import json
import platform
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from extinf.generators import GeneratorSpec, generate  # noqa: E402
from extinf.graphs import emit_graph  # noqa: E402

SEED = 12345
TABLE = (("dense", 100), ("equal_weights", 200), ("grid", 400), ("grid", 1600), ("dense", 800))


def best_ms(call, budget_s=0.5):
    """Fastest of five repeats, each of enough calls to fill a tenth of budget_s."""
    number = max(1, int(budget_s / 10 / max(timeit.timeit(call, number=1), 1e-6)))
    return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e3


def timings():
    rows = []
    for kind, node_count in TABLE:
        spec = GeneratorSpec(kind, node_count, seed=SEED)
        graph = generate(spec)
        rows.append(
            {
                "kind": kind,
                "nodes": node_count,
                "generate_ms": round(best_ms(lambda: generate(spec)), 3),
                "emit_graph_ms": round(best_ms(lambda: emit_graph(graph)), 3),
            }
        )
    return rows


def main():
    report = {"python": platform.python_version(), "seed": SEED, "graphs": timings()}
    for row in report["graphs"]:
        print(
            f"{row['kind']:14} {row['nodes']:5} nodes  generate {row['generate_ms']:8.2f} ms  "
            f"emit_graph {row['emit_graph_ms']:8.2f} ms"
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
