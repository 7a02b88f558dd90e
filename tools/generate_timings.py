"""Times of ``generate`` and ``emit_graph`` per graph, on any CPython >= 3.10.

Stdlib only, so it runs on interpreters that have no pytest::

    python3 tools/generate_timings.py

It puts this checkout's ``src/`` on the import path and, for each graph of
the README's "Generating and writing" table (seed ``SEED``), prints the
minimum-of-repeats ``timeit`` time of ``generate`` and of ``emit_graph`` and
the sha256 of the emitted text.  It then prints the combined digests that
``test_generated_bytes_are_pinned`` and ``test_benchmark_sized_bytes_are_pinned``
in ``tests/test_generators.py`` pin, recomputed by the same loops, so an
interpreter without pytest can show that it generates the same bytes.

It checks nothing: compare the digests with the tests' by eye.  The last line
of output is the whole report as JSON.
"""

import hashlib
import json
import platform
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from extinf.generators import KINDS, GeneratorSpec, generate  # noqa: E402
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
                "sha256": hashlib.sha256(emit_graph(graph).encode()).hexdigest(),
            }
        )
    return rows


def golden_digest():
    """The loops of test_generated_bytes_are_pinned."""
    sizes = {"grid": (4, 9, 16, 25), "worst_case_tie": (4, 6, 9, 13)}
    digest = hashlib.sha256()
    for kind in KINDS:
        for node_count in sizes.get(kind, (4, 5, 8, 12)) + (100,):
            for seed in (0, 7, 2**63, 2**64 - 1):
                for weight_range in ((1, 10), (3, 1000)):
                    spec = GeneratorSpec(kind, node_count, weight_range, seed)
                    digest.update(emit_graph(generate(spec)).encode())
    for kind, weights in (
        ("linear_chain", (0, 2.5, 7)),
        ("star", (1, 0.5, 2**53)),
        ("cycle", (3, 0, 1.25, 9)),
    ):
        spec = GeneratorSpec(kind, len(weights) + (kind != "cycle"), weights=weights)
        digest.update(emit_graph(generate(spec)).encode())
    return digest.hexdigest()


def benchmark_sized_digest():
    """The loops of test_benchmark_sized_bytes_are_pinned."""
    digest = hashlib.sha256()
    for kind, node_count in (
        ("dense", 100),
        ("equal_weights", 200),
        ("grid", 400),
        ("sparse_tree", 400),
        ("real_world_like", 400),
        ("disconnected", 400),
        ("grid", 1600),
    ):
        for seed in (0, 12345, 2**64 - 1):
            spec = GeneratorSpec(kind, node_count, seed=seed)
            digest.update(emit_graph(generate(spec)).encode())
    return digest.hexdigest()


def main():
    report = {
        "python": platform.python_version(),
        "seed": SEED,
        "graphs": timings(),
        "golden_digest": golden_digest(),
        "benchmark_sized_digest": benchmark_sized_digest(),
    }
    for row in report["graphs"]:
        print(
            f"{row['kind']:14} {row['nodes']:5} nodes  generate {row['generate_ms']:8.2f} ms  "
            f"emit_graph {row['emit_graph_ms']:8.2f} ms  sha256 {row['sha256'][:16]}"
        )
    print(f"test_generated_bytes_are_pinned        {report['golden_digest']}")
    print(f"test_benchmark_sized_bytes_are_pinned  {report['benchmark_sized_digest']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
