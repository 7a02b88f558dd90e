"""What each benchmark workload feeds the program, built from a seed.

``build_inputs`` is everything a workload does between a fresh interpreter
and inputs ready, so ``setup_probe.py`` times exactly this module's import
plus one call.  It imports nothing beyond ``extinf``.

- ``paper_fixtures``: the ten primary bundled fixtures (3-9 nodes), the
  graphs of the paper's ``compare --fixtures all`` protocol, each queried
  from every node.  Per-call overhead (validate, result conversion) is a
  large share of a query.  With one source per fixture every fixture would be
  a tenth of the queries, so every decile of query time, p90 included, would
  fall on the gap between two fixtures' times and jump between runs; with
  every node as a source the 9-node grid is a fifth of the queries and p90
  falls inside its times.
- ``sparse_scan``: 400-node grid, sparse_tree, real_world_like and
  disconnected graphs.  Most nodes hold "unreached" for most of the scan, so
  the kernel's comparisons against infinity dominate; a sentinel fast path
  would show here.
- ``dense_oneshot``: 100-node dense and 200-node equal_weights graphs that
  arrive as JSON text and are parsed for every query.  The source reaches
  every node in the first step, so the arms tie and parsing plus validation
  dominate: the negative control for kernel work and the workload for parser
  and validation work.
"""

from extinf import emit_graph, fixture, generators, primary_fixture_names

WORKLOADS = ("paper_fixtures", "sparse_scan", "dense_oneshot")

# Seeded graphs per workload: (kind, node count); COPIES graphs of each.
GENERATED = {
    "sparse_scan": (
        ("grid", 400),
        ("sparse_tree", 400),
        ("real_world_like", 400),
        ("disconnected", 400),
    ),
    "dense_oneshot": (("dense", 100), ("equal_weights", 200)),
}
COPIES = 3
# Graphs written out for the verdict's ``compare --graph``.  One 400-node
# graph keeps a sparse_scan verdict near 0.1 s, short enough for the
# reference loops around it to track the host's speed.
VERDICT_GRAPHS = {"sparse_scan": ("grid_0",), "dense_oneshot": ("dense_0", "equal_weights_0")}

_MASK64 = (1 << 64) - 1


class Inputs:
    """Query graphs plus the graph files the workload's verdict reads.

    queries holds ``(query_id, payload, source)``; payload is an adjacency
    map, or, when parsed is true, the JSON text each query parses first.
    files maps a graph id to the JSON text to write for ``compare --graph``;
    it is empty when the verdict runs on ``--fixtures all``.
    """

    def __init__(self, queries, files, parsed=False):
        self.queries = queries
        self.files = files
        self.parsed = parsed


def spec_seed(seed: int, kind: str, copy: int) -> int:
    """Generator seed of one graph, a fixed function of the benchmark seed."""
    mixed = seed * 0x9E3779B97F4A7C15
    mixed += (generators.KINDS.index(kind) + 1) * 0xBF58476D1CE4E5B9
    mixed += (copy + 1) * 0x94D049BB133111EB
    return mixed & _MASK64


def build_inputs(workload: str, seed: int) -> Inputs:
    if workload == "paper_fixtures":
        queries = []
        for name in primary_fixture_names():
            graph = fixture(name)
            queries.extend((f"{name}@{source}", graph, source) for source in sorted(graph))
        return Inputs(queries, {})
    if workload not in GENERATED:
        raise ValueError(f"unknown workload: {workload!r}")
    parse = workload == "dense_oneshot"
    queries = []
    files = {}
    for kind, nodes in GENERATED[workload]:
        for copy in range(COPIES):
            spec = generators.GeneratorSpec(kind, nodes, seed=spec_seed(seed, kind, copy))
            graph = generators.generate(spec)
            graph_id = f"{kind}_{copy}"
            in_verdict = graph_id in VERDICT_GRAPHS[workload]
            text = emit_graph(graph) if parse or in_verdict else None
            queries.append((graph_id, text if parse else graph, min(graph)))
            if in_verdict:
                files[graph_id] = text
    return Inputs(queries, files, parse)
