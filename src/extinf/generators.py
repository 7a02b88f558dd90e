"""Seeded parametric generators for the ten structural graph categories.

Every generator is a pure function of its GeneratorSpec: the same spec yields
a byte-identical graph, driven by a SplitMix64 stream (a tiny 64-bit PRNG with
a fixed, version-stable sequence).  Generated node ids are ``n0``, ``n1``, ...
zero-padded to a constant width so lexicographic order matches construction
order.

The ``_KINDS`` table at the end of the module is the single definition of a
kind: its builder, its fewest nodes and whether it takes explicit weights.
``KINDS`` is the table's key order, which also seeds the benchmark's graphs.
"""

import math
from dataclasses import dataclass

from .graphs import _weight_problem

__all__ = ["GeneratorSpec", "KINDS", "SplitMix64", "generate"]

_MASK64 = (1 << 64) - 1

class SplitMix64:
    """SplitMix64 generator; unbiased bounded draws via power-of-two rejection."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        span = hi - lo + 1
        mask = (1 << span.bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < span:
                return lo + v


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one seeded generation.

    weight_range is an inclusive integer interval; equal_weights ignores its
    upper bound and uses the lower bound for every edge.  weights, when given,
    replaces seeded weights with an explicit per-edge list, only for kinds
    whose edge order is canonical (linear_chain, star, cycle).
    """

    kind: str
    node_count: int
    weight_range: tuple = (1, 10)
    seed: int = 0
    weights: tuple = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind: {self.kind!r}")
        if not isinstance(self.node_count, int) or isinstance(self.node_count, bool):
            raise ValueError(f"node_count must be an integer, got {self.node_count!r}")
        _, minimum, edge_count = _KINDS[self.kind]
        if self.node_count < minimum:
            raise ValueError(
                f"kind {self.kind!r} needs at least {minimum} nodes, got {self.node_count}"
            )
        if self.kind == "grid" and math.isqrt(self.node_count) ** 2 != self.node_count:
            raise ValueError(
                f"grid node_count must be a perfect square, got {self.node_count}"
            )
        lo, hi = self.weight_range
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (lo, hi)):
            raise ValueError(f"weight_range must be integers, got {self.weight_range!r}")
        floor = 0 if self.kind == "equal_weights" else 1
        if lo < floor or hi < lo:
            raise ValueError(f"bad weight_range for {self.kind!r}: {self.weight_range!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.weights is not None:
            if edge_count is None:
                raise ValueError(
                    f"explicit weights are only supported for {_EXPLICIT_WEIGHT_KINDS}"
                )
            object.__setattr__(self, "weights", tuple(self.weights))
            expected = edge_count(self.node_count)
            if len(self.weights) != expected:
                raise ValueError(
                    f"{self.kind} with {self.node_count} nodes needs {expected} weights, "
                    f"got {len(self.weights)}"
                )
            for w in self.weights:
                problem = _weight_problem(w)
                if problem is not None:
                    raise ValueError(f"bad explicit weight: {problem}")


def _node_names(count):
    width = len(str(count - 1))
    return [f"n{i:0{width}d}" for i in range(count)]


def generate(spec: GeneratorSpec) -> dict:
    """Build the graph described by spec; deterministic in all fields."""
    rng = SplitMix64(spec.seed)
    lo, hi = spec.weight_range
    if spec.weights is not None:
        supply = iter(spec.weights)
        next_weight = lambda: next(supply)
    elif spec.kind == "equal_weights":
        next_weight = lambda: lo
    else:
        next_weight = lambda: rng.randint(lo, hi)
    names = _node_names(spec.node_count)
    build, _, _ = _KINDS[spec.kind]
    return build(names, rng, next_weight)


def _build_linear_chain(names, rng, next_weight):
    graph = {name: {} for name in names}
    for a, b in zip(names, names[1:]):
        graph[a][b] = next_weight()
    return graph


def _build_cycle(names, rng, next_weight):
    graph = _build_linear_chain(names, rng, next_weight)
    graph[names[-1]][names[0]] = next_weight()
    return graph


def _build_star(names, rng, next_weight):
    graph = {name: {} for name in names}
    for leaf in names[1:]:
        graph[names[0]][leaf] = next_weight()
    return graph


def _build_sparse_tree(names, rng, next_weight):
    graph = {name: {} for name in names}
    for i in range(1, len(names)):
        parent = names[rng.randint(0, i - 1)]
        graph[parent][names[i]] = next_weight()
    return graph


def _build_dense(names, rng, next_weight):
    # Complete digraph with symmetric weights.
    graph = {name: {} for name in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            w = next_weight()
            graph[a][b] = w
            graph[b][a] = w
    return graph


def _build_disconnected(names, rng, next_weight):
    split = rng.randint(1, len(names) - 1)
    graph = _build_linear_chain(names[:split], rng, next_weight)
    graph.update(_build_linear_chain(names[split:], rng, next_weight))
    return graph


def _build_equal_weights(names, rng, next_weight):
    # Random tree plus occasional extra forward edges, one shared weight.
    graph = _build_sparse_tree(names, rng, next_weight)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if names[j] not in graph[names[i]] and rng.randint(0, 3) == 0:
                graph[names[i]][names[j]] = next_weight()
    return graph


def _build_grid(names, rng, next_weight):
    # Four-neighbor lattice; each undirected edge gets one symmetric weight.
    side = math.isqrt(len(names))
    graph = {name: {} for name in names}
    for r in range(side):
        for c in range(side):
            here = names[r * side + c]
            if c + 1 < side:
                right = names[r * side + c + 1]
                w = next_weight()
                graph[here][right] = w
                graph[right][here] = w
            if r + 1 < side:
                below = names[(r + 1) * side + c]
                w = next_weight()
                graph[here][below] = w
                graph[below][here] = w
    return graph


def _build_worst_case_tie(names, rng, next_weight):
    # Every source->middle->sink path costs the same, stressing tie-breaking.
    w = next_weight()
    source, sink = names[0], names[-1]
    graph = {name: {} for name in names}
    for middle in names[1:-1]:
        graph[source][middle] = w
        graph[middle][sink] = w
    return graph


def _build_real_world_like(names, rng, next_weight):
    # Layered DAG rooted at the first node, like errands radiating from home.
    layers = [[names[0]]]
    rest = names[1:]
    while rest:
        size = rng.randint(1, min(3, len(rest)))
        layers.append(rest[:size])
        rest = rest[size:]
    graph = {name: {} for name in names}
    for previous, layer in zip(layers, layers[1:]):
        for node in layer:
            parent = previous[rng.randint(0, len(previous) - 1)]
            graph[parent][node] = next_weight()
            if len(previous) > 1 and rng.randint(0, 2) == 0:
                other = previous[rng.randint(0, len(previous) - 1)]
                if node not in graph[other]:
                    graph[other][node] = next_weight()
    return graph


# The single definition of a kind: its builder, its fewest nodes, and the
# length of an explicit weight list for node_count nodes, or None for kinds
# whose edge order is not canonical.  KINDS keeps this order, and the
# benchmark seeds its graphs by a kind's index in it, so add kinds at the end.
_KINDS = {
    "linear_chain": (_build_linear_chain, 2, lambda n: n - 1),
    "sparse_tree": (_build_sparse_tree, 2, None),
    "dense": (_build_dense, 2, None),
    "star": (_build_star, 2, lambda n: n - 1),
    "disconnected": (_build_disconnected, 2, None),
    "cycle": (_build_cycle, 3, lambda n: n),
    "equal_weights": (_build_equal_weights, 2, None),
    "grid": (_build_grid, 4, None),
    "worst_case_tie": (_build_worst_case_tie, 4, None),
    "real_world_like": (_build_real_world_like, 2, None),
}

KINDS = tuple(_KINDS)
_EXPLICIT_WEIGHT_KINDS = tuple(kind for kind, entry in _KINDS.items() if entry[2] is not None)
