"""Seeded parametric generators for the ten structural graph categories.

Every generator is a pure function of its GeneratorSpec: the same spec yields
a byte-identical graph, driven by a SplitMix64 stream (a tiny 64-bit PRNG with
a fixed, version-stable sequence).  Generated node ids are ``n0``, ``n1``, ...
zero-padded to a constant width so lexicographic order matches construction
order.

SplitMix64's k-th output is a fixed mix of ``seed + k * gamma mod 2**64``
(Steele, Lea and Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014), so ``SplitMix64`` mixes a block of outputs at once instead of
paying the interpreter for each shift, xor and multiply of each one.  It packs
the block's states into 128-bit lanes of one Python int, runs every mixing
step on that int with the lanes masked back to 64 bits, so that no shift or
product carries into the next lane, and unpacks the low words through a
``memoryview``.  The loops over lanes are then the int type's C loops.  Blocks
start at 16 outputs, so a small graph mixes few it never reads, and double up
to 512; each size's lane constants are built the first time it is used.

``SplitMix64.randints`` draws many bounded values at once without a call per
draw.  For a span below 256 the rejection mask fits in a byte, and only an
output's low byte decides both its value and whether it is kept, so each
block also keeps its lanes' low bytes as one ``bytes`` object.  One
``bytes.translate`` with a cached 256-byte table and a delete set then masks,
offsets and rejects the whole unread block in C.  The stream invariant: the
values returned, and the next output the generator yields afterwards, are
exactly those of the same number of ``randint`` calls.  When a block holds
more accepted outputs than the call still needs, it is cut right after the
last one taken, found by position: a second table maps each low byte to 1 if
it is kept, and ``compress`` over the positions reads the place of that
output, so the rejected outputs that follow stay unread for the next draw.

The ``_KINDS`` table at the end of the module is the single definition of a
kind: its builder, its fewest nodes and whether it takes explicit weights.
``KINDS`` is the table's key order, which also seeds the benchmark's graphs
and orders the bundled fixture categories, which come in pairs.
"""

import math
import sys
from collections import namedtuple
from functools import partial
from itertools import compress, filterfalse, islice

from .graphs import _weight_problem

__all__ = ["GeneratorSpec", "KINDS", "SplitMix64", "generate"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 16
_LAST_BLOCK = 512
# Lane i of an n-output block holds the state n - i steps on, so the lanes'
# low words, read from the least significant lane up, run from the block's
# last output to its first; the slice reads them in that order in the bytes
# of either byte order.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)
# The low byte of each lane, read from the block's first output to its last.
_LOW_BYTES = slice(-16, None, -16) if sys.byteorder == "little" else slice(15, None, 16)
_lanes = {}  # block size -> (1 in each lane, gamma times each lane's steps, lane mask)
_filters = {}  # (base, span) -> randints' byte filter: value table, delete set, keep table


def _lane_constants(n):
    constants = _lanes.get(n)
    if constants is None:
        ones = int.from_bytes(b"\x01".ljust(16, b"\0") * n, "little")
        steps = b"".join(k.to_bytes(16, "little") for k in range(n, 0, -1))
        constants = _lanes[n] = (ones, _GAMMA * int.from_bytes(steps, "little"), _MASK64 * ones)
    return constants


def _byte_filter(base, span):
    """Table mapping a low byte to base plus its masked value, the bytes whose
    masked value is rejected, and a table mapping a byte to 1 if it is kept
    and 0 if not; randint's mask and rule for a span below 256."""
    entry = _filters.get((base, span))
    if entry is None:
        mask = (1 << span.bit_length()) - 1
        table = bytes((base + (b & mask)) & 0xFF for b in range(256))
        delete = bytes(b for b in range(256) if b & mask >= span)
        keep = bytes(b & mask < span for b in range(256))
        entry = _filters[base, span] = (table, delete, keep)
    return entry


class SplitMix64:
    """SplitMix64 generator; unbiased bounded draws via power-of-two rejection."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # state of the last output mixed so far
        self._block = []  # mixed outputs not yet read, last first
        self._low = b""  # low byte of each output of the block, first first
        self._block_size = _FIRST_BLOCK

    def _mix_block(self):
        """Mix the next block of outputs and return its lanes' bytes."""
        n = self._block_size
        ones, steps, mask = _lane_constants(n)
        z = (self._state * ones + steps) & mask
        self._state = (self._state + n * _GAMMA) & _MASK64
        self._block_size = min(2 * n, _LAST_BLOCK)
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31  # the bits this leaves in the high words are never read
        return z.to_bytes(16 * n, sys.byteorder)

    def _hold(self, raw):
        """Make a mixed block the unread one."""
        self._block = memoryview(raw).cast("Q")[_LOW_WORDS].tolist()
        self._low = raw[_LOW_BYTES]

    def next_u64(self) -> int:
        if not self._block:
            self._hold(self._mix_block())
        return self._block.pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Draws are masked to ``span.bit_length()`` bits and redrawn until they
        fall below the span.  For a power-of-two span that mask is one bit
        wider than needed, so half the draws are rejected (``randint(0, 3)``
        consumes two outputs per value on average).  The mask is part of the
        pinned stream: every generated graph, and so the digest in
        ``test_generated_bytes_are_pinned``, depends on it, and it is kept
        as it is on purpose.
        """
        span = hi - lo + 1
        if span < 1:
            raise ValueError(f"empty range: randint({lo}, {hi})")
        mask = (1 << span.bit_length()) - 1
        if span <= 1 << 64:
            while True:
                v = self.next_u64() & mask
                if v < span:
                    return lo + v
        # A wider span joins as many whole outputs as its largest offset needs.
        words = range(-(-(span - 1).bit_length() // 64))
        while True:
            v = sum(self.next_u64() << 64 * i for i in words) & mask
            if v < span:
                return lo + v

    def randints(self, lo: int, hi: int, count: int) -> list:
        """``[self.randint(lo, hi) for _ in range(count)]``, a block at a time.

        The stream is left on the same next output as those calls would
        leave it.  Spans of 256 and more, and single draws, go through
        ``randint``.
        """
        span = hi - lo + 1
        if count < 2 or span < 1 or span.bit_length() > 8:
            return [self.randint(lo, hi) for _ in range(count)]
        # Fold lo into the table when every value fits in a byte.
        base = lo if 0 <= lo and hi <= 0xFF else 0
        table, delete, keep = _byte_filter(base, span)
        drawn = bytearray()
        while True:
            if self._block:
                unread = self._low[-len(self._block) :]
            else:  # a block read to its end is never unpacked into ints
                raw = self._mix_block()
                unread = raw[_LOW_BYTES]
            accepted = unread.translate(table, delete)
            need = count - len(drawn)
            if len(accepted) >= need:
                break
            drawn += accepted
            self._block.clear()
        # Read up to the need-th accepted output only, so that rejected ones
        # after it stay unread: enough is that output's 1-based position.
        positions = range(1, len(unread) + 1)
        enough = next(islice(compress(positions, unread.translate(keep)), need - 1, None))
        if not self._block:
            self._hold(raw)
        del self._block[-enough:]
        drawn += accepted[:need]
        if base == lo:
            return list(drawn)
        return list(map(lo.__add__, drawn))


class GeneratorSpec(namedtuple("GeneratorSpec", "kind node_count weight_range seed weights")):
    """Parameters of one seeded generation.

    weight_range is an inclusive integer interval; equal_weights ignores its
    upper bound and uses the lower bound for every edge.  weights, when given,
    replaces seeded weights with an explicit per-edge list, only for kinds
    whose edge order is canonical (linear_chain, star, cycle); it is stored
    as a tuple.
    """

    __slots__ = ()

    def __new__(cls, kind, node_count, weight_range=(1, 10), seed=0, weights=None):
        if kind not in KINDS:
            raise ValueError(f"unknown generator kind: {kind!r}")
        if not isinstance(node_count, int) or isinstance(node_count, bool):
            raise ValueError(f"node_count must be an integer, got {node_count!r}")
        _, minimum, edge_count = _KINDS[kind]
        if node_count < minimum:
            raise ValueError(f"kind {kind!r} needs at least {minimum} nodes, got {node_count}")
        if kind == "grid" and math.isqrt(node_count) ** 2 != node_count:
            raise ValueError(f"grid node_count must be a perfect square, got {node_count}")
        lo, hi = weight_range
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (lo, hi)):
            raise ValueError(f"weight_range must be integers, got {weight_range!r}")
        floor = 0 if kind == "equal_weights" else 1
        if lo < floor or hi < lo:
            raise ValueError(f"bad weight_range for {kind!r}: {weight_range!r}")
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if weights is not None:
            if edge_count is None:
                kinds = ", ".join(_EXPLICIT_WEIGHT_KINDS)
                raise ValueError(f"explicit weights are only supported for {kinds}")
            weights = tuple(weights)
            expected = edge_count(node_count)
            if len(weights) != expected:
                raise ValueError(
                    f"{kind} with {node_count} nodes needs {expected} weights, "
                    f"got {len(weights)}"
                )
            for w in weights:
                problem = _weight_problem(w)
                if problem is not None:
                    raise ValueError(f"bad explicit weight: {problem}")
        return super().__new__(cls, kind, node_count, weight_range, seed, weights)


def _node_names(count):
    width = len(str(count - 1))
    return [f"n{i:0{width}d}" for i in range(count)]


def generate(spec: GeneratorSpec) -> dict:
    """Build the graph described by spec; deterministic in all fields."""
    rng = SplitMix64(spec.seed)
    lo, hi = spec.weight_range
    # weights(count) is the next count edge weights as a list, next_weight()
    # the next one; builders that draw other values between weights use it.
    if spec.weights is not None:
        supply = iter(spec.weights)
        weights, next_weight = lambda count: list(islice(supply, count)), supply.__next__
    elif spec.kind == "equal_weights":
        weights, next_weight = lambda count: [lo] * count, lambda: lo
    else:
        weights, next_weight = partial(rng.randints, lo, hi), partial(rng.randint, lo, hi)
    names = _node_names(spec.node_count)
    build, _, _ = _KINDS[spec.kind]
    return build(names, rng, weights, next_weight)


def _chain(names, chain_weights):
    graph = {name: {} for name in names}
    for a, b, w in zip(names, names[1:], chain_weights):
        graph[a][b] = w
    return graph


def _build_linear_chain(names, rng, weights, next_weight):
    return _chain(names, weights(len(names) - 1))


def _build_cycle(names, rng, weights, next_weight):
    # A chain back to the first node, whose graph key keeps its first place.
    return _chain(names + names[:1], weights(len(names)))


def _build_star(names, rng, weights, next_weight):
    graph = {name: {} for name in names}
    graph[names[0]].update(zip(names[1:], weights(len(names) - 1)))
    return graph


def _build_sparse_tree(names, rng, weights, next_weight):
    graph = {name: {} for name in names}
    for i in range(1, len(names)):
        parent = names[rng.randint(0, i - 1)]
        graph[parent][names[i]] = next_weight()
    return graph


def _build_dense(names, rng, weights, next_weight):
    # Complete digraph with symmetric weights.
    graph = {name: {} for name in names}
    drawn = iter(weights(len(names) * (len(names) - 1) // 2))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            w = next(drawn)
            graph[a][b] = w
            graph[b][a] = w
    return graph


def _build_disconnected(names, rng, weights, next_weight):
    split = rng.randint(1, len(names) - 1)
    drawn = weights(len(names) - 2)
    graph = _chain(names[:split], drawn[: split - 1])
    graph.update(_chain(names[split:], drawn[split - 1 :]))
    return graph


def _build_equal_weights(names, rng, weights, next_weight):
    # Random tree plus occasional extra forward edges, one shared weight.
    # Every forward pair that is not a tree edge, row by row, draws a flip of
    # randint(0, 3), and a 0 links it; the tree's n - 1 edges are all forward.
    graph = _build_sparse_tree(names, rng, weights, next_weight)
    links = map((0).__eq__, rng.randints(0, 3, (len(names) - 1) * (len(names) - 2) // 2))
    for i, a in enumerate(names):
        # compress reads one flip per free target, so each row reads its own.
        linked = list(compress(filterfalse(graph[a].__contains__, names[i + 1 :]), links))
        graph[a].update(zip(linked, weights(len(linked))))
    return graph


def _build_grid(names, rng, weights, next_weight):
    # Four-neighbor lattice; each undirected edge gets one symmetric weight.
    side = math.isqrt(len(names))
    graph = {name: {} for name in names}
    drawn = iter(weights(2 * side * (side - 1)))
    for r in range(side):
        for c in range(side):
            here = names[r * side + c]
            if c + 1 < side:
                right = names[r * side + c + 1]
                w = next(drawn)
                graph[here][right] = w
                graph[right][here] = w
            if r + 1 < side:
                below = names[(r + 1) * side + c]
                w = next(drawn)
                graph[here][below] = w
                graph[below][here] = w
    return graph


def _build_worst_case_tie(names, rng, weights, next_weight):
    # Every source->middle->sink path costs the same, stressing tie-breaking.
    w = next_weight()
    source, sink = names[0], names[-1]
    graph = {name: {} for name in names}
    for middle in names[1:-1]:
        graph[source][middle] = w
        graph[middle][sink] = w
    return graph


def _build_real_world_like(names, rng, weights, next_weight):
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
