"""Seeded parametric generators for the ten structural graph categories.

Every generator is a pure function of its GeneratorSpec: the same spec yields
a byte-identical graph, driven by a SplitMix64 stream (a tiny 64-bit PRNG with
a fixed, version-stable sequence).  Generated node ids are ``n0``, ``n1``, ...
zero-padded to a constant width so lexicographic order matches construction
order.

SplitMix64's k-th output is a fixed mix of ``seed + k * gamma mod 2**64``
(Steele, Lea and Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014), so ``SplitMix64`` mixes 512 outputs at once.  A mixed block is
the bytes of those outputs as native-order 64-bit words, last output first.
The rule is ``_mix_words``, SplitMix64 one output at a time stored through
a memoryview; the extension's ``splitmix_block`` returns the same bytes from
the same loop in C.  ``SplitMix64.randints`` returns exactly the values of
the same number of ``randint`` calls and leaves the stream on the same next
output.  For a span below 256 it lists what ``_draw_bytes`` returns: the
values as a bytearray, filtered from each block's low bytes in C.
``equal_weights`` keeps its flips in such bytes all the way to its links,
so it makes no Python-visible call per candidate edge.

The ``_KINDS`` table at the end of the module is the single definition of a
kind: its builder, its fewest nodes and whether it takes explicit weights.
``KINDS`` is the table's key order, which also seeds the benchmark's graphs
and orders the bundled fixture categories, which come in pairs.
"""

import math
import sys
from collections import namedtuple
from functools import cache, lru_cache, partial
from itertools import compress, islice, repeat

from . import _native
from .graphs import _weight_problem

__all__ = ["GeneratorSpec", "KINDS", "SplitMix64", "generate"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 512  # outputs mixed at once
# The low byte of each word of a block, read from its first output to its last.
_LOW_BYTES = slice(-8, None, -8) if sys.byteorder == "little" else slice(-1, None, -8)
# Maps an equal_weights flip to 1 if it links its pair (a 0) and to 0 if not.
_LINK_FLAGS = bytes([1]) + bytes(255)


def _mix_words(state):
    """The outputs 1 to _BLOCK steps past state as native-order words, the
    last output first: the rule of a mixed block, and its fallback."""
    words = memoryview(bytearray(8 * _BLOCK)).cast("Q")
    for i in reversed(range(_BLOCK)):
        state = (state + _GAMMA) & _MASK64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        words[i] = z ^ (z >> 31)
    return words.tobytes()


# state -> its mixed block's bytes.
_splitmix_block = _native.bind(__name__, "_splitmix_block")


@cache
def _byte_filter(base, span):
    """Table mapping a low byte to base plus its masked value, the bytes whose
    masked value is rejected, and a table mapping a byte to 1 if it is kept
    and 0 if not; randint's mask and rule for a span below 256."""
    mask = (1 << span.bit_length()) - 1
    table = bytes((base + (b & mask)) & 0xFF for b in range(256))
    delete = bytes(b for b in range(256) if b & mask >= span)
    keep = bytes(b & mask < span for b in range(256))
    return table, delete, keep


class SplitMix64:
    """SplitMix64 generator; unbiased bounded draws via power-of-two rejection."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # state of the last output mixed so far
        self._block = []  # mixed outputs not yet read, last first
        self._low = b""  # low byte of each output of the block, first first

    def _mix_block(self):
        """Mix the next block of outputs and return its bytes."""
        state = self._state
        self._state = (state + _BLOCK * _GAMMA) & _MASK64
        return _splitmix_block(state)

    def _hold(self, raw):
        """Make a mixed block the unread one."""
        self._block = memoryview(raw).cast("Q").tolist()
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
            # Pops the unread block as next_u64 does, without a call per draw.
            block = self._block
            while True:
                if not block:
                    self._hold(self._mix_block())
                    block = self._block
                v = block.pop() & mask
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
        leave it.  A count that is not a non-negative int, or an empty range
        at any count, is refused.  Spans below 256 are drawn as bytes (see
        ``_draw_bytes``); spans of 256 and more go through ``randint``.
        """
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"count must be a non-negative integer, got {count!r}")
        span = hi - lo + 1
        if span < 1:
            raise ValueError(f"empty range: randints({lo}, {hi}, {count})")
        if span.bit_length() > 8:
            return [self.randint(lo, hi) for _ in range(count)]
        # Fold lo into the table when every value fits in a byte.
        base = lo if 0 <= lo and hi <= 0xFF else 0
        drawn = self._draw_bytes(base, span, count)
        if base == lo:
            return list(drawn)
        return list(map(lo.__add__, drawn))

    def _draw_bytes(self, base, span, count):
        """``base + v`` for the offsets ``v`` of count ``randint`` draws of a
        span below 256, each taken mod 256, as a bytearray.

        An output's low byte alone decides its offset and whether it is
        kept, so one ``bytes.translate`` masks, offsets and rejects a block's
        low bytes in C.  The stream is left where the draws would leave it.
        """
        if count == 0:
            return bytearray()
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
        return drawn


class GeneratorSpec(namedtuple("GeneratorSpec", "kind node_count weight_range seed weights")):
    """Parameters of one seeded generation.

    weight_range is an inclusive integer interval; equal_weights ignores its
    upper bound and uses the lower bound for every edge.  weights, when given,
    replaces seeded weights with an explicit per-edge list, only for kinds
    whose edge order is canonical (linear_chain, star, cycle).  Both are
    stored as tuples, so a spec is hashable.  _make (and _replace, which
    calls it) builds through the constructor, so neither skips its checks.
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
        try:
            lo, hi = weight_range
        except (TypeError, ValueError):  # not two values: refused just below
            lo = hi = None
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (lo, hi)):
            raise ValueError(f"weight_range must be two integers, got {weight_range!r}")
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
        return super().__new__(cls, kind, node_count, (lo, hi), seed, weights)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@lru_cache(maxsize=8)
def _node_names(count):
    """The ids of a count-node graph, built once per count, since graphs
    tend to be generated many to a size; builders only index and slice them."""
    width = len(str(count - 1))
    return tuple(["n" + digits.zfill(width) for digits in map(str, range(count))])


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
    graph = {name: {} for name in names}
    build, _, _ = _KINDS[spec.kind]
    build(graph, names, rng, weights, next_weight)
    return graph


def _chain(graph, names, chain_weights):
    for a, b, w in zip(names, names[1:], chain_weights):
        graph[a][b] = w


def _build_linear_chain(graph, names, rng, weights, next_weight):
    _chain(graph, names, weights(len(names) - 1))


def _build_cycle(graph, names, rng, weights, next_weight):
    # A chain back to the first node.
    _chain(graph, names + names[:1], weights(len(names)))


def _build_star(graph, names, rng, weights, next_weight):
    graph[names[0]].update(zip(names[1:], weights(len(names) - 1)))


def _build_sparse_tree(graph, names, rng, weights, next_weight):
    for i in range(1, len(names)):
        parent = names[rng.randint(0, i - 1)]
        graph[parent][names[i]] = next_weight()


def _build_dense(graph, names, rng, weights, next_weight):
    # Complete digraph with symmetric weights.
    drawn = iter(weights(len(names) * (len(names) - 1) // 2))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            w = next(drawn)
            graph[a][b] = w
            graph[b][a] = w


def _build_disconnected(graph, names, rng, weights, next_weight):
    split = rng.randint(1, len(names) - 1)
    drawn = weights(len(names) - 2)
    _chain(graph, names[:split], drawn[: split - 1])
    _chain(graph, names[split:], drawn[split - 1 :])


def _build_equal_weights(graph, names, rng, weights, next_weight):
    # Random tree plus occasional extra forward edges, one shared weight.
    # Every forward pair that is not a tree edge, row by row, draws a flip of
    # randint(0, 3), and a 0 links it; the tree's n - 1 edges are all forward.
    # The flips stay bytes: one translate turns them into 1/0 link flags, and
    # compress reads a row's slice of them against its free targets.
    _build_sparse_tree(graph, names, rng, weights, next_weight)
    flips = rng._draw_bytes(0, 4, (len(names) - 1) * (len(names) - 2) // 2)
    links = flips.translate(_LINK_FLAGS)
    w, end = next_weight(), 0
    for i, a in enumerate(names):
        adjacency = graph[a]
        free = list(names[i + 1 :])
        for child in adjacency:  # the row's tree children, few and all forward
            free.remove(child)
        start, end = end, end + len(free)
        adjacency.update(zip(compress(free, links[start:end]), repeat(w)))


def _build_grid(graph, names, rng, weights, next_weight):
    # Four-neighbor lattice; each undirected edge gets one symmetric weight.
    side = math.isqrt(len(names))
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


def _build_worst_case_tie(graph, names, rng, weights, next_weight):
    # Every source->middle->sink path costs the same, stressing tie-breaking.
    w = next_weight()
    source, sink = names[0], names[-1]
    for middle in names[1:-1]:
        graph[source][middle] = w
        graph[middle][sink] = w


def _build_real_world_like(graph, names, rng, weights, next_weight):
    # Layered DAG rooted at the first node, like errands radiating from home.
    randint = rng.randint
    layers = [names[:1]]
    start = 1
    while start < len(names):
        end = start + randint(1, min(3, len(names) - start))
        layers.append(names[start:end])
        start = end
    for previous, layer in zip(layers, layers[1:]):
        last = len(previous) - 1
        for node in layer:
            parent = previous[randint(0, last)]
            graph[parent][node] = next_weight()
            if last and randint(0, 2) == 0:
                other = previous[randint(0, last)]
                if node not in graph[other]:
                    graph[other][node] = next_weight()


# The single definition of a kind: its builder, its fewest nodes, and the
# length of an explicit weight list for node_count nodes, or None for kinds
# whose edge order is not canonical.  generate passes a builder a graph that
# maps each name, in order, to an empty adjacency, and the names as a tuple
# shared by every graph of that size; the builder only adds the kind's edges
# to the graph and returns nothing.  KINDS keeps this order, and the
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
