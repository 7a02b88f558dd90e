"""Seeded generators: determinism, validation, and category structure."""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extinf.fixtures import CATEGORIES, fixture
from extinf.generators import KINDS, GeneratorSpec, SplitMix64, generate
from extinf.graphs import emit_graph, validate
from helpers import CATEGORY_PREDICATES

# The pinned digests are computed by the stdlib-only timing tool, so that an
# interpreter without pytest can print them too.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tools"))

import generate_timings  # noqa: E402

# Node counts that satisfy every kind's minimum (grid needs perfect squares).
SIZES = {"grid": (4, 9, 16, 25), "worst_case_tie": (4, 6, 9, 13)}
DEFAULT_SIZES = (4, 5, 8, 12)


def sizes_for(kind):
    return SIZES.get(kind, DEFAULT_SIZES)


def test_splitmix64_is_stable():
    rng = SplitMix64(0)
    # First outputs of the reference splitmix64 stream for seed 0.
    assert rng.next_u64() == 16294208416658607535
    assert rng.next_u64() == 7960286522194355700


def test_splitmix64_randint_bounds():
    rng = SplitMix64(123)
    draws = [rng.randint(3, 9) for _ in range(500)]
    assert min(draws) == 3 and max(draws) == 9


def test_splitmix64_randint_covers_spans_wider_than_one_output():
    rng = SplitMix64(123)
    draws = [rng.randint(0, 2**70) for _ in range(2000)]
    assert all(0 <= v <= 2**70 for v in draws)
    assert any(v >= 2**64 for v in draws)


def test_splitmix64_empty_range_is_an_error():
    rng = SplitMix64(123)
    with pytest.raises(ValueError, match=r"^empty range: randint\(5, 4\)$"):
        rng.randint(5, 4)
    with pytest.raises(ValueError, match="empty range"):
        rng.randints(5, 4, 3)
    assert rng.randints(5, 4, 0) == []


class _ScalarSplitMix64:
    """Reference stream: SplitMix64 one output at a time, as Steele, Lea and
    Flood define it, with the same rejection rule for bounded draws."""

    def __init__(self, seed):
        self.state = seed

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        # The mask has span.bit_length() bits, one more than a power-of-two
        # span needs; the pinned bytes depend on it.
        span = hi - lo + 1
        words = max(1, -(-(span - 1).bit_length() // 64))
        while True:
            v = 0
            for i in range(words):
                v |= self.next_u64() << 64 * i
            v %= 2 ** span.bit_length()
            if v < span:
                return lo + v


STREAM_SEEDS = (0, 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_block_stream_matches_scalar_splitmix64(seed):
    # 2,000 outputs cross every block boundary up to the largest block size
    # and three boundaries between blocks of that size.
    rng, reference = SplitMix64(seed), _ScalarSplitMix64(seed)
    assert [rng.next_u64() for _ in range(2000)] == [reference.next_u64() for _ in range(2000)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_randint_draws_match_scalar_splitmix64(seed):
    spans = (1, 2, 10, 2**64, 2**64 + 1, 2**70)
    rng, reference = SplitMix64(seed), _ScalarSplitMix64(seed)
    for i in range(1500):
        lo = (-3, 0, 5)[i % 3]
        hi = lo + spans[i % len(spans)] - 1
        assert rng.randint(lo, hi) == reference.randint(lo, hi)
    assert rng.next_u64() == reference.next_u64()


# randints' byte filter covers spans up to 255; 256 and 257 are the first
# spans past it, 2**64 and 2**64 + 1 the last of one output and the first of two.
RANDINTS_SPANS = (1, 4, 10, 255, 256, 257, 2**64, 2**64 + 1)


# Spans of every mask width from 1 to 8 bits, with both ends of some widths.
@pytest.mark.parametrize("span", (1, 2, 3, 4, 7, 10, 20, 40, 100, 129, 200, 255))
@pytest.mark.parametrize("read_first", (0, 5))
def test_randints_matches_randint_at_every_count(span, read_first):
    # Counts up to 70 end the call in each of the first few blocks (16, 32, 64
    # and 128 outputs), so some take a block's last accepted output while
    # rejected ones follow it; those must stay unread.
    for count in range(70):
        rng, reference = SplitMix64(9), _ScalarSplitMix64(9)
        for _ in range(read_first):
            assert rng.next_u64() == reference.next_u64()
        expected = [reference.randint(2, span + 1) for _ in range(count)]
        assert rng.randints(2, span + 1, count) == expected
        assert rng.next_u64() == reference.next_u64(), f"count={count}"


_randint_steps = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(
        st.sampled_from(("randint", "randints")),
        st.sampled_from((-7, 0, 1, 200, 2**64)),
        st.sampled_from(RANDINTS_SPANS),
        st.one_of(st.sampled_from((0, 1, 2)), st.integers(3, 40), st.integers(513, 1200)),
    ),
)


@given(st.integers(0, 2**64 - 1), st.lists(_randint_steps, max_size=12))
@settings(max_examples=150, deadline=None)
def test_randints_interleaved_with_other_draws_matches_scalar_splitmix64(seed, steps):
    rng, reference = SplitMix64(seed), _ScalarSplitMix64(seed)
    for step in steps:
        if step[0] == "next_u64":
            assert rng.next_u64() == reference.next_u64()
            continue
        name, lo, span, count = step
        hi = lo + span - 1
        expected = [reference.randint(lo, hi) for _ in range(count)]
        if name == "randint":
            assert [rng.randint(lo, hi) for _ in range(count)] == expected
        else:
            assert rng.randints(lo, hi, count) == expected
        # The next output shows whether the stream stopped where randint would.
        assert rng.next_u64() == reference.next_u64()


def test_kinds_keep_their_order():
    # The benchmark seeds each graph by its kind's index in KINDS.
    assert KINDS == (
        "linear_chain",
        "sparse_tree",
        "dense",
        "star",
        "disconnected",
        "cycle",
        "equal_weights",
        "grid",
        "worst_case_tie",
        "real_world_like",
    )


def test_fixture_categories_are_the_generator_kinds():
    assert CATEGORIES == KINDS


def test_generated_bytes_are_pinned():
    # Every kind at small sizes and 100 nodes, four seeds, two weight ranges,
    # and the explicit-weight kinds.
    assert generate_timings.golden_digest() == (
        "c3c7ff7f06d032bb4deba166cdb4cb3016bbecc89d149fdf6cbeff490db2d8f9"
    )


def test_benchmark_sized_bytes_are_pinned():
    # The graph kinds and sizes of the benchmark's generated workloads, and
    # the largest grid; the digest was taken before generation drew in blocks.
    assert generate_timings.benchmark_sized_digest() == (
        "9d717b1a8e408f0136c78495d85294da1903405d91394a087d08c565927bad12"
    )


@pytest.mark.parametrize("kind", KINDS)
def test_generation_is_deterministic(kind):
    for seed in (0, 7, 2**63):
        spec = GeneratorSpec(kind=kind, node_count=sizes_for(kind)[1], seed=seed)
        assert emit_graph(generate(spec)) == emit_graph(generate(spec))


@pytest.mark.parametrize("kind", KINDS)
def test_generated_graphs_are_valid_and_structured(kind):
    predicate = CATEGORY_PREDICATES[kind]
    for seed in range(100):
        node_count = sizes_for(kind)[seed % 4]
        graph = generate(GeneratorSpec(kind=kind, node_count=node_count, seed=seed))
        assert len(graph) == node_count
        assert validate(graph) == []
        assert predicate(graph), f"{kind} seed={seed} n={node_count}"


def test_linear_chain_with_explicit_weights_matches_bundled_shape():
    spec = GeneratorSpec(kind="linear_chain", node_count=4, weights=(2, 3, 1))
    graph = generate(spec)
    relabel = dict(zip(sorted(graph), "ABCD"))
    rebuilt = {
        relabel[node]: {relabel[t]: w for t, w in out.items()}
        for node, out in graph.items()
    }
    assert rebuilt == fixture("Linear_Chain_1")


def test_unit_grid_matches_bundled_shape_up_to_relabeling():
    graph = generate(GeneratorSpec(kind="grid", node_count=9, weight_range=(1, 1), seed=5))
    relabel = dict(zip(sorted(graph), "ABCDEFGHI"))
    rebuilt = {
        relabel[node]: {relabel[t]: w for t, w in out.items()}
        for node, out in graph.items()
    }
    assert rebuilt == fixture("Large_Uniform_Graph_1")


def test_cycle_has_unit_degrees():
    graph = generate(GeneratorSpec(kind="cycle", node_count=5, weight_range=(1, 1), seed=3))
    assert all(len(out) == 1 for out in graph.values())
    targets = [t for out in graph.values() for t in out]
    assert sorted(targets) == sorted(graph)


def test_equal_weights_uses_range_floor():
    graph = generate(GeneratorSpec(kind="equal_weights", node_count=6, weight_range=(4, 9)))
    assert {w for out in graph.values() for w in out.values()} == {4}


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GeneratorSpec(kind="blob", node_count=5)

    def test_below_minimum(self):
        with pytest.raises(ValueError, match="at least 3"):
            GeneratorSpec(kind="cycle", node_count=2)

    def test_grid_requires_perfect_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            GeneratorSpec(kind="grid", node_count=10)

    def test_weight_range_floor(self):
        with pytest.raises(ValueError, match="weight_range"):
            GeneratorSpec(kind="dense", node_count=4, weight_range=(0, 5))

    def test_weight_range_order(self):
        with pytest.raises(ValueError, match="weight_range"):
            GeneratorSpec(kind="dense", node_count=4, weight_range=(5, 2))

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec(kind="dense", node_count=4, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec(kind="dense", node_count=4, seed=2**64)
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec(kind="grid", node_count=4, seed=True)

    def test_explicit_weights_wrong_count(self):
        with pytest.raises(ValueError, match="needs 3 weights"):
            GeneratorSpec(kind="linear_chain", node_count=4, weights=(1, 2))

    def test_explicit_weights_unsupported_kind(self):
        with pytest.raises(ValueError, match="only supported"):
            GeneratorSpec(kind="dense", node_count=4, weights=(1,) * 12)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "linear_chain", "node_count": 2, "weights": (True,)},
            {"kind": "equal_weights", "node_count": 3, "weight_range": (True, True)},
        ],
    )
    def test_bools_are_not_weights(self, fields):
        with pytest.raises(ValueError, match="weight"):
            GeneratorSpec(**fields)

    def test_explicit_weights_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^bad explicit weight: negative weight -2$"):
            GeneratorSpec(kind="linear_chain", node_count=3, weights=(1, -2))
