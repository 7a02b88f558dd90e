"""Seeded generators: determinism, validation, and category structure."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cross_check
from conftest import also_on_python_rules, needs_c
from extinf import generators
from extinf.fixtures import CATEGORIES, fixture
from extinf.generators import _BLOCK, KINDS, GeneratorSpec, SplitMix64, generate
from extinf.graphs import emit_graph, validate
from helpers import CATEGORY_PREDICATES

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
    # At any count, a count of 0 included.
    with pytest.raises(ValueError, match=r"^empty range: randints\(5, 1, 0\)$"):
        rng.randints(5, 1, 0)
    assert rng.next_u64() == SplitMix64(123).next_u64()


@pytest.mark.parametrize("hi", (3, 2**70))
@pytest.mark.parametrize("count", (-1, -5, 2.0, "3", None, True))
def test_randints_refuses_a_count_that_is_not_a_non_negative_int(count, hi):
    rng = SplitMix64(123)
    message = f"^count must be a non-negative integer, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=message):
        rng.randints(0, hi, count)
    assert rng.next_u64() == SplitMix64(123).next_u64()


def _mix_words_shifting_32(state):
    """The rule with its last xor-shift 32 bits, not 31."""
    words = memoryview(bytearray(8 * _BLOCK)).cast("Q")
    for i in reversed(range(_BLOCK)):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        words[i] = z ^ (z >> 32)
    return words.tobytes()


def test_cross_check_splitmix_table_catches_a_wrong_answer(monkeypatch):
    assert cross_check.splitmix_problems()[0] == []
    monkeypatch.setattr(generators, "_splitmix_block", _mix_words_shifting_32)
    problems, answers = cross_check.splitmix_problems()
    assert "splitmix_block(0) differs from the rule" in problems
    assert "splitmix_block(2**64-1) differs from the rule" in problems
    if cross_check.NATIVE:
        assert "splitmix_block(-1) raised None, not OverflowError" in problems
    else:
        assert set(answers.values()) == {None}


@needs_c
def test_benchmark_graphs_are_mixed_in_c(monkeypatch):
    # A silent miss would put the rule back into every set-up.
    def rule_ran(state):
        raise AssertionError("the rule ran")

    monkeypatch.setattr(generators, "_mix_words", rule_ran)
    for kind, node_count in cross_check.BENCHMARK_SIZES:
        generate(GeneratorSpec(kind, node_count, seed=12345))


@also_on_python_rules
def test_a_block_is_its_outputs_as_native_words_last_first():
    block = generators._splitmix_block(0)
    assert len(block) == 8 * _BLOCK
    # The stream's first two outputs, as test_splitmix64_is_stable pins them.
    assert memoryview(block).cast("Q")[-2:].tolist() == [7960286522194355700, 16294208416658607535]


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


def _equal_weights_by_flips(graph, names, rng, weights, next_weight):
    """The equal_weights rule one flip at a time, as the builder once ran it:
    a random tree, then, row by row, one ``randint(0, 3)`` per forward pair
    that is not a tree edge, where a 0 links the pair."""
    generators._build_sparse_tree(graph, names, rng, weights, next_weight)
    for i, a in enumerate(names):
        linked = [b for b in names[i + 1 :] if b not in graph[a] and rng.randint(0, 3) == 0]
        graph[a].update(zip(linked, weights(len(linked))))


def _in_key_order(graph):
    return [(node, list(adjacency.items())) for node, adjacency in graph.items()]


@given(st.integers(2, 60), st.integers(0, 2**64 - 1), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
@also_on_python_rules
def test_equal_weights_links_what_one_flip_at_a_time_links(node_count, seed, weight):
    names = generators._node_names(node_count)
    reference = {name: {} for name in names}
    weights, next_weight = (lambda count: [weight] * count), (lambda: weight)
    _equal_weights_by_flips(reference, names, SplitMix64(seed), weights, next_weight)
    spec = GeneratorSpec("equal_weights", node_count, (weight, weight + 3), seed)
    assert _in_key_order(generate(spec)) == _in_key_order(reference)


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 600),
    st.integers(0, 255),
    st.integers(1, 255),
    st.integers(0, 3000),
)
@settings(max_examples=100, deadline=None)
@also_on_python_rules
def test_byte_draw_is_randints(seed, read_first, base, span, count):
    rng, other, reference = SplitMix64(seed), SplitMix64(seed), _ScalarSplitMix64(seed)
    for _ in range(read_first):
        assert rng.next_u64() == other.next_u64() == reference.next_u64()
    drawn = rng._draw_bytes(base, span, count)
    assert type(drawn) is bytearray
    # Where base + span - 1 passes 255, randints adds base to offsets drawn from 0.
    values = other.randints(base, base + span - 1, count)
    assert values == [reference.randint(base, base + span - 1) for _ in range(count)]
    assert list(drawn) == [value & 0xFF for value in values]
    assert rng.next_u64() == other.next_u64() == reference.next_u64()


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@also_on_python_rules
def test_block_stream_matches_scalar_splitmix64(seed):
    # 2,000 outputs cross three boundaries between blocks of 512 outputs.
    rng, reference = SplitMix64(seed), _ScalarSplitMix64(seed)
    assert [rng.next_u64() for _ in range(2000)] == [reference.next_u64() for _ in range(2000)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@also_on_python_rules
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
@also_on_python_rules
def test_randints_matches_randint_at_every_count(span, read_first):
    # Besides the first few counts, the counts that end the call on the last
    # accepted output of the first or second block, and one either side.  A
    # call that takes a block's last accepted output while rejected ones
    # follow it must leave those unread.
    reference = _ScalarSplitMix64(9)
    mask = 2 ** span.bit_length() - 1
    kept = [reference.next_u64() & mask < span for _ in range(2 * _BLOCK)][read_first:]
    ends = (sum(kept[: _BLOCK - read_first]), sum(kept))
    for count in sorted({0, 1, 2, 3, *(end + step for end in ends for step in (-1, 0, 1))}):
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
@also_on_python_rules
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


@also_on_python_rules
def test_generated_bytes_are_pinned():
    assert cross_check.golden_digest() == cross_check.GOLDEN_DIGEST


@also_on_python_rules
def test_benchmark_sized_bytes_are_pinned():
    assert cross_check.benchmark_sized_digest() == cross_check.BENCHMARK_SIZED_DIGEST


@also_on_python_rules
def test_generated_key_order_is_pinned():
    assert cross_check.order_digest() == cross_check.ORDER_DIGEST


def test_order_digest_sees_what_the_bytes_do_not(monkeypatch):
    # The kernel relaxes a node's edges in insertion order; emit_graph sorts.
    build, minimum, edge_count = generators._KINDS["equal_weights"]

    def build_reversed(graph, *args):
        build(graph, *args)
        for node, adjacency in graph.items():
            graph[node] = dict(reversed(adjacency.items()))

    entry = (build_reversed, minimum, edge_count)
    monkeypatch.setitem(generators._KINDS, "equal_weights", entry)
    assert cross_check.golden_digest() == cross_check.GOLDEN_DIGEST
    assert cross_check.order_digest() != cross_check.ORDER_DIGEST


def test_cross_check_fails_on_other_bytes(monkeypatch, capsys):
    monkeypatch.setattr(cross_check, "GOLDEN_DIGEST", "0" * 64)
    assert cross_check.main() == 1
    *problems, summary = capsys.readouterr().out.splitlines()
    assert len(problems) == 1 and problems[0].endswith(f"GOLDEN_DIGEST pins {'0' * 64}")
    assert json.loads(summary)["problems"] == 1


def _interpreters():
    """One interpreter per CPython minor version from 3.10 on: the running one
    for its own version, else the newest final release in pyenv's versions
    directory, else ``python3.N`` on PATH, kept only if it starts and reports
    that version of CPython."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    newest = {}
    for python in versions.glob("3.*/bin/python3"):
        release = re.fullmatch(r"3\.(\d+)\.(\d+)", python.parent.parent.name)
        if release:
            minor, patch = map(int, release.groups())
            newest[minor] = max(newest.get(minor, (-1, None)), (patch, str(python)))
    found = {f"3.{sys.version_info.minor}": sys.executable}
    for minor in range(10, 20):
        if f"3.{minor}" in found:
            continue
        python = newest[minor][1] if minor in newest else shutil.which(f"python3.{minor}")
        if python is None:
            continue
        probe = "import sys; print(sys.implementation.name, *sys.version_info[:2])"
        try:
            result = subprocess.run(
                [python, "-I", "-c", probe], capture_output=True, text=True, timeout=60
            )
        except OSError:
            continue
        if result.returncode == 0 and result.stdout.split() == ["cpython", "3", str(minor)]:
            found[f"3.{minor}"] = python
    return found


def test_every_interpreter_passes_cross_check(tmp_path):
    # The search's results, the weight messages, the generated bytes and
    # INFINITY's operators must not depend on the interpreter; the gate needs
    # no pytest.  Each interpreter builds and checks its own C comparisons
    # when this one could build them, then checks the Python ones with its
    # cache inside a regular file, where no build can go.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    unwritable = ["-X", f"pycache_prefix={blocker / 'cache'}"]
    failed, comparisons = {}, {"built": {}, "fallback": {}}
    for version, python in _interpreters().items():
        for path, flags in (("built", []), ("fallback", unwritable)):
            result = subprocess.run(
                [python, "-I", *flags, cross_check.__file__],
                capture_output=True,
                text=True,
                timeout=600,
            )
            if result.returncode != 0:
                failed[version, path] = result.stdout + result.stderr
            else:
                summary = json.loads(result.stdout.splitlines()[-1])
                comparisons[path][version] = summary["sentinel_comparisons"]
    assert failed == {}
    assert set(comparisons["fallback"].values()) == {"python"}, comparisons
    if cross_check.NATIVE:
        assert set(comparisons["built"].values()) == {"c"}, comparisons


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

    def test_non_integer_node_count(self):
        with pytest.raises(ValueError, match="^node_count must be an integer, got 4.0$"):
            GeneratorSpec(kind="star", node_count=4.0)

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

    @pytest.mark.parametrize(
        "weight_range", [(1, 2, 3), 5, [2, 7]], ids=["three_values", "an_int", "a_list"]
    )
    def test_weight_range_is_two_integers_stored_as_a_tuple(self, weight_range):
        if isinstance(weight_range, list):  # accepted, and the spec hashable
            spec = GeneratorSpec(kind="dense", node_count=4, weight_range=weight_range)
            assert spec.weight_range == (2, 7) and hash(spec) == hash(spec._replace())
            return
        message = f"^weight_range must be two integers, got {re.escape(repr(weight_range))}$"
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(kind="dense", node_count=4, weight_range=weight_range)

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
