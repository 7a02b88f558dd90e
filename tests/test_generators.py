"""Seeded generators: determinism, validation, and category structure."""

import hashlib

import pytest

from extinf.fixtures import CATEGORIES, fixture
from extinf.generators import KINDS, GeneratorSpec, SplitMix64, generate
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
    digest = hashlib.sha256()
    for kind in KINDS:
        for node_count in sizes_for(kind) + (100,):
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
    assert digest.hexdigest() == (
        "c3c7ff7f06d032bb4deba166cdb4cb3016bbecc89d149fdf6cbeff490db2d8f9"
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
