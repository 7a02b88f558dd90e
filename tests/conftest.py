import string
import sys
from pathlib import Path

from hypothesis import strategies as st

from extinf.weights import INFINITY, finite

# tools/cross_check.py, the stdlib-only gate for every CPython, holds the pins
# that tests read.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

finite_payloads = st.floats(
    min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False
)

extended_weights = st.one_of(st.just(INFINITY), finite_payloads.map(finite))

_node_ids = st.text(string.ascii_uppercase + string.digits, min_size=1, max_size=3)


@st.composite
def small_graphs(draw, max_nodes=7, max_weight=9):
    """Arbitrary valid graphs: closed adjacency maps with small int weights."""
    names = sorted(draw(st.sets(_node_ids, min_size=1, max_size=max_nodes)))
    graph = {}
    for node in names:
        graph[node] = draw(
            st.dictionaries(
                st.sampled_from(names), st.integers(0, max_weight), max_size=len(names)
            )
        )
    return graph


@st.composite
def graphs_with_source(draw, max_nodes=7):
    graph = draw(small_graphs(max_nodes=max_nodes))
    source = draw(st.sampled_from(sorted(graph)))
    return graph, source
