import functools
import string
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from extinf import _native
from extinf.weights import INFINITY, finite

# tools/cross_check.py, the stdlib-only gate for every CPython, holds the pins
# that tests read.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

needs_c = pytest.mark.skipif(_native._absinf is None, reason="the C extension is not loaded")


def also_on_python_rules(test):
    """test, or each test of a class, run as loaded and then again under
    ``_native.python_rules``, with the same test id.  A wrapped ``given``
    test runs its whole search each way."""
    if isinstance(test, type):
        for name, method in list(vars(test).items()):
            if name.startswith("test_"):
                setattr(test, name, also_on_python_rules(method))
        return test

    @functools.wraps(test)
    def run(*args, **kwargs):
        test(*args, **kwargs)
        with _native.python_rules():
            test(*args, **kwargs)

    return run


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
