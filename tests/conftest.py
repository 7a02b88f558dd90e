import os
import string
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent

# extinf builds INFINITY's C comparisons into its bytecode cache on first
# import, and builds nothing while bytecode writing is off, which
# PYTHONDONTWRITEBYTECODE may set for a whole test run.  One child import with
# it on, as an installed package's first import would run, lets this process
# load the built extension, so the tests check the C comparisons whenever a
# compiler exists (tests/test_native.py checks the fallback).
_SRC = str(ROOT / "src")
subprocess.run(
    [sys.executable, "-c", f"import sys; sys.path.insert(0, {_SRC!r}); import extinf"],
    env={k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    timeout=300,
)

from extinf.weights import INFINITY, finite  # noqa: E402

# tools/cross_check.py, the stdlib-only gate for every CPython, holds the pins
# that tests read.
sys.path.insert(0, str(ROOT / "tools"))

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
