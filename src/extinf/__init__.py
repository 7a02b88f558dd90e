"""Sentinel-infinity weight domain for shortest-path search, with a paired
benchmark harness and a Welch's t-test gate.

The public surface re-exported here covers the extended weight domain, the
graph model with its fixtures and seeded generators, the search itself under
either infinity representation, and the timing/statistics machinery.

Importing the package loads only what a search needs.  The timing and
statistics names, and the ``bench`` and ``stats`` modules themselves, load
on first access.
"""

from .fixtures import (
    CATEGORIES,
    FIXTURE_NAMES,
    ROAD_ROUTES,
    UnknownFixtureError,
    fixture,
    primary_fixture_names,
)
from .generators import KINDS, GeneratorSpec, generate
from .graphs import (
    DanglingTargetWarning,
    GraphParseError,
    InvalidGraphError,
    emit_graph,
    parse_graph,
    validate,
)
from .shortest_path import (
    DOMAINS,
    IEEE_BASELINE,
    SENTINEL,
    UnknownNodeError,
    WeightDomain,
    bellman_ford,
    dijkstra,
    distances_from_jsonable,
    distances_to_jsonable,
    get_domain,
)
from .weights import (
    INFINITY,
    ExtendedWeight,
    Ordering,
    add,
    compare,
    finite,
    format_weight,
    from_binary64,
    parse_weight,
    to_binary64,
)

__version__ = "0.1.0"

# Name -> the submodule that defines it, imported on first access.  The two
# submodules map to themselves, so ``extinf.bench`` works without importing it.
_LAZY = {
    "bench": "bench",
    "ComparisonRow": "bench",
    "TimingSample": "bench",
    "improvement": "bench",
    "run_comparison": "bench",
    "time_dijkstra": "bench",
    "stats": "stats",
    "DegenerateSamplesError": "stats",
    "SampleSet": "stats",
    "WelchReport": "stats",
    "mean": "stats",
    "student_t_cdf": "stats",
    "variance": "stats",
    "welch_test": "stats",
}

# Every public global (the submodules imported above included) and every lazy name.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    """A timing or statistics name, or the ``bench`` or ``stats`` module."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it as a global of this package.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
