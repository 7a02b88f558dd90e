"""Bundled benchmark graphs: ten structural categories, two variants each.

Each fixture is a directed adjacency map exactly as benchmarked; leaves keep
explicit empty adjacency so every node id appears as a key.  ``ROAD_ROUTES``
is inert metadata for the bundled road-route scenarios (endpoint coordinates
and a search radius); acquiring and parsing the underlying road graphs is the
caller's job, via the regular graph JSON format.
"""

from collections import namedtuple

from .generators import KINDS

__all__ = [
    "CATEGORIES",
    "CATEGORY_FIXTURES",
    "FIXTURE_NAMES",
    "ROAD_ROUTES",
    "RouteEndpoints",
    "UnknownFixtureError",
    "fixture",
    "primary_fixture_names",
]


class UnknownFixtureError(ValueError):
    """Raised when a fixture name is not one of the bundled graphs."""


_FIXTURES = {
    "Linear_Chain_1": {"A": {"B": 2}, "B": {"C": 3}, "C": {"D": 1}, "D": {}},
    "Linear_Chain_2": {
        "1": {"2": 5},
        "2": {"3": 4},
        "3": {"4": 6},
        "4": {"5": 2},
        "5": {},
    },
    "Sparse_Tree_1": {
        "A": {"B": 1, "C": 2},
        "B": {"D": 4},
        "C": {"E": 3},
        "D": {},
        "E": {},
    },
    "Sparse_Tree_2": {
        "1": {"2": 7},
        "2": {"3": 5},
        "3": {"4": 1, "5": 3},
        "4": {},
        "5": {},
    },
    "Dense_Graph_1": {
        "A": {"B": 2, "C": 5, "D": 1},
        "B": {"A": 2, "C": 3, "D": 2},
        "C": {"A": 5, "B": 3, "D": 1},
        "D": {"A": 1, "B": 2, "C": 1},
    },
    "Dense_Graph_2": {
        "1": {"2": 1, "3": 2, "4": 3},
        "2": {"1": 1, "3": 1, "4": 2},
        "3": {"1": 2, "2": 1, "4": 1},
        "4": {"1": 3, "2": 2, "3": 1},
    },
    "Star_Graph_1": {"A": {"B": 2, "C": 3, "D": 1}, "B": {}, "C": {}, "D": {}},
    "Star_Graph_2": {
        "0": {"1": 5, "2": 4, "3": 6, "4": 7},
        "1": {},
        "2": {},
        "3": {},
        "4": {},
    },
    "Disconnected_Graph_1": {
        "A": {"B": 3},
        "B": {"C": 4},
        "C": {},
        "X": {"Y": 1},
        "Y": {},
    },
    "Disconnected_Graph_2": {"1": {"2": 1}, "2": {}, "3": {"4": 2}, "4": {}, "5": {}},
    "Cycle_Graph_1": {"A": {"B": 1}, "B": {"C": 2}, "C": {"A": 3}},
    "Cycle_Graph_2": {"1": {"2": 1}, "2": {"3": 1}, "3": {"4": 1}, "4": {"1": 1}},
    "Equal_Weights_1": {"A": {"B": 1}, "B": {"C": 1}, "C": {"D": 1}, "D": {}},
    "Equal_Weights_2": {"1": {"2": 1, "3": 1}, "2": {"4": 1}, "3": {"4": 1}, "4": {}},
    # 3x3 four-neighbor grids, unit weights.
    "Large_Uniform_Graph_1": {
        "A": {"B": 1, "D": 1},
        "B": {"A": 1, "C": 1, "E": 1},
        "C": {"B": 1, "F": 1},
        "D": {"A": 1, "E": 1, "G": 1},
        "E": {"B": 1, "D": 1, "F": 1, "H": 1},
        "F": {"C": 1, "E": 1, "I": 1},
        "G": {"D": 1, "H": 1},
        "H": {"E": 1, "G": 1, "I": 1},
        "I": {"F": 1, "H": 1},
    },
    "Large_Uniform_Graph_2": {
        "1": {"2": 1, "4": 1},
        "2": {"1": 1, "3": 1, "5": 1},
        "3": {"2": 1, "6": 1},
        "4": {"1": 1, "5": 1, "7": 1},
        "5": {"2": 1, "4": 1, "6": 1, "8": 1},
        "6": {"3": 1, "5": 1, "9": 1},
        "7": {"4": 1, "8": 1},
        "8": {"5": 1, "7": 1, "9": 1},
        "9": {"6": 1, "8": 1},
    },
    "Worst_Case_Tie_1": {"A": {"B": 1, "C": 1}, "B": {"D": 1}, "C": {"D": 1}, "D": {}},
    "Worst_Case_Tie_2": {"1": {"2": 2, "3": 2}, "2": {"4": 2}, "3": {"4": 2}, "4": {}},
    "Real_World_Like_1": {
        "Home": {"Gas_Station": 2, "Supermarket": 5},
        "Gas_Station": {"Work": 6},
        "Supermarket": {"Work": 2},
        "Work": {},
    },
    "Real_World_Like_2": {
        "Apt": {"Grocery": 3, "School": 6},
        "Grocery": {"Mall": 4},
        "School": {"Mall": 2},
        "Mall": {"Office": 5},
        "Office": {},
    },
}

FIXTURE_NAMES = tuple(_FIXTURES)

# Category id -> its two fixture variants: _FIXTURES lists the pairs in KINDS order.
CATEGORY_FIXTURES = dict(zip(KINDS, zip(FIXTURE_NAMES[::2], FIXTURE_NAMES[1::2])))

CATEGORIES = tuple(CATEGORY_FIXTURES)


def fixture(name: str) -> dict:
    """A fresh copy of the named bundled graph."""
    try:
        graph = _FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(f"unknown fixture: {name!r}") from None
    return {node: dict(neighbors) for node, neighbors in graph.items()}


def primary_fixture_names() -> list:
    """The first variant of each category, in category order (one per category)."""
    return [CATEGORY_FIXTURES[category][0] for category in CATEGORIES]


class RouteEndpoints(namedtuple("RouteEndpoints", "name start radius_m end")):
    """Endpoints of one road-route scenario: coordinates plus a fetch radius."""

    __slots__ = ()


ROAD_ROUTES = (
    RouteEndpoints(
        "McComas Hall -> Kroger South",
        (37.22077736791238, -80.42247000488936),
        4000,
        (37.21689030678678, -80.40265650118901),
    ),
    RouteEndpoints(
        "McComas Hall -> Kroger North",
        (37.22077736791238, -80.42247000488936),
        4000,
        (37.23552264245645, -80.43524403205011),
    ),
    RouteEndpoints(
        "The Inn -> Pamplin Hall",
        (37.23001825689157, -80.43000178079231),
        2500,
        (37.228762507887176, -80.42473392243994),
    ),
    RouteEndpoints(
        "Fairfield Marriott -> Decathlon",
        (12.928164368027304, 77.68253489278254),
        9000,
        (12.902935714851331, 77.70700861321126),
    ),
    RouteEndpoints(
        "St. Johns Bus Stand -> Rameshwaram Cafe",
        (12.929317600267492, 77.61759068476289),
        9000,
        (12.983308622269272, 77.64085481287738),
    ),
    RouteEndpoints(
        "M.A. Chidambaram Stadium -> Chennai Lighthouse",
        (13.063095632837598, 80.27942274907355),
        4000,
        (13.040466160210698, 80.27929182736985),
    ),
    RouteEndpoints(
        "Dr. MGR Block -> Katpadi Railway Station",
        (12.969217680093521, 79.15580660978962),
        4000,
        (12.972139845854452, 79.13782641820697),
    ),
    RouteEndpoints(
        "Lambert High -> Riverwatch Middle",
        (34.10641389262153, -84.13890857432139),
        7000,
        (34.12447446253152, -84.10939258191553),
    ),
)
