"""Check dijkstra's results and the weight error texts on any CPython >= 3.10.

Stdlib only, so it runs on interpreters that have no pytest::

    python3 tools/cross_check.py

It puts this checkout's ``src/`` on the import path and checks:

1. Every bundled fixture from every source, and ``GRAPHS_PER_KIND`` seeded
   graphs of each generator kind from their first node: ``dijkstra`` returns
   the same map under both domains, equal to ``bellman_ford``, with every
   unreached node mapped to ``INFINITY`` itself and every reached one to a
   plain ``ExtendedWeight``.
2. ``finite`` rejects each out-of-domain value with its exact message.
3. ``WeightDomain`` accepts the infinities whose binary64 image is +inf,
   one whose ``==`` answers only floats among them, and rejects the others.

``tests/`` checks the same things under pytest.  The last line of output is
a JSON summary; the exit status is 0 only when every check passed.
"""

import json
import math
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from extinf import generators  # noqa: E402
from extinf.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from extinf.shortest_path import DOMAINS, WeightDomain, bellman_ford, dijkstra  # noqa: E402
from extinf.weights import INFINITY, ExtendedWeight, finite  # noqa: E402

GRAPHS_PER_KIND = 20

MESSAGES = (
    (-1, "weight cannot be negative: -1.0"),
    (-0.5, "weight cannot be negative: -0.5"),
    (math.nan, "weight cannot be NaN"),
    (math.inf, "use INFINITY for an infinite weight"),
    (-math.inf, "weight cannot be negative: -inf"),
    (10**400, "use INFINITY for an infinite weight"),
    (-(10**400), "weight cannot be negative: -inf"),
)


def search_problems(graph_id, graph, sources):
    problems = []
    for source in sources:
        oracle = bellman_ford(graph, source)
        for domain in DOMAINS.values():
            result = dijkstra(graph, source, domain)
            if result != oracle or any(
                w is not INFINITY and type(w) is not ExtendedWeight for w in result.values()
            ):
                problems.append(f"{graph_id} from {source!r} under {domain.name}")
    return problems


def message_problems():
    problems = []
    for value, expected in MESSAGES:
        try:
            finite(value)
        except ValueError as exc:
            if str(exc) != expected:
                problems.append(f"finite({value!r}) said {str(exc)!r}")
        else:
            problems.append(f"finite({value!r}) did not raise")
    return problems


class FloatOnlyInfinity:
    """+inf whose ``==`` answers only a float, as a C type's rich comparison
    may: ``== INFINITY`` is answered by neither side and falls back to identity."""

    def __eq__(self, other):
        return other == math.inf if type(other) is float else NotImplemented

    __hash__ = object.__hash__


def domain_problems():
    problems = []
    for infinity, accepted in (
        (math.inf, True),
        (float("inf"), True),
        (10**400, True),
        (INFINITY, True),
        (FloatOnlyInfinity(), True),
        (1e9, False),
        (-math.inf, False),
        (math.nan, False),
        ("inf", False),
    ):
        try:
            WeightDomain("x", infinity)
        except ValueError:
            if accepted:
                problems.append(f"WeightDomain refused {infinity!r}")
        else:
            if not accepted:
                problems.append(f"WeightDomain accepted {infinity!r}")
    return problems


def main():
    problems = []
    checked = 0
    for name in FIXTURE_NAMES:
        graph = fixture(name)
        problems += search_problems(name, graph, sorted(graph))
        checked += 1
    for kind in generators.KINDS:
        for seed in range(GRAPHS_PER_KIND):
            spec = generators.GeneratorSpec(kind, (2 + seed % 4) ** 2, seed=seed)
            graph = generators.generate(spec)
            problems += search_problems(f"{kind} seed {seed}", graph, [min(graph)])
            checked += 1
    problems += message_problems() + domain_problems()
    for problem in problems:
        print(problem)
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "graphs": checked,
                "problems": len(problems),
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
