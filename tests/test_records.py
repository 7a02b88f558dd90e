"""The seven record types: repr, report bytes, immutability, hashing, and the
start-up cost they keep off every command.

The literals below were taken from the frozen-dataclass versions of these
records, so they pin what the namedtuple versions must keep byte for byte.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import extinf
from extinf import weights
from extinf.bench import (
    ComparisonRow,
    TimingSample,
    comparison_csv,
    comparison_jsonable,
    timing_csv,
)
from extinf.fixtures import ROAD_ROUTES
from extinf.generators import GeneratorSpec
from extinf.shortest_path import IEEE_BASELINE, SENTINEL
from extinf.stats import SampleSet, WelchReport

REPORT = WelchReport(-2.5, 3.75, 0.04, 1.0, 1.25, 0.01, 0.02, 3, 4, 0.05, True)
SAMPLES = [
    TimingSample("sentinel", "g", "A", 4, 0.5, 0.125),
    TimingSample("ieee_baseline", "h", "B", 1, 0.0, 0.0),
]
ROWS = [ComparisonRow.from_means("g1", 4.0, 3.0), ComparisonRow.from_means("g2", 2.0, 2.5)]


def _records():
    return [
        IEEE_BASELINE,
        ROAD_ROUTES[0],
        GeneratorSpec("star", 3, seed=7, weights=[1, 2.5]),
        SampleSet([1, 2.5], "a"),
        REPORT,
        SAMPLES[0],
        ROWS[0],
    ]


def test_repr_is_pinned():
    assert [repr(record) for record in _records()] == [
        "WeightDomain(name='ieee_baseline', infinity=inf)",
        "RouteEndpoints(name='McComas Hall -> Kroger South', "
        "start=(37.22077736791238, -80.42247000488936), radius_m=4000, "
        "end=(37.21689030678678, -80.40265650118901))",
        "GeneratorSpec(kind='star', node_count=3, weight_range=(1, 10), seed=7, weights=(1, 2.5))",
        "SampleSet(values=(1.0, 2.5), label='a')",
        "WelchReport(t=-2.5, df=3.75, p_one_tailed=0.04, mean_a=1.0, mean_b=1.25, "
        "var_a=0.01, var_b=0.02, n_a=3, n_b=4, alpha=0.05, reject_null=True)",
        "TimingSample(impl='sentinel', graph_id='g', source='A', iterations=4, "
        "elapsed=0.5, per_iteration=0.125)",
        "ComparisonRow(graph_id='g1', baseline_mean=4.0, sentinel_mean=3.0, improvement_pct=25.0)",
    ]
    assert repr(SENTINEL) == "WeightDomain(name='sentinel', infinity=ExtendedWeight(inf))"


def test_report_bytes_are_pinned():
    assert timing_csv(SAMPLES) == (
        "impl,graph_id,source,iterations,elapsed,per_iteration\n"
        "sentinel,g,A,4,0.5,0.125\n"
        "ieee_baseline,h,B,1,0.0,0.0\n"
    )
    assert comparison_csv(ROWS) == (
        "graph_id,baseline_mean,sentinel_mean,improvement_pct\n"
        "g1,4.0,3.0,25.0\n"
        "g2,2.0,2.5,-25.0\n"
    )
    assert json.dumps(comparison_jsonable(ROWS, REPORT, {"iterations": 5})) == (
        '{"rows": [{"graph_id": "g1", "baseline_mean": 4.0, "sentinel_mean": 3.0, '
        '"improvement_pct": 25.0}, {"graph_id": "g2", "baseline_mean": 2.0, '
        '"sentinel_mean": 2.5, "improvement_pct": -25.0}], "aggregates": '
        '{"mean_of_per_graph_improvements_pct": 0.0, "improvement_of_pooled_means_pct": '
        '20.0}, "welch": {"t": -2.5, "df": 3.75, "p_one_tailed": 0.04, "mean_a": 1.0, '
        '"mean_b": 1.25, "var_a": 0.01, "var_b": 0.02, "n_a": 3, "n_b": 4, "alpha": 0.05, '
        '"reject_null": true}, "config": {"iterations": 5}}'
    )


@pytest.mark.parametrize(
    "record, field",
    zip(_records(), ["name", "name", "kind", "values", "t", "impl", "graph_id"]),
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_generator_spec_hashes_by_value_and_keeps_weights_as_a_tuple():
    listed = GeneratorSpec("star", 3, weights=[1, 2])
    assert listed.weights == (1, 2) and type(listed.weights) is tuple
    assert listed == GeneratorSpec("star", 3, weights=(1, 2))
    assert hash(listed) == hash(GeneratorSpec("star", 3, weights=(1, 2)))


def test_generator_spec_checks_the_kind_before_reading_weights():
    with pytest.raises(ValueError, match="^explicit weights are only supported for "):
        GeneratorSpec("grid", 4, weights=5)
    with pytest.raises(TypeError):
        GeneratorSpec("star", 3, weights=5)


def test_sample_set_replace_and_make_go_through_the_constructor():
    three = SampleSet((1, 2, 3))
    assert three._replace(label="x") == SampleSet((1.0, 2.0, 3.0), "x")
    assert SampleSet._make([[4], "y"]) == SampleSet((4.0,), "y")
    with pytest.raises(ValueError, match="cannot be empty"):
        three._replace(values=())
    with pytest.raises(ValueError, match="must be finite"):
        SampleSet._make([[float("nan")], "z"])
    with pytest.raises(ValueError, match="unexpected field names"):
        three._replace(size=3)


def test_generator_spec_and_timing_sample_rebuild_through_the_constructor():
    spec = GeneratorSpec("star", 3)
    assert spec._replace(weights=[1, 2]) == GeneratorSpec("star", 3, weights=(1, 2))
    assert type(spec._replace(weights=[1, 2]).weights) is tuple
    assert GeneratorSpec._make(["grid", 16, (1, 10), 0, None]) == GeneratorSpec("grid", 16)
    assert SAMPLES[0]._replace(graph_id="h") == TimingSample("sentinel", "h", "A", 4, 0.5, 0.125)


@pytest.mark.parametrize(
    "rebuild, message",
    [
        (lambda: GeneratorSpec("star", 3)._replace(weights=(1,)), "star with 3 nodes needs 2 "),
        (
            lambda: GeneratorSpec("grid", 16)._replace(node_count=15),
            "grid node_count must be a perfect square, got 15",
        ),
        (lambda: GeneratorSpec._make(["nope", 3, (1, 10), 0, None]), "unknown generator kind"),
        (lambda: SAMPLES[0]._replace(elapsed=-1.0), "elapsed time cannot be negative"),
        (
            lambda: TimingSample._make(["sentinel", "g", "A", 0, 0.0, 0.0]),
            "iterations must be at least 1",
        ),
    ],
    ids=["spec_weights", "spec_grid", "spec_make", "sample_replace", "sample_make"],
)
def test_rebuilt_records_are_checked_like_new_ones(rebuild, message):
    with pytest.raises(ValueError, match="^" + message):
        rebuild()


# Every name the package re-exported when it imported each of its modules.
_REEXPORTED = (
    "CATEGORIES FIXTURE_NAMES ROAD_ROUTES UnknownFixtureError fixture primary_fixture_names "
    "KINDS GeneratorSpec generate "
    "DanglingTargetWarning GraphParseError InvalidGraphError emit_graph parse_graph validate "
    "DOMAINS IEEE_BASELINE SENTINEL UnknownNodeError WeightDomain bellman_ford dijkstra "
    "distances_from_jsonable distances_to_jsonable get_domain "
    "INFINITY ExtendedWeight Ordering add compare finite format_weight from_binary64 "
    "parse_weight to_binary64 "
    "ComparisonRow TimingSample improvement run_comparison time_dijkstra "
    "DegenerateSamplesError SampleSet WelchReport mean student_t_cdf variance welch_test"
)
# What ``import extinf`` loads: the search path, the loader of INFINITY's C
# comparisons, and the extension itself when it is built.
_SEARCH_MODULES = sorted(
    ["extinf", "extinf._native", "extinf.fixtures", "extinf.generators", "extinf.graphs"]
    + ["extinf.shortest_path", "extinf.weights"]
    + (["extinf._absinf"] if weights.SENTINEL_COMPARISONS == "c" else [])
)
_IMPORT_CASES = {
    "neither_dataclasses_nor_inspect": (
        "import extinf, extinf.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))",
        "[]\n",
    ),
    # json, csv, bench, stats and cli load on first use; every name still resolves.
    "only_the_search_path": (
        """import extinf
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("extinf", "json", "csv")))
print(extinf.run_comparison is extinf.bench.run_comparison)
print(extinf.welch_test is extinf.stats.welch_test, extinf.stats.__name__)
names = set(sys.argv[2].split())
star = {}
exec("from extinf import *", star)
print(sorted(names - star.keys()), sorted(names - set(dir(extinf))))
print(all(star[name] is getattr(extinf, name) for name in names))
print(hasattr(extinf, "cli"), hasattr(extinf, "no_such_name"))
from extinf import cli
print(cli.__name__)""",
        f"{_SEARCH_MODULES}\n"
        "True\nTrue extinf.stats\n[] []\nTrue\nFalse False\nextinf.cli\n",
    ),
    # The CLI imports json, csv, bench and stats only in the commands that use them.
    "no_report_module_for_fixtures_and_only_json_for_gen": (
        """import contextlib, io, os
from extinf.cli import main
def loaded():
    return sorted({"csv", "json", "extinf.bench", "extinf.stats"} & sys.modules.keys())
main(["fixtures", "-o", os.devnull])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["gen", "--kind", "star", "--nodes", "3", "-o", os.devnull])
print(loaded())""",
        "[]\n['json']\n",
    ),
}


@pytest.mark.parametrize("code, expected", _IMPORT_CASES.values(), ids=_IMPORT_CASES.keys())
def test_importing_the_package_loads(code, expected):
    # -S keeps site .pth hooks from importing modules before the package does.
    src = str(pathlib.Path(extinf.__file__).resolve().parents[1])
    # The child looks for the extension in this process's cache, as predicted.
    prefix = ["-X", f"pycache_prefix={sys.pycache_prefix}"] if sys.pycache_prefix else []
    code = "import sys; sys.path.insert(0, sys.argv[1])\n" + code
    result = subprocess.run(
        [sys.executable, "-S", *prefix, "-c", code, src, _REEXPORTED],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == expected
