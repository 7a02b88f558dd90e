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


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S keeps site .pth hooks from importing modules before the package does.
    src = str(pathlib.Path(extinf.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import extinf, extinf.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
