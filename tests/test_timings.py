"""The round protocol of tools/timings.py, with stand-in cells and a stand-in
reference loop, and README's tables against the checked-in runs."""

import json
import re
import time
from pathlib import Path

import timings
from timings import BASELINE, CANDIDATE

ROOT = Path(__file__).resolve().parent.parent


def test_each_round_reads_the_reference_once_then_alternates_the_order(monkeypatch):
    log, readings = [], [0.25, 1.0, 0.5, 2.0]
    next_reading = iter(readings).__next__
    monkeypatch.setattr(timings, "reference_ms", lambda: log.append("reference") or next_reading())
    monkeypatch.setattr(timings, "BUDGET_S", 1e-4)

    def recorder(label):
        def call():  # logs a run of calls to one cell once
            if log[-1:] != [label]:
                log.append(label)

        return call

    cells = [(label, recorder(label)) for label in "abc"]
    reference, samples = timings.measure(cells, rounds=len(readings))
    sizing, forward, backward = list("abc"), ["reference", *"abc"], ["reference", *"cba"]
    assert log == sizing + forward + backward + forward + backward
    assert reference == readings
    for ways in samples.values():
        assert len(ways["raw"]) == len(readings)
        for raw, scaled, reading in zip(ways["raw"], ways["scaled"], readings):
            assert scaled == raw * 0.5 / reading


def test_a_slow_first_call_does_not_size_the_timer():
    calls = []

    def cold():
        if not calls:
            time.sleep(0.05)
        calls.append(None)

    measurement = timings._timer(cold)
    assert len(calls) == 3  # the three calls it is sized from
    assert measurement() > 0
    # Sized from the first call alone, it would make one call per round.
    assert len(calls) - 3 > 100


def test_a_pair_statistic_takes_both_arms_from_the_same_round():
    def cell(raw):
        return {"raw": raw, "scaled": [ms * 2 for ms in raw]}

    samples = {
        # Round by round the sentinel takes 1.25 times as long; any other
        # pairing of rounds would spread the ratios.
        ("kernel", "grid", BASELINE): cell([4.0, 16.0, 1.0, 8.0, 2.0]),
        ("kernel", "grid", CANDIDATE): cell([5.0, 20.0, 1.25, 10.0, 2.5]),
        # Per-round ratios 2, 1, 0.5, 0.25, 0.125, whose quartiles are not
        # the ratios of the arms' quartiles.
        ("kernel", "disconnected", BASELINE): cell([1.0, 2.0, 4.0, 8.0, 16.0]),
        ("kernel", "disconnected", CANDIDATE): cell([2.0] * 5),
        ("operators", "INFINITY < float", BASELINE): cell([30.0, 10.0, 50.0, 20.0, 40.0]),
        ("operators", "INFINITY < float", CANDIDATE): cell([33.0, 13.0, 53.0, 23.0, 43.0]),
    }
    report = timings.summary([0.5] * 5, samples)
    for way in ("raw", "scaled"):
        assert report["kernel"]["grid"]["ratio"][way] == {"p25": 1.25, "median": 1.25, "p75": 1.25}
        assert report["kernel"]["disconnected"]["ratio"][way] == {
            "p25": 0.1875,
            "median": 0.5,
            "p75": 1.5,
        }
    extra = report["operators"]["INFINITY < float"]["extra"]
    assert extra == {"raw": dict.fromkeys(("p25", "median", "p75"), 3.0)} | {
        "scaled": dict.fromkeys(("p25", "median", "p75"), 6.0)
    }


def test_readme_tables_are_the_rows_of_the_checked_in_runs():
    runs = json.loads((ROOT / "BENCH_timings.json").read_text())
    readme = (ROOT / "README.md").read_text().splitlines()
    rendered = []
    for key, report in runs.items():
        assert key == f"{report['python']}/{report['sentinel_comparisons']}"
        rendered += timings.rows(report)
    assert [row for row in rendered if row not in readme] == []
    run_rows = [line for line in readme if re.match(r"\| 3\.\d+\.\d+ \|", line)]
    assert [row for row in run_rows if row not in rendered] == []
