"""Fold run reports (``run.py --out``) into one entry of the benchmark history.

Usage, from the repository root:

    python3 perfbench/summarize.py --entry 2 --holdout-seed 901 REPORT.json ... \
        --second-set REPORT.json ... > perfbench/history/BENCH_2.json

Untraced reports of each workload give the per-run end-to-end values, their
medians and their spreads (distance between the first and third quartile
over the median); traced reports give the per-layer metrics.  Reports run
with the hold-out seed are listed apart, as the check on a seed that was not
used while the benchmark or the change was being written.  Reports after
``--second-set`` are a second set of untraced runs of the same code; their
medians are set against the first set's, as the check that two sets agree.
"""

import argparse
import json
import statistics
import sys


def _spread(values):
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _summary(runs) -> dict:
    median, spread = {}, {}
    for name in runs[0]["end_to_end"]:
        values = [run["end_to_end"][name]["value"] for run in runs]
        median[name] = statistics.median(values)
        spread[name] = _spread(values)
    return {"median": median, "spread": spread}


def summarize(reports, entry, holdout_seed=None, second_set=()) -> dict:
    workloads = {}

    def slot_of(report):
        empty = {"runs": [], "traced": [], "holdout": [], "second_set": {"runs": []}}
        return workloads.setdefault(report["workload"], empty)

    for report in reports:
        if report["environment"]["seed"] == holdout_seed:
            kind = "holdout"
        else:
            kind = "traced" if report["trace"] else "runs"
        slot_of(report)[kind].append(_record(report))
    for report in second_set:
        if report["trace"]:
            raise ValueError("the second set holds untraced runs only")
        slot_of(report)["second_set"]["runs"].append(_record(report))
    for slot in workloads.values():
        if slot["runs"]:
            slot.update(_summary(slot["runs"]))
        second = slot["second_set"]
        if second["runs"]:
            second.update(_summary(second["runs"]))
            if slot["runs"]:
                second["median_over_first"] = {
                    name: value / slot["median"][name] - 1 for name, value in second["median"].items()
                }
    first = (list(reports) + list(second_set))[0]
    environment = {k: v for k, v in first["environment"].items() if k != "seed"}
    return {"entry": entry, "environment": environment, "workloads": workloads}


def _record(report) -> dict:
    record = {
        "seed": report["environment"]["seed"],
        "seconds": report["seconds"],
        "samples": report["samples"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "end_to_end": report["end_to_end"],
    }
    if report["trace"]:
        record["per_layer"] = report["per_layer"]
    return record


def _load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fold run reports into one history entry.")
    parser.add_argument("--entry", type=int, required=True)
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("reports", nargs="+", metavar="REPORT.json")
    parser.add_argument("--second-set", nargs="+", default=[], metavar="REPORT.json")
    args = parser.parse_args(argv)
    first, second = ([_load(path) for path in paths] for paths in (args.reports, args.second_set))
    json.dump(summarize(first, args.entry, args.holdout_seed, second), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
