"""Benchmark of extinf: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (``src/`` is put on the import path here):

    python3 perfbench/run.py --workload sparse_scan --seed 1 --seconds 20 --trace 0

Workloads: paper_fixtures, sparse_scan, dense_oneshot (see workloads.py).
With ``--trace 0`` the run measures untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced stretches of
equal length, and reports the per-layer metrics and the tracing overhead.  Every
time is given at reference speed (see refspeed.py); ``--out`` writes the full
report, raw values, sample counts and environment included, and a traced run
writes its span dump to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 0 only when every output
was correct.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ref-nominal-ms",
        type=float,
        required=True,
        help="reference-loop time that defines reference speed",
    )
    parser.add_argument("--out", metavar="FILE", help="write the full report as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.ref_nominal_ms <= 0:
        parser.error("--seconds and --ref-nominal-ms must be positive")
    return args


def _write_json(path, doc):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "extinf", "__init__.py")):
        print(f"error: no extinf package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = harness.run_workload(args.workload, args.seed, args.seconds, args.trace, args.ref_nominal_ms)
    short = [arm for arm, n in report["samples"]["queries_per_arm"].items() if n < harness.MIN_SAMPLES]
    if short and not args.trace and report["failed"] == 0:
        print(f"error: fewer than {harness.MIN_SAMPLES} samples for {short}; raise --seconds", file=sys.stderr)
        return 1

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(report["samples"]))
    for name, metric in report["end_to_end"].items():
        print(f"  {name:<30} {metric['value']!s:>22} {metric['unit']:<4} raw {metric['raw']}")
    print(f"  {'failed_ratio':<30} {report['failed_ratio']!s:>22}      ({report['failed']} of {report['attempted']})")
    for problem in report["problems"]:
        print(f"  failure: {problem}")
    if args.trace:
        for name, metric in report["per_layer"].items():
            print(f"  {name:<46} {metric['value']!s:>22} {metric['unit']}")
        dump = os.path.join(ROOT, ".perfbench_out", f"spans_{args.workload}_seed{args.seed}.json")
        _write_json(dump, report.pop("spans"))
        print(f"span dump written to {dump}")
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    report["result"] = result
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
