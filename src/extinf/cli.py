"""Command-line surface: gen, run, compare, ttest, fixtures.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  The verdict of a
comparison is data, not a failure, so compare exits 0 either way.  The
--seed flag falls back to the EXTINF_BENCH_SEED environment variable.
``bench``, ``stats``, ``csv`` and ``json`` load in the commands that use them.
"""

import argparse
import math
import os
import sys
import warnings

from . import generators, graphs, weights
from .fixtures import FIXTURE_NAMES, ROAD_ROUTES, fixture, primary_fixture_names
from .shortest_path import DOMAINS, SENTINEL

SEED_ENV_VAR = "EXTINF_BENCH_SEED"


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extinf",
        description=(
            "Benchmark a sentinel infinity against IEEE +inf inside a "
            "linear-scan shortest-path search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", help="generate a graph from a seeded parametric spec")
    gen.add_argument("--kind", required=True, choices=generators.KINDS)
    gen.add_argument("--nodes", required=True, type=int, metavar="N")
    gen.add_argument("--weight-range", default="1,10", metavar="LO,HI")
    gen.add_argument(
        "--weights",
        metavar="W1,W2,...",
        help=f"explicit per-edge weights ({', '.join(generators._EXPLICIT_WEIGHT_KINDS)} only)",
    )
    gen.add_argument(
        "--seed", type=int, metavar="S", help=f"defaults to ${SEED_ENV_VAR}, then 0"
    )
    gen.add_argument("-o", "--output", metavar="FILE")
    gen.set_defaults(handler=cmd_gen)

    run = sub.add_parser("run", help="time one arm on one graph, emit timing CSV")
    run.add_argument("--graph", metavar="FILE")
    run.add_argument("--fixture", metavar="NAME")
    run.add_argument("--domain", choices=sorted(DOMAINS), default=SENTINEL.name)
    run.add_argument("--source", metavar="NODE")
    run.add_argument("--iterations", type=int, default=50_000)
    run.add_argument("--repetitions", type=int, default=1)
    run.add_argument("-o", "--output", metavar="FILE")
    run.set_defaults(handler=cmd_run)

    compare = sub.add_parser(
        "compare", help="paired baseline/sentinel benchmark plus Welch's t-test"
    )
    compare.add_argument("--fixtures", metavar="all|NAME[,NAME...]")
    compare.add_argument(
        "--graph", action="append", default=[], metavar="FILE", help="repeatable"
    )
    compare.add_argument("--source", metavar="NODE", help="applies to every graph")
    compare.add_argument("--iterations", type=int, default=50_000)
    compare.add_argument("--repetitions", type=int, default=2)
    compare.add_argument("--alpha", type=float, default=0.01)
    compare.add_argument("--format", choices=("table", "csv", "json"), default="table")
    compare.add_argument("-o", "--output", metavar="FILE")
    compare.set_defaults(handler=cmd_compare)

    ttest = sub.add_parser("ttest", help="Welch's t-test over two CSV sample files")
    ttest.add_argument("samples_a", metavar="A.csv")
    ttest.add_argument("samples_b", metavar="B.csv")
    ttest.add_argument("--alpha", type=float, default=0.01)
    ttest.add_argument("--format", choices=("json", "verdict"), default="json")
    ttest.set_defaults(handler=cmd_ttest)

    fixtures_cmd = sub.add_parser("fixtures", help="list or emit the bundled graphs")
    fixtures_cmd.add_argument("--emit", metavar="NAME")
    fixtures_cmd.add_argument(
        "--routes", action="store_true", help="list the road-route endpoint metadata"
    )
    fixtures_cmd.add_argument("-o", "--output", metavar="FILE")
    fixtures_cmd.set_defaults(handler=cmd_fixtures)

    return parser


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_weight(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise _UsageError(f"--weights: not a number: {token!r}") from None


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def cmd_gen(args) -> int:
    try:
        lo, hi = (int(part) for part in args.weight_range.split(","))
    except ValueError:
        raise _UsageError(
            f"--weight-range must be two integers LO,HI, got {args.weight_range!r}"
        ) from None
    weights = None
    if args.weights is not None:
        weights = tuple(_parse_weight(part) for part in args.weights.split(","))
    try:
        spec = generators.GeneratorSpec(
            kind=args.kind,
            node_count=args.nodes,
            weight_range=(lo, hi),
            seed=_resolve_seed(args.seed),
            weights=weights,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    graph = generators.generate(spec)
    _write_output(graphs.emit_graph(graph), args.output)
    summary = f"{len(graph)} nodes, {graphs.count_edges(graph)} edges"
    if args.output is None:
        print(summary, file=sys.stderr)
    else:
        print(f"wrote {args.output}: {summary}")
    return 0


def _entries(names, paths, source):
    """(graph_id, graph, source) for each named fixture, then each graph file.

    A source of None means each graph's smallest node id.  A graph file that
    cannot be decoded or parsed is an error that names the file, and so is
    each warning its parse gives.
    """
    loaded = [(name, fixture(name)) for name in names]
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle, warnings.catch_warnings(
                record=True
            ) as caught:
                warnings.simplefilter("always")
                loaded.append((path, graphs.parse_graph(handle.read())))
        except (UnicodeDecodeError, graphs.GraphParseError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        for warning in caught:
            warnings.warn(f"{path}: {warning.message}", warning.category)
    entries = []
    for graph_id, graph in loaded:
        if source is None and not graph:
            raise ValueError(f"graph {graph_id!r} has no nodes")
        entries.append((graph_id, graph, min(graph) if source is None else source))
    return entries


def cmd_run(args) -> int:
    if args.iterations < 1 or args.repetitions < 1:
        raise _UsageError("--iterations and --repetitions must be at least 1")
    if (args.graph is None) == (args.fixture is None):
        raise _UsageError("pass exactly one of --graph or --fixture")
    names, paths = ([args.fixture], []) if args.graph is None else ([], [args.graph])
    [(graph_id, graph, source)] = _entries(names, paths, args.source)
    from . import bench

    samples = [
        bench.time_dijkstra(
            graph, source, args.domain, args.iterations, graph_id=graph_id
        )
        for _ in range(args.repetitions)
    ]
    _write_output(bench.timing_csv(samples), args.output)
    return 0


def cmd_compare(args) -> int:
    if args.iterations < 1 or args.repetitions < 1:
        raise _UsageError("--iterations and --repetitions must be at least 1")
    if not 0.0 < args.alpha < 1.0:
        raise _UsageError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    names = []
    if args.fixtures:
        if args.fixtures.strip() == "all":
            names = primary_fixture_names()
        else:
            names = [name.strip() for name in args.fixtures.split(",")]
    if not names and not args.graph:
        raise _UsageError("compare needs --fixtures and/or --graph")
    entries = _entries(names, args.graph, args.source)
    if len(entries) * args.repetitions < 2:
        raise _UsageError("need at least two samples per arm; raise --repetitions")
    from . import bench

    rows, report = bench.run_comparison(
        entries,
        iterations=args.iterations,
        repetitions=args.repetitions,
        alpha=args.alpha,
    )
    if args.format == "table":
        _write_output(bench.comparison_table(rows, report), args.output)
    elif args.format == "csv":
        _write_output(bench.comparison_csv(rows), args.output)
        # Keep the data stream machine-readable; the verdict goes elsewhere.
        verdict_stream = sys.stdout if args.output is not None else sys.stderr
        print(report.verdict_line(), file=verdict_stream)
    else:
        import json

        config = {
            "iterations": args.iterations,
            "repetitions": args.repetitions,
            "alpha": args.alpha,
            "sentinel_comparisons": weights.SENTINEL_COMPARISONS,
        }
        doc = bench.comparison_jsonable(rows, report, config)
        _write_output(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _column(path, rows, index) -> list:
    """Cell `index` of every (line number, row) pair as a float; a short row
    or a cell that is not a finite number is an error naming the file and line."""
    values = []
    for line, row in rows:
        if index >= len(row):
            raise ValueError(f"{path}, line {line}: no column {index + 1} in {row!r}")
        try:
            value = float(row[index])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}, line {line}: not a finite number: {row[index]!r}")
        values.append(value)
    return values


def _load_samples(path) -> list:
    """Samples from a CSV file: a timing CSV (per_iteration column), a CSV
    with a `value` column, or a headerless single column of numbers."""
    import csv

    try:
        with open(path, encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = [
                (reader.line_num, row)
                for row in reader
                if row and any(cell.strip() for cell in row)
            ]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"no samples in {path}")
    header = [cell.strip() for cell in rows[0][1]]
    for column in ("per_iteration", "value"):
        if column in header:
            index = header.index(column)
            values = _column(path, rows[1:], index)
            break
    else:
        try:
            float(header[0])
        except ValueError:
            raise ValueError(
                f"cannot interpret {path}: expected a per_iteration/value column "
                "or a headerless column of numbers"
            ) from None
        values = _column(path, rows, 0)
    if not values:
        raise ValueError(f"no samples in {path}")
    if len(values) < 2:
        raise ValueError(f"{path}: ttest needs at least two samples per file, got 1")
    return values


def cmd_ttest(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise _UsageError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    samples_a, samples_b = _load_samples(args.samples_a), _load_samples(args.samples_b)
    from . import stats

    try:
        report = stats.welch_test(samples_a, samples_b, alpha=args.alpha)
    except (ValueError, ArithmeticError) as exc:  # e.g. samples that overflow a sum
        raise ValueError(f"{args.samples_a} vs {args.samples_b}: {exc}") from None
    if args.format == "json":
        import json

        print(json.dumps(report.to_jsonable(), indent=2))
    else:
        print(report.verdict_line())
    return 0


def cmd_fixtures(args) -> int:
    if args.emit is not None:
        text = graphs.emit_graph(fixture(args.emit))
    elif args.routes:
        text = "".join(
            f"{route.name}: start={route.start} radius_m={route.radius_m} end={route.end}\n"
            for route in ROAD_ROUTES
        )
    else:
        text = "".join(
            f"{name}  {len(graph)} nodes  {graphs.count_edges(graph)} edges\n"
            for name, graph in zip(FIXTURE_NAMES, map(fixture, FIXTURE_NAMES))
        )
    _write_output(text, args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, OSError, ValueError, LookupError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
