"""Command-line surface: flags, outputs, exit codes."""

import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extinf.bench as bench
from extinf.cli import main
from extinf.fixtures import fixture
from extinf.graphs import parse_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cycle_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, out, err = run_cli(
            capsys, "gen", "--kind", "cycle", "--nodes", "4", "--seed", "7",
            "-o", str(out_path),
        )
        assert code == 0
        assert "4 nodes, 4 edges" in out
        graph = parse_graph(out_path.read_text())
        assert len(graph) == 4
        assert all(len(neighbors) == 1 for neighbors in graph.values())

    def test_grid_rejects_non_square(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "grid", "--nodes", "10")
        assert code == 2
        assert "perfect square" in err

    def test_linear_chain_with_explicit_weights(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "--kind", "linear_chain", "--nodes", "4",
            "--weights", "2,3,1",
        )
        assert code == 0
        graph = parse_graph(out)
        names = sorted(graph)
        assert [graph[a][b] for a, b in zip(names, names[1:])] == [2, 3, 1]

    def test_stdout_graph_with_stderr_summary(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "star", "--nodes", "5")
        assert code == 0
        assert parse_graph(out)
        assert "5 nodes, 4 edges" in err

    def test_same_seed_same_bytes(self, capsys):
        args = ("gen", "--kind", "sparse_tree", "--nodes", "9", "--seed", "41")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTINF_BENCH_SEED", "41")
        _, via_env, _ = run_cli(capsys, "gen", "--kind", "sparse_tree", "--nodes", "9")
        monkeypatch.delenv("EXTINF_BENCH_SEED")
        _, via_flag, _ = run_cli(
            capsys, "gen", "--kind", "sparse_tree", "--nodes", "9", "--seed", "41"
        )
        assert via_env == via_flag

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTINF_BENCH_SEED", "soon")
        code, _, err = run_cli(capsys, "gen", "--kind", "star", "--nodes", "4")
        assert code == 2
        assert "EXTINF_BENCH_SEED" in err

    def test_explicit_weight_past_binary64_range(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "linear_chain", "--nodes", "2",
            "--weights", "1" + "0" * 400,
        )
        assert code == 2
        assert "bad explicit weight: a 1329-bit integer" in err

    def test_bad_weight_range_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "star", "--nodes", "4", "--weight-range", "wide"
        )
        assert code == 2


class TestRun:
    def test_timing_csv_for_fixture(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--fixture", "Linear_Chain_1", "--iterations", "2",
            "--repetitions", "3", "--domain", "ieee_baseline",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {row["impl"] for row in rows} == {"ieee_baseline"}
        assert {row["graph_id"] for row in rows} == {"Linear_Chain_1"}
        assert all(float(row["elapsed"]) >= 0 for row in rows)

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"A":{"B":2},"B":{}}')
        code, out, _ = run_cli(
            capsys, "run", "--graph", str(path), "--iterations", "1"
        )
        assert code == 0
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert row["source"] == "A"  # lexicographically smallest by default

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--iterations", "1")
        assert code == 2
        path = tmp_path / "g.json"
        path.write_text("{}")
        code, _, err = run_cli(
            capsys, "run", "--graph", str(path), "--fixture", "Star_Graph_1"
        )
        assert code == 2

    def test_unknown_fixture_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--fixture", "Nope", "--iterations", "1")
        assert code == 1
        assert "Nope" in err

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--graph", str(tmp_path / "absent.json"), "--iterations", "1"
        )
        assert code == 1


class TestCompare:
    def test_fixtures_all_json(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--fixtures", "all", "--iterations", "1",
            "--repetitions", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 10
        assert doc["rows"][0]["graph_id"] == "Linear_Chain_1"
        assert doc["welch"]["n_a"] == doc["welch"]["n_b"] == 20
        assert doc["welch"]["alpha"] == 0.01
        assert doc["config"]["iterations"] == 1

    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--fixtures", "Cycle_Graph_1,Star_Graph_1",
            "--iterations", "1", "--repetitions", "2",
        )
        assert code == 0
        assert "graph_id" in out and "H0 at alpha=0.01" in out

    def test_csv_to_file_with_verdict_on_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "compare", "--fixtures", "Cycle_Graph_1", "--iterations", "1",
            "--repetitions", "2", "--format", "csv", "-o", str(out_path),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert len(rows) == 1 and rows[0]["graph_id"] == "Cycle_Graph_1"
        assert "H0 at alpha" in out

    def test_csv_to_stdout_keeps_data_clean(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--fixtures", "Cycle_Graph_1", "--iterations", "1",
            "--repetitions", "2", "--format", "csv",
        )
        assert code == 0
        assert list(csv.DictReader(io.StringIO(out)))
        assert "H0 at alpha" in err and "H0 at alpha" not in out

    def test_unknown_source_names_node(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.json"
        path.write_text('{"B":{"C":2},"C":{}}')
        timed = []
        monkeypatch.setattr(bench, "time_dijkstra", lambda *args, **kw: timed.append(args))
        code, _, err = run_cli(
            capsys, "compare", "--fixtures", "Cycle_Graph_1", "--graph", str(path),
            "--source", "A", "--iterations", "1",
        )
        assert code == 1
        assert "'A'" in err and str(path) in err
        assert timed == []

    def test_graph_file_and_fixture_mix(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"A":{"B":2},"B":{}}')
        code, out, _ = run_cli(
            capsys, "compare", "--fixtures", "Cycle_Graph_1", "--graph", str(path),
            "--iterations", "1", "--repetitions", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["graph_id"] for row in doc["rows"]] == ["Cycle_Graph_1", str(path)]

    def test_needs_some_graphs(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--iterations", "1")
        assert code == 2

    def test_single_graph_single_repetition_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--fixtures", "Cycle_Graph_1", "--iterations", "1",
            "--repetitions", "1",
        )
        assert code == 2

    def test_alpha_bounds(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--fixtures", "all", "--alpha", "1.2",
            "--iterations", "1",
        )
        assert code == 2


class TestTtest:
    def _write_samples(self, path, values):
        path.write_text("\n".join(str(v) for v in values) + "\n")

    def test_json_report_on_plain_columns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_samples(a, [1.0, 2.0, 3.0, 4.0])
        self._write_samples(b, [2.0, 3.0, 4.0, 5.0])
        code, out, _ = run_cli(capsys, "ttest", str(a), str(b), "--alpha", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_a"] == doc["n_b"] == 4
        assert doc["t"] == pytest.approx(-1.0954451150103321)
        assert doc["reject_null"] is False

    def test_paper_shaped_split(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_samples(a, [1.0 + 0.01 * i for i in range(20)])
        self._write_samples(b, [1.2 + 0.01 * i for i in range(20)])
        code, out, _ = run_cli(capsys, "ttest", str(a), str(b), "--alpha", "0.01")
        doc = json.loads(out)
        assert code == 0
        assert doc["n_a"] + doc["n_b"] == 40
        assert doc["reject_null"] is True

    def test_verdict_format(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_samples(a, [1, 2, 3])
        self._write_samples(b, [1, 2, 4])
        code, out, _ = run_cli(
            capsys, "ttest", str(a), str(b), "--format", "verdict"
        )
        assert code == 0
        assert out.strip().endswith(")") and "H0 at alpha=0.01" in out

    def test_reads_timing_csv_per_iteration(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--fixture", "Cycle_Graph_1", "--iterations", "1",
            "--repetitions", "2",
        )
        timing = tmp_path / "t.csv"
        timing.write_text(out)
        other = tmp_path / "o.csv"
        self._write_samples(other, [0.5, 0.6])
        code, out, _ = run_cli(capsys, "ttest", str(timing), str(other))
        assert code == 0
        assert json.loads(out)["n_a"] == 2

    def test_unreadable_samples(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("colour,taste\nred,sweet\n")
        ok = tmp_path / "ok.csv"
        self._write_samples(ok, [1, 2])
        code, _, err = run_cli(capsys, "ttest", str(bad), str(ok))
        assert code == 1
        assert "cannot interpret" in err

    def test_ragged_timing_csv_names_file_and_line(self, capsys, tmp_path):
        ragged = tmp_path / "rag.csv"
        ragged.write_text("x,per_iteration\n1,0.1\n0.2\n")
        ok = tmp_path / "ok.csv"
        self._write_samples(ok, [1, 2])
        code, _, err = run_cli(capsys, "ttest", str(ok), str(ragged))
        assert code == 1
        assert f"{ragged}, line 3: no column 2" in err

    @pytest.mark.parametrize("cell", ["fast", "nan", "-inf"])
    def test_bad_cell_names_file_and_line(self, capsys, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1.0\n\n2.0\n{cell}\n")
        ok = tmp_path / "ok.csv"
        self._write_samples(ok, [1, 2])
        code, _, err = run_cli(capsys, "ttest", str(bad), str(ok))
        assert code == 1
        assert f"{bad}, line 4: not a finite number: {cell!r}" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'"' + b"x" * 140_000 + b'"\n', "field larger than field limit"),
            (b"1.0\n\xff\n", "codec can't decode byte 0xff"),
            (b"1.0\n", "needs at least two samples"),
            (b"1e308\n1e308\n", "overflow"),
        ],
        ids=["long-field", "not-utf8", "one-sample", "overflowing-sum"],
    )
    def test_failures_name_the_file(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        ok = tmp_path / "ok.csv"
        self._write_samples(ok, [1, 2])
        code, _, err = run_cli(capsys, "ttest", str(ok), str(bad))
        assert code == 1
        assert err.startswith("error: ") and str(bad) in err and message in err


_cells = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["", " ", "per_iteration", "value", '"', "1e308", "-1e308"]),
    st.text(max_size=4),
)
_csv_texts = st.lists(st.lists(_cells, min_size=1, max_size=3), max_size=6).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8")
)
_sample_files = st.one_of(
    st.binary(max_size=64),
    _csv_texts,
    st.builds(bytes.__add__, _csv_texts, st.binary(max_size=8)),
)


class TestTtestFuzzed:
    """Any sample file gives a report or an error naming it, never a traceback."""

    @given(_sample_files, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_report_or_error_naming_the_file(self, content, fuzzed_first):
        with tempfile.TemporaryDirectory() as tmp:
            fuzzed = os.path.join(tmp, "fuzzed.csv")
            ok = os.path.join(tmp, "ok.csv")
            with open(fuzzed, "wb") as handle:
                handle.write(content)
            with open(ok, "w", encoding="utf-8") as handle:
                handle.write("1\n2\n3\n")
            files = [fuzzed, ok] if fuzzed_first else [ok, fuzzed]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["ttest", *files])
        assert code == 0 or (code == 1 and fuzzed in err.getvalue()), err.getvalue()


class TestFixturesCmd:
    def test_list_all(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert lines[0].startswith("Linear_Chain_1")

    def test_emit(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures", "--emit", "Cycle_Graph_1")
        assert code == 0
        assert parse_graph(out) == fixture("Cycle_Graph_1")

    def test_emit_unknown(self, capsys):
        code, _, err = run_cli(capsys, "fixtures", "--emit", "Nope")
        assert code == 1

    def test_routes(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures", "--routes")
        assert code == 0
        assert len(out.strip().splitlines()) == 8
        assert "radius_m=4000" in out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "star", "--nodes", "4", "--laser"])
        assert exc.value.code == 2
