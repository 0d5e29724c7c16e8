import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from boxplain.bnb import BranchAndBoundBackend, MilpOutcome
from boxplain.cli import InputError, ingest_csv, main
import boxplain
import boxplain.engine as engine
from boxplain.engine import Explainer
from boxplain.simplex import SolverFailure
from conftest import DEMO_DOC, MODELS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.fixture()
def demo_instances(tmp_path):
    path = tmp_path / "instances.csv"
    path.write_text("x1,x2\n0.7,0.2\n0.5,0.3\n")
    return path


@pytest.fixture()
def bad_instances(tmp_path):
    """Rows 1 and 2 are bad: 0.9,0.9 lies outside the demo domain, and the
    demo net's outputs at 0.35,0.35 are an exact tie."""
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n0.7,0.2\n0.9,0.9\n0.35,0.35\n0.5,0.3\n")
    return path


BAD_ROWS = ("input error: instance 1: instance lies outside the input domain",
            "input error: instance 2: instance prediction is an exact tie")


@pytest.fixture()
def zero_model(tmp_path):
    doc = {
        "input_dim": 2,
        "input_domain": [[0.0, 1.0], [0.0, 1.0]],
        "layers": [
            {"weights": [[0.0, 0.0], [0.0, 0.0]], "biases": [0.5, -1.0],
             "activation": "relu"},
            {"weights": [[0.0, 0.0], [0.0, 0.0]], "biases": [1.0, 0.0],
             "activation": "identity"},
        ],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    return path


class TestIngest:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0.7,0.2\n")
        rows = ingest_csv(path)
        assert rows.shape == (1, 2)
        assert rows[0] == pytest.approx([0.7, 0.2], abs=0)

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x1,x2\n0.1,0.9\n")
        assert ingest_csv(path).shape == (1, 2)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(InputError, match="line 2, column 2"):
            ingest_csv(path)

    def test_partially_numeric_first_line_is_data_not_header(self, tmp_path):
        path = tmp_path / "c2.csv"
        path.write_text("0.1,bad\n")
        with pytest.raises(InputError, match="line 1, column 2"):
            ingest_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(InputError, match="line 2"):
            ingest_csv(path)

    def test_empty_cell_before_a_value_names_its_position(self, tmp_path):
        # dropping the empty cell would read column 3 as column 2
        path = tmp_path / "e.csv"
        path.write_text("0.1,,oops\n")
        with pytest.raises(InputError,
                           match="line 1, column 2: non-numeric value ''"):
            ingest_csv(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        path = tmp_path / "bom2.csv"
        path.write_bytes("0.7,0.2\n0.5,0.3\n".encode("utf-8-sig"))
        assert ingest_csv(path).tolist() == [[0.7, 0.2], [0.5, 0.3]]

    def test_byte_order_mark_keeps_a_one_column_first_row(self, tmp_path):
        # with the mark read as text, the first row would pass for a header
        path = tmp_path / "bom1.csv"
        path.write_bytes("0.7\n0.5\n".encode("utf-8-sig"))
        assert ingest_csv(path).tolist() == [[0.7], [0.5]]

    def test_blank_lines_and_trailing_empty_cells_ignored(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,\n0.7,0.2,,\n\n ,\n0.5,0.3\n")
        rows = ingest_csv(path)
        assert rows.tolist() == [[0.7, 0.2], [0.5, 0.3]]


class TestExplain:
    def test_rows_per_instance(self, capsys, demo_model_path, demo_instances):
        code, out, _ = run_cli(capsys, "explain", str(demo_model_path),
                               str(demo_instances))
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["instance", "predicted_class", "kept_indices"]
        assert len(rows) == 2
        assert rows[0][1] == "0"
        assert rows[0][2] == "0"
        assert "1:RemovedByBox" in rows[0][3]

    def test_modes_agree_on_kept_sets(self, capsys, demo_model_path,
                                      demo_instances):
        _, base_out, _ = run_cli(capsys, "explain", str(demo_model_path),
                                 str(demo_instances), "--mode", "baseline")
        _, ours_out, _ = run_cli(capsys, "explain", str(demo_model_path),
                                 str(demo_instances), "--mode", "improved")
        _, base_rows = parse_csv(base_out)
        _, ours_rows = parse_csv(ours_out)
        for b, o in zip(base_rows, ours_rows):
            assert b[2] == o[2]

    def test_width_mismatch_is_input_error(self, capsys, demo_model_path,
                                           tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0.1,0.2,0.3\n")
        code, _, err = run_cli(capsys, "explain", str(demo_model_path), str(path))
        assert code == 2
        assert "columns" in err

    def test_malformed_cell_is_input_error(self, capsys, demo_model_path,
                                           tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\nx,0.4\n")
        code, _, err = run_cli(capsys, "explain", str(demo_model_path), str(path))
        assert code == 2
        assert "line 2" in err

    def test_empty_cell_is_input_error(self, capsys, demo_model_path, tmp_path):
        # not the instance (0.7, 0.2) with its values shifted left
        path = tmp_path / "gap.csv"
        path.write_text("0.7,,0.2\n")
        code, out, err = run_cli(capsys, "explain", str(demo_model_path), str(path))
        assert code == 2
        assert "line 1, column 2" in err
        assert out == ""

    def test_missing_model_file(self, capsys, tmp_path, demo_instances):
        code, _, err = run_cli(capsys, "explain", str(tmp_path / "nope.json"),
                               str(demo_instances))
        assert code == 2

    def test_bad_order_flag(self, capsys, demo_model_path, demo_instances):
        code, _, err = run_cli(capsys, "explain", str(demo_model_path),
                               str(demo_instances), "--order", "0,0")
        assert code == 2
        assert "permutation" in err

    def test_non_integer_order_token(self, capsys, demo_model_path, demo_instances):
        code, out, err = run_cli(capsys, "explain", str(demo_model_path),
                                 str(demo_instances), "--order", "1,x")
        assert (code, out) == (2, "")
        assert "--order must be 'asc' or a comma list, got '1,x'" in err

    @pytest.mark.parametrize("budget", ["-5", "0", "nan", "inf"])
    def test_meaningless_time_budget(self, capsys, demo_model_path,
                                     demo_instances, budget):
        code, out, err = run_cli(capsys, "explain", str(demo_model_path),
                                 str(demo_instances), "--time-budget-ms", budget)
        assert (code, out) == (2, "")
        assert "time budget must be a positive finite number" in err

    def test_malformed_model_is_input_error(self, capsys, tmp_path, demo_instances):
        path = tmp_path / "one_class.json"
        path.write_text(json.dumps({**DEMO_DOC, "layers": [
            DEMO_DOC["layers"][0],
            {"weights": [[1.0, 1.0]], "biases": [0.0], "activation": "identity"}]}))
        code, out, err = run_cli(capsys, "explain", str(path), str(demo_instances))
        assert (code, out) == (2, "")
        assert "error: output layer must have at least 2 classes" in err

    def test_solver_failure_while_building_the_explainer(self, capsys, monkeypatch,
                                                         demo_model_path,
                                                         demo_instances):
        def failing(*args, **kwargs):
            raise SolverFailure("singular basis matrix")

        monkeypatch.setattr(engine, "compute_tight_bounds", failing)
        code, out, err = run_cli(capsys, "explain", str(demo_model_path),
                                 str(demo_instances))
        assert code == 3
        assert "solver failure: singular basis matrix" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["bounds", "explain"])
    def test_failed_bound_milp_is_a_solver_failure(self, capsys, monkeypatch,
                                                   command):
        monkeypatch.setattr(BranchAndBoundBackend, "optimize",
                            lambda self, *args, **kwargs: MilpOutcome("infeasible"))
        argv = [command, str(MODELS / "demo_2x2.json")]
        if command == "explain":
            argv.append(str(MODELS / "demo_instances.csv"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "solver failure: bound optimization failed: min infeasible" in err
        assert out == ""

    def test_solver_failure_costs_one_instance(self, capsys, monkeypatch,
                                               demo_model_path, demo_instances,
                                               tmp_path):
        original = Explainer.explain
        calls = []

        def explain(self, instance, mode="improved"):
            calls.append((list(instance), mode))
            if list(instance) == [0.5, 0.3] and mode == "improved":
                raise SolverFailure("row 9 violated")
            return original(self, instance, mode)

        monkeypatch.setattr(Explainer, "explain", explain)
        for command in ("explain", "verify"):
            calls.clear()
            code, out, err = run_cli(capsys, command, str(demo_model_path),
                                     str(demo_instances))
            assert code == 3
            assert "solver failure: instance 1: row 9 violated" in err
            _, rows = parse_csv(out)
            assert [row[:3] for row in rows] == [["0", "0", "0"]]
            assert calls == [([0.7, 0.2], "improved"), ([0.5, 0.3], "improved")]

        # bench drops the failed instance from both modes' sums: its counts
        # are those of a bench over the first instance alone
        calls.clear()
        code, out, err = run_cli(capsys, "bench", str(demo_model_path),
                                 str(demo_instances))
        assert code == 3
        assert "solver failure: instance 1: row 9 violated" in err
        assert calls == [([0.7, 0.2], "baseline"), ([0.7, 0.2], "improved"),
                         ([0.5, 0.3], "baseline"), ([0.5, 0.3], "improved")]
        first_only = tmp_path / "first.csv"
        first_only.write_text("x1,x2\n0.7,0.2\n")
        code, alone, _ = run_cli(capsys, "bench", str(demo_model_path),
                                 str(first_only))
        assert code == 0
        header, rows = parse_csv(out)
        _, alone_rows = parse_csv(alone)
        counts = [i for i, name in enumerate(header)
                  if not name.startswith(("exp_s_", "solver_s_"))]
        assert len(rows) == 1
        assert [rows[0][i] for i in counts] == [alone_rows[0][i] for i in counts]


    def test_bad_instance_costs_one_row(self, capsys, demo_model_path,
                                        bad_instances):
        for command in ("explain", "verify"):
            code, out, err = run_cli(capsys, command, str(demo_model_path),
                                     str(bad_instances))
            assert code == 2
            for line in BAD_ROWS:
                assert line in err
            _, rows = parse_csv(out)
            assert [row[:3] for row in rows] == [["0", "0", "0"], ["3", "0", "0;1"]]


class TestBounds:
    def test_demo_output_neurons(self, capsys, demo_model_path):
        code, out, _ = run_cli(capsys, "bounds", str(demo_model_path))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["layer", "neuron", "tight_lb", "tight_ub",
                          "box_lb", "box_ub"]
        # output layer of the demo model is layer 2; neuron 0 spans
        # tight [0.2, 1.4] and box [0.2, 1.7]
        row = next(r for r in rows if r[0] == "2" and r[1] == "0")
        vals = [float(v) for v in row[2:]]
        assert vals == pytest.approx([0.2, 1.4, 0.2, 1.7], abs=1e-9)

    def test_zero_model_bounds_are_biases(self, capsys, zero_model):
        code, out, _ = run_cli(capsys, "bounds", str(zero_model))
        assert code == 0
        _, rows = parse_csv(out)
        by_key = {(r[0], r[1]): [float(v) for v in r[2:]] for r in rows}
        assert by_key[("1", "0")] == pytest.approx([0.5, 0.5, 0.5, 0.5])
        assert by_key[("2", "0")] == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_two_hidden_layers_in_network_order(self, capsys):
        code, out, _ = run_cli(capsys, "bounds",
                               str(MODELS / "random_3in_2l.json"))
        assert code == 0
        _, rows = parse_csv(out)
        assert [(int(r[0]), int(r[1])) for r in rows] == \
            [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]
        for row in rows:
            tight_lb, tight_ub, box_lb, box_ub = map(float, row[2:])
            assert box_lb <= tight_lb <= tight_ub <= box_ub, row

    def test_box_mode_tight_equals_box(self, capsys, demo_model_path):
        code, out, _ = run_cli(capsys, "bounds", str(demo_model_path),
                               "--tight-bounds", "box")
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[2] == row[4] and row[3] == row[5]


class TestBench:
    def test_demo_aggregate(self, capsys, demo_model_path, demo_instances):
        code, out, _ = run_cli(capsys, "bench", str(demo_model_path),
                               str(demo_instances))
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        record = dict(zip(header, rows[0]))
        assert int(record["box_shortcut_hits"]) >= 1
        assert int(record["solver_calls_ours"]) <= int(record["solver_calls_baseline"])
        # numeric cells round-trip exactly
        for key, cell in record.items():
            assert repr(float(cell)) == cell or str(int(cell)) == cell

    def test_diverging_kept_sets_are_a_solver_failure(self, capsys, monkeypatch,
                                                      demo_model_path,
                                                      demo_instances):
        original = Explainer.explain

        def explain(self, instance, mode="improved"):
            explanation, stats = original(self, instance, mode)
            if mode == "baseline":
                explanation = replace(explanation, kept=())
            return explanation, stats

        monkeypatch.setattr(Explainer, "explain", explain)
        code, out, err = run_cli(capsys, "bench", str(demo_model_path),
                                 str(demo_instances))
        assert code == 3
        assert "solver failure: baseline and improved explanations diverge" in err
        header, rows = parse_csv(out)
        assert header[0] == "exp_s_baseline" and rows == []

    def test_divergence_names_the_instance(self, capsys, monkeypatch,
                                           demo_model_path, demo_instances):
        # improved mode drops attribute 1 on the second instance only
        original = Explainer.explain

        def explain(self, instance, mode="improved"):
            explanation, stats = original(self, instance, mode)
            if mode == "improved" and list(instance) == [0.5, 0.3]:
                explanation = replace(explanation, kept=explanation.kept[:1])
            return explanation, stats

        monkeypatch.setattr(Explainer, "explain", explain)
        code, out, err = run_cli(capsys, "bench", str(demo_model_path),
                                 str(demo_instances))
        assert code == 3
        assert ("solver failure: baseline and improved explanations diverge "
                "on instance 1: baseline keeps [0, 1], improved keeps [0]"
                in err)
        _, rows = parse_csv(out)
        assert rows == []

    def test_empty_instances_header_only(self, capsys, monkeypatch,
                                         demo_model_path, tmp_path):
        # no data rows: the header, and no tight-bound precompute, in every
        # subcommand that reads instances; a bad --order still fails
        original = engine.compute_tight_bounds
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "compute_tight_bounds", counted)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        headers = {"bench": "exp_s_baseline", "explain": "instance",
                   "verify": "instance"}
        for command, first in headers.items():
            code, out, _ = run_cli(capsys, command, str(demo_model_path), str(empty))
            assert code == 0
            header, rows = parse_csv(out)
            assert rows == []
            assert header[0] == first
            code, out, err = run_cli(capsys, command, str(demo_model_path),
                                     str(empty), "--order", "0,0")
            assert code == 2
            assert "permutation" in err and out == ""
        assert calls == []

    def test_random_model_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "bench",
                               str(MODELS / "random_3in_2l.json"),
                               str(MODELS / "random_3in_2l_instances.csv"))
        assert code == 0
        header, rows = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert int(record["solver_calls_ours"]) <= int(record["solver_calls_baseline"])
        assert 0.0 <= float(record["pct_bounds_tightened"]) <= 100.0
        assert float(record["pct_bin_vars_removed_ours"]) >= \
            float(record["pct_bin_vars_removed_before"])

    def test_aggregate_equals_fold_of_per_instance_rows(self, capsys,
                                                        demo_model_path,
                                                        demo_instances):
        _, bench_out, _ = run_cli(capsys, "bench", str(demo_model_path),
                                  str(demo_instances))
        header, rows = parse_csv(bench_out)
        record = dict(zip(header, rows[0]))

        def fold(mode, column):
            _, out, _ = run_cli(capsys, "explain", str(demo_model_path),
                                str(demo_instances), "--mode", mode)
            head, body = parse_csv(out)
            return sum(int(dict(zip(head, r))[column]) for r in body)

        assert int(record["solver_calls_ours"]) == fold("improved", "solver_calls")
        assert int(record["box_shortcut_hits"]) == \
            fold("improved", "box_shortcut_hits")
        assert int(record["solver_calls_baseline"]) == \
            fold("baseline", "solver_calls")

    def test_determinism_excluding_times(self, capsys, demo_model_path,
                                         demo_instances):
        args = ("bench", str(demo_model_path), str(demo_instances))
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        header, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        time_cols = {i for i, name in enumerate(header) if name.endswith("_s_baseline")
                     or name.endswith("_s_ours")}
        for a, b in zip(rows1, rows2):
            for i, (x, y) in enumerate(zip(a, b)):
                if i not in time_cols:
                    assert x == y


    def test_bad_instance_is_dropped_from_both_sums(self, capsys, monkeypatch,
                                                    demo_model_path,
                                                    demo_instances,
                                                    bad_instances):
        code, out, err = run_cli(capsys, "bench", str(demo_model_path),
                                 str(bad_instances))
        assert code == 2
        for line in BAD_ROWS:
            assert line in err
        # the good rows alone give the same counts
        _, good, _ = run_cli(capsys, "bench", str(demo_model_path),
                             str(demo_instances))
        header, rows = parse_csv(out)
        _, good_rows = parse_csv(good)
        counts = [i for i, name in enumerate(header)
                  if not name.startswith(("exp_s_", "solver_s_"))]
        assert len(rows) == 1
        assert [rows[0][i] for i in counts] == [good_rows[0][i] for i in counts]

        # a solver failure as well makes the exit code 3
        original = Explainer.explain

        def explain(self, instance, mode="improved"):
            if list(instance) == [0.5, 0.3]:
                raise SolverFailure("row 9 violated")
            return original(self, instance, mode)

        monkeypatch.setattr(Explainer, "explain", explain)
        code, out, err = run_cli(capsys, "bench", str(demo_model_path),
                                 str(bad_instances))
        assert code == 3
        assert "solver failure: instance 3: row 9 violated" in err
        assert BAD_ROWS[0] in err
        assert len(parse_csv(out)[1]) == 1


class TestVerify:
    def test_demo_reports_ok(self, capsys, demo_model_path, demo_instances):
        code, out, _ = run_cli(capsys, "verify", str(demo_model_path),
                               str(demo_instances), "--samples", "300",
                               "--seed", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["instance", "predicted_class", "kept_indices",
                          "sufficiency_ok", "minimality_ok", "unverified"]
        for row in rows:
            assert row[3] == "1" and row[4] == "1"

    def test_negative_samples_rejected_before_any_output(self, capsys, monkeypatch,
                                                         demo_model_path,
                                                         demo_instances):
        def no_precompute(*args, **kwargs):
            raise AssertionError("the precompute ran")
        monkeypatch.setattr(engine, "compute_tight_bounds", no_precompute)
        code, out, err = run_cli(capsys, "verify", str(demo_model_path),
                                 str(demo_instances), "--samples", "-1")
        assert (code, out) == (2, "")
        assert "--samples must be at least 0, got -1" in err


@pytest.mark.parametrize("command", ["explain", "verify"])
def test_reader_closing_stdout_ends_quietly(command):
    # the console script's stdout is a pipe whose read end is already
    # closed, as under ``| head`` once head has its lines
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(boxplain.__file__).parent.parent)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "boxplain.cli", command,
             str(MODELS / "random_3in_2l.json"),
             str(MODELS / "random_3in_2l_instances.csv")],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 0
