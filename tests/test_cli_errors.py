"""Bad input to the command line ends in one `error:` line that names the
file, key or flag at fault, never in a traceback."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnnbound.cli as cli_module
import gnnbound.sweep as sweep_module
from gnnbound.cli import main
from gnnbound.data import load_dataset
from gnnbound.report import ROW_COLUMNS

SRC = Path(__file__).resolve().parent.parent / "src"
GRAPH = {"n": 2, "edges": [[0, 1]], "features": [[1.0], [1.0]], "label": 1}
FILTERS = ["filters", "--kind", "sym-norm", "--dataset"]
ROWS_HEADER = ",".join(ROW_COLUMNS) + "\n"
TINY_SWEEP = "dataset = er5\nbetas = 0.7\nwidths = 4\nseeds = 0\nepochs = 1\n"


def dataset(graph=None, **top) -> str:
    return json.dumps({"name": "x", "feature_dim": 1, "graphs": [graph or GRAPH], **top})


TWO_GRAPHS = json.dumps({"name": "x", "feature_dim": 1, "graphs": [GRAPH, {**GRAPH, "label": -1}]})
PARAMS = json.dumps({"model": "gcn", "w1": [[0.5]], "w2": [1.0]})
NOT_A_PRESET = "only a preset dataset reads it, and '{dir}/d.json' is not a preset"


# id: (files to write into the run directory, as text or as bytes, argv,
# the start of the error line); "{dir}" stands for the run directory.
CASES = {
    "dataset-graph-not-object": (
        {"bad.json": dataset(5)}, FILTERS + ["{dir}/bad.json"], "{dir}/bad.json: graph 0: "),
    "dataset-edges-not-list": (
        {"bad.json": dataset({**GRAPH, "edges": 5})}, FILTERS + ["{dir}/bad.json"],
        "{dir}/bad.json: graph 0: 'edges' "),
    "dataset-n-bool": (
        {"bad.json": dataset({**GRAPH, "n": True, "edges": [], "features": [[1.0]]})},
        FILTERS + ["{dir}/bad.json"], "{dir}/bad.json: graph 0: 'n' "),
    "dataset-label-bool": (
        {"bad.json": dataset({**GRAPH, "label": True})}, FILTERS + ["{dir}/bad.json"],
        "{dir}/bad.json: graph 0: label "),
    "dataset-feature-text": (
        {"bad.json": dataset({**GRAPH, "features": [["x"], [1.0]]})},
        FILTERS + ["{dir}/bad.json"], "{dir}/bad.json: graph 0: features "),
    "dataset-feature-dim-bool": (
        {"bad.json": dataset(feature_dim=True)}, FILTERS + ["{dir}/bad.json"],
        "{dir}/bad.json: 'feature_dim' "),
    "dataset-feature-bool": (
        {"bad.json": dataset({**GRAPH, "features": [[True], [0.5]]})},
        FILTERS + ["{dir}/bad.json"], "{dir}/bad.json: graph 0: features "),
    "dataset-feature-int-too-large": (
        {"bad.json": dataset({**GRAPH, "features": [[10**400], [1.0]]})},
        FILTERS + ["{dir}/bad.json"], "{dir}/bad.json: graph 0: features "),
    "dataset-name-null": (
        {"bad.json": dataset(name=None)}, FILTERS + ["{dir}/bad.json"],
        "{dir}/bad.json: 'name' must be a string"),
    "dataset-not-utf8": (
        {"bad.json": b"\xff\xfe{}"}, FILTERS + ["{dir}/bad.json"],
        "{dir}/bad.json: not UTF-8 text: "),
    "params-not-utf8": (
        {"p.json": b"\xff\xfe{}", "d.json": dataset()},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/d.json"],
        "{dir}/p.json: not UTF-8 text: "),
    "params-invalid-json": (
        {"p.json": "x", "d.json": dataset()},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/d.json"],
        "{dir}/p.json: invalid JSON at line 1, column 1: Expecting value"),
    "params-weight-int-too-large": (
        {"p.json": json.dumps({"model": "gcn", "w1": [[10**400]], "w2": [1.0]}),
         "d.json": dataset()},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/d.json"],
        "{dir}/p.json: not a valid parameter file: "),
    "params-weight-nan": (
        {"p.json": '{"model": "gcn", "w1": [[NaN]], "w2": [1.0]}', "d.json": dataset()},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/d.json"],
        "{dir}/p.json: not a valid parameter file: w1 "),
    "params-weight-infinity": (
        {"p.json": '{"model": "gcn", "w1": [[1.0]], "w2": [Infinity]}', "d.json": dataset()},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/d.json"],
        "{dir}/p.json: not a valid parameter file: w2 "),
    "bounds-params-feature-dim": (
        {"p.json": json.dumps({"model": "gcn", "w1": [[0.5, 0.5, 0.5]], "w2": [1.0]})},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "er5"],
        "{dir}/p.json: params expect feature_dim 3, data has 16"),
    "sweep-dataset-label-bool": (
        {"bad.json": dataset({**GRAPH, "label": True}),
         "run.cfg": "dataset = {dir}/bad.json\n"},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/out"],
        "{dir}/bad.json: graph 0: label "),
    "sweep-seeds": (
        {"run.cfg": "dataset = er5\nseeds = 0, -1\n"},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/out"],
        "{dir}/run.cfg: seeds: seeds must be >= 0"),
    "sweep-data-seed": (
        {"run.cfg": "dataset = er5\ndata_seed = -3\n"},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/out"],
        "{dir}/run.cfg: data_seed: data_seed must be >= 0"),
    "train-seed": (
        {"run.cfg": "dataset = er5\nseed = -1\n"}, ["train", "--config", "{dir}/run.cfg"],
        "{dir}/run.cfg: seed: seeds must be >= 0"),
    "sweep-workers-flag": (
        {"run.cfg": "dataset = er5\n"},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/out", "--workers", "0"],
        "--workers: workers must be >= 1"),
    "gen-data-seed-flag": (
        {}, ["gen-data", "er5", "--out", "{dir}/d.json", "--seed", "-2"],
        "--seed: seed must be >= 0"),
    "gen-data-n-graphs-flag": (
        {}, ["gen-data", "sbm1", "--out", "{dir}/d.json", "--n-graphs", "0"],
        "--n-graphs: n_graphs must be >= 1"),
    "gen-data-feature-dim-flag": (
        {}, ["gen-data", "sbm1", "--out", "{dir}/d.json", "--feature-dim", "0"],
        "--feature-dim: feature_dim must be >= 1"),
    "gen-data-spec-feature-dim-flag": (
        {"spec.cfg": "model = er\nnodes = 4\nedge_prob = 0.5\n"},
        ["gen-data", "{dir}/spec.cfg", "--out", "{dir}/d.json", "--feature-dim", "0"],
        "--feature-dim: feature_dim must be >= 1"),
    "filters-seed-flag": (
        {}, FILTERS + ["er5", "--seed", "-1"], "--seed: seed must be >= 0"),
    "filters-n-graphs-flag": (
        {}, FILTERS + ["sbm1", "--n-graphs", "0"], "--n-graphs: n_graphs must be >= 1"),
    "filters-feature-dim-flag": (
        {}, FILTERS + ["sbm1", "--feature-dim", "0"], "--feature-dim: feature_dim must be >= 1"),
    "train-feature-dim": (
        {"run.cfg": "dataset = er5\nfeature_dim = 0\n"}, ["train", "--config", "{dir}/run.cfg"],
        "{dir}/run.cfg: feature_dim: feature_dim must be >= 1"),
    "sweep-feature-dim": (
        {"run.cfg": "dataset = er5\nfeature_dim = 0\n"},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/out"],
        "{dir}/run.cfg: feature_dim: feature_dim must be >= 1"),
    "bounds-feature-dim": (
        {"run.cfg": "feature_dim = 0\n",
         "p.json": json.dumps({"model": "gcn", "w1": [[0.5]], "w2": [1.0]})},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "er5", "--config", "{dir}/run.cfg"],
        "{dir}/run.cfg: feature_dim: feature_dim must be >= 1"),
    "report-rows-width": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gcn,sym-norm,mean,0,0,0.1,0.2,0.1,0.5,1.5,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:2: width must be >= 1"),
    "report-rows-beta": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gcn,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n"
                                 + "d,1.5,gcn,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:3: beta must lie strictly between 0 and 1"),
    "report-rows-seed": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gcn,sym-norm,mean,4,-1,0.1,0.2,0.1,0.5,1.5,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:2: seed must be >= 0"),
    "report-rows-abs-gen-error": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gcn,sym-norm,mean,4,0,0.1,0.2,-0.1,0.5,1.5,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:2: abs_gen_error must be >= 0"),
    "report-rows-model": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gat,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:2: model must be one of: gcn, mpgnn"),
    "report-rows-width-after-two-line-name": (
        {"rows.csv": ROWS_HEADER + '"two\nlines",'
                                 + "0.7,gcn,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n"
                                 + "d,0.7,gcn,sym-norm,mean,0,0,0.1,0.2,0.1,0.5,1.5,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:4: width must be >= 1"),
    "report-rows-repeat-after-two-line-name": (
        {"rows.csv": ROWS_HEADER + '"two\nlines",'
                                 + "0.7,gcn,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n"
                                 + "d,0.7,gcn,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n" * 2},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:5: repeats the coordinate of line 4"),
    "bounds-one-graph-dataset": (
        {"one.json": dataset(), "p.json": json.dumps({"model": "gcn", "w1": [[0.5]], "w2": [1.0]})},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/one.json"],
        "{dir}/one.json: a run needs at least 2 graphs to split, the dataset has 1"),
    "train-one-graph-dataset": (
        {"one.json": dataset(), "t.cfg": "dataset = {dir}/one.json\n"},
        ["train", "--config", "{dir}/t.cfg"],
        "{dir}/one.json: a run needs at least 2 graphs to split, the dataset has 1"),
    "report-rows-empty": (
        {"rows.csv": ROWS_HEADER}, ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv: no rows"),
    "report-rows-half-diverged": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gcn,sym-norm,mean,4,0,0.5,nan,nan,1.0,2.0,0.1\n"},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv:2: train_risk, test_risk and abs_gen_error must be finite"),
    "report-out-is-a-file": (
        {"rows.csv": ROWS_HEADER + "d,0.7,gcn,sym-norm,mean,4,0,0.1,0.2,0.1,0.5,1.5,0.1\n",
         "f": ""},
        ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/f"],
        "--out: cannot make directory {dir}/f: File exists"),
    "sweep-out-is-a-file": (
        {"run.cfg": TINY_SWEEP, "f": ""},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/f"],
        "--out: cannot make directory {dir}/f: File exists"),
    "sweep-out-under-a-file": (
        {"run.cfg": TINY_SWEEP, "f": ""},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/f/out"],
        "--out: cannot make directory {dir}/f/out: Not a directory"),
    "gen-data-out-is-a-directory": (
        {}, ["gen-data", "er5", "--out", "{dir}"], "--out: {dir} is a directory"),
    "gen-data-out-under-a-file": (
        {"f": ""}, ["gen-data", "er5", "--out", "{dir}/f/d.json"],
        "--out: cannot make directory {dir}/f: File exists"),
    "filters-seed-flag-with-file": (
        {"d.json": TWO_GRAPHS}, FILTERS + ["{dir}/d.json", "--seed", "7"],
        "--seed: " + NOT_A_PRESET),
    "filters-n-graphs-flag-with-file": (
        {"d.json": TWO_GRAPHS}, FILTERS + ["{dir}/d.json", "--n-graphs", "9"],
        "--n-graphs: " + NOT_A_PRESET),
    "filters-feature-dim-flag-with-file": (
        {"d.json": TWO_GRAPHS}, FILTERS + ["{dir}/d.json", "--feature-dim", "1"],
        "--feature-dim: " + NOT_A_PRESET),
    "train-data-seed-with-file": (
        {"d.json": TWO_GRAPHS, "t.cfg": "dataset = {dir}/d.json\ndata_seed = 9\nepochs = 1\n"},
        ["train", "--config", "{dir}/t.cfg"], "{dir}/t.cfg: data_seed: " + NOT_A_PRESET),
    "sweep-n-graphs-with-file": (
        {"d.json": TWO_GRAPHS,
         "run.cfg": "dataset = {dir}/d.json\nn_graphs = 50\nbetas = 0.5\nwidths = 4\n"
                    "seeds = 0\nepochs = 1\n"},
        ["sweep", "--config", "{dir}/run.cfg", "--out", "{dir}/out"],
        "{dir}/run.cfg: n_graphs: " + NOT_A_PRESET),
    "bounds-feature-dim-with-file": (
        {"d.json": TWO_GRAPHS, "p.json": PARAMS, "run.cfg": "feature_dim = 1\n"},
        ["bounds", "--params", "{dir}/p.json", "--dataset", "{dir}/d.json",
         "--config", "{dir}/run.cfg"],
        "{dir}/run.cfg: feature_dim: " + NOT_A_PRESET),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_is_one_error_line_naming_its_source(tmp_path, case):
    files, argv, expected = CASES[case]
    directory = str(tmp_path)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content.replace("{dir}", directory))
    argv = [arg.replace("{dir}", directory) for arg in argv]
    expected = "error: " + expected.replace("{dir}", directory)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-m", "gnnbound.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(expected) and done.stderr.count("\n") == 1
    # A refused input leaves no report directory behind.
    assert not (tmp_path / "out").exists()


def test_filters_runs_on_one_graph(capsys):
    assert main(FILTERS + ["er5", "--n-graphs", "1", "--feature-dim", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "sym-norm"


def test_bounds_checks_params_before_building_a_preset(tmp_path, monkeypatch, capsys):
    # A preset's feature_dim is known from the config, so a params file of
    # another k is refused before any graph is generated or filtered.
    calls = {"make_dataset": 0, "filter_norm_report": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(sweep_module, name, counting(name, getattr(sweep_module, name)))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"model": "gcn", "w1": [[0.5, 0.5, 0.5]] * 8, "w2": [1.0] * 8}))
    assert main(["bounds", "--params", str(params), "--dataset", "sbm1"]) == 1
    assert capsys.readouterr().err == f"error: {params}: params expect feature_dim 3, data has 16\n"
    assert calls == {"make_dataset": 0, "filter_norm_report": 0}


@pytest.mark.parametrize("out", ["f", "f/out"])
def test_sweep_refuses_its_out_before_any_coordinate_trains(tmp_path, monkeypatch, capsys, out):
    # The grid would be trained in vain: its reports could not be written.
    calls = {"train": 0}

    def counted(*args, **kwargs):
        calls["train"] += 1
        return train(*args, **kwargs)

    train = sweep_module.train
    monkeypatch.setattr(sweep_module, "train", counted)
    (tmp_path / "f").write_text("")
    (tmp_path / "run.cfg").write_text(TINY_SWEEP)
    argv = ["sweep", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / out)]
    assert main(argv) == 1
    error = capsys.readouterr().err
    assert error.startswith(f"error: --out: cannot make directory {tmp_path / out}: ")
    assert calls == {"train": 0}


def test_gen_data_makes_the_directory_of_its_out(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "d.json"
    assert main(["gen-data", "er5", "--n-graphs", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: 2 graphs")
    assert len(load_dataset(out)) == 2


@pytest.mark.parametrize("out", ["", "f/d.json"])
def test_gen_data_refuses_its_out_before_any_graph_is_drawn(tmp_path, monkeypatch, capsys, out):
    calls = {"make_dataset": 0}

    def counted(*args, **kwargs):
        calls["make_dataset"] += 1
        return make_dataset(*args, **kwargs)

    make_dataset = cli_module.make_dataset
    monkeypatch.setattr(cli_module, "make_dataset", counted)
    (tmp_path / "f").write_text("")
    assert main(["gen-data", "sbm1", "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert calls == {"make_dataset": 0}
