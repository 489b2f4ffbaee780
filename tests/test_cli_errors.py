"""Bad input to the command line ends in one `error:` line that names the
file, key or flag at fault, never in a traceback."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnnbound.sweep as sweep_module
from gnnbound.cli import main
from gnnbound.report import ROW_COLUMNS

SRC = Path(__file__).resolve().parent.parent / "src"
GRAPH = {"n": 2, "edges": [[0, 1]], "features": [[1.0], [1.0]], "label": 1}
FILTERS = ["filters", "--kind", "sym-norm", "--dataset"]
ROWS_HEADER = ",".join(ROW_COLUMNS) + "\n"


def dataset(graph=None, **top) -> str:
    return json.dumps({"name": "x", "feature_dim": 1, "graphs": [graph or GRAPH], **top})


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
    "report-rows-empty": (
        {"rows.csv": ROWS_HEADER}, ["report", "--rows", "{dir}/rows.csv", "--out", "{dir}/out"],
        "{dir}/rows.csv: no rows"),
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


def test_preset_only_keys_are_not_checked_for_a_dataset_file(tmp_path, capsys):
    # data_seed, n_graphs and feature_dim shape a preset; a file's graphs are
    # used as they are, so values a preset refuses do not matter here.
    data = tmp_path / "two.json"
    assert main(["gen-data", "er5", "--n-graphs", "2", "--out", str(data)]) == 0
    config = tmp_path / "c.cfg"
    config.write_text(f"dataset = {data}\nn_graphs = 1\ndata_seed = -1\nfeature_dim = 0\n"
                      "width = 4\nepochs = 2\n")
    assert main(["train", "--config", str(config)]) == 0
    assert "train_risk = " in capsys.readouterr().out


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
