"""Property tests of the file formats, the config reader, the minibatch
gather, the filter norm report, the bound evaluator and whole sweeps
(hypothesis).

Only the whole-sweep property trains: a few small graphs at widths up to 8
for a few epochs. Elsewhere a drawn config holds one unparseable value, so
the command stops before any work, and a drawn gather stacks at most 12
graphs of at most 6 nodes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from builders import has_one_verdict, nonlinearity_fields, random_sample
from gnnbound.bounds import BoundInputs, ModelStats, report_from_stats
from gnnbound.cli import (
    BOUNDS_TABLE,
    SPEC_TABLES,
    SWEEP_TABLE,
    TRAIN_TABLE,
    ConfigError,
    main,
    read_config,
)
from gnnbound.data import (
    DatasetFormatError,
    GraphDataset,
    GraphSample,
    load_dataset,
    save_dataset,
    to_json_value,
)
from gnnbound.filters import FilterKind, filter_norm_report
from gnnbound.models import ModelConfig, ModelKind, Nonlinearity, Readout, prepare_sample
from gnnbound.report import (
    ROW_COLUMNS,
    ReportFormatError,
    aggregate,
    emit_reports,
    read_rows_csv,
    recompute_bounds_from_record,
    write_rows_csv,
)
from gnnbound.sweep import COORDINATE_COLUMNS, SweepConfig, SweepRow, run_sweep_on, setup
from gnnbound.synth import PRESET_NAMES, make_dataset, preset_config
from gnnbound.training import TrainConfig, prepare_dataset
from oracles import (
    adjacency_edge_by_edge,
    closed_form_bounds,
    filter_norm_report_per_graph,
    stack,
)

TABLES = {
    "train": TRAIN_TABLE,
    "sweep": SWEEP_TABLE,
    "bounds": BOUNDS_TABLE,
    **{f"gen-data {model}": table for model, table in SPEC_TABLES.items()},
}

# Outcomes a sweep can write: NaN for a diverged row, inf for an overflow.
outcomes = st.floats(min_value=0.0) | st.sampled_from([float("nan"), float("inf"), -0.0])
finite = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
# One verdict per row: measured, with finite risks and gap and any bounds,
# or diverged, with NaN in all five outcomes.
verdicts = st.fixed_dictionaries({
    "train_risk": finite, "test_risk": finite, "abs_gen_error": finite,
    "fd_bound": outcomes, "rademacher_bound": outcomes,
}) | st.just(dict.fromkeys(
    ("train_risk", "test_risk", "abs_gen_error", "fd_bound", "rademacher_bound"), float("nan")
))
sweep_rows = st.builds(
    lambda verdict, **columns: SweepRow(**columns, **verdict),
    verdicts,
    dataset=st.text() | st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\rlf\r\n", ""]),
    beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    model=st.sampled_from([kind.value for kind in ModelKind]),
    filter=st.sampled_from([kind.value for kind in FilterKind]),
    readout=st.sampled_from([readout.value for readout in Readout]),
    width=st.integers(min_value=1),
    seed=st.integers(min_value=0),
    wall_time_s=outcomes,
)
# A rows.csv as a sweep writes it: no coordinate twice.
row_lists = st.lists(
    sweep_rows, min_size=1, max_size=4,
    unique_by=lambda row: tuple(getattr(row, column) for column in COORDINATE_COLUMNS),
)


def cells(row: SweepRow) -> list[str]:
    """repr of every column: equal for equal values, nan and -0.0 included."""
    return [repr(getattr(row, column)) for column in ROW_COLUMNS]


@settings(max_examples=60, deadline=None)
@given(row_lists)
def test_rows_csv_round_trip_is_identity(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_rows_csv(rows, path)
        back = read_rows_csv(path)
    assert [cells(row) for row in back] == [cells(row) for row in rows]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rows_csv_refuses_the_first_width_below_one(data):
    rows = data.draw(row_lists, label="rows")
    bad = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True), label="bad")
    # A SweepRow refuses a width below one, so the writer gets plain records.
    for index in bad:
        rows[index] = SimpleNamespace(**{**vars(rows[index]),
                                         "width": data.draw(st.integers(max_value=0))})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_rows_csv(rows, path)
        with pytest.raises(ReportFormatError) as refused:
            read_rows_csv(path)
    # The file line the row starts on: after the header, each earlier row
    # takes one line plus the line breaks its quoted name holds.
    line = 2 + min(bad) + sum(
        len(re.findall("\r\n|\r|\n", row.dataset)) for row in rows[: min(bad)]
    )
    assert str(refused.value) == f"{path}:{line}: width must be >= 1"


# Finite features, -0.0, subnormals and magnitudes near the float maximum.
features_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
)


@st.composite
def graph_samples(draw, feature_dim: int) -> GraphSample:
    n = draw(st.integers(1, 6))
    upper = draw(hnp.arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 1.0])))
    adjacency = np.triu(upper, k=1)
    features = draw(hnp.arrays(np.float64, (n, feature_dim), elements=features_values))
    label = draw(st.sampled_from([-1, 1]))
    return GraphSample(adjacency=adjacency + adjacency.T, features=features, label=label)


@st.composite
def datasets(draw) -> GraphDataset:
    feature_dim = draw(st.integers(1, 3))
    samples = draw(st.lists(graph_samples(feature_dim), min_size=1, max_size=4))
    return GraphDataset(samples, name=draw(st.text()))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_dataset_save_load_is_identity(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.json"
        save_dataset(dataset, path)
        back = load_dataset(path)
    assert (back.name, back.feature_dim, len(back)) == (
        dataset.name, dataset.feature_dim, len(dataset)
    )
    for got, sample in zip(back, dataset):
        assert got.label == sample.label
        assert np.array_equal(got.adjacency, sample.adjacency)
        # Bytes, so that -0.0 and 0.0 differ.
        assert got.features.tobytes() == sample.features.tobytes()


BAD_EDGES = ("boolean", "float", "out-of-range", "unordered", "duplicate", "arity")


@st.composite
def edge_lists(draw) -> tuple[int, list]:
    """A node count and a valid edge list, or one with a single bad entry
    inserted anywhere in it."""
    n = draw(st.integers(1, 8), label="n")
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple), label="edges") if pairs else []
    bad = draw(st.sampled_from((None,) + BAD_EDGES), label="bad")
    if bad is None:
        return n, edges
    # A pair that is valid but for the bad entry (none is on one node).
    i, j = draw(st.sampled_from(pairs)) if pairs else (0, 1)
    side = draw(st.integers(0, 1))
    if bad == "boolean":
        entry = [i, j]
        entry[side] = draw(st.booleans())
    elif bad == "float":
        entry = [i, j]
        entry[side] = float(entry[side]) + draw(st.sampled_from([0.0, 0.5]))
    elif bad == "out-of-range":
        entry = draw(st.sampled_from([[-1, j], [i, n], [i, n + 3], [-(2**70), j], [i, 2**70]]))
    elif bad == "unordered":
        entry = draw(st.sampled_from([[j, i], [i, i]]))
    elif bad == "duplicate" and edges:
        entry = list(draw(st.sampled_from(edges)))
    else:
        entry = draw(st.sampled_from([[], [i], [i, j, j], i]))
    position = draw(st.integers(0, len(edges)), label="position")
    return n, edges[:position] + [entry] + edges[position:]


@settings(max_examples=60, deadline=None)
@given(edge_lists())
@example((1, []))
@example((3, [[0, 2], [True, 2]]))
@example((3, [[0, 1.0]]))
@example((3, [[0, 1], [1, 3]]))
@example((3, [[-1, 2]]))
@example((3, [[0, 2**70]]))
@example((3, [[0, 1], [2, 1]]))
@example((3, [[1, 1]]))
@example((3, [[1, 2], [0, 1], [1, 2]]))
@example((3, [[0, 1, 2]]))
@example((3, [[0, 1], 2]))
def test_edges_load_as_the_edge_by_edge_oracle_reads_them(graph):
    n, edges = graph
    record = {"n": n, "edges": edges, "features": [[1.0]] * n, "label": 1}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.json"
        path.write_text(json.dumps({"name": "e", "feature_dim": 1, "graphs": [record]}))
        try:
            expected = adjacency_edge_by_edge(edges, n, f"{path}: graph 0")
        except DatasetFormatError as exc:
            with pytest.raises(DatasetFormatError) as caught:
                load_dataset(path)
            assert str(caught.value) == str(exc)
        else:
            adjacency = load_dataset(path)[0].adjacency
            assert adjacency.dtype == np.bool_
            assert np.array_equal(adjacency, expected)


@pytest.mark.parametrize("command", sorted(TABLES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_value_parses_or_names_its_key(command, data):
    table = TABLES[command]
    key = data.draw(st.sampled_from(sorted(table)))
    text = data.draw(st.text())
    try:
        fields = read_config({key: text}, table, "cfg")
    except ConfigError as exc:
        assert f"cfg: {key} must be" in str(exc)
    else:
        assert list(fields) == [table[key][0]]


# Characters a one-line config value can hold once stripped: no line breaks.
line_text = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1
).map(str.strip)


# The train keys whose text can fail to parse (every key but dataset).
checked_train_keys = sorted(key for key, (_, parser) in TRAIN_TABLE.items() if parser.convert is not str)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_train_command_rejects_unparseable_value_with_key(data):
    key = data.draw(st.sampled_from(checked_train_keys))
    _, parser = TRAIN_TABLE[key]
    text = data.draw(line_text.filter(lambda t: _rejects(parser, t)))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "train.cfg"
        config.write_text(f"dataset = er5\n{key} = {text}\n")
        with contextlib.redirect_stderr(err):
            assert main(["train", "--config", str(config)]) == 1
    assert err.getvalue().startswith("error: ") and f" {key} must be" in err.getvalue()


def _rejects(parser, text: str) -> bool:
    try:
        parser.convert(text)
    except ValueError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minibatches_equal_the_concatenated_graphs(data):
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=12), label="sizes")
    model = data.draw(st.sampled_from(list(ModelKind)), label="model")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    samples = [random_sample(rng, n, 2) for n in sizes]
    config = ModelConfig(model, FilterKind.SYM_NORM, width=1)
    prepared = prepare_dataset(GraphDataset(samples, "g"), config)
    # A split: some graphs of the dataset, in drawn order, then shuffled as an epoch.
    chosen = data.draw(st.lists(st.sampled_from(range(len(samples))), min_size=1, unique=True))
    split = prepared.take(np.array(chosen))
    m = len(chosen)
    order = np.array(data.draw(st.permutations(range(m)), label="order"))
    graphs = [chosen[i] for i in order]
    non_divisor = data.draw(st.integers(2, m + 1).filter(lambda b: m % b), label="non_divisor")

    # Each minibatch gathered as train gathers it: one call per step, on a
    # run of the epoch's order.
    for size in (1, non_divisor, m + 1):
        for k, lo in enumerate(range(0, m, size)):
            batch = split.gather(order[lo : lo + size])
            part = [samples[i] for i in graphs[k * size : (k + 1) * size]]
            want = stack([prepare_sample(s, config) for s in part], [s.label for s in part])
            assert batch.rows.keys() == want.rows.keys()
            for name in want.rows:
                assert np.array_equal(batch.rows[name], want.rows[name])
            assert np.array_equal(batch.labels, want.labels)
            assert np.array_equal(batch.node_counts, want.node_counts)
            assert np.array_equal(batch.starts, want.starts)


@st.composite
def graph_specs(draw) -> tuple:
    """A path of n nodes, a complete bipartite graph K(a, b) (each of rank
    n - 1 under random-walk), or a drawn graph with some nodes isolated."""
    shape = draw(st.sampled_from(["path", "bipartite", "drawn"]))
    if shape == "path":
        return ("path", draw(st.integers(1, 9)))
    if shape == "bipartite":
        return ("bipartite", draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return ("drawn", n, tuple(edges), tuple(isolated))


def graph_of(spec: tuple) -> GraphSample:
    if spec[0] == "path":
        n = spec[1]
        adjacency = np.eye(n, k=1, dtype=bool)
    elif spec[0] == "bipartite":
        a, b = spec[1:]
        n = a + b
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[:a, a:] = True
    else:
        n, edges, isolated = spec[1:]
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[np.triu_indices(n, k=1)] = edges
        adjacency[list(isolated), :] = False
        adjacency[:, list(isolated)] = False
    return GraphSample(adjacency=adjacency | adjacency.T, features=np.ones((n, 1)), label=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(graph_specs(), min_size=1, max_size=8))
# A full-rank triangle before larger rank-deficient graphs, then a complete
# 6-node graph, which has rank 6 under random-walk after a rank-5 path.
@example([("drawn", 3, (True,) * 3, ()), ("path", 6), ("bipartite", 2, 2),
          ("drawn", 6, (True,) * 15, ())])
def test_filter_report_equals_the_per_graph_oracle(specs):
    dataset = GraphDataset([graph_of(spec) for spec in specs], name="g")
    for kind in FilterKind:
        assert filter_norm_report(dataset, kind) == filter_norm_report_per_graph(dataset, kind)


# A weight norm is 0 or well inside the normal range: a squared cap near the
# subnormals loses the digits that rel 1e-12 compares.
norms = st.just(0.0) | st.floats(1e-3, 10.0)


@st.composite
def bound_cases(draw) -> tuple[ModelConfig, ModelStats, BoundInputs, bool]:
    model = draw(st.sampled_from(list(ModelKind)))
    readout = draw(st.sampled_from(list(Readout)))
    nonlinearities = st.sampled_from(list(Nonlinearity))
    config = ModelConfig(
        model, FilterKind.SYM_NORM, width=1, readout=readout,
        **{name: draw(nonlinearities) for name in nonlinearity_fields(model)},
    )
    stats = ModelStats(
        w1_row_norm_max=draw(norms),
        w2_abs_max=draw(norms),
        w3_row_norm_max=draw(norms) if model is ModelKind.MPGNN else None,
    )
    inputs = BoundInputs(
        n_train=draw(st.integers(1, 100_000)),
        alpha=draw(st.floats(1e-3, 1e4)),
        n_max=draw(st.integers(1, 1000)),
        b_f=draw(st.just(0.0) | st.floats(1e-3, 100.0)),
        g_max=draw(st.floats(1e-3, 100.0)),
        readout=readout,
        delta=draw(st.floats(1e-6, 1.0, exclude_max=True)),
    )
    return config, stats, inputs, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(bound_cases())
def test_bound_evaluator_matches_oracle_and_recomputes_from_its_echo(case):
    config, stats, inputs, bounded = case
    report = report_from_stats(config, stats, inputs, bounded)
    for name, expected in closed_form_bounds(config, stats, inputs, bounded).items():
        assert math.isclose(getattr(report, name), expected, rel_tol=1e-12), name

    row = SweepRow(
        dataset="d", beta=0.5, model=config.model_kind.value, filter=config.filter_kind.value,
        readout=config.readout.value, width=1, seed=0, train_risk=0.7, test_risk=0.7,
        abs_gen_error=0.0, fd_bound=report.fd_bound, rademacher_bound=report.rademacher_bound,
        wall_time_s=0.0, bounds=report,
    )
    record = json.loads(json.dumps(to_json_value(row), allow_nan=False))
    recomputed = recompute_bounds_from_record(record)
    assert [x.hex() for x in recomputed] == [row.fd_bound.hex(), row.rademacher_bound.hex()]

    lipschitz = report_from_stats(config, stats, inputs, bounded=False)
    assert report_from_stats(config, stats, inputs, bounded=True).model_output_cap <= (
        lipschitz.model_output_cap
    )


def _grid(values) -> st.SearchStrategy[tuple]:
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True).map(tuple)


@st.composite
def tiny_sweeps(draw) -> tuple[str | None, SweepConfig]:
    """A sweep over a few small graphs: the name to save its dataset under
    (None when the config names a preset) and its config. A saved dataset is
    an er5 one of the config's n_graphs and data_seed. The lr spans runs
    that train, runs whose weights overflow and runs that diverge."""
    name = draw(st.none() | st.text(), label="name")
    config = SweepConfig(
        dataset="data.json" if name is not None else draw(st.sampled_from(PRESET_NAMES)),
        # Betas that round to the same millionth share their seeds, so a
        # config refuses them.
        betas=tuple(draw(st.lists(st.floats(0.2, 0.8), min_size=1, max_size=2,
                                  unique_by=lambda beta: round(beta * 1_000_000)))),
        widths=draw(_grid(range(1, 9))),
        seeds=draw(_grid(range(4))),
        models=draw(_grid(list(ModelKind))),
        filters=draw(_grid(list(FilterKind))),
        readouts=draw(_grid(list(Readout))),
        train=TrainConfig(
            learning_rate=10.0 ** draw(st.integers(-3, 60), label="lr exponent"),
            epochs=draw(st.integers(1, 3)),
            batch_size=draw(st.integers(1, 4)),
        ),
        data_seed=draw(st.integers(0, 2**32 - 1)),
        n_graphs=draw(st.integers(4, 6)),
    )
    return name, config


def _same(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-12) or (math.isnan(got) and math.isnan(want))


# The two closest betas a config takes; the lr makes some seeds diverge and
# leaves others with weight norms beyond float64.
HARD_SWEEP = SweepConfig(
    dataset="data.json", betas=(0.5, 0.500001), widths=(1, 8), seeds=(0, 1),
    models=tuple(ModelKind), readouts=tuple(Readout),
    train=TrainConfig(learning_rate=1e53, epochs=3, batch_size=2), n_graphs=6,
)


@settings(max_examples=30, deadline=None)
@given(tiny_sweeps())
# Each character of the first name once broke an artifact: markup and a
# control character the SVG title, a comma, a quote and a line break
# rows.csv, and a slash the SVG file name. Both names are too long for a
# file name.
@example(('a/<b> & "c",\x07\r\n' + "x" * 250, HARD_SWEEP))
@example(("x" * 300, HARD_SWEEP))
def test_any_tiny_sweep_writes_valid_artifacts(sweep):
    name, config = sweep
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if name is not None:
            generated = make_dataset(
                preset_config("er5", seed=config.data_seed, n_graphs=config.n_graphs)
            )
            save_dataset(GraphDataset(generated.samples, name), tmp / "data.json")
            config = dataclasses.replace(config, dataset=str(tmp / "data.json"))
        outcomes = {}
        for workers in (1, 2):
            config = dataclasses.replace(config, workers=workers)
            dataset, stats, filter_reports = setup(config)
            rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
            out = tmp / f"workers{workers}"
            written = emit_reports(
                rows, out, config=config, stats=stats, filter_reports=filter_reports
            )
            # rows.csv, summary.csv, report.json and one SVG per group.
            groups = len(config.betas) * len(config.models) * len(config.readouts)
            assert len(written) == 3 + groups
            assert sorted(path.name for path in out.iterdir()) == sorted(
                path.name for path in written.values()
            )

            assert [cells(row) for row in read_rows_csv(out / "rows.csv")] == [
                cells(row) for row in rows
            ]
            again = tmp / f"report{workers}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["report", "--rows", str(out / "rows.csv"), "--out", str(again)]) == 0
            assert (again / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
            assert all(has_one_verdict(row) for row in rows)
            # A diverged seed's NaN gap is counted, never averaged in.
            for group in aggregate(rows):
                assert math.isnan(group.mean_abs_gen_error) == (group.n_diverged == group.n_seeds)
                assert math.isnan(group.se_gen_error) == (group.n_seeds - group.n_diverged < 2)
                # The signed mean gap is no larger than the mean |gap|, in floats too.
                if group.n_diverged < group.n_seeds:
                    assert abs(group.mean_gen_error) <= group.mean_abs_gen_error

            document = json.loads((out / "report.json").read_text())
            assert len(document["rows"]) == len(rows)
            for record, row in zip(document["rows"], rows):
                assert (record["bounds"] is None) == (row.bounds is None)
                if row.bounds is not None:
                    fd, rademacher = recompute_bounds_from_record(record)
                    assert _same(fd, row.fd_bound) and _same(rademacher, row.rademacher_bound)
            for path in out.glob("*.svg"):
                ET.fromstring(path.read_text())
            outcomes[workers] = [cells(row)[:-1] for row in rows]
    assert outcomes[1] == outcomes[2]
