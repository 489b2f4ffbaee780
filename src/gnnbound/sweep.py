"""Experiment sweeps: width x seed x model x filter x readout training runs.

Every coordinate runs the full pipeline — split, init, train, measure the
train/test risk gap, evaluate both generalization bounds — and yields one
result row. Rows are emitted in canonical lexicographic order over
(dataset, beta, model, filter, readout, width, seed).

Reproducibility contract: the three PRNG streams a run needs (split, init,
minibatch shuffling) are derived from the coordinate values alone, never from
iteration order. A sweep over k seeds therefore produces exactly the union of
the k single-seed sweeps, and parallel execution yields the same rows as
sequential (only wall_time_s, a measurement, varies).

A sweep's parameter-free inputs (dataset, stats, filter norm reports) are
built once, by setup; every bound a command reports comes from bounds_for,
which first checks that the weights fit the data.

A sweep on the main thread pins OpenBLAS for its whole call
(blas.single_threaded_blas). With workers > 1 a thread pool takes the
coordinates widest first, so the longest runs do not form the tail, and each
training runs on its pool thread. With workers = 1 each training and risk
runs on the main thread, which owns the cores, on one lane per usable CPU
(train, empirical_risk).
"""

from __future__ import annotations

import dataclasses
import math
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .blas import single_threaded_blas
from .bounds import DEFAULT_DELTA, BoundInputs, BoundReport, bound_report
from .data import (
    DatasetStats, GraphDataset, dataset_stats, load_dataset, split_dataset, train_size,
)
from .filters import FilterKind, FilterNormReport, filter_norm_report
from .models import ModelConfig, ModelKind, Params, Readout, check_shapes, init_params
from .synth import PRESET_NAMES, make_dataset, preset_config
from .training import (
    RunResult,
    TrainConfig,
    TrainingDivergenceError,
    measure_generalization,
    prepare_dataset,
    train,
)

DEFAULT_BETAS = (0.7, 0.9)
DEFAULT_WIDTHS = (4, 8, 16, 32, 64, 128, 256)
DEFAULT_SEEDS = tuple(range(10))
# The rows.csv columns that name a run; every other column is its outcome.
COORDINATE_COLUMNS = ("dataset", "beta", "model", "filter", "readout", "width", "seed")


def _one_of(kind) -> tuple:
    values = [member.value for member in kind]
    return lambda value: value in values, f"must be one of: {', '.join(values)}"


# The values a sweep runs and writes, by rows.csv column: a (test, rule) pair
# for each coordinate but the dataset name, which is free text. An outcome
# must not be negative; a diverged row's NaN passes.
_COORDINATE_RULES = {
    "beta": (lambda value: 0.0 < value < 1.0, "must lie strictly between 0 and 1"),
    "model": _one_of(ModelKind),
    "filter": _one_of(FilterKind),
    "readout": _one_of(Readout),
    "width": (lambda value: value >= 1, "must be >= 1"),
    "seed": (lambda value: value >= 0, "must be >= 0"),
}
_OUTCOME_RULE = (lambda value: not value < 0.0, "must be >= 0")


class GridError(ValueError):
    """A grid value that the dataset cannot take."""


def _check_betas(betas: tuple[float, ...], n_graphs: int) -> None:
    """Raise GridError, starting "betas", unless every beta splits n_graphs
    graphs into a nonempty train and test side (data.train_size)."""
    for beta in betas:
        try:
            train_size(n_graphs, beta)
        except ValueError as exc:
            raise GridError(f"betas must split the dataset: {exc}") from None


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs: data source, grid, training, bound settings.

    dataset is a preset name (sbm1 sbm2 sbm3 er4 er5) or a path to a dataset
    JSON file. data_seed / n_graphs / feature_dim only matter for presets, and
    are checked only when dataset names one; so is whether every beta splits
    the preset's n_graphs graphs (_check_betas), which setup checks for a file.
    The train config's own seed field is ignored; each run derives its
    shuffle seed from the sweep coordinate.
    """

    dataset: str
    betas: tuple[float, ...] = DEFAULT_BETAS
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    models: tuple[ModelKind, ...] = (ModelKind.GCN,)
    filters: tuple[FilterKind, ...] = (FilterKind.SYM_NORM,)
    readouts: tuple[Readout, ...] = (Readout.MEAN,)
    train: TrainConfig = field(default_factory=TrainConfig)
    delta: float = DEFAULT_DELTA
    bounded_nonlinearity: bool = True
    data_seed: int = 0
    n_graphs: int = 200
    feature_dim: int = 16
    workers: int = 1

    def __post_init__(self):
        for name in ("betas", "widths", "seeds", "models", "filters", "readouts"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            # A repeated value would run identical rows and count them twice.
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
        for column in ("width", "seed", "beta"):
            valid, rule = _COORDINATE_RULES[column]
            if not all(map(valid, getattr(self, f"{column}s"))):
                raise ValueError(f"{column}s {rule}")
        if self.dataset in PRESET_NAMES:
            if self.data_seed < 0:
                raise ValueError("data_seed must be >= 0")
            if self.n_graphs < 2:
                raise ValueError("n_graphs must be >= 2 (the split needs both sides)")
            if self.feature_dim < 1:
                raise ValueError("feature_dim must be >= 1")
            _check_betas(self.betas, self.n_graphs)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    """One completed run. Every field but bounds is a rows.csv column, in order,
    and a value outside its column's rule raises a ValueError naming the column.

    bounds carries the full bound report for the JSON echo; it is None for
    rows parsed back from CSV and for diverged runs (whose metrics are NaN).
    """

    dataset: str
    beta: float
    model: str
    filter: str
    readout: str
    width: int
    seed: int
    train_risk: float
    test_risk: float
    abs_gen_error: float
    fd_bound: float
    rademacher_bound: float
    wall_time_s: float
    bounds: BoundReport | None = None

    def __post_init__(self):
        for column in ROW_COLUMNS[1:]:  # all but the dataset name
            valid, rule = _COORDINATE_RULES.get(column, _OUTCOME_RULE)
            if not valid(getattr(self, column)):
                raise ValueError(f"{column} {rule}")

    @property
    def diverged(self) -> bool:
        return not np.isfinite(self.train_risk)


ROW_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow) if field.name != "bounds")


def resolve_dataset(
    source: str, data_seed: int = 0, n_graphs: int = 200, feature_dim: int = 16
) -> GraphDataset:
    """Preset name -> freshly generated dataset; anything else -> JSON file."""
    if source in PRESET_NAMES:
        config = preset_config(source, seed=data_seed, n_graphs=n_graphs, feature_dim=feature_dim)
        return make_dataset(config)
    return load_dataset(source)


def setup(
    config: SweepConfig,
) -> tuple[GraphDataset, DatasetStats, dict[FilterKind, FilterNormReport]]:
    """The sweep's inputs that no weights change: its dataset, the dataset's
    stats and one filter norm report per filter of the grid. A beta that cannot
    split a dataset file raises GridError once the file is loaded."""
    dataset = resolve_dataset(config.dataset, config.data_seed, config.n_graphs, config.feature_dim)
    _check_betas(config.betas, len(dataset))
    stats = dataset_stats(dataset)
    filter_reports = {
        kind: filter_norm_report(dataset, kind) for kind in dict.fromkeys(config.filters)
    }
    return dataset, stats, filter_reports


def bounds_for(
    params: Params, model_config: ModelConfig, n_train: int, stats: DatasetStats,
    filter_report: FilterNormReport, config: SweepConfig,
) -> BoundReport:
    """Both bounds for params trained on n_train graphs of the dataset that
    stats and filter_report describe, under config's alpha, delta and
    bounded setting. Raises ShapeError when params do not fit the data."""
    check_shapes(params, stats.feature_dim, model_config)
    inputs = BoundInputs(
        n_train, config.train.alpha, stats.n_max, stats.b_f, filter_report.g_max,
        model_config.readout, config.delta,
    )
    return bound_report(params, model_config, inputs, config.bounded_nonlinearity)


def coordinate_seeds(
    dataset_name: str,
    beta: float,
    model: ModelKind,
    filter_kind: FilterKind,
    readout: Readout,
    width: int,
    seed: int,
) -> tuple[int, int, int]:
    """Derive the (split, init, shuffle) seeds for one sweep coordinate.

    Deterministic in the coordinate values only, so identical coordinates get
    identical runs no matter which sweep they appear in.
    """
    entropy = [
        int(seed),
        int(width),
        int(round(beta * 1_000_000)),
        list(ModelKind).index(model),
        list(FilterKind).index(filter_kind),
        list(Readout).index(readout),
        zlib.crc32(dataset_name.encode("utf-8")),
    ]
    state = np.random.SeedSequence(entropy).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _run_coordinate(
    dataset: GraphDataset,
    stats: DatasetStats,
    filter_report: FilterNormReport,
    coord: tuple,
    config: SweepConfig,
) -> SweepRow:
    beta, model_kind, filter_kind, readout, width, seed = coord
    started = time.perf_counter()
    split_seed, init_seed, shuffle_seed = coordinate_seeds(
        dataset.name, beta, model_kind, filter_kind, readout, width, seed
    )
    train_set, test_set = split_dataset(dataset, beta, split_seed)
    model_config = ModelConfig(model_kind, filter_kind, width, readout)
    params = init_params(model_config, dataset.feature_dim, init_seed)
    train_config = dataclasses.replace(config.train, seed=shuffle_seed)
    nan = math.nan
    try:
        trained, _ = train(params, train_set, train_config, model_config)
        run = measure_generalization(trained, train_set, test_set, model_config)
    except TrainingDivergenceError:
        run = None
    # One verdict per row: a run that diverged in training, or whose weights
    # the risk forward cannot hold, gets NaN outcomes and no bounds.
    if run is None or not (math.isfinite(run.train_risk) and math.isfinite(run.test_risk)):
        run, report = RunResult(nan, nan, nan), None
    else:
        report = bounds_for(trained, model_config, len(train_set), stats, filter_report, config)
    return SweepRow(
        dataset.name, beta, model_kind.value, filter_kind.value, readout.value, width, seed,
        **dataclasses.asdict(run),
        fd_bound=report.fd_bound if report else nan,
        rademacher_bound=report.rademacher_bound if report else nan,
        wall_time_s=time.perf_counter() - started,
        bounds=report,
    )


def sweep_coordinates(config: SweepConfig) -> list[tuple]:
    """The sweep grid in canonical order: beta, model, filter, readout, width, seed."""
    return sorted(
        product(config.betas, config.models, config.filters, config.readouts, config.widths, config.seeds),
        key=lambda c: (c[0], c[1].value, c[2].value, c[3].value, c[4], c[5]),
    )


@single_threaded_blas()
def run_sweep_on(
    dataset: GraphDataset,
    config: SweepConfig,
    *,
    stats: DatasetStats,
    filter_reports: dict[FilterKind, FilterNormReport],
) -> list[SweepRow]:
    """Run the sweep grid against an already-resolved dataset, with the
    stats and filter reports that setup built for it.

    The graphs are prepared into one stack per (model, filter), and every
    coordinate's split indexes into it. The main thread pins OpenBLAS for
    the call.
    """
    prepared = {
        (model, kind): prepare_dataset(dataset, ModelConfig(model, kind, width=1))
        for model, kind in product(dict.fromkeys(config.models), dict.fromkeys(config.filters))
    }
    coords = sweep_coordinates(config)

    def one(coord: tuple) -> SweepRow:
        model, kind = coord[1], coord[2]
        return _run_coordinate(prepared[model, kind], stats, filter_reports[kind], coord, config)

    if config.workers == 1:
        return [one(coord) for coord in coords]
    widest_first = sorted(range(len(coords)), key=lambda i: -coords[i][4])
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        rows = dict(zip(widest_first, pool.map(one, [coords[i] for i in widest_first])))
    return [rows[i] for i in range(len(coords))]
