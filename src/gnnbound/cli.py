"""Command-line interface.

Subcommands:

    gen-data   generate a synthetic dataset (preset or generator spec file)
    train      one training run from a config file; prints the result row
    sweep      full sweep from a config file; writes CSV/JSON/SVG reports
    bounds     bound report for saved parameters against a dataset
    filters    filter norm report for a dataset
    report     re-aggregate and re-plot an existing rows.csv

Config files are flat `key = value` text; blank lines and `#` comments are
ignored. Lists are comma-separated; the SBM edge-probability matrix separates
rows with `;`. The README documents every key.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bounds import DEFAULT_DELTA, BoundInputs, bound_report
from .data import (
    DatasetFormatError,
    ValidationError,
    dataset_stats,
    save_dataset,
    train_size,
)
from .filters import FilterKind, filter_norm_report
from .models import GcnParams, ModelConfig, ModelKind, Readout, load_params
from .report import (
    ROW_COLUMNS,
    ReportFormatError,
    emit_reports,
    read_rows_csv,
)
from .sweep import (
    DEFAULT_BETAS,
    DEFAULT_SEEDS,
    DEFAULT_WIDTHS,
    SweepConfig,
    resolve_dataset,
    run_sweep_on,
)
from .synth import (
    PRESET_NAMES,
    ErSpec,
    SbmSpec,
    SynthConfig,
    make_dataset,
    preset_config,
)
from .training import TrainConfig


class ConfigError(ValueError):
    """A config file or option value could not be interpreted."""


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse flat `key = value` lines; `#` starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        if key in values:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        values[key] = value
    return values


def parse_config_file(path) -> dict[str, str]:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


class ConfigView:
    """Typed access to parsed key=value pairs with unknown-key rejection."""

    def __init__(self, values: dict[str, str], allowed: set[str], source: str):
        unknown = sorted(set(values) - allowed)
        if unknown:
            raise ConfigError(
                f"{source}: unknown keys {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        self._values = values
        self._source = source

    def _raw(self, key: str, default):
        if key in self._values:
            return self._values[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self._source}: missing required key {key!r}")
        return default

    def get_str(self, key: str, default=None) -> str | None:
        value = self._raw(key, default)
        return value

    def get_float(self, key: str, default=None) -> float | None:
        value = self._raw(key, default)
        if value is None or isinstance(value, float):
            return value
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{self._source}: {key} must be a number, got {value!r}") from exc

    def get_int(self, key: str, default=None) -> int | None:
        value = self._raw(key, default)
        if value is None or isinstance(value, int):
            return value
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"{self._source}: {key} must be an integer, got {value!r}") from exc

    def get_bool(self, key: str, default=None) -> bool | None:
        value = self._raw(key, default)
        if value is None or isinstance(value, bool):
            return value
        lowered = value.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{self._source}: {key} must be true/false, got {value!r}")

    def _split(self, key: str) -> list[str]:
        return [part.strip() for part in self._values[key].split(",") if part.strip()]

    def get_floats(self, key: str, default: tuple) -> tuple[float, ...]:
        if key not in self._values:
            return default
        try:
            return tuple(float(part) for part in self._split(key))
        except ValueError as exc:
            raise ConfigError(f"{self._source}: {key} must be comma-separated numbers") from exc

    def get_ints(self, key: str, default: tuple) -> tuple[int, ...]:
        if key not in self._values:
            return default
        try:
            return tuple(int(part) for part in self._split(key))
        except ValueError as exc:
            raise ConfigError(f"{self._source}: {key} must be comma-separated integers") from exc

    def get_enums(self, key: str, enum_cls, default: tuple) -> tuple:
        if key not in self._values:
            return default
        return tuple(_enum_value(enum_cls, part, key) for part in self._split(key))


_REQUIRED = object()


def _enum_value(enum_cls, text: str, what: str):
    try:
        return enum_cls(text)
    except ValueError as exc:
        choices = ", ".join(member.value for member in enum_cls)
        raise ConfigError(f"{what} must be one of: {choices} (got {text!r})") from exc


_DATA_KEYS = {"dataset", "data_seed", "n_graphs", "feature_dim"}
_HYPER_KEYS = {"lr", "momentum", "alpha", "batch_size", "epochs"}
_BOUND_KEYS = {"delta", "bounded"}
_TRAIN_CMD_KEYS = _DATA_KEYS | _HYPER_KEYS | _BOUND_KEYS | {
    "beta",
    "model",
    "filter",
    "readout",
    "width",
    "seed",
}
_SWEEP_CMD_KEYS = _DATA_KEYS | _HYPER_KEYS | _BOUND_KEYS | {
    "betas",
    "widths",
    "seeds",
    "models",
    "filters",
    "readouts",
    "workers",
}
_BOUNDS_CMD_KEYS = _BOUND_KEYS | {
    "beta",
    "filter",
    "readout",
    "alpha",
    "data_seed",
    "n_graphs",
    "feature_dim",
}
_GEN_DATA_KEYS = {
    "model",
    "block_sizes",
    "edge_prob",
    "nodes",
    "n_graphs",
    "feature_dim",
    "name",
    "seed",
}


def _train_config(view: ConfigView) -> TrainConfig:
    return TrainConfig(
        learning_rate=view.get_float("lr", 0.005),
        momentum=view.get_float("momentum", 0.9),
        alpha=view.get_float("alpha", 100.0),
        batch_size=view.get_int("batch_size", 128),
        epochs=view.get_int("epochs", 200),
    )


def _data_settings(view: ConfigView) -> dict:
    return {
        "data_seed": view.get_int("data_seed", 0),
        "n_graphs": view.get_int("n_graphs", 200),
        "feature_dim": view.get_int("feature_dim", 16),
    }


def _synth_config_from_file(path: Path, seed_override: int | None) -> SynthConfig:
    view = ConfigView(parse_config_file(path), _GEN_DATA_KEYS, str(path))
    kind = view.get_str("model", _REQUIRED)
    if kind == "sbm":
        sizes = view.get_ints("block_sizes", ())
        if not sizes:
            raise ConfigError(f"{path}: sbm spec needs block_sizes")
        prob_text = view.get_str("edge_prob", _REQUIRED)
        rows = []
        for row_text in prob_text.split(";"):
            parts = [p for p in row_text.replace(",", " ").split() if p]
            try:
                rows.append(tuple(float(p) for p in parts))
            except ValueError as exc:
                raise ConfigError(f"{path}: edge_prob must be numeric rows") from exc
        model = SbmSpec(block_sizes=sizes, edge_prob=tuple(rows))
    elif kind == "er":
        model = ErSpec(
            node_count=view.get_int("nodes", _REQUIRED),
            edge_prob=view.get_float("edge_prob", _REQUIRED),
        )
    else:
        raise ConfigError(f"{path}: model must be 'sbm' or 'er', got {kind!r}")
    seed = seed_override if seed_override is not None else view.get_int("seed", 0)
    return SynthConfig(
        model=model,
        n_graphs=view.get_int("n_graphs", 200),
        feature_dim=view.get_int("feature_dim", 16),
        seed=seed,
        name=view.get_str("name", Path(path).stem),
    )


def cmd_gen_data(args) -> int:
    if args.source in PRESET_NAMES:
        config = preset_config(
            args.source,
            seed=args.seed if args.seed is not None else 0,
            n_graphs=args.n_graphs,
            feature_dim=args.feature_dim,
        )
    else:
        source_path = Path(args.source)
        if not source_path.exists():
            raise ConfigError(
                f"{args.source!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
                f"nor an existing generator spec file"
            )
        config = _synth_config_from_file(source_path, args.seed)
        if args.override_size:
            config = dataclasses.replace(
                config, n_graphs=args.n_graphs, feature_dim=args.feature_dim
            )
    dataset = make_dataset(config)
    save_dataset(dataset, args.out)
    stats = dataset_stats(dataset)
    print(
        f"wrote {args.out}: {stats.n_graphs} graphs, n_max={stats.n_max}, "
        f"d_max={stats.d_max}, d_min={stats.d_min}, feature_dim={stats.feature_dim}"
    )
    return 0


def _sweep_config_from_view(view: ConfigView, workers: int) -> SweepConfig:
    return SweepConfig(
        dataset=view.get_str("dataset", _REQUIRED),
        betas=view.get_floats("betas", DEFAULT_BETAS),
        widths=view.get_ints("widths", DEFAULT_WIDTHS),
        seeds=view.get_ints("seeds", DEFAULT_SEEDS),
        models=view.get_enums("models", ModelKind, (ModelKind.GCN,)),
        filters=view.get_enums("filters", FilterKind, (FilterKind.SYM_NORM,)),
        readouts=view.get_enums("readouts", Readout, (Readout.MEAN,)),
        train=_train_config(view),
        delta=view.get_float("delta", DEFAULT_DELTA),
        bounded_nonlinearity=view.get_bool("bounded", True),
        workers=workers,
        **_data_settings(view),
    )


def cmd_train(args) -> int:
    view = ConfigView(parse_config_file(args.config), _TRAIN_CMD_KEYS, str(args.config))
    config = SweepConfig(
        dataset=view.get_str("dataset", _REQUIRED),
        betas=(view.get_float("beta", 0.7),),
        widths=(view.get_int("width", 64),),
        seeds=(view.get_int("seed", 0),),
        models=(_enum_value(ModelKind, view.get_str("model", "gcn"), "model"),),
        filters=(_enum_value(FilterKind, view.get_str("filter", "sym-norm"), "filter"),),
        readouts=(_enum_value(Readout, view.get_str("readout", "mean"), "readout"),),
        train=_train_config(view),
        delta=view.get_float("delta", DEFAULT_DELTA),
        bounded_nonlinearity=view.get_bool("bounded", True),
        **_data_settings(view),
    )
    dataset = resolve_dataset(
        config.dataset, config.data_seed, config.n_graphs, config.feature_dim
    )
    row = run_sweep_on(dataset, config)[0]
    for column in ROW_COLUMNS:
        print(f"{column} = {getattr(row, column)}")
    return 0


def cmd_sweep(args) -> int:
    view = ConfigView(parse_config_file(args.config), _SWEEP_CMD_KEYS, str(args.config))
    workers = args.workers if args.workers is not None else view.get_int("workers", 1)
    config = _sweep_config_from_view(view, workers)
    dataset = resolve_dataset(
        config.dataset, config.data_seed, config.n_graphs, config.feature_dim
    )
    stats = dataset_stats(dataset)
    filter_reports = {
        kind: filter_norm_report(dataset, kind) for kind in dict.fromkeys(config.filters)
    }
    rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
    written = emit_reports(
        rows, args.out, config=config, stats=stats, filter_reports=filter_reports
    )
    print(f"{len(rows)} rows -> {args.out}")
    for name in sorted(written):
        print(f"  {written[name]}")
    return 0


def cmd_bounds(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    view = ConfigView(values, _BOUNDS_CMD_KEYS, str(args.config or "defaults"))
    params = load_params(args.params)
    data_settings = _data_settings(view)
    dataset = resolve_dataset(args.dataset, **data_settings)
    stats = dataset_stats(dataset)
    filter_kind = _enum_value(FilterKind, view.get_str("filter", "sym-norm"), "filter")
    readout = _enum_value(Readout, view.get_str("readout", "mean"), "readout")
    n_train = train_size(len(dataset), view.get_float("beta", 0.7))
    filter_report = filter_norm_report(dataset, filter_kind)
    model_kind = ModelKind.GCN if isinstance(params, GcnParams) else ModelKind.MPGNN
    model_config = ModelConfig(
        model_kind=model_kind,
        filter_kind=filter_kind,
        width=params.width,
        readout=readout,
    )
    inputs = BoundInputs(
        n_train=n_train,
        alpha=view.get_float("alpha", 100.0),
        n_max=stats.n_max,
        b_f=stats.b_f,
        g_max=filter_report.g_max,
        readout=readout,
        delta=view.get_float("delta", DEFAULT_DELTA),
    )
    report = bound_report(params, model_config, inputs, view.get_bool("bounded", True))
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_filters(args) -> int:
    dataset = resolve_dataset(
        args.dataset, args.seed if args.seed is not None else 0, args.n_graphs, args.feature_dim
    )
    kind = _enum_value(FilterKind, args.kind, "--kind")
    report = filter_norm_report(dataset, kind)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_report(args) -> int:
    rows = read_rows_csv(args.rows)
    written = emit_reports(rows, args.out)
    print(f"{len(rows)} rows -> {args.out}")
    for name in sorted(written):
        print(f"  {written[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnnbound",
        description="Graph-classification GNN training and generalization bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("source", help=f"preset ({', '.join(PRESET_NAMES)}) or generator spec file")
    gen.add_argument("--seed", type=int, default=None, help="generation seed (default 0)")
    gen.add_argument("--out", required=True, help="output dataset JSON path")
    gen.add_argument("--n-graphs", type=int, default=200, dest="n_graphs")
    gen.add_argument("--feature-dim", type=int, default=16, dest="feature_dim")
    gen.add_argument(
        "--override-size",
        action="store_true",
        help="let --n-graphs/--feature-dim override a spec file's values",
    )
    gen.set_defaults(handler=cmd_gen_data)

    tr = sub.add_parser("train", help="single training run from a config file")
    tr.add_argument("--config", required=True)
    tr.set_defaults(handler=cmd_train)

    sw = sub.add_parser("sweep", help="full sweep from a config file")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True, help="report output directory")
    sw.add_argument("--workers", type=int, default=None, help="parallel coordinate workers")
    sw.set_defaults(handler=cmd_sweep)

    bo = sub.add_parser("bounds", help="bound report for saved parameters")
    bo.add_argument("--params", required=True, help="parameters JSON (from save_params)")
    bo.add_argument("--dataset", required=True, help="preset name or dataset JSON path")
    bo.add_argument("--config", default=None, help="optional key=value settings file")
    bo.set_defaults(handler=cmd_bounds)

    fi = sub.add_parser("filters", help="filter norm report for a dataset")
    fi.add_argument("--dataset", required=True, help="preset name or dataset JSON path")
    fi.add_argument("--kind", required=True, help="sym-norm | random-walk | mean-agg | sum-agg")
    fi.add_argument("--seed", type=int, default=None, help="preset generation seed (default 0)")
    fi.add_argument("--n-graphs", type=int, default=200, dest="n_graphs")
    fi.add_argument("--feature-dim", type=int, default=16, dest="feature_dim")
    fi.set_defaults(handler=cmd_filters)

    rep = sub.add_parser("report", help="re-aggregate and re-plot a rows.csv")
    rep.add_argument("--rows", required=True, help="rows.csv from a previous sweep")
    rep.add_argument("--out", required=True, help="report output directory")
    rep.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (
        ConfigError,
        DatasetFormatError,
        ValidationError,
        ReportFormatError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
