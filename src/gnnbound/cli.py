"""Command-line interface.

Subcommands:

    gen-data   generate a synthetic dataset (preset or generator spec file)
    train      one training run from a config file; prints the result row
    sweep      full sweep from a config file; writes CSV/JSON/SVG reports
    bounds     bound report for saved parameters against a dataset
    filters    filter norm report for a dataset
    report     re-aggregate and re-plot an existing rows.csv

train and sweep run one body (sweep.setup, then sweep.run_sweep_on); bounds
reports through sweep.bounds_for, as a sweep row does.

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
from typing import Callable, NamedTuple

from .data import dataset_stats, load_dataset, save_dataset, to_json_value, train_size
from .filters import FilterKind, filter_norm_report
from .models import ModelConfig, ModelKind, Readout, ShapeError, check_shapes, load_params
from .report import ROW_COLUMNS, emit_reports, read_rows_csv
from .sweep import GridError, SweepConfig, bounds_for, run_sweep_on, setup
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


class Parser(NamedTuple):
    """Turns a config value's text into a field value; what names the
    expected form in the error for text that convert rejects (ValueError)."""

    what: str
    convert: Callable[[str], object]


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _enum(enum_cls) -> Parser:
    return Parser(f"one of: {', '.join(member.value for member in enum_cls)}", enum_cls)


def _one(parser: Parser) -> Parser:
    """A single value for a field that holds a tuple."""
    return Parser(parser.what, lambda text: (parser.convert(text),))


def _many(parser: Parser) -> Parser:
    def convert(text: str) -> tuple:
        return tuple(parser.convert(part.strip()) for part in text.split(",") if part.strip())

    return Parser(f"comma-separated, each {parser.what}", convert)


def _matrix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(p) for p in row.replace(",", " ").split()) for row in text.split(";"))


_TEXT = Parser("text", str)
_FLOAT = Parser("a number", float)
_INT = Parser("an integer", int)
_BOOL = Parser("true/false", _bool)

# A key table maps each config key to the (dataclass field, parser) it sets; a
# key missing from the file leaves the field at its dataclass default.
KeyTable = dict[str, tuple[str, Parser]]

# Keys that train and sweep share: SweepConfig fields, or TrainConfig fields
# of its train config.
_SHARED_TABLE: KeyTable = {
    "dataset": ("dataset", _TEXT),
    "lr": ("learning_rate", _FLOAT),
    "momentum": ("momentum", _FLOAT),
    "alpha": ("alpha", _FLOAT),
    "batch_size": ("batch_size", _INT),
    "epochs": ("epochs", _INT),
    "delta": ("delta", _FLOAT),
    "bounded": ("bounded_nonlinearity", _BOOL),
    "data_seed": ("data_seed", _INT),
    "n_graphs": ("n_graphs", _INT),
    "feature_dim": ("feature_dim", _INT),
}
TRAIN_TABLE: KeyTable = {
    **_SHARED_TABLE,
    "beta": ("betas", _one(_FLOAT)),
    "model": ("models", _one(_enum(ModelKind))),
    "filter": ("filters", _one(_enum(FilterKind))),
    "readout": ("readouts", _one(_enum(Readout))),
    "width": ("widths", _one(_INT)),
    "seed": ("seeds", _one(_INT)),
}
SWEEP_TABLE: KeyTable = {
    **_SHARED_TABLE,
    "betas": ("betas", _many(_FLOAT)),
    "models": ("models", _many(_enum(ModelKind))),
    "filters": ("filters", _many(_enum(FilterKind))),
    "readouts": ("readouts", _many(_enum(Readout))),
    "widths": ("widths", _many(_INT)),
    "seeds": ("seeds", _many(_INT)),
    "workers": ("workers", _INT),
}
BOUNDS_TABLE: KeyTable = {
    key: TRAIN_TABLE[key]
    for key in (
        "beta", "filter", "readout", "alpha", "delta", "bounded", "data_seed", "n_graphs",
        "feature_dim",
    )
}
# The one-point grid of train and bounds, where SweepConfig's defaults span
# several values.
_TRAIN_DEFAULTS = {"betas": (0.7,), "widths": (64,), "seeds": (0,)}

# gen-data spec files: the model key picks the table and the spec dataclass;
# the other keys set SynthConfig fields.
_SYNTH_TABLE: KeyTable = {
    "n_graphs": ("n_graphs", _INT),
    "feature_dim": ("feature_dim", _INT),
    "name": ("name", _TEXT),
    "seed": ("seed", _INT),
}
SPEC_TABLES: dict[str, KeyTable] = {
    "sbm": {
        **_SYNTH_TABLE,
        "block_sizes": ("block_sizes", _many(_INT)),
        "edge_prob": ("edge_prob", Parser("rows of numbers separated by ';'", _matrix)),
    },
    "er": {**_SYNTH_TABLE, "nodes": ("node_count", _INT), "edge_prob": ("edge_prob", _FLOAT)},
}
_SPEC_CLASSES = {"sbm": SbmSpec, "er": ErSpec}


def read_config(values: dict[str, str], table: KeyTable, source: str) -> dict[str, object]:
    """Field values for the keys in values, parsed as table says.

    Raises ConfigError naming the key for an unknown key or unparseable text.
    """
    unknown = sorted(set(values) - set(table))
    if unknown:
        raise ConfigError(
            f"{source}: unknown keys {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(table))})"
        )
    fields = {}
    for key, text in values.items():
        field, parser = table[key]
        try:
            fields[field] = parser.convert(text)
        except ValueError as exc:
            raise ConfigError(f"{source}: {key} must be {parser.what}, got {text!r}") from exc
    return fields


def _key(table: KeyTable, field: str) -> str | None:
    return next((key for key, (name, _) in table.items() if name == field), None)


def _build(cls, fields: dict, table: KeyTable, source: str):
    """cls from the entries of fields that are its own; every other field of
    cls keeps its default, and one without a default is a missing key. A value
    cls rejects is named by the key of the field its error message starts with."""
    own = {}
    for field in dataclasses.fields(cls):
        if field.name in fields:
            own[field.name] = fields[field.name]
        elif field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{source}: missing required key {_key(table, field.name)!r}")
    try:
        return cls(**own)
    except ValueError as exc:
        raise _named(exc, table, source) from exc


def _named(exc: ValueError, table: KeyTable, source: str) -> ConfigError:
    """exc reported under source and the key of the field its message starts with."""
    key = _key(table, str(exc).split(" ", 1)[0])
    return ConfigError(f"{source}: {exc}" if key is None else f"{source}: {key}: {exc}")


def _sweep_config(path, table: KeyTable, **preset) -> SweepConfig:
    """SweepConfig from the config file at path (None: no keys), read with
    table; preset fields hold where the file sets no key for them."""
    source = str(path or "defaults")
    fields = {**preset, **read_config(parse_config_file(path) if path else {}, table, source)}
    train = _build(TrainConfig, fields, table, source)
    return _build(SweepConfig, {**fields, "train": train}, table, source)


def _flagged(config, args, *fields: str):
    """config with each field whose flag (--field-name) is given set to the
    flag's value; the others keep config's. A value the config class rejects
    is reported under the flag of the field its error message starts with."""
    given = {field: getattr(args, field) for field in fields if getattr(args, field) is not None}
    try:
        return dataclasses.replace(config, **given)
    except ValueError as exc:
        raise ConfigError(f"--{str(exc).split(' ', 1)[0].replace('_', '-')}: {exc}") from exc


def _synth_config_from_file(path: Path) -> SynthConfig:
    source = str(path)
    values = parse_config_file(path)
    kind = values.pop("model", None)
    if kind is None:
        raise ConfigError(f"{source}: missing required key 'model'")
    if kind not in SPEC_TABLES:
        raise ConfigError(f"{source}: model must be one of: sbm, er, got {kind!r}")
    table = SPEC_TABLES[kind]
    fields = {"name": path.stem, **read_config(values, table, source)}
    fields["model"] = _build(_SPEC_CLASSES[kind], fields, table, source)
    return _build(SynthConfig, fields, table, source)


def cmd_gen_data(args) -> int:
    if args.source in PRESET_NAMES:
        config = preset_config(args.source)
    else:
        source_path = Path(args.source)
        if not source_path.exists():
            raise ConfigError(
                f"{args.source!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
                f"nor an existing generator spec file"
            )
        config = _synth_config_from_file(source_path)
    dataset = make_dataset(_flagged(config, args, "seed", "n_graphs", "feature_dim"))
    save_dataset(dataset, args.out)
    stats = dataset_stats(dataset)
    print(
        f"wrote {args.out}: {stats.n_graphs} graphs, n_max={stats.n_max}, "
        f"d_max={stats.d_max}, d_min={stats.d_min}, feature_dim={stats.feature_dim}"
    )
    return 0


def _setup(config: SweepConfig, table: KeyTable, path):
    """sweep.setup for config read from path with table: a beta that cannot
    split a dataset file is named by its key, as a preset's is by _build."""
    try:
        return setup(config)
    except GridError as exc:
        raise _named(exc, table, str(path or "defaults")) from exc


def _run(config: SweepConfig, table: KeyTable, path):
    """The rows of config's grid, with the setup they were run on."""
    dataset, stats, filter_reports = _setup(config, table, path)
    rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
    return rows, stats, filter_reports


def cmd_train(args) -> int:
    config = _sweep_config(args.config, TRAIN_TABLE, **_TRAIN_DEFAULTS)
    rows, _, _ = _run(config, TRAIN_TABLE, args.config)
    for column in ROW_COLUMNS:
        print(f"{column} = {getattr(rows[0], column)}")
    return 0


def cmd_sweep(args) -> int:
    config = _flagged(_sweep_config(args.config, SWEEP_TABLE), args, "workers")
    rows, stats, filter_reports = _run(config, SWEEP_TABLE, args.config)
    written = emit_reports(
        rows, args.out, config=config, stats=stats, filter_reports=filter_reports
    )
    _print_written(rows, args.out, written)
    return 0


def _print_written(rows, out, written) -> None:
    print(f"{len(rows)} rows -> {out}")
    for name in sorted(written):
        print(f"  {written[name]}")


def _print_json(value) -> None:
    print(json.dumps(to_json_value(value), indent=2, allow_nan=False))


def cmd_bounds(args) -> int:
    config = _sweep_config(args.config, BOUNDS_TABLE, **_TRAIN_DEFAULTS, dataset=args.dataset)
    params = load_params(args.params)
    filter_kind = config.filters[0]
    model_config = ModelConfig(params.kind, filter_kind, params.width, config.readouts[0])
    try:
        if config.dataset in PRESET_NAMES:
            # A preset's feature_dim is the config's, so the check needs no
            # generated graph; a dataset file's is known once it is read.
            check_shapes(params, config.feature_dim, model_config)
        dataset, stats, filter_reports = _setup(config, BOUNDS_TABLE, args.config)
        n_train = train_size(len(dataset), config.betas[0])
        report = bounds_for(
            params, model_config, n_train, stats, filter_reports[filter_kind], config
        )
    except ShapeError as exc:
        raise ShapeError(f"{args.params}: {exc}") from exc
    _print_json(report)
    return 0


def cmd_filters(args) -> int:
    parser = _enum(FilterKind)
    try:
        kind = parser.convert(args.kind)
    except ValueError as exc:
        raise ConfigError(f"--kind must be {parser.what}, got {args.kind!r}") from exc
    if args.dataset in PRESET_NAMES:
        config = _flagged(preset_config(args.dataset), args, "seed", "n_graphs", "feature_dim")
        dataset = make_dataset(config)
    else:
        dataset = load_dataset(args.dataset)
    _print_json(filter_norm_report(dataset, kind))
    return 0


def cmd_report(args) -> int:
    rows = read_rows_csv(args.rows)
    _print_written(rows, args.out, emit_reports(rows, args.out))
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
    spec_or = "default: the spec file's, else"
    gen.add_argument("--n-graphs", type=int, help=f"graph count ({spec_or} {SynthConfig.n_graphs})")
    gen.add_argument(
        "--feature-dim", type=int, help=f"feature dimension ({spec_or} {SynthConfig.feature_dim})"
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
    fi.add_argument(
        "--seed",
        type=int,
        default=SweepConfig.data_seed,
        help="preset generation seed (default %(default)s)",
    )
    fi.add_argument("--n-graphs", type=int, default=SweepConfig.n_graphs, dest="n_graphs")
    fi.add_argument("--feature-dim", type=int, default=SweepConfig.feature_dim, dest="feature_dim")
    fi.set_defaults(handler=cmd_filters)

    rep = sub.add_parser("report", help="re-aggregate and re-plot a rows.csv")
    rep.add_argument("--rows", required=True, help="rows.csv from a previous sweep")
    rep.add_argument("--out", required=True, help="report output directory")
    rep.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A bad input raises a ValueError (ConfigError, the data, parameter and
    # report format errors, ShapeError) or, for a file, an OSError.
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
