"""Sweep reports: rows.csv, summary.csv, report.json, and SVG trend plots.

Floats are written with Python's shortest round-trip repr, so parsing a CSV
back yields bit-identical values and re-aggregating a parsed rows.csv
reproduces summary.csv byte for byte. Aggregation sorts each group's values
before summing, which makes the statistics invariant to row order.

The SVG plots are emitted by plain string assembly (axes, polylines, error
bars, text) with no plotting dependency: one file per (dataset, beta, model,
readout), mean absolute generalization error (scaled by 1e5) against width on
a log2 axis, one series per graph filter, +/-1 sample-std error bars.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import Sequence

from .bounds import BoundReport, report_from_stats
from .data import DatasetStats, from_plain, to_json_value
from .filters import FilterKind, FilterNormReport
from .models import ModelKind, Readout
from .sweep import COORDINATE_COLUMNS, SweepConfig, SweepRow


class ReportFormatError(ValueError):
    """A results CSV does not match the expected schema."""


@dataclass(frozen=True)
class SummaryRow:
    """Per-coordinate aggregate over seeds (sample std, n-1 denominator).

    Means and stds are taken over the n_seeds - n_diverged seeds that did not
    diverge; a group in which every seed diverged has NaN means and stds.
    """

    dataset: str
    beta: float
    model: str
    filter: str
    readout: str
    width: int
    n_seeds: int
    n_diverged: int
    mean_train_risk: float
    mean_test_risk: float
    mean_abs_gen_error: float
    std_abs_gen_error: float
    mean_fd_bound: float
    std_fd_bound: float
    mean_rademacher_bound: float
    std_rademacher_bound: float


ROW_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow) if field.name != "bounds")
SUMMARY_COLUMNS = tuple(field.name for field in dataclasses.fields(SummaryRow))


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _mean(values: Sequence[float]) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    return sum(ordered) / len(ordered)


def _sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0 for a single value."""
    if len(values) < 2:
        return 0.0 if values else math.nan
    ordered = sorted(values)
    center = sum(ordered) / len(ordered)
    try:
        return math.sqrt(sum((v - center) ** 2 for v in ordered) / (len(ordered) - 1))
    except OverflowError:
        # A deviation whose square is beyond float64: factor the largest out.
        scale = max(abs(v - center) for v in ordered)
        return scale * _sample_std([v / scale for v in ordered])


def _csv_line(cells) -> str:
    """One CSV line. A cell with a comma, a quote or a line break is quoted:
    csv.writer with "\n" line ends leaves a lone "\r" bare, which splits the
    row when it is read back."""
    quoted = (
        '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\r\n') else cell
        for cell in cells
    )
    return ",".join(quoted) + "\n"


def _write_csv(rows, columns: tuple[str, ...], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(_csv_line(columns))
        for row in rows:
            handle.write(_csv_line(_format_cell(getattr(row, column)) for column in columns))
    return path


def write_rows_csv(rows: Sequence[SweepRow], path) -> Path:
    return _write_csv(rows, ROW_COLUMNS, path)


def write_summary_csv(summary: Sequence[SummaryRow], path) -> Path:
    return _write_csv(summary, SUMMARY_COLUMNS, path)


def _one_of(kind) -> tuple:
    values = [member.value for member in kind]
    return lambda value: value in values, f"must be one of: {', '.join(values)}"


# The values a sweep writes, by column, in column order: a rows.csv value
# outside them is refused. A diverged row writes NaN outcomes, which pass.
_ROW_RULES = {
    "beta": (lambda value: 0.0 < value < 1.0, "must lie strictly between 0 and 1"),
    "model": _one_of(ModelKind),
    "filter": _one_of(FilterKind),
    "readout": _one_of(Readout),
    "width": (lambda value: value >= 1, "must be >= 1"),
    "seed": (lambda value: value >= 0, "must be >= 0"),
    **dict.fromkeys(
        ROW_COLUMNS[len(COORDINATE_COLUMNS) :], (lambda value: not value < 0.0, "must be >= 0")
    ),
}


def read_rows_csv(path) -> list[SweepRow]:
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != ROW_COLUMNS:
            raise ReportFormatError(
                f"{path}: expected header {','.join(ROW_COLUMNS)}, got {header}"
            )
        rows = []
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(ROW_COLUMNS):
                raise ReportFormatError(f"{path}:{line_no}: expected {len(ROW_COLUMNS)} cells")
            try:
                rows.append(from_plain(SweepRow, dict(zip(ROW_COLUMNS, record))))
            except ValueError as exc:
                raise ReportFormatError(f"{path}:{line_no}: {exc}") from exc
            for column, (valid, rule) in _ROW_RULES.items():
                if not valid(getattr(rows[-1], column)):
                    raise ReportFormatError(f"{path}:{line_no}: {column} {rule}")
    if not rows:
        raise ReportFormatError(f"{path}: no rows")
    return rows


def aggregate(rows: Sequence[SweepRow]) -> list[SummaryRow]:
    """Group rows over seeds and compute mean/std per coordinate.

    Groups are keyed by every coordinate except seed and returned in canonical
    lexicographic order; the result does not depend on the input row order.
    Diverged seeds are counted, not averaged in.
    """
    if not rows:
        raise ValueError("cannot aggregate an empty row list")
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        key = tuple(getattr(row, name) for name in COORDINATE_COLUMNS if name != "seed")
        groups.setdefault(key, []).append(row)
    summary = []
    for key in sorted(groups):
        members = groups[key]
        kept = [r for r in members if not r.diverged]
        summary.append(
            SummaryRow(
                *key,
                n_seeds=len(members),
                n_diverged=len(members) - len(kept),
                mean_train_risk=_mean([r.train_risk for r in kept]),
                mean_test_risk=_mean([r.test_risk for r in kept]),
                mean_abs_gen_error=_mean([r.abs_gen_error for r in kept]),
                std_abs_gen_error=_sample_std([r.abs_gen_error for r in kept]),
                mean_fd_bound=_mean([r.fd_bound for r in kept]),
                std_fd_bound=_sample_std([r.fd_bound for r in kept]),
                mean_rademacher_bound=_mean([r.rademacher_bound for r in kept]),
                std_rademacher_bound=_sample_std([r.rademacher_bound for r in kept]),
            )
        )
    return summary


def write_report_json(
    path,
    config: SweepConfig,
    stats: DatasetStats,
    filter_reports: dict[FilterKind, FilterNormReport],
    rows: Sequence[SweepRow],
) -> Path:
    """Full machine-readable echo: config, dataset stats, filter norms, rows.

    Every row embeds its bound report (trained-weight stats and bound inputs),
    so both bounds can be recomputed from this file alone. Non-finite values,
    such as the risks of a diverged run, are written as null.
    """
    path = Path(path)
    document = {
        "config": config,
        "dataset_stats": stats,
        "filters": {kind.value: report for kind, report in filter_reports.items()},
        "rows": list(rows),
    }
    text = json.dumps(to_json_value(document), indent=2, allow_nan=False)
    path.write_text(text + "\n")
    return path


def recompute_bounds_from_record(record: dict) -> tuple[float, float]:
    """Re-evaluate (fd_bound, rademacher_bound) from a report.json row echo.

    Uses only the row's echoed bound report: its stats, inputs, model config
    and variant. A diverged row has no bounds and raises ValueError.
    """
    echo = record["bounds"]
    if echo is None:
        coordinate = ", ".join(f"{key}={record[key]}" for key in COORDINATE_COLUMNS)
        raise ValueError(f"row {coordinate} diverged: it has no bounds to recompute")
    # A bounded row has no NaN weight (train refuses one), but a weight norm
    # can be inf, which report.json writes as null. A GCN's w3 norm, also
    # null, is never read.
    stats = {name: math.inf if value is None else value for name, value in echo["stats"].items()}
    echoed = from_plain(BoundReport, {**echo, "stats": stats})
    report = report_from_stats(echoed.config, echoed.stats, echoed.inputs, echoed.bounded)
    return report.fd_bound, report.rademacher_bound


# ---------------------------------------------------------------------------
# SVG emission


_SERIES_COLORS = {
    "sym-norm": "#1f77b4",
    "random-walk": "#d62728",
    "mean-agg": "#2ca02c",
    "sum-agg": "#9467bd",
}
_FALLBACK_COLOR = "#555555"

_SVG_WIDTH = 640
_SVG_HEIGHT = 440
_MARGIN_LEFT = 82
_MARGIN_RIGHT = 24
_MARGIN_TOP = 46
_MARGIN_BOTTOM = 64

# Characters XML 1.0 does not allow in a document, escaped or not.
_NON_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _px(value: float) -> str:
    return f"{value:.2f}"


def _svg_text(value: str) -> str:
    return escape(_NON_XML.sub("\ufffd", value))


def trend_svg(summary_rows: Sequence[SummaryRow], title: str) -> str:
    """SVG chart of mean abs_gen_error (x1e5) vs width, one series per filter.

    Error bars span +/-1 sample std; a group with a single seed (std 0) is
    drawn as a point without a bar.
    """
    if not summary_rows:
        raise ValueError("cannot plot an empty summary group")
    series: dict[str, list[SummaryRow]] = {}
    for row in summary_rows:
        series.setdefault(row.filter, []).append(row)
    for rows in series.values():
        rows.sort(key=lambda r: r.width)

    scale = 1e5
    xs = sorted({row.width for row in summary_rows})
    x_lo, x_hi = math.log2(xs[0]), math.log2(xs[-1])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    points = [
        (row.mean_abs_gen_error * scale, row.std_abs_gen_error * scale)
        for row in summary_rows
        if math.isfinite(row.mean_abs_gen_error)
    ]
    y_lo = 0.0
    y_hi = max((v + e for v, e in points), default=1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_px(width: int) -> float:
        return _MARGIN_LEFT + (math.log2(width) - x_lo) / (x_hi - x_lo) * plot_w

    def y_px(value: float) -> float:
        return _MARGIN_TOP + plot_h - (value - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_px(_SVG_WIDTH / 2)}" y="24" text-anchor="middle" font-size="15">{_svg_text(title)}</text>',
    ]

    axis_y = _MARGIN_TOP + plot_h
    # Horizontal gridlines and y tick labels at five even value steps.
    for tick in range(5):
        value = y_lo + (y_hi - y_lo) * tick / 4
        ypix = y_px(value)
        parts.append(
            f'<line x1="{_px(_MARGIN_LEFT)}" y1="{_px(ypix)}" '
            f'x2="{_px(_MARGIN_LEFT + plot_w)}" y2="{_px(ypix)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_px(_MARGIN_LEFT - 8)}" y="{_px(ypix + 4)}" text-anchor="end">{value:.3g}</text>'
        )
    # x ticks at each width actually swept.
    for width in xs:
        xpix = x_px(width)
        parts.append(
            f'<line x1="{_px(xpix)}" y1="{_px(axis_y)}" x2="{_px(xpix)}" y2="{_px(axis_y + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_px(xpix)}" y="{_px(axis_y + 20)}" text-anchor="middle">{width}</text>'
        )
    # Axes.
    parts.append(
        f'<line x1="{_px(_MARGIN_LEFT)}" y1="{_px(_MARGIN_TOP)}" '
        f'x2="{_px(_MARGIN_LEFT)}" y2="{_px(axis_y)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_px(_MARGIN_LEFT)}" y1="{_px(axis_y)}" '
        f'x2="{_px(_MARGIN_LEFT + plot_w)}" y2="{_px(axis_y)}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_px(_MARGIN_LEFT + plot_w / 2)}" y="{_px(_SVG_HEIGHT - 18)}" '
        f'text-anchor="middle">hidden units h (log2 scale)</text>'
    )
    parts.append(
        f'<text x="20" y="{_px(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_px(_MARGIN_TOP + plot_h / 2)})">'
        f"abs generalization error (x1e5)</text>"
    )

    legend_y = _MARGIN_TOP + 10
    for name in sorted(series):
        rows = series[name]
        color = _SERIES_COLORS.get(name, _FALLBACK_COLOR)
        coords = [
            (x_px(r.width), y_px(r.mean_abs_gen_error * scale), r.std_abs_gen_error * scale, r)
            for r in rows
            if math.isfinite(r.mean_abs_gen_error)
        ]
        if len(coords) > 1:
            path = " ".join(f"{_px(cx)},{_px(cy)}" for cx, cy, _, _ in coords)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for cx, cy, err, row in coords:
            if err > 0.0:
                top = y_px(min(row.mean_abs_gen_error * scale + err, y_hi))
                bottom = y_px(max(row.mean_abs_gen_error * scale - err, y_lo))
                parts.append(
                    f'<line x1="{_px(cx)}" y1="{_px(top)}" x2="{_px(cx)}" y2="{_px(bottom)}" '
                    f'stroke="{color}"/>'
                )
                for bar_y in (top, bottom):
                    parts.append(
                        f'<line x1="{_px(cx - 4)}" y1="{_px(bar_y)}" x2="{_px(cx + 4)}" '
                        f'y2="{_px(bar_y)}" stroke="{color}"/>'
                    )
            parts.append(f'<circle cx="{_px(cx)}" cy="{_px(cy)}" r="3.5" fill="{color}"/>')
        # Legend entry.
        lx = _MARGIN_LEFT + plot_w - 130
        parts.append(
            f'<line x1="{_px(lx)}" y1="{_px(legend_y)}" x2="{_px(lx + 22)}" y2="{_px(legend_y)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_px(lx + 28)}" y="{_px(legend_y + 4)}">{_svg_text(name)}</text>')
        legend_y += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# The longest plot file name, in characters, before its digest and suffix:
# file systems take names of up to 255 bytes.
_NAME_CHARS = 200


def _svg_filename(dataset: str, beta: float, model: str, readout: str) -> str:
    """The plot's file name: characters outside [A-Za-z0-9._-] become "_", so
    no dataset name can pick a directory, and then a digest of the raw name;
    a name longer than _NAME_CHARS is cut there, before the digest. beta is
    written in full, so two betas never share a name."""
    name = f"{dataset}_beta{beta!r}_{model}_{readout}"
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    if safe != name or len(safe) > _NAME_CHARS:
        digest = hashlib.sha256(name.encode("utf-8", "surrogatepass")).hexdigest()[:8]
        safe = safe[:_NAME_CHARS] + "_" + digest
    return safe + ".svg"


def write_trend_svgs(summary: Sequence[SummaryRow], out_dir) -> list[Path]:
    """One SVG per (dataset, beta, model, readout) group of the summary."""
    out_dir = Path(out_dir)
    groups: dict[tuple, list[SummaryRow]] = {}
    for row in summary:
        groups.setdefault((row.dataset, row.beta, row.model, row.readout), []).append(row)
    paths = []
    for key in sorted(groups):
        dataset, beta, model, readout = key
        title = f"{dataset}  beta={beta:g}  {model}  {readout} readout"
        path = out_dir / _svg_filename(dataset, beta, model, readout)
        path.write_text(trend_svg(groups[key], title))
        paths.append(path)
    return paths


def emit_reports(
    rows: Sequence[SweepRow],
    out_dir,
    *,
    config: SweepConfig | None = None,
    stats: DatasetStats | None = None,
    filter_reports: dict[FilterKind, FilterNormReport] | None = None,
) -> dict[str, Path]:
    """Write rows.csv, summary.csv, SVG plots, and (when the sweep context is
    available) report.json into out_dir. Returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = aggregate(rows)
    written = {
        "rows": write_rows_csv(rows, out_dir / "rows.csv"),
        "summary": write_summary_csv(summary, out_dir / "summary.csv"),
    }
    if config is not None:
        if stats is None or filter_reports is None:
            raise ValueError("report.json needs dataset stats and filter reports")
        written["report"] = write_report_json(
            out_dir / "report.json", config, stats, filter_reports, rows
        )
    for path in write_trend_svgs(summary, out_dir):
        written[path.name] = path
    return written
