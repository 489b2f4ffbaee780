"""Sweep reports: rows.csv, summary.csv, report.json, and SVG trend plots.

Floats are written with Python's shortest round-trip repr, so parsing a CSV
back yields bit-identical values and re-aggregating a parsed rows.csv
reproduces summary.csv byte for byte. Aggregation sorts each group's values
before summing, which makes the statistics invariant to row order.

The SVG plots are written element by element through one writer, _element,
with no plotting dependency: one file per (dataset, beta, model, readout),
mean absolute generalization error (scaled by 1e5) against width on a log2
axis, one series per graph filter, +/-1 sample-std error bars.
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
from .sweep import COORDINATE_COLUMNS, ROW_COLUMNS, SweepConfig, SweepRow


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


def read_rows_csv(path) -> list[SweepRow]:
    """The rows of a rows.csv. A line whose values SweepRow refuses, or that
    repeats an earlier line's coordinate, raises ReportFormatError naming it."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != ROW_COLUMNS:
            raise ReportFormatError(
                f"{path}: expected header {','.join(ROW_COLUMNS)}, got {header}"
            )
        rows = []
        # Each coordinate's line: a sweep writes one row per coordinate, and
        # a second would count as another seed.
        lines: dict[tuple, int] = {}
        # A record is numbered by the file line it starts on: a quoted cell
        # may hold line breaks.
        next_line = reader.line_num + 1
        for record in reader:
            line_no, next_line = next_line, reader.line_num + 1
            if len(record) != len(ROW_COLUMNS):
                raise ReportFormatError(f"{path}:{line_no}: expected {len(ROW_COLUMNS)} cells")
            try:
                row = from_plain(SweepRow, dict(zip(ROW_COLUMNS, record)))
            except ValueError as exc:
                raise ReportFormatError(f"{path}:{line_no}: {exc}") from exc
            first = lines.setdefault(tuple(getattr(row, c) for c in COORDINATE_COLUMNS), line_no)
            if first != line_no:
                raise ReportFormatError(f"{path}:{line_no}: repeats the coordinate of line {first}")
            rows.append(row)
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
    and bounded flag. A diverged row has no bounds and raises ValueError.
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
# The plot area's edges, inside margins of 82, 24, 46 and 64: floats, so that
# the element writer writes every position drawn from them to two decimals.
_LEFT, _RIGHT = 82.0, _SVG_WIDTH - 24.0
_TOP, _BOTTOM = 46.0, _SVG_HEIGHT - 64.0

# Characters XML 1.0 does not allow in a document, escaped or not.
_NON_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _px(value: float) -> str:
    return f"{value:.2f}"


def _svg_text(value: str) -> str:
    return escape(_NON_XML.sub("\ufffd", value))


def _element(tag: str, body: str | list[str] | None = None, **attrs) -> str:
    """One SVG element, the one place that formats an attribute or escapes text: a
    float attribute is written to two decimals, any other value as str, and a "_" in
    an attribute name as "-". A str body is text, escaped through _svg_text; a list
    body is child elements, one per line; an element without a body closes itself."""
    head = tag + "".join(
        f' {name.replace("_", "-")}="{_px(value) if isinstance(value, float) else value}"'
        for name, value in attrs.items()
    )
    if body is None:
        return f"<{head}/>"
    if isinstance(body, list):
        return "\n".join([f"<{head}>", *body, f"</{tag}>"])
    return f"<{head}>{_svg_text(body)}</{tag}>"


def trend_svg(summary_rows: Sequence[SummaryRow], title: str) -> str:
    """SVG chart of mean abs_gen_error (x1e5) vs width, one series per filter.

    Error bars span +/-1 sample std; a group with a single seed (std 0) is
    drawn as a point without a bar.
    """
    if not summary_rows:
        raise ValueError("cannot plot an empty summary group")
    # Each filter's (width, mean, std) points, x1e5, by width. A filter whose
    # every mean is NaN (all seeds diverged) keeps its legend entry.
    series: dict[str, list[tuple[int, float, float]]] = {row.filter: [] for row in summary_rows}
    for row in sorted(summary_rows, key=lambda r: r.width):
        if math.isfinite(row.mean_abs_gen_error):
            series[row.filter].append(
                (row.width, row.mean_abs_gen_error * 1e5, row.std_abs_gen_error * 1e5)
            )
    xs = sorted({row.width for row in summary_rows})
    x_lo, x_hi = math.log2(xs[0]), math.log2(xs[-1])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    # The y axis runs from 0 to 5 % above the highest error bar.
    y_hi = max((mean + std for points in series.values() for _, mean, std in points), default=1.0)
    y_hi = (1.0 if y_hi <= 0.0 else y_hi) * 1.05
    # Each swept width's x position, on a log2 axis.
    xpix = {w: _LEFT + (math.log2(w) - x_lo) / (x_hi - x_lo) * (_RIGHT - _LEFT) for w in xs}

    def y_px(value: float) -> float:
        return _BOTTOM - value / y_hi * (_BOTTOM - _TOP)

    parts = [
        _element("rect", width=_SVG_WIDTH, height=_SVG_HEIGHT, fill="white"),
        _element("text", title, x=_SVG_WIDTH / 2, y=24, text_anchor="middle", font_size=15),
    ]
    # Horizontal gridlines and y tick labels at five even value steps.
    for value in (y_hi * tick / 4 for tick in range(5)):
        ypix = y_px(value)
        parts += [
            _element("line", x1=_LEFT, y1=ypix, x2=_RIGHT, y2=ypix, stroke="#dddddd"),
            _element("text", f"{value:.3g}", x=_LEFT - 8, y=ypix + 4, text_anchor="end"),
        ]
    # x ticks at each width actually swept.
    for width, x in xpix.items():
        parts += [
            _element("line", x1=x, y1=_BOTTOM, x2=x, y2=_BOTTOM + 5, stroke="black"),
            _element("text", str(width), x=x, y=_BOTTOM + 20, text_anchor="middle"),
        ]
    # The axes and their labels.
    mid_y = (_TOP + _BOTTOM) / 2
    parts += [
        _element("line", x1=_LEFT, y1=_TOP, x2=_LEFT, y2=_BOTTOM, stroke="black"),
        _element("line", x1=_LEFT, y1=_BOTTOM, x2=_RIGHT, y2=_BOTTOM, stroke="black"),
        _element("text", "hidden units h (log2 scale)", x=(_LEFT + _RIGHT) / 2,
                 y=_SVG_HEIGHT - 18.0, text_anchor="middle"),
        _element("text", "abs generalization error (x1e5)", x=20, y=mid_y, text_anchor="middle",
                 transform=f"rotate(-90 20 {_px(mid_y)})"),
    ]

    lx, ly = _RIGHT - 130, _TOP + 10
    for name, points in sorted(series.items()):
        color = _SERIES_COLORS.get(name, _FALLBACK_COLOR)
        if len(points) > 1:
            path = " ".join(f"{_px(xpix[width])},{_px(y_px(mean))}" for width, mean, _ in points)
            parts.append(
                _element("polyline", points=path, fill="none", stroke=color, stroke_width="1.5")
            )
        for width, mean, std in points:
            cx = xpix[width]
            if std > 0.0:
                top, bottom = y_px(min(mean + std, y_hi)), y_px(max(mean - std, 0.0))
                parts += [_element("line", x1=cx, y1=top, x2=cx, y2=bottom, stroke=color)] + [
                    _element("line", x1=cx - 4, y1=bar_y, x2=cx + 4, y2=bar_y, stroke=color)
                    for bar_y in (top, bottom)
                ]
            parts.append(_element("circle", cx=cx, cy=y_px(mean), r="3.5", fill=color))
        parts += [
            _element("line", x1=lx, y1=ly, x2=lx + 22, y2=ly, stroke=color, stroke_width=2),
            _element("text", name, x=lx + 28, y=ly + 4),
        ]
        ly += 18
    return _element(
        "svg", parts, xmlns="http://www.w3.org/2000/svg", width=_SVG_WIDTH, height=_SVG_HEIGHT,
        viewBox=f"0 0 {_SVG_WIDTH} {_SVG_HEIGHT}", font_family="sans-serif", font_size=12,
    ) + "\n"


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
