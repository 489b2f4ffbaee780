"""Output checks: masked rows digest, bound recomputation, reference rows.

A coordinate fails when its row diverged or holds a non-finite value, when
its bounds do not recompute from report.json to rel 1e-12, or, on a seed with
committed reference rows, when its masked row differs from the reference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

from gnnbound.report import recompute_bounds_from_record

WALL_COLUMN = "wall_time_s"
MASK = "*"
REL_TOL = 1e-12
_VALUE_COLUMNS = ("train_risk", "test_risk", "abs_gen_error", "fd_bound", "rademacher_bound")


def masked_rows(rows_csv: str) -> list[str]:
    """The lines of rows.csv, header first, with every wall_time_s cell masked."""
    records = list(csv.reader(io.StringIO(rows_csv)))
    column = records[0].index(WALL_COLUMN)
    lines = []
    for index, record in enumerate(records):
        if index > 0:
            record[column] = MASK
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(record)
        lines.append(out.getvalue())
    return lines


def masked_digest(rows_csv: str) -> str:
    """sha256 of rows.csv with wall_time_s masked: equal iff the results are."""
    return hashlib.sha256(("\n".join(masked_rows(rows_csv)) + "\n").encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def row_failure(record: dict) -> str | None:
    """Why a report.json row fails, or None when it passes."""
    values = [record.get(name) for name in _VALUE_COLUMNS]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "diverged or non-finite"
    try:
        fd, rademacher = recompute_bounds_from_record(record)
    except (TypeError, KeyError, ValueError) as exc:
        return f"bounds do not recompute: {exc!r}"
    if not (_close(fd, record["fd_bound"]) and _close(rademacher, record["rademacher_bound"])):
        return "bounds recompute to other values"
    return None


@dataclass(frozen=True)
class RowCheck:
    """failed counts failing coordinates; failures also names rows beyond the grid."""

    attempted: int
    failed: int
    failures: tuple[str, ...]
    digest: str


def check_rows(
    records: list[dict], rows_csv: str, expected: int, reference: list[str] | None
) -> RowCheck:
    """Check every coordinate of one sweep.

    records are report.json's rows, rows_csv the text of rows.csv and
    expected the number of coordinates in the grid; a missing row fails.
    reference holds the committed masked lines (header first) or None.
    """
    lines = masked_rows(rows_csv)
    failures = []
    for index in range(expected):
        if index >= len(records) or index + 1 >= len(lines):
            failures.append(f"row {index}: missing")
            continue
        reason = row_failure(records[index])
        if reason is None and reference is not None:
            if index + 1 >= len(reference) or lines[index + 1] != reference[index + 1]:
                reason = "masked row differs from reference"
        if reason is not None:
            failures.append(f"row {index} ({lines[index + 1]}): {reason}")
    failed = len(failures)
    if len(records) > expected:
        failures.append(f"{len(records) - expected} rows beyond the {expected} coordinates")
    return RowCheck(attempted=expected, failed=failed, failures=tuple(failures), digest=masked_digest(rows_csv))
