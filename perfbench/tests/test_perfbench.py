"""Tests of the benchmark's own code: percentile rule, self time, masked
digest, failed coordinates and the agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from checks import check_rows, masked_digest, masked_rows
from gnnbound.bounds import BoundInputs, bound_report
from gnnbound.filters import FilterKind
from gnnbound.models import ModelConfig, ModelKind, Readout, init_params
from tracing import Span, Tracer, self_times_ns, totals_by_name

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

ROWS_HEADER = (
    "dataset,beta,model,filter,readout,width,seed,train_risk,test_risk,"
    "abs_gen_error,fd_bound,rademacher_bound,wall_time_s"
)


@pytest.mark.parametrize(
    "n, expected", [(1, None), (19, None), (20, 50), (64, 84), (100, 90), (1000, 99)]
)
def test_tail_percentile_keeps_ten_samples_above(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n * (100 - p) >= 10 * 100
        assert n * (100 - p - 1) < 10 * 100 or p == 99


def _span(span_id, parent_id, start, end):
    return Span(span_id, parent_id, "r", 0, f"s{span_id}", start, end)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 30),
        _span(3, 1, 20, 40),  # overlaps span 2
        _span(4, 1, 90, 120),  # runs past the parent's end
        _span(5, 2, 12, 14),  # grandchild: not a child of span 1
    ]
    selfs = self_times_ns(spans)
    assert selfs[1] == 100 - 30 - 10
    assert selfs[2] == 20 - 2
    assert selfs[5] == 2


def test_tracer_nests_wrapped_calls_and_restores_them():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * module.inner(x)
    tracer = Tracer(run_id="t")
    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer", lambda x: {"x": x})
    assert module.outer(2) == 9
    tracer.restore()
    assert module.outer(2) == 9
    outer, first, second = tracer.spans
    assert outer.parent_id is None and outer.attrs == {"x": 2}
    assert first.parent_id == second.parent_id == outer.span_id
    table = totals_by_name(tracer.spans)
    assert table["layer.inner"]["calls"] == 2 and table["layer.outer"]["calls"] == 1
    assert math.isclose(
        table["layer.outer"]["self_s"],
        table["layer.outer"]["total_s"] - table["layer.inner"]["total_s"],
        abs_tol=1e-12,
    )


def _rows_csv(*cells) -> str:
    return ROWS_HEADER + "\n" + "".join(",".join(row) + "\n" for row in cells)


ROW = ["er5", "0.7", "gcn", "sym-norm", "mean", "4", "0", "0.69", "0.70", "0.01", "0.05", "0.5"]


def test_masked_digest_ignores_only_wall_time():
    first = _rows_csv(ROW + ["0.1234"])
    second = _rows_csv(ROW + ["9.8765"])
    changed = _rows_csv(ROW[:7] + ["0.68"] + ROW[8:] + ["0.1234"])
    assert masked_rows(first)[1].endswith(",0.5,*")
    assert masked_digest(first) == masked_digest(second)
    assert masked_digest(first) != masked_digest(changed)


def _record(model=ModelKind.GCN, width=4) -> dict:
    config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=width)
    params = init_params(config, feature_dim=3, seed=0)
    inputs = BoundInputs(n_train=140, alpha=100.0, n_max=20, b_f=1.0, g_max=1.5, readout=Readout.MEAN)
    report = bound_report(params, config, inputs)
    return {
        "dataset": "er5", "beta": 0.7, "model": model.value, "filter": "sym-norm",
        "readout": "mean", "width": width, "seed": 0, "train_risk": 0.69, "test_risk": 0.7,
        "abs_gen_error": 0.01, "fd_bound": report.fd_bound,
        "rademacher_bound": report.rademacher_bound, "wall_time_s": 0.1,
        "bounds": report.to_dict(),
    }


def _diverged_record() -> dict:
    nan = float("nan")
    record = _record(width=8)
    record.update(train_risk=nan, test_risk=nan, abs_gen_error=nan, fd_bound=nan,
                  rademacher_bound=nan, bounds=None)
    return record


def test_failed_share_counts_a_diverged_row():
    records = [_record(), _diverged_record()]
    check = check_rows(records, _rows_csv(ROW + ["0.1"], ROW + ["0.2"]), expected=2, reference=None)
    assert (check.attempted, check.failed, check.failed / check.attempted) == (2, 1, 0.5)
    assert "row 1" in check.failures[0] and "diverged" in check.failures[0]


def test_rows_failing_bound_recomputation_reference_or_presence():
    good, no_echo, altered = _record(), _record(), _record(ModelKind.MPGNN)
    no_echo["bounds"] = None  # finite values but nothing to recompute from
    altered["fd_bound"] *= 1 + 1e-9
    rows = _rows_csv(ROW + ["0.1"], ROW + ["0.2"], ROW + ["0.3"])
    check = check_rows([good, no_echo, altered], rows, expected=4, reference=None)
    assert check.failed == 3
    assert "do not recompute" in check.failures[0]
    assert "other values" in check.failures[1]
    assert "missing" in check.failures[2]

    reference = masked_rows(_rows_csv(ROW[:7] + ["0.68"] + ROW[8:] + ["0.0"]))
    check = check_rows([good], _rows_csv(ROW + ["0.1"]), expected=1, reference=reference)
    assert check.failed == 1 and "reference" in check.failures[0]
    assert check_rows([good], _rows_csv(ROW + ["0.1"]), 1, masked_rows(_rows_csv(ROW + ["7"]))).failed == 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import NAMES

    assert {w["name"] for w in spec["workloads"]} <= set(NAMES)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sbm1-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
