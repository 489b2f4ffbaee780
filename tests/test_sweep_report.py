"""Sweep orchestration, CSV/JSON reporting, SVG plots, and the command line."""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import re
import sys
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import gnnbound.blas as blas_module
import gnnbound.filters as filters_module
import gnnbound.models as models_module
import gnnbound.sweep as sweep_module
import gnnbound.training as training_module
from gnnbound.bounds import BoundInputs, bound_report
from gnnbound.cli import main
from gnnbound.data import GraphDataset, GraphSample, save_dataset, to_json_value
from gnnbound.filters import FilterKind, filter_norm_report
from gnnbound.models import (
    GcnParams,
    ModelConfig,
    ModelKind,
    Nonlinearity,
    Readout,
    init_params,
    save_params,
)
from gnnbound.report import (
    ReportFormatError,
    SummaryRow,
    aggregate,
    emit_reports,
    read_rows_csv,
    recompute_bounds_from_record,
    trend_svg,
    write_rows_csv,
    write_summary_csv,
)
from gnnbound.sweep import (
    GridError,
    SweepConfig,
    SweepRow,
    coordinate_seeds,
    resolve_dataset,
    run_sweep_on,
    setup,
    sweep_coordinates,
)
from gnnbound.training import TrainConfig
from builders import has_one_verdict, nonlinearity_fields, random_dataset
from oracles import run_sweep


def openblas_thread_count():
    """OpenBLAS's thread-count getter from the library NumPy loaded, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            getter = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        return getter
    return None


def tiny_config(**overrides) -> SweepConfig:
    defaults = dict(
        dataset="er5",
        betas=(0.7,),
        widths=(2, 4),
        seeds=(0, 1),
        n_graphs=12,
        feature_dim=2,
        train=TrainConfig(epochs=5, batch_size=8),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def sweep_row(**overrides) -> SweepRow:
    fields = dict(dataset="d", beta=0.7, model="gcn", filter="sym-norm", readout="mean",
                  width=4, seed=0, train_risk=0.1, test_risk=0.2, abs_gen_error=0.1,
                  fd_bound=0.5, rademacher_bound=1.5, wall_time_s=1.0)
    fields.update(overrides)
    return SweepRow(**fields)


def diverged_row(**overrides) -> SweepRow:
    nan = float("nan")
    return sweep_row(train_risk=nan, test_risk=nan, abs_gen_error=nan, fd_bound=nan,
                     rademacher_bound=nan, **overrides)


def row_key(row: SweepRow) -> tuple:
    return (row.dataset, row.beta, row.model, row.filter, row.readout, row.width,
            row.seed, row.train_risk, row.test_risk, row.abs_gen_error,
            row.fd_bound, row.rademacher_bound)


@pytest.fixture(scope="module")
def tiny_rows():
    return run_sweep(tiny_config())


class TestCoordinateSeeds:
    def test_deterministic(self):
        a = coordinate_seeds("er5", 0.7, ModelKind.GCN, FilterKind.SYM_NORM,
                             Readout.MEAN, 4, 0)
        b = coordinate_seeds("er5", 0.7, ModelKind.GCN, FilterKind.SYM_NORM,
                             Readout.MEAN, 4, 0)
        assert a == b
        assert len(a) == 3 and len(set(a)) == 3

    def test_every_coordinate_component_matters(self):
        base = ("er5", 0.7, ModelKind.GCN, FilterKind.SYM_NORM, Readout.MEAN, 4, 0)
        variants = [
            ("er4", 0.7, ModelKind.GCN, FilterKind.SYM_NORM, Readout.MEAN, 4, 0),
            ("er5", 0.9, ModelKind.GCN, FilterKind.SYM_NORM, Readout.MEAN, 4, 0),
            ("er5", 0.7, ModelKind.MPGNN, FilterKind.SYM_NORM, Readout.MEAN, 4, 0),
            ("er5", 0.7, ModelKind.GCN, FilterKind.SUM_AGG, Readout.MEAN, 4, 0),
            ("er5", 0.7, ModelKind.GCN, FilterKind.SYM_NORM, Readout.SUM, 4, 0),
            ("er5", 0.7, ModelKind.GCN, FilterKind.SYM_NORM, Readout.MEAN, 8, 0),
            ("er5", 0.7, ModelKind.GCN, FilterKind.SYM_NORM, Readout.MEAN, 4, 1),
        ]
        reference = coordinate_seeds(*base)
        for variant in variants:
            assert coordinate_seeds(*variant) != reference, variant


class TestSweep:
    def test_row_count_and_canonical_order(self, tiny_rows):
        assert len(tiny_rows) == 4  # 2 widths x 2 seeds
        keys = [(r.beta, r.model, r.filter, r.readout, r.width, r.seed)
                for r in tiny_rows]
        assert keys == sorted(keys)

    def test_coordinates_enumerated_sorted(self):
        config = tiny_config(filters=(FilterKind.SYM_NORM, FilterKind.SUM_AGG))
        coords = sweep_coordinates(config)
        assert len(coords) == 8
        keys = [(c[0], c[1].value, c[2].value, c[3].value, c[4], c[5]) for c in coords]
        assert keys == sorted(keys)

    def test_deterministic_rows(self, tiny_rows):
        again = run_sweep(tiny_config())
        assert [row_key(r) for r in again] == [row_key(r) for r in tiny_rows]

    def test_multi_seed_equals_union_of_single_seeds(self, tiny_rows):
        singles = []
        for seed in (0, 1):
            singles.extend(run_sweep(tiny_config(seeds=(seed,))))
        assert sorted(row_key(r) for r in singles) == sorted(
            row_key(r) for r in tiny_rows
        )

    def test_worker_pool_matches_sequential(self):
        # Widths listed out of order and two models: the pool starts the widest
        # coordinates first, and the rows must still come back in canonical order.
        config = tiny_config(widths=(4, 2, 8), models=(ModelKind.GCN, ModelKind.MPGNN))
        sequential = [row_key(r) for r in run_sweep(config)]
        assert sequential == sorted(sequential) and len(sequential) == 12
        for workers in (2, 3, len(sequential) + 1):
            parallel = run_sweep(dataclasses.replace(config, workers=workers))
            assert [row_key(r) for r in parallel] == sequential, workers

    def test_pool_threads_pin_blas_and_the_caller_keeps_its_count(self, monkeypatch, tiny_rows):
        threads = openblas_thread_count()
        if threads is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        # Two usable CPUs and blocks of 2 rows, so a train on the main thread
        # runs every step on two lanes.
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(models_module, "_BLOCK_BYTES", 2 * 8 * 4)
        seen, steps = [], []
        run_coordinate = sweep_module._run_coordinate
        risk_and_loss_grads = training_module._risk_and_loss_grads

        def recording(*args):
            seen.append(threads())
            return run_coordinate(*args)

        def recording_step(params, stacked, config, grads, workspace):
            steps.append((threads(), len(workspace.runs(len(stacked.rows["w1"])))))
            return risk_and_loss_grads(params, stacked, config, grads, workspace)

        monkeypatch.setattr(sweep_module, "_run_coordinate", recording)
        monkeypatch.setattr(training_module, "_risk_and_loss_grads", recording_step)
        rows = run_sweep(tiny_config(workers=2))
        assert seen == [1] * 4
        assert steps and set(steps) == {(1, 1)}
        assert threads() == before
        seen.clear()
        steps.clear()
        sequential = run_sweep(tiny_config())
        # The whole sweep is pinned, and each train owns the cores.
        assert seen == [1] * 4
        assert steps and set(steps) == {(1, 2)}
        assert threads() == before
        for got in (rows, sequential):
            assert [row_key(r) for r in got] == [row_key(r) for r in tiny_rows]

    def test_overlapping_parallel_sweeps_restore_the_blas_count(self, tiny_rows):
        threads = openblas_thread_count()
        if threads is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        results = {}

        def sweep(name, workers):
            results[name] = run_sweep(tiny_config(workers=workers))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # One sequential sweep among the pools: off the main thread no
            # sweep pins, and every training runs one lane.
            callers = [threading.Thread(target=sweep, args=(i, 1 + i % 3)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert threads() == before
        for rows in results.values():
            assert [row_key(r) for r in rows] == [row_key(r) for r in tiny_rows]
        assert len(results) == 4

    def test_filter_report_ranks_on_one_blas_thread_and_keeps_the_count(self, monkeypatch):
        threads = openblas_thread_count()
        if threads is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        seen = []
        numerical_rank = filters_module.numerical_rank

        def recording(matrix):
            seen.append((threads(), matrix.copy()))
            return numerical_rank(matrix)

        # Six 20-node graphs at two usable CPUs, every graph of full rank:
        # the report ranks graph 0 alone, under the main thread's pin, and
        # nothing more, since no rank can exceed 20.
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(filters_module, "numerical_rank", recording)
        dataset = resolve_dataset("er5", n_graphs=6, feature_dim=3)
        report = filter_norm_report(dataset, FilterKind.SYM_NORM)
        assert report.rank_max == 20
        assert [count for count, _ in seen] == [1]
        first = filters_module.apply_filter(FilterKind.SYM_NORM, dataset[0])
        assert seen[0][1].tobytes() == first.tobytes()
        assert threads() == before
        monkeypatch.undo()
        assert filter_norm_report(dataset, FilterKind.SYM_NORM) == report

    def test_overlapping_filter_reports_and_sweeps_off_the_main_thread_keep_the_count(
        self, tiny_rows
    ):
        # More callers than cores, switching often: none of them is on the
        # main thread, so none may pin or leave a count to restore.
        threads = openblas_thread_count()
        if threads is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        dataset = resolve_dataset("er5", n_graphs=6, feature_dim=3)
        reports, sweeps = [], []

        def caller(i):
            if i % 2:
                reports.extend(filter_norm_report(dataset, kind) for kind in FilterKind)
            else:
                sweeps.append(run_sweep(tiny_config(workers=1 + i % 4)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert threads() == before
        assert blas_module._restore is None
        assert len(reports) == 3 * len(FilterKind) and len(sweeps) == 3
        for rows in sweeps:
            assert [row_key(r) for r in rows] == [row_key(r) for r in tiny_rows]

    def _recording_steps(self, monkeypatch, threads):
        """(OpenBLAS count, lanes) of each step, on two usable CPUs and blocks
        of 2 rows, so a train on lanes runs every step on two."""
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(models_module, "_BLOCK_BYTES", 2 * 8 * 4)
        steps = []
        risk_and_loss_grads = training_module._risk_and_loss_grads

        def recording_step(params, stacked, config, grads, workspace):
            steps.append((threads(), len(workspace.runs(len(stacked.rows["w1"])))))
            return risk_and_loss_grads(params, stacked, config, grads, workspace)

        monkeypatch.setattr(training_module, "_risk_and_loss_grads", recording_step)
        return steps

    @staticmethod
    def _train_tiny():
        dataset = resolve_dataset("er5", n_graphs=6, feature_dim=3)
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=4)
        params = init_params(config, dataset.feature_dim, seed=0)
        return training_module.train(params, dataset, TrainConfig(epochs=2, batch_size=6), config)

    def test_train_on_the_main_thread_runs_lanes_under_a_pin(self, monkeypatch):
        threads = openblas_thread_count()
        if threads is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        steps = self._recording_steps(monkeypatch, threads)
        self._train_tiny()
        assert steps and set(steps) == {(1, 2)}
        assert threads() == before and blas_module._restore is None

    def test_train_off_the_main_thread_runs_one_lane_and_keeps_the_count(self, monkeypatch):
        threads = openblas_thread_count()
        if threads is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        steps = self._recording_steps(monkeypatch, threads)
        results = []
        caller = threading.Thread(target=lambda: results.append(self._train_tiny()))
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive() and len(results) == 1
        assert steps and set(steps) == {(before, 1)}
        assert threads() == before
        monkeypatch.undo()
        trained, history = self._train_tiny()
        assert history == results[0][1]
        assert all(np.array_equal(getattr(trained, name), getattr(results[0][0], name))
                   for name in ("w1", "w2"))

    def test_a_pin_nested_in_a_pin_restores_the_count_once_at_the_outer_exit(self, monkeypatch):
        threads = openblas_thread_count()
        setter = blas_module._openblas_thread_setter()
        if threads is None or setter is None:
            pytest.skip("NumPy does not use OpenBLAS")
        before = threads()
        calls = []

        def recording(count):
            calls.append(count)
            return setter(count)

        monkeypatch.setattr(blas_module, "_openblas_thread_setter", lambda: recording)
        with blas_module.single_threaded_blas():
            with blas_module.single_threaded_blas():
                assert threads() == 1
            assert threads() == 1 and calls == [1]
        assert calls == [1, before]
        assert threads() == before and blas_module._restore is None

    def test_rows_carry_bound_reports(self, tiny_rows):
        for row in tiny_rows:
            assert row.bounds is not None
            assert row.fd_bound == row.bounds.fd_bound
            assert row.fd_bound >= 0
            assert math.isfinite(row.wall_time_s) and row.wall_time_s >= 0

    def test_divergent_run_yields_nan_row(self):
        config = tiny_config(
            widths=(2,), seeds=(0,),
            models=(ModelKind.GCN,), filters=(FilterKind.SUM_AGG,),
            readouts=(Readout.SUM,),
            train=TrainConfig(learning_rate=1e12, epochs=120, batch_size=8),
        )
        rows = run_sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert math.isnan(row.train_risk) and math.isnan(row.abs_gen_error)
        assert math.isnan(row.fd_bound)
        assert row.bounds is None
        assert row.diverged

    def test_a_row_the_risk_forward_cannot_hold_is_diverged_everywhere(self):
        # At lr 1e54 most runs finish training with weights whose risk
        # forward overflows; the rest train or diverge in training.
        config = tiny_config(
            n_graphs=5, feature_dim=16, widths=(1, 8), seeds=(0, 1, 2),
            models=tuple(ModelKind), filters=tuple(FilterKind), readouts=tuple(Readout),
            train=TrainConfig(learning_rate=1e54, epochs=3, batch_size=2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_sweep(config)
        assert len(rows) == 96
        assert all(has_one_verdict(row) for row in rows)
        assert 0 < sum(row.bounds is None for row in rows) < len(rows)

    def test_resolve_dataset_prefers_presets_then_files(self, tmp_path, rng):
        preset = resolve_dataset("er5", n_graphs=3, feature_dim=2)
        assert len(preset) == 3 and preset.name == "er5"
        from gnnbound.data import save_dataset
        path = tmp_path / "saved.json"
        save_dataset(preset, path)
        loaded = resolve_dataset(str(path))
        assert len(loaded) == 3
        with pytest.raises((ValueError, OSError)):
            resolve_dataset(str(tmp_path / "missing.json"))


class TestSweepConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"betas": ()},
        {"widths": ()},
        {"seeds": ()},
        {"widths": (0,)},
        {"betas": (1.0,)},
        {"workers": 0},
        {"n_graphs": 1},
        {"delta": 2.0},
        {"delta": math.nan},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

    @pytest.mark.parametrize("name, values", [
        ("betas", (0.7, 0.7)),
        ("widths", (4, 4)),
        ("seeds", (0, 1, 0)),
        ("models", (ModelKind.GCN, ModelKind.GCN)),
        ("filters", (FilterKind.SYM_NORM, FilterKind.SYM_NORM)),
        ("readouts", (Readout.SUM, Readout.SUM)),
    ])
    def test_repeated_grid_value_rejected_by_field_name(self, name, values):
        # A repeated value would run identical rows and count them as seeds.
        with pytest.raises(ValueError, match=f"^{name} "):
            tiny_config(**{name: values})

    @pytest.mark.parametrize("name, value", [("seeds", (0, -1)), ("data_seed", -3)])
    def test_negative_seed_rejected_by_field_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            tiny_config(**{name: value})

    @pytest.mark.parametrize("name, values, message", [
        ("widths", (4, 0), "widths must be >= 1"),
        ("seeds", (-1,), "seeds must be >= 0"),
        ("betas", (0.7, 1.0), "betas must lie strictly between 0 and 1"),
        ("betas", (math.nan,), "betas must lie strictly between 0 and 1"),
    ])
    def test_grid_value_outside_its_rule_rejected_with_the_rule(self, name, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(**{name: values})

    def test_preset_beta_that_cannot_split_rejected_by_field_name(self):
        # 12 graphs at beta 0.97 round to 12 training graphs and no test graph.
        with pytest.raises(GridError, match="^betas must split the dataset: beta_sup=0.97 "):
            tiny_config(betas=(0.7, 0.97))

    def test_file_beta_that_cannot_split_rejected_before_stats(self, tmp_path, rng,
                                                               monkeypatch):
        path = tmp_path / "four.json"
        save_dataset(random_dataset(rng, 4, 2), path)
        monkeypatch.setattr(sweep_module, "dataset_stats", None)
        with pytest.raises(GridError, match="^betas must split the dataset: beta_sup=0.9 "):
            setup(tiny_config(dataset=str(path), betas=(0.5, 0.9)))

    def test_preset_only_keys_are_checked_for_presets_alone(self):
        keys = dict(n_graphs=1, data_seed=-1, feature_dim=0)
        assert tiny_config(dataset="data.json", **keys).n_graphs == 1
        for name, value in keys.items():
            with pytest.raises(ValueError, match=f"^{name} must be"):
                tiny_config(**{name: value})

    def test_json_value_is_json_ready(self):
        text = json.dumps(to_json_value(tiny_config()))
        assert "er5" in text


class TestSweepRowValidation:
    @pytest.mark.parametrize("column, value, rule", [
        ("beta", 0.0, "must lie strictly between 0 and 1"),
        ("beta", 1.0, "must lie strictly between 0 and 1"),
        ("beta", math.nan, "must lie strictly between 0 and 1"),
        ("model", "gat", "must be one of: gcn, mpgnn"),
        ("filter", "x", "must be one of: sym-norm, random-walk, mean-agg, sum-agg"),
        ("readout", "max", "must be one of: mean, sum"),
        ("width", 0, "must be >= 1"),
        ("seed", -1, "must be >= 0"),
        ("train_risk", -0.1, "must be >= 0"),
        ("test_risk", -0.1, "must be >= 0"),
        ("abs_gen_error", -1e-300, "must be >= 0"),
        ("fd_bound", -math.inf, "must be >= 0"),
        ("rademacher_bound", -1.0, "must be >= 0"),
        ("wall_time_s", -0.5, "must be >= 0"),
    ])
    def test_value_outside_its_column_rule_rejected_by_column(self, column, value, rule):
        with pytest.raises(ValueError, match=f"^{column} {rule}$"):
            sweep_row(**{column: value})

    def test_any_dataset_name_and_nan_outcomes_pass(self):
        row = diverged_row(dataset="")
        assert row.diverged and row.dataset == ""


class TestRowsCsv:
    def test_round_trip(self, tiny_rows, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(tiny_rows, path)
        back = read_rows_csv(path)
        assert len(back) == len(tiny_rows)
        for a, b in zip(back, tiny_rows):
            assert row_key(a) == row_key(b)
            assert a.wall_time_s == b.wall_time_s
            assert a.bounds is None  # CSV does not carry the nested report

    def test_line_count(self, tiny_rows, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(tiny_rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(tiny_rows) + 1
        assert lines[0] == ("dataset,beta,model,filter,readout,width,seed,"
                            "train_risk,test_risk,abs_gen_error,fd_bound,"
                            "rademacher_bound,wall_time_s")

    def test_nan_rows_survive_round_trip(self, tmp_path):
        row = SweepRow(dataset="x", beta=0.7, model="gcn", filter="sym-norm",
                       readout="mean", width=2, seed=0, train_risk=float("nan"),
                       test_risk=float("nan"), abs_gen_error=float("nan"),
                       fd_bound=float("nan"), rademacher_bound=float("nan"),
                       wall_time_s=0.5)
        path = tmp_path / "nan.csv"
        write_rows_csv([row], path)
        back = read_rows_csv(path)[0]
        assert math.isnan(back.train_risk) and math.isnan(back.fd_bound)
        assert back.width == 2

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,header\n1,2\n")
        with pytest.raises(ReportFormatError):
            read_rows_csv(path)

    def test_repeated_coordinate_rejected_with_both_lines(self, tmp_path):
        # A different dataset or wall time does not make a coordinate new.
        rows = [sweep_row(seed=0), sweep_row(seed=1), sweep_row(dataset="e", seed=1),
                sweep_row(seed=1, test_risk=0.3, wall_time_s=2.0)]
        path = write_rows_csv(rows, tmp_path / "rows.csv")
        with pytest.raises(ReportFormatError,
                           match=f"^{re.escape(str(path))}:5: repeats the coordinate of line 3$"):
            read_rows_csv(path)
        assert len(read_rows_csv(write_rows_csv(rows[:3], tmp_path / "ok.csv"))) == 3

    def test_malformed_line_rejected(self, tiny_rows, tmp_path):
        path = tmp_path / "short.csv"
        write_rows_csv(tiny_rows, path)
        content = path.read_text().splitlines()
        content.append("only,three,fields")
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ReportFormatError):
            read_rows_csv(path)


class TestAggregate:
    def _row(self, width, seed, gen, fd=0.5, rad=1.5):
        return SweepRow(dataset="d", beta=0.7, model="gcn", filter="sym-norm",
                        readout="mean", width=width, seed=seed, train_risk=0.1,
                        test_risk=0.1 + gen, abs_gen_error=gen, fd_bound=fd,
                        rademacher_bound=rad, wall_time_s=1.0)

    def test_mean_and_sample_std(self):
        rows = [self._row(4, 0, 1.0), self._row(4, 1, 3.0)]
        summary = aggregate(rows)
        assert len(summary) == 1
        s = summary[0]
        assert s.n_seeds == 2
        assert s.mean_abs_gen_error == 2.0
        assert s.std_abs_gen_error == pytest.approx(1.4142135623730951, rel=1e-15)

    def test_single_seed_std_is_zero(self):
        summary = aggregate([self._row(4, 0, 1.0)])
        assert summary[0].std_abs_gen_error == 0.0

    def test_row_order_does_not_change_output(self):
        rows = [self._row(4, 0, 1.0), self._row(4, 1, 3.0),
                self._row(8, 0, 0.25), self._row(8, 1, 0.75)]
        forward = aggregate(rows)
        backward = aggregate(list(reversed(rows)))
        assert forward == backward

    def test_groups_sorted_by_coordinates(self):
        rows = [self._row(8, 0, 1.0), self._row(4, 0, 1.0)]
        summary = aggregate(rows)
        assert [s.width for s in summary] == [4, 8]

    def test_diverged_seeds_are_counted_not_averaged(self):
        [s] = aggregate([self._row(4, 0, 0.1), diverged_row(seed=1)])
        assert (s.n_seeds, s.n_diverged) == (2, 1)
        assert s.mean_abs_gen_error == 0.1 and s.std_abs_gen_error == 0.0
        assert s.mean_fd_bound == 0.5 and s.mean_rademacher_bound == 1.5

    def test_group_of_diverged_seeds_has_nan_means(self):
        [s] = aggregate([diverged_row(seed=0), diverged_row(seed=1)])
        assert (s.n_seeds, s.n_diverged) == (2, 2)
        assert math.isnan(s.mean_abs_gen_error) and math.isnan(s.mean_fd_bound)
        assert "circle" not in trend_svg([s], title="t")


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    config = tiny_config()
    dataset, stats, filter_reports = setup(config)
    rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
    paths = emit_reports(rows, out, config=config, stats=stats,
                         filter_reports=filter_reports)
    return rows, paths


class TestEmitReports:
    def test_all_files_exist(self, emitted):
        _, paths = emitted
        for name in ("rows", "summary", "report"):
            assert paths[name].is_file(), name
        svgs = [p for name, p in paths.items() if name.endswith(".svg")]
        assert svgs and all(p.is_file() for p in svgs)

    def test_summary_matches_reaggregated_rows(self, emitted, tmp_path):
        rows, paths = emitted
        back = read_rows_csv(paths["rows"])
        redone = tmp_path / "summary2.csv"
        write_summary_csv(aggregate(back), redone)
        assert redone.read_bytes() == paths["summary"].read_bytes()

    def test_report_json_recomputes_bounds(self, emitted):
        _, paths = emitted
        document = json.loads(paths["report"].read_text())
        assert document["config"]["dataset"] == "er5"
        assert document["dataset_stats"]["n_graphs"] == 12
        assert "sym-norm" in document["filters"]
        assert len(document["rows"]) == 4
        for record in document["rows"]:
            fd, rad = recompute_bounds_from_record(record)
            assert fd == record["fd_bound"]
            assert rad == record["rademacher_bound"]

    def test_report_json_recomputes_bounds_on_a_feature_row_of_norm_near_float64_max(
        self, rng, tmp_path
    ):
        # The row [1e308, 1e308] has norm 1.41e308, whose squares overflow.
        first, *rest = random_dataset(rng, 4, 2)
        features = first.features.copy()
        features[0] = 1e308
        huge = GraphSample(adjacency=first.adjacency, features=features, label=first.label)
        save_dataset(GraphDataset.from_samples([huge, *rest], name="huge"), tmp_path / "huge.json")
        config = tiny_config(dataset=str(tmp_path / "huge.json"), seeds=(0,))
        dataset, stats, filter_reports = setup(config)
        assert stats.b_f == pytest.approx(math.hypot(1e308, 1e308), rel=1e-15)
        rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
        paths = emit_reports(rows, tmp_path, config=config, stats=stats,
                             filter_reports=filter_reports)
        records = json.loads(paths["report"].read_text())["rows"]
        assert len(records) == 2
        for record in records:
            assert recompute_bounds_from_record(record) == (
                record["fd_bound"], record["rademacher_bound"])

    def test_diverged_row_is_null_in_report_json(self, tmp_path):
        config = tiny_config(widths=(2,), seeds=(0,),
                             train=TrainConfig(learning_rate=1e200, epochs=5, batch_size=8))
        dataset, stats, filter_reports = setup(config)
        rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
        assert rows[0].diverged
        paths = emit_reports(rows, tmp_path, config=config, stats=stats,
                             filter_reports=filter_reports)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        record = json.loads(paths["report"].read_text(), parse_constant=reject)["rows"][0]
        for column in ("train_risk", "test_risk", "abs_gen_error", "fd_bound",
                       "rademacher_bound", "bounds"):
            assert record[column] is None, column
        with pytest.raises(ValueError, match="width=2, seed=0 diverged"):
            recompute_bounds_from_record(record)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("nonlinearity", [Nonlinearity.SIGMOID_CENTERED, Nonlinearity.IDENTITY])
    def test_bounds_recompute_for_any_model_config(self, model, nonlinearity):
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=4,
                             readout=Readout.SUM,
                             **dict.fromkeys(nonlinearity_fields(model), nonlinearity))
        inputs = BoundInputs(n_train=140, alpha=100.0, n_max=20, b_f=1.0, g_max=1.5,
                             readout=Readout.SUM)
        report = bound_report(init_params(config, 3, seed=0), config, inputs)
        row = sweep_row(model=model.value, readout="sum", fd_bound=report.fd_bound,
                        rademacher_bound=report.rademacher_bound, bounds=report)
        record = json.loads(json.dumps(to_json_value(row)))
        fd, rad = recompute_bounds_from_record(record)
        assert fd == pytest.approx(report.fd_bound, rel=1e-12)
        assert rad == pytest.approx(report.rademacher_bound, rel=1e-12)

    def test_sanitised_dataset_names_keep_distinct_svgs(self, tmp_path):
        paths = emit_reports([sweep_row(dataset="a/b"), sweep_row(dataset="a_b")], tmp_path)
        svgs = sorted(name for name in paths if name.endswith(".svg"))
        assert len(svgs) == 2 and "a_b_beta0.7_gcn_mean.svg" in svgs
        assert all(ET.parse(paths[name]).getroot().tag.endswith("svg") for name in svgs)

    @pytest.mark.parametrize("name", ["sub/dir", "../x"])
    def test_dataset_name_cannot_choose_where_svgs_go(self, tmp_path, name):
        out = tmp_path / "out"
        paths = emit_reports([sweep_row(dataset=name)], out)
        svgs = [path for key, path in paths.items() if key.endswith(".svg")]
        assert len(svgs) == 1
        for path in paths.values():
            assert path.is_file() and path.resolve().parent == out.resolve()

    def test_svg_well_formed_with_series(self, emitted):
        _, paths = emitted
        svg_path = next(p for name, p in paths.items() if name.endswith(".svg"))
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        body = svg_path.read_text()
        assert "polyline" in body  # two widths -> a connected series
        assert "circle" in body


class TestTrendSvg:
    def _summary(self, width, mean, std):
        return SummaryRow(dataset="d", beta=0.7, model="gcn", filter="sym-norm",
                          readout="mean", width=width, n_seeds=2, n_diverged=0,
                          mean_train_risk=0.1, mean_test_risk=0.2,
                          mean_abs_gen_error=mean, std_abs_gen_error=std,
                          mean_fd_bound=0.5, std_fd_bound=0.0,
                          mean_rademacher_bound=1.0, std_rademacher_bound=0.0)

    def test_error_bars_only_when_std_positive(self):
        with_bars = trend_svg([self._summary(4, 1e-4, 5e-5),
                               self._summary(8, 5e-5, 2e-5)], title="t")
        without_bars = trend_svg([self._summary(4, 1e-4, 0.0),
                                  self._summary(8, 5e-5, 0.0)], title="t")
        assert with_bars.count("<line") > without_bars.count("<line")
        ET.fromstring(with_bars)
        ET.fromstring(without_bars)

    def test_title_embedded(self):
        svg = trend_svg([self._summary(4, 1e-4, 0.0)], title="my plot title")
        assert "my plot title" in svg

    def test_markup_in_title_and_legend_is_escaped(self):
        summary = [dataclasses.replace(self._summary(4, 0.1, 0.0), dataset="a<b & c",
                                       filter='x"<y>')]
        root = ET.fromstring(trend_svg(summary, "a<b & c"))
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b & c" in texts and 'x"<y>' in texts

    def test_characters_xml_forbids_are_replaced(self):
        summary = [dataclasses.replace(self._summary(4, 0.1, 0.0), dataset="a\x01b",
                                       filter="f\x00\ud800")]
        root = ET.fromstring(trend_svg(summary, "a\x01b"))
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a\ufffdb" in texts and "f\ufffd\ufffd" in texts

    def test_single_point_has_no_polyline(self):
        svg = trend_svg([self._summary(4, 1e-4, 0.0)], title="t")
        assert "polyline" not in svg
        assert "circle" in svg


class TestCli:
    def _write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_gen_data_preset_and_filters(self, tmp_path, capsys):
        out = tmp_path / "er5.json"
        assert main(["gen-data", "er5", "--out", str(out), "--n-graphs", "6",
                     "--feature-dim", "2"]) == 0
        from gnnbound.data import load_dataset
        ds = load_dataset(out)
        assert len(ds) == 6 and ds.feature_dim == 2
        capsys.readouterr()

        assert main(["filters", "--dataset", str(out), "--kind", "sym-norm"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "sym-norm"
        assert report["g_max"] > 0

    def test_gen_data_from_spec_file(self, tmp_path, capsys):
        spec = self._write(tmp_path / "gen.cfg", "\n".join([
            "model = sbm",
            "block_sizes = 3, 4",
            "edge_prob = 0.9 0.2; 0.2 0.8",
            "n_graphs = 5",
            "feature_dim = 2",
            "name = custom-sbm",
        ]))
        out = tmp_path / "custom.json"
        assert main(["gen-data", spec, "--out", str(out), "--seed", "3"]) == 0
        from gnnbound.data import load_dataset
        ds = load_dataset(out)
        assert ds.name == "custom-sbm"
        assert len(ds) == 5
        assert ds[0].node_count == 7
        capsys.readouterr()

    def test_gen_data_size_flags_override_only_their_own_spec_fields(self, tmp_path, capsys):
        spec = self._write(tmp_path / "gen.cfg", "\n".join([
            "model = er", "nodes = 4", "edge_prob = 0.5", "n_graphs = 3", "feature_dim = 4",
        ]))
        out = tmp_path / "ds.json"

        def generated(*flags):
            assert main(["gen-data", spec, "--out", str(out), *flags]) == 0
            from gnnbound.data import load_dataset
            ds = load_dataset(out)
            return len(ds), ds.feature_dim

        assert generated() == (3, 4)
        assert generated("--n-graphs", "5") == (5, 4)
        assert generated("--feature-dim", "2") == (3, 2)
        assert generated("--n-graphs", "5", "--feature-dim", "2") == (5, 2)
        capsys.readouterr()

    def test_train_command_prints_run(self, tmp_path, capsys):
        config = self._write(tmp_path / "train.cfg", "\n".join([
            "dataset = er5",
            "n_graphs = 12",
            "feature_dim = 2",
            "beta = 0.7",
            "model = gcn",
            "filter = sym-norm",
            "readout = mean",
            "width = 2",
            "seed = 0",
            "epochs = 3",
            "batch_size = 8",
        ]))
        assert main(["train", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "train_risk = " in out
        assert "fd_bound = " in out

    def test_sweep_then_report_round_trip(self, tmp_path, capsys):
        config = self._write(tmp_path / "sweep.cfg", "\n".join([
            "dataset = er5",
            "n_graphs = 12",
            "feature_dim = 2",
            "betas = 0.7",
            "widths = 2, 4",
            "seeds = 0, 1",
            "epochs = 3",
            "batch_size = 8",
        ]))
        sweep_dir = tmp_path / "sweep_out"
        assert main(["sweep", "--config", config, "--out", str(sweep_dir)]) == 0
        capsys.readouterr()
        report_dir = tmp_path / "report_out"
        assert main(["report", "--rows", str(sweep_dir / "rows.csv"),
                     "--out", str(report_dir)]) == 0
        capsys.readouterr()
        assert (report_dir / "summary.csv").read_bytes() == (
            sweep_dir / "summary.csv"
        ).read_bytes()
        assert (report_dir / "rows.csv").read_bytes() == (
            sweep_dir / "rows.csv"
        ).read_bytes()

    def test_bounds_command_zero_params(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.json"
        assert main(["gen-data", "er5", "--out", str(dataset_path), "--n-graphs", "8",
                     "--feature-dim", "2"]) == 0
        capsys.readouterr()
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=3)
        params = GcnParams(w1=np.zeros((3, 2)), w2=np.zeros(3))
        params_path = tmp_path / "params.json"
        save_params(params, params_path)
        assert main(["bounds", "--params", str(params_path),
                     "--dataset", str(dataset_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fd_bound"] == 0.0
        assert report["variant"].startswith("gcn-")

    def test_all_zero_features_give_zero_fd_bounds(self, tmp_path, capsys):
        # b_F = 0: every output is 0, so the gap and the fd bound are 0.
        graph = {"n": 3, "edges": [[0, 1], [1, 2]], "features": [[0.0, 0.0]] * 3}
        dataset_path = self._write(tmp_path / "zeros.json", json.dumps({
            "name": "zeros", "feature_dim": 2,
            "graphs": [{**graph, "label": label} for label in (1, -1, 1, -1)],
        }))
        config = self._write(tmp_path / "sweep.cfg", "\n".join([
            f"dataset = {dataset_path}",
            "betas = 0.5",
            "widths = 2",
            "seeds = 0",
            "models = gcn, mpgnn",
            "filters = sym-norm",
            "readouts = mean, sum",
            "epochs = 2",
            "batch_size = 2",
        ]))
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 0
        rows = read_rows_csv(tmp_path / "out" / "rows.csv")
        assert len(rows) == 4
        assert all(row.fd_bound == 0.0 and row.abs_gen_error == 0.0 for row in rows)
        params_path = tmp_path / "params.json"
        save_params(GcnParams(w1=np.ones((3, 2)), w2=np.ones(3)), params_path)
        capsys.readouterr()
        assert main(["bounds", "--params", str(params_path), "--dataset", dataset_path]) == 0
        assert json.loads(capsys.readouterr().out)["fd_bound"] == 0.0

    def test_bounds_command_rejects_beta_that_empties_the_test_split(self, tmp_path, capsys):
        # 4 graphs at beta 0.9 round to 4 training graphs, as split_dataset refuses.
        dataset_path = tmp_path / "ds.json"
        assert main(["gen-data", "er5", "--out", str(dataset_path), "--n-graphs", "4",
                     "--feature-dim", "2"]) == 0
        params_path = tmp_path / "params.json"
        save_params(GcnParams(w1=np.zeros((3, 2)), w2=np.zeros(3)), params_path)
        config = self._write(tmp_path / "bounds.cfg", "beta = 0.9\n")
        capsys.readouterr()
        assert main(["bounds", "--params", str(params_path), "--dataset", str(dataset_path),
                     "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("train", "dataset = er5\nlr = -1\n", "lr"),
        ("sweep", "dataset = er5\nworkers = 0\n", "workers"),
        ("sweep", "dataset = er5\nwidths = 4, 4\n", "widths"),
        ("gen-data", "model = er\nnodes = 0\nedge_prob = 0.5\n", "nodes"),
    ], ids=["train-lr", "sweep-workers", "sweep-widths", "gen-data-nodes"])
    def test_value_its_config_rejects_names_file_and_key(self, tmp_path, capsys, command,
                                                         text, key):
        config = self._write(tmp_path / "run.cfg", text)
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--config", config],
            "sweep": ["sweep", "--config", config, "--out", out],
            "gen-data": ["gen-data", config, "--out", out],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: {key}: ")

    @pytest.mark.parametrize("dataset, text, key, n_graphs", [
        ("file", "betas = 0.5, 0.9\nwidths = 4, 64", "betas", 4),
        ("file", "beta = 0.9", "beta", 4),
        ("sbm1", "betas = 0.7, 0.999\nwidths = 4, 64", "betas", 200),
    ], ids=["sweep-file", "train-file", "sweep-preset"])
    def test_beta_that_cannot_split_is_named_before_anything_trains(
        self, tmp_path, capsys, monkeypatch, dataset, text, key, n_graphs,
    ):
        trained = []

        def no_train(*args, **kwargs):
            trained.append(args)
            raise AssertionError("a coordinate trained")

        monkeypatch.setattr(sweep_module, "train", no_train)
        if dataset == "file":
            dataset = str(tmp_path / "ds.json")
            assert main(["gen-data", "er5", "--out", dataset, "--n-graphs", str(n_graphs),
                         "--feature-dim", "2"]) == 0
        config = self._write(tmp_path / "run.cfg", f"dataset = {dataset}\n{text}\nepochs = 2\n")
        out = tmp_path / "out"
        argv = {"betas": ["sweep", "--config", config, "--out", str(out)],
                "beta": ["train", "--config", config]}[key]
        capsys.readouterr()
        assert main(argv) == 1
        beta = text.split("\n")[0].rsplit(" ", 1)[1]
        assert capsys.readouterr().err == (
            f"error: {config}: {key}: betas must split the dataset: beta_sup={beta} with "
            f"{n_graphs} samples leaves an empty train or test split\n"
        )
        assert trained == [] and not out.exists()

    def test_bounds_names_the_beta_that_cannot_split_a_file(self, tmp_path, capsys):
        dataset = str(tmp_path / "ds.json")
        assert main(["gen-data", "er5", "--out", dataset, "--n-graphs", "4",
                     "--feature-dim", "2"]) == 0
        params = tmp_path / "params.json"
        save_params(GcnParams(w1=np.zeros((3, 2)), w2=np.zeros(3)), params)
        config = self._write(tmp_path / "bounds.cfg", "beta = 0.999\n")
        capsys.readouterr()
        assert main(["bounds", "--params", str(params), "--dataset", dataset,
                     "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: beta: betas must split the dataset: beta_sup=0.999 with 4 "
            "samples leaves an empty train or test split\n"
        )

    def test_report_refuses_a_repeated_coordinate(self, tmp_path, capsys):
        sweep_dir = tmp_path / "sweep"
        config = self._write(tmp_path / "sweep.cfg",
                             "dataset = er5\nbetas = 0.7\nwidths = 4\nseeds = 0, 1\nepochs = 2\n")
        assert main(["sweep", "--config", config, "--out", str(sweep_dir)]) == 0
        rows = sweep_dir / "rows.csv"
        lines = rows.read_text().splitlines(keepends=True)
        rows.write_text("".join(lines + lines[-1:]))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["report", "--rows", str(rows), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {rows}:4: repeats the coordinate of line 3\n"
        )
        assert not out.exists()

    def test_workers_flag_rejected_by_name(self, tmp_path, capsys):
        config = self._write(tmp_path / "sweep.cfg", "dataset = er5\n")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o"),
                     "--workers", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: --workers: ")

    def test_unknown_preset_fails_cleanly(self, tmp_path, capsys):
        assert main(["gen-data", "not-a-preset", "--out", str(tmp_path / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        config = self._write(tmp_path / "bad.cfg", "dataset = er5\nbogus_key = 1\n")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "bogus_key" in err

    def test_duplicate_config_key_fails(self, tmp_path, capsys):
        config = self._write(tmp_path / "dup.cfg", "dataset = er5\ndataset = er4\n")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
