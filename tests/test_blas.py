"""blas.on_lanes: the one set of lane threads a process has, which every
multi-lane call of the main thread (a train step, a risk) runs its work on."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import gnnbound.blas as blas_module
import gnnbound.models as models_module
from gnnbound.blas import on_lanes
from gnnbound.filters import FilterKind, filter_norm_report
from gnnbound.models import ModelConfig, ModelKind, init_params
from gnnbound.sweep import resolve_dataset
from gnnbound.training import TrainConfig, train

SRC = Path(__file__).resolve().parent.parent / "src"


def on_two_lanes(monkeypatch) -> None:
    """Two usable CPUs and blocks of 2 rows at width 4, so a train step on
    er5 uses both lanes."""
    monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(models_module, "_BLOCK_BYTES", 2 * 8 * 4)


def train_tiny() -> list[float]:
    dataset = resolve_dataset("er5", n_graphs=6, feature_dim=3)
    config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=4)
    params = init_params(config, dataset.feature_dim, seed=0)
    return train(params, dataset, TrainConfig(epochs=2, batch_size=6), config)[1]


def test_items_in_order_the_first_on_the_caller():
    caller = threading.current_thread()
    got = on_lanes(lambda item: (item, threading.current_thread()), [0, 1, 2])
    assert [item for item, _ in got] == [0, 1, 2]
    assert got[0][1] is caller
    assert all(thread is not caller for _, thread in got[1:])
    assert on_lanes(lambda item: threading.current_thread(), ["only"]) == [caller]
    assert on_lanes(lambda item: item, []) == []


def test_lane_threads_run_in_the_callers_errstate():
    with np.errstate(over="raise", invalid="ignore"):
        states = on_lanes(lambda _: np.geterr(), [0, 1])
    assert [(s["over"], s["invalid"]) for s in states] == [("raise", "ignore")] * 2


def test_a_later_items_error_is_raised_once_every_item_has_finished():
    finished = []

    def work(item):
        if item == 1:
            raise ValueError("item 1 failed")
        # Item 2 outlasts the caller's item 0 by far.
        time.sleep(0.05 if item == 0 else 0.5)
        finished.append(item)
        return item

    with pytest.raises(ValueError, match="item 1 failed"):
        on_lanes(work, [0, 1, 2])
    assert sorted(finished) == [0, 2]


def test_import_starts_no_thread():
    code = "import threading, gnnbound, gnnbound.cli; print(threading.active_count())"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def test_repeated_trains_and_reports_keep_the_same_lane_threads(monkeypatch):
    on_two_lanes(monkeypatch)
    dataset = resolve_dataset("er5", n_graphs=6, feature_dim=3)

    def train_and_report():
        train_tiny()
        filter_norm_report(dataset, FilterKind.SYM_NORM)

    train_and_report()
    threads = set(threading.enumerate())
    assert any(thread.name.startswith("lane") for thread in threads)
    for _ in range(5):
        train_and_report()
    assert set(threading.enumerate()) == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_trains_on_lanes_of_its_own(monkeypatch):
    on_two_lanes(monkeypatch)
    # The parent trains first, so its lane threads exist when it forks.
    history = train_tiny()
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def child():
        send.send((train_tiny(), threading.active_count()))

    process = context.Process(target=child)
    process.start()
    try:
        assert receive.poll(60), "the forked child did not finish training"
        child_history, child_threads = receive.recv()
    finally:
        process.kill()
        process.join()
    # The child's main thread and the one lane thread it started.
    assert child_threads == 2
    assert child_history == history
