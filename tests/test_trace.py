"""The benchmark's tracer sees every layer a sweep runs through.

perfbench/rep.py wraps each entry point where its caller looks it up
(rep.WRAPS). A refactor that moves such a lookup would leave its layer
without spans, and its per-layer numbers would read 0 without an error;
here a tiny er5 sweep runs as rep.py runs it, under its wraps.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from gnnbound.data import save_dataset
from gnnbound.filters import FilterKind
from gnnbound.models import ModelKind
from gnnbound.sweep import SweepConfig
from gnnbound.synth import make_dataset, preset_config
from gnnbound.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import rep  # noqa: E402
from tracing import Tracer  # noqa: E402


# The one layer of rep.WRAPS that each dataset source does not pass through.
SKIPPED = {"preset": "data.load_dataset", "file": "synth.make_dataset"}


@pytest.mark.parametrize("source", list(SKIPPED))
def test_every_layer_a_tiny_er5_sweep_runs_through_records_a_span(tmp_path, source):
    size = {"n_graphs": 12, "feature_dim": 2}
    dataset = "er5"
    if source == "file":
        dataset = str(tmp_path / "er5.json")
        save_dataset(make_dataset(preset_config("er5", **size)), dataset)
    config = SweepConfig(
        dataset=dataset, betas=(0.7,), widths=(2,), seeds=(0,),
        models=(ModelKind.GCN, ModelKind.MPGNN), filters=(FilterKind.SYM_NORM,),
        train=TrainConfig(epochs=2, batch_size=4), **size,
    )
    tracer = Tracer(run_id=f"er5-{source}")
    for module, attr, name, *attrs in rep.WRAPS:
        tracer.wrap(module, attr, name, *attrs)
    try:
        data, stats, filter_reports = rep._setup(config)
        rows = rep.gsweep.run_sweep_on(data, config, stats=stats, filter_reports=filter_reports)
        rep.greport.emit_reports(
            rows, tmp_path / "report", config=config, stats=stats, filter_reports=filter_reports
        )
    finally:
        tracer.restore()
    layers = {name for _, _, name, *_ in rep.WRAPS}
    assert {span.name for span in tracer.spans} == layers - {SKIPPED[source]}
