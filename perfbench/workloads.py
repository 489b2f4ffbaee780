"""The benchmark's workloads: each turns a seed into one sweep's inputs.

Each workload is what a user gets from ``gnnbound sweep`` with the config
below. Why each was chosen, and which metrics it should move, is in README.md
next to this file.
"""

from __future__ import annotations

from pathlib import Path

import gnnbound.synth as synth
from gnnbound.data import GraphDataset, save_dataset
from gnnbound.filters import FilterKind
from gnnbound.models import ModelKind, Readout
from gnnbound.sweep import SweepConfig
from gnnbound.training import TrainConfig

# The seed whose masked rows are committed in reference.json.
DEFAULT_SEED = 0

NAMES = ("sbm1-grid", "sbm1-grid-w2", "er5-narrow")

_BOTH_MODELS = (ModelKind.GCN, ModelKind.MPGNN)


def _sbm1_grid(seed: int, workers: int) -> SweepConfig:
    """The criterion-5/8 grid cut to one training seed and 50 epochs."""
    return SweepConfig(
        dataset="sbm1",
        betas=(0.7,),
        widths=(4, 16, 64, 256),
        seeds=(0,),
        models=_BOTH_MODELS,
        filters=(FilterKind.SYM_NORM,),
        readouts=(Readout.MEAN,),
        train=TrainConfig(epochs=50),
        data_seed=seed,
        workers=workers,
    )


def _er5_narrow(dataset_path: Path) -> SweepConfig:
    """Every filter and readout at narrow widths on many small graphs."""
    return SweepConfig(
        dataset=str(dataset_path),
        betas=(0.7,),
        widths=(4, 8),
        seeds=(0, 1),
        models=_BOTH_MODELS,
        filters=tuple(FilterKind),
        readouts=tuple(Readout),
        train=TrainConfig(epochs=20, batch_size=16),
        workers=1,
    )


def prepare(name: str, seed: int, work_dir: Path) -> tuple[SweepConfig, GraphDataset | None]:
    """The sweep config for a workload, plus the dataset the benchmark generated
    for it, if any. Generated datasets are written to work_dir so the program
    receives only their path."""
    if name == "sbm1-grid":
        return _sbm1_grid(seed, workers=1), None
    if name == "sbm1-grid-w2":
        return _sbm1_grid(seed, workers=2), None
    if name == "er5-narrow":
        dataset = synth.make_dataset(synth.preset_config("er5", seed=seed, n_graphs=400))
        path = work_dir / f"er5-seed{seed}.json"
        save_dataset(dataset, path)
        return _er5_narrow(path), dataset
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
