"""Graph-classification GNNs with closed-form generalization bounds.

The package covers the full experimental pipeline: synthetic SBM/ER dataset
generation, graph-filter norms, one-hidden-layer GCN/MPGNN models trained by
hand-derived backpropagation with momentum SGD and L2 decay, measured
train/test risk gaps, functional-derivative and Rademacher generalization
bounds, and width-sweep reporting (CSV/JSON/SVG).
"""

from .bounds import bound_report
from .data import dataset_stats, split_dataset
from .filters import FilterKind
from .models import ModelConfig, ModelKind, Readout, init_params
from .synth import make_dataset, preset_config
from .training import TrainConfig, measure_generalization, train

__version__ = "0.1.0"

# The names the README's library example imports; everything else is
# imported from its submodule.
__all__ = [
    "FilterKind",
    "ModelConfig",
    "ModelKind",
    "Readout",
    "TrainConfig",
    "bound_report",
    "dataset_stats",
    "init_params",
    "make_dataset",
    "measure_generalization",
    "preset_config",
    "split_dataset",
    "train",
]
