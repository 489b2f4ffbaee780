"""Synthetic graph-classification datasets.

Two random-graph families — stochastic block models (SBM) and Erdos-Renyi
(ER) — with i.i.d. Gaussian node features normalized to unit Euclidean norm
(so the dataset feature bound b_f is exactly 1) and uniform +/-1 labels drawn
independently of the topology.

Five built-in presets (with SynthConfig's graph count and feature dimension):

    sbm1  100 nodes, blocks 40/60,    edge probs [[0.25,0.13],[0.13,0.37]]
    sbm2  100 nodes, blocks 25/25/50, edge probs [[0.25,0.05,0.02],
                                                  [0.05,0.35,0.07],
                                                  [0.02,0.07,0.40]]
    sbm3   50 nodes, blocks 15/15/20, edge probs [[0.5,0.1,0.2],
                                                  [0.1,0.4,0.1],
                                                  [0.2,0.1,0.4]]
    er4   100 nodes, edge prob 0.7
    er5    20 nodes, edge prob 0.5

Randomness comes from numpy's default generator (PCG64, 64-bit seeds;
Gaussians via its ziggurat method); a draw's seed is an int, or a Generator
that it draws from. Reproducibility is promised within this implementation,
not bit-identically across numpy major rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import GraphDataset, GraphSample


@dataclass(frozen=True)
class SbmSpec:
    """Block sizes plus a symmetric block-to-block edge probability matrix."""

    block_sizes: tuple[int, ...]
    edge_prob: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))
        matrix = tuple(tuple(float(p) for p in row) for row in self.edge_prob)
        object.__setattr__(self, "edge_prob", matrix)
        n_blocks = len(self.block_sizes)
        if n_blocks == 0 or any(b < 1 for b in self.block_sizes):
            raise ValueError("block_sizes must be positive integers")
        if len(matrix) != n_blocks or any(len(row) != n_blocks for row in matrix):
            raise ValueError("edge_prob must be square with one row per block")
        arr = np.asarray(matrix)
        if not np.array_equal(arr, arr.T):
            raise ValueError("edge_prob must be symmetric")
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("edge_prob entries must lie in [0, 1]")

    @property
    def node_count(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class ErSpec:
    """Erdos-Renyi G(n, p)."""

    node_count: int
    edge_prob: float

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in [0, 1]")


@dataclass(frozen=True)
class SynthConfig:
    """A random-graph model plus dataset-level generation settings."""

    model: SbmSpec | ErSpec
    n_graphs: int = 200
    feature_dim: int = 16
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.n_graphs < 1:
            raise ValueError("n_graphs must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _adjacency_draw(model: SbmSpec | ErSpec) -> Callable[[np.random.Generator], np.ndarray]:
    """The model's draw of one bool adjacency, rng -> n x n matrix: each i<j
    pair is an edge, independently, with its probability. The pairs and their
    probabilities are computed once, here, for every draw.

    For an SBM, nodes are assigned to blocks contiguously by index (the first
    block_sizes[0] nodes form block 0, and so on); pair (i, j) has
    probability edge_prob[block(i)][block(j)]. For ER, edge_prob.
    """
    n = model.node_count
    rows, cols = np.triu_indices(n, k=1)
    pairs = rows * n + cols
    if isinstance(model, SbmSpec):
        block = np.repeat(np.arange(len(model.block_sizes)), model.block_sizes)
        prob = np.asarray(model.edge_prob)[block[rows], block[cols]]
    else:
        prob = model.edge_prob

    def draw(rng: np.random.Generator) -> np.ndarray:
        upper = np.zeros(n * n, dtype=bool)
        upper[pairs] = rng.random(pairs.size) < prob
        upper = upper.reshape(n, n)
        return upper | upper.T

    return draw


def generate_features(n: int, k: int, seed) -> np.ndarray:
    """n x k matrix of i.i.d. standard Gaussian rows scaled to unit norm."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    rows = np.random.default_rng(seed).standard_normal((n, k))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_dataset(config: SynthConfig) -> GraphDataset:
    """Generate the full dataset: topology, features, and labels per graph.

    Sequential single-stream generation from one seeded generator, so the
    result is deterministic given config.seed. The model's adjacency draw is
    built once per call and draws every graph.
    """
    rng = np.random.default_rng(config.seed)
    draw = _adjacency_draw(config.model)
    samples = []
    for _ in range(config.n_graphs):
        adjacency = draw(rng)
        features = generate_features(adjacency.shape[0], config.feature_dim, rng)
        label = int(rng.integers(0, 2)) * 2 - 1
        samples.append(GraphSample(adjacency=adjacency, features=features, label=label))
    return GraphDataset(samples, config.name)


_PRESET_MODELS: dict[str, SbmSpec | ErSpec] = {
    "sbm1": SbmSpec(block_sizes=(40, 60), edge_prob=((0.25, 0.13), (0.13, 0.37))),
    "sbm2": SbmSpec(
        block_sizes=(25, 25, 50),
        edge_prob=((0.25, 0.05, 0.02), (0.05, 0.35, 0.07), (0.02, 0.07, 0.40)),
    ),
    "sbm3": SbmSpec(
        block_sizes=(15, 15, 20),
        edge_prob=((0.5, 0.1, 0.2), (0.1, 0.4, 0.1), (0.2, 0.1, 0.4)),
    ),
    "er4": ErSpec(node_count=100, edge_prob=0.7),
    "er5": ErSpec(node_count=20, edge_prob=0.5),
}

PRESET_NAMES = tuple(sorted(_PRESET_MODELS))


def preset_config(name: str, **settings) -> SynthConfig:
    """SynthConfig for one of the built-in presets (sbm1 sbm2 sbm3 er4 er5);
    settings (seed, n_graphs, feature_dim) keep SynthConfig's defaults unless
    given."""
    if name not in _PRESET_MODELS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return SynthConfig(model=_PRESET_MODELS[name], name=name, **settings)
