"""Logistic-loss risks, analytic gradients, momentum SGD, and the train loop.

The regularized objective for a parameter container with h unit rows is

    regularized_risk = (1/n) sum_q log(1 + exp(-y_q yhat_q))
                       + (1/(h alpha)) sum_i ||W[i,:]||^2 / 2

where W[i,:] stacks every weight belonging to unit i (GCN: (w1[i], w2[i]);
MPGNN: (w1[i], w2[i], w3[i])). Gradients are hand-derived backpropagation
through the one-hidden-layer forward pass — no automatic differentiation —
and are checked against central finite differences in the test suite.

SGD uses classical momentum: v <- momentum*v + g; p <- p - lr*v, with g the
gradient of the regularized objective (so L2 weight decay 1/(h alpha) is part
of g). Minibatch indices are reshuffled every epoch from the run PRNG, and
each step gathers its minibatch's rows. A train call keeps its minibatch
rows, weights, velocity and gradients in arrays it allocates once and
updates in place.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blas import single_threaded_blas
from .data import GraphDataset, GraphSample
from .models import (
    ModelConfig,
    ParamArrays,
    Params,
    Stacked,
    Workspace,
    check_shapes,
    forward,
    prepare_sample,
    prepared_with,
    readout_scale,
)


class TrainingDivergenceError(RuntimeError):
    """Training hit a non-finite loss; results would be meaningless."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    momentum: float = 0.9
    alpha: float = 100.0
    batch_size: int = 128
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def logistic_loss(yhat, y):
    """log(1 + exp(-y*yhat)), overflow-safe via log1p(exp(-|z|)) + max(-z, 0)."""
    z = np.asarray(y, dtype=np.float64) * np.asarray(yhat, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)


def logistic_loss_grad(yhat, y):
    """d loss / d yhat = -y / (1 + exp(y*yhat)); magnitude is always <= 1."""
    y = np.asarray(y, dtype=np.float64)
    z = y * np.asarray(yhat, dtype=np.float64)
    # 1/(1+exp(z)) written through tanh to stay finite for any z.
    return -y * 0.5 * (1.0 - np.tanh(0.5 * z))


def _risk_and_loss_grads(
    params: Params | ParamArrays,
    stacked: Stacked,
    config: ModelConfig,
    grads: ParamArrays,
    workspace: Workspace,
) -> float:
    """Batch-average empirical risk; its gradient (no penalty term) is
    written into grads.

    The forward's f, in workspace.f, becomes the backpropagated signal in
    place, block by block on the workspace's lanes. Every sum over nodes is
    one call over the whole batch: splitting one changes its summation order
    and so its bits.
    """
    nodes = len(stacked.rows["w1"])
    yhat = forward(params, stacked, config, workspace)
    f = workspace.f[:nodes]
    h = params.width
    risk = float(logistic_loss(yhat, stacked.labels).mean())

    scale = readout_scale(stacked, config.readout)
    per_graph = logistic_loss_grad(yhat, stacked.labels) * scale / len(stacked.labels)
    per_node = np.repeat(per_graph, stacked.node_counts)
    np.divide(f.T @ per_node, h, out=grads.w2)

    def block_backward(block: slice, out: np.ndarray, temp: np.ndarray) -> None:
        # The outer product stays one factor, as multiplying by its two
        # vectors in turn rounds differently.
        back = config.outer.derivative_in_place(out)
        back *= np.multiply(per_node[block, None], params.w2[None, :], out=temp)

    workspace.each_block(nodes, block_backward)

    def grad(name: str) -> None:
        # rows.T @ back has the bits of back.T @ rows and runs faster.
        np.divide((stacked.rows[name].T @ f).T, h, out=getattr(grads, name))

    workspace.map(nodes, grad, list(stacked.rows))
    return risk


@dataclass(frozen=True)
class PreparedDataset(GraphDataset):
    """A dataset with its graphs' node rows prepared under the config fields
    in prepared_with (models.prepared_with): rows[q] is samples[q]'s dict of
    prepare_sample, whose arrays may be the sample's own (an MPGNN's w3 rows
    are its features). A split (take) copies no rows; gather copies a
    batch's rows out, into new arrays or a caller's buffers.
    """

    rows: tuple[dict[str, np.ndarray], ...]
    prepared_with: dict[str, str]

    def take(self, indices) -> "PreparedDataset":
        return dataclasses.replace(
            self,
            samples=tuple(self.samples[i] for i in indices),
            rows=tuple(self.rows[i] for i in indices),
        )

    def gather(self, graphs, out: dict[str, np.ndarray] | None = None) -> Stacked:
        """The rows of the graphs at these indices, concatenated in this
        order: into new arrays, or, given out (an array per field with at
        least the batch's node count of rows), into each field's leading rows.
        The fields keep prepare_sample's order: forward adds the later
        fields' products to the first field's, so the order decides the bits."""
        picked = [self.rows[q] for q in graphs]
        node_counts = np.array([len(rows["w1"]) for rows in picked])
        nodes = int(node_counts.sum())
        stacked = {}
        for name in picked[0]:
            into = None if out is None else out[name][:nodes]
            stacked[name] = np.concatenate([rows[name] for rows in picked], out=into)
        return Stacked(
            rows=stacked,
            labels=np.array([self.samples[q].label for q in graphs], dtype=np.float64),
            node_counts=node_counts,
        )


def prepare_dataset(dataset: GraphDataset, model_config: ModelConfig) -> PreparedDataset:
    """dataset prepared for training and risks under any config that agrees
    with model_config on the fields prepare_sample reads (prepared_with): each
    graph's rows are computed once."""
    return PreparedDataset(
        dataset.samples,
        dataset.name,
        tuple(prepare_sample(sample, model_config) for sample in dataset),
        prepared_with(model_config),
    )


def _prepared(params: Params, data, model_config: ModelConfig) -> PreparedDataset:
    """data as a prepared dataset, once params are known to fit it. A
    GraphDataset or a sequence of GraphSamples is prepared here; a
    PreparedDataset must have been prepared for model_config."""
    if not isinstance(data, PreparedDataset):
        data = prepare_dataset(GraphDataset(data, name=""), model_config)
    wanted = prepared_with(model_config)
    if data.prepared_with != wanted:
        raise ValueError(f"dataset was prepared for {data.prepared_with}, the model needs {wanted}")
    check_shapes(params, data.feature_dim, model_config)
    return data


@single_threaded_blas()
def empirical_risk(params: Params, samples, model_config: ModelConfig) -> float:
    """Mean logistic loss of the model over the samples (no penalty).

    One forward over the whole set, on a workspace without f: each row
    block's outer outputs stay in scratch, so no N x h array of the set is
    made. Like a train step, it runs on the workspace's lanes, under the main
    thread's OpenBLAS pin, and weights beyond what the forward can hold give a
    non-finite risk without a NumPy warning, as they do in train.
    """
    prepared = _prepared(params, samples, model_config)
    stacked = prepared.gather(range(len(prepared)))
    with np.errstate(over="ignore", invalid="ignore"):
        yhat = forward(params, stacked, model_config, Workspace(0, params.width))
        return float(logistic_loss(yhat, stacked.labels).mean())


def sgd_step(
    params: ParamArrays, grads: ParamArrays, velocity: ParamArrays, config: TrainConfig
) -> None:
    """Classical momentum update, in place: v <- momentum*v + g, then
    p <- p - lr*v, field by field."""
    for name, v in vars(velocity).items():
        v *= config.momentum
        v += getattr(grads, name)
        p = getattr(params, name)
        p -= config.learning_rate * v


def train(
    params: Params,
    train_set: GraphDataset | Sequence[GraphSample],
    config: TrainConfig,
    model_config: ModelConfig,
) -> tuple[Params, list[float]]:
    """Momentum SGD over shuffled minibatches; deterministic given config.seed.

    Each step gathers its minibatch's rows from the prepared dataset, in the
    order of the epoch's permutation, into one array per prepared field sized
    for the largest minibatch, writes into one workspace of that size, and
    updates weights, velocity and gradients in arrays allocated once; the
    weights become a Params on return. The main thread owns the cores: there
    OpenBLAS is pinned for the call (blas.single_threaded_blas) and the
    steps' row blocks run on one lane per usable CPU, elsewhere (a sweep
    pool's thread) on the calling thread alone.
    Returns the final parameters and the per-epoch training risk (the
    graph-count-weighted mean of minibatch losses seen during that epoch).
    Aborts with TrainingDivergenceError the moment a batch loss is not
    finite, or when the last step leaves a NaN weight.
    """
    prepared = _prepared(params, train_set, model_config)
    n = len(prepared)
    rng = np.random.default_rng(config.seed)
    weights = ParamArrays.like(params)
    velocity = ParamArrays.like(params, np.zeros_like)
    grads = ParamArrays.like(params, np.empty_like)
    decay = params.width * config.alpha
    history: list[float] = []
    counts = np.array([sample.node_count for sample in prepared])
    largest_batch = int(np.sort(counts)[-config.batch_size :].sum())
    # Float overflow on a diverging run is reported via the explicit
    # non-finite check below, not as numpy warnings.
    with single_threaded_blas(), np.errstate(over="ignore", invalid="ignore"):
        workspace = Workspace(largest_batch, params.width)
        shape = (largest_batch, prepared.feature_dim)
        batch_rows = {name: np.empty(shape) for name in prepared.rows[0]}
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for index, lo in enumerate(range(0, n, config.batch_size)):
                batch = prepared.gather(order[lo : lo + config.batch_size], batch_rows)
                risk = _risk_and_loss_grads(weights, batch, model_config, grads, workspace)
                if not np.isfinite(risk):
                    raise TrainingDivergenceError(
                        f"non-finite loss {risk!r} at epoch {epoch}, batch {index} "
                        f"(width {params.width}, lr {config.learning_rate})"
                    )
                # The loss's gradient plus the L2 decay's, w / (h alpha).
                for name, grad in vars(grads).items():
                    grad += getattr(weights, name) / decay
                sgd_step(weights, grads, velocity, config)
                epoch_loss += risk * len(batch.labels)
            history.append(epoch_loss / n)
    # The last step's NaN weight is one no loss has shown yet.
    if any(np.isnan(weight).any() for weight in vars(weights).values()):
        raise TrainingDivergenceError(
            f"a weight is NaN after the last step (width {params.width}, lr {config.learning_rate})"
        )
    return type(params)(**vars(weights)), history


def measure_generalization(
    params: Params,
    train_set,
    test_set,
    model_config: ModelConfig,
) -> tuple[float, float]:
    """The unregularized (train_risk, test_risk) of params."""
    return (
        empirical_risk(params, train_set, model_config),
        empirical_risk(params, test_set, model_config),
    )
