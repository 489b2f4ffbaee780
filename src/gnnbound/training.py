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
of g). Minibatch indices are reshuffled every epoch from the run PRNG.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GraphDataset, GraphSample
from .models import (
    ModelConfig,
    Params,
    Stacked,
    check_shapes,
    forward,
    prepare_sample,
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


@dataclass(frozen=True)
class RunResult:
    """Risks of one trained model, measured with the unregularized loss."""

    train_risk: float
    test_risk: float
    abs_gen_error: float


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


def zeros_like_params(params: Params) -> Params:
    return params.map(np.zeros_like)


def penalty_grads(params: Params, alpha: float) -> Params:
    divisor = params.width * alpha
    return params.map(lambda w: w / divisor)


def _risk_and_loss_grads(
    params: Params, stacked: Stacked, config: ModelConfig
) -> tuple[float, Params]:
    """Batch-average empirical risk and its gradient (no penalty term)."""
    yhat, f = forward(params, stacked, config)
    h = params.width
    risk = float(logistic_loss(yhat, stacked.labels).mean())

    scale = readout_scale(stacked, config.readout)
    per_graph = logistic_loss_grad(yhat, stacked.labels) * scale / len(stacked.labels)
    per_node = np.repeat(per_graph, stacked.node_counts)
    w2_grad = f.T @ per_node / h
    # f becomes the backpropagated signal in place; the outer product stays one
    # factor, as multiplying by its two vectors in turn rounds differently.
    back = config.outer.derivative_in_place(f)
    back *= per_node[:, None] * params.w2[None, :]
    grads = {name: back.T @ rows / h for name, rows in stacked.rows.items()}
    return risk, dataclasses.replace(params, w2=w2_grad, **grads)


@dataclass(frozen=True)
class PreparedDataset(GraphDataset):
    """A dataset with its graphs' node rows prepared for one model kind, filter
    and nonlinearities. stack holds the rows of every graph prepared together,
    and graphs[q] is the index of samples[q] into it, so a split (take) copies
    no rows; stack.gather(graphs) copies them out in sample order.
    """

    stack: Stacked
    graphs: np.ndarray

    def take(self, indices) -> "PreparedDataset":
        return dataclasses.replace(super().take(indices), graphs=self.graphs[indices])


def prepare_dataset(dataset: GraphDataset, model_config: ModelConfig) -> PreparedDataset:
    """dataset prepared for training and risks under any config that shares
    model_config's kind, filter and nonlinearities: each graph's rows are
    computed once and stacked once."""
    rows = [prepare_sample(sample, model_config) for sample in dataset]
    stack = Stacked(
        rows={name: np.concatenate([r[name] for r in rows]) for name in rows[0]},
        labels=np.array([sample.label for sample in dataset], dtype=np.float64),
        node_counts=np.array([sample.node_count for sample in dataset]),
    )
    return PreparedDataset(
        dataset.samples, dataset.feature_dim, dataset.name, stack, np.arange(len(dataset))
    )


def _prepared(params: Params, data, model_config: ModelConfig) -> PreparedDataset:
    """data as a prepared dataset, once params are known to fit it. A
    GraphDataset or a sequence of GraphSamples is prepared here."""
    if not isinstance(data, PreparedDataset):
        data = prepare_dataset(GraphDataset.from_samples(data, name=""), model_config)
    check_shapes(params, data.feature_dim, model_config)
    return data


def empirical_risk(params: Params, samples, model_config: ModelConfig) -> float:
    """Mean logistic loss of the model over the samples (no penalty)."""
    prepared = _prepared(params, samples, model_config)
    stacked = prepared.stack.gather(prepared.graphs)
    yhat, _ = forward(params, stacked, model_config)
    return float(logistic_loss(yhat, stacked.labels).mean())


def sgd_step(
    params: Params, grads: Params, velocity: Params, config: TrainConfig
) -> tuple[Params, Params]:
    """Classical momentum update; returns the new (params, velocity)."""
    new_velocity = velocity.map(lambda v, g: config.momentum * v + g, grads)
    new_params = params.map(lambda p, v: p - config.learning_rate * v, new_velocity)
    return new_params, new_velocity


def train(
    params: Params,
    train_set: GraphDataset | Sequence[GraphSample],
    config: TrainConfig,
    model_config: ModelConfig,
) -> tuple[Params, list[float]]:
    """Momentum SGD over shuffled minibatches; deterministic given config.seed.

    Each epoch gathers the permuted training graphs' rows once, into the same
    arrays every epoch, and every minibatch is a contiguous slice of them.
    Returns the final parameters and the per-epoch training risk (the
    graph-count-weighted mean of minibatch losses seen during that epoch).
    Aborts with TrainingDivergenceError the moment a batch loss is not finite.
    """
    prepared = _prepared(params, train_set, model_config)
    n = len(prepared)
    rng = np.random.default_rng(config.seed)
    velocity = zeros_like_params(params)
    history: list[float] = []
    rows = None
    for epoch in range(config.epochs):
        shuffled = prepared.stack.gather(prepared.graphs[rng.permutation(n)], out=rows)
        rows = shuffled.rows
        epoch_loss = 0.0
        for index, batch in enumerate(shuffled.batches(config.batch_size)):
            # Float overflow on a diverging run is reported via the explicit
            # non-finite check below, not as numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                risk, loss_grads = _risk_and_loss_grads(params, batch, model_config)
                if not np.isfinite(risk):
                    raise TrainingDivergenceError(
                        f"non-finite loss {risk!r} at epoch {epoch}, batch {index} "
                        f"(width {params.width}, lr {config.learning_rate})"
                    )
                grads = loss_grads.map(np.add, penalty_grads(params, config.alpha))
                params, velocity = sgd_step(params, grads, velocity, config)
            epoch_loss += risk * len(batch.labels)
        history.append(epoch_loss / n)
    return params, history


def measure_generalization(
    params: Params,
    train_set,
    test_set,
    model_config: ModelConfig,
) -> RunResult:
    """Unregularized train/test risks and their absolute gap."""
    train_risk = empirical_risk(params, train_set, model_config)
    test_risk = empirical_risk(params, test_set, model_config)
    return RunResult(
        train_risk=train_risk,
        test_risk=test_risk,
        abs_gen_error=abs(test_risk - train_risk),
    )
