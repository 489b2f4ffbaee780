"""Reference computations the tests compare the library against.

They evaluate the same quantities as the library by another route: one hidden
unit at one node in scalar arithmetic, the spectral norm by power iteration
instead of an SVD, the forward and backward passes over the whole batch at
once with a new array for every temporary (a risk too), where the library
runs them in row blocks on lanes and overwrites a workspace, the penalty
gradient and the momentum step as new containers instead of arrays updated
in place, a batch's stack by concatenating its graphs' rows one graph at
a time instead of gathering them from a prepared dataset, a random graph
from its full edge-probability matrix and pairs made for it alone instead of
from a pair table made once per dataset, a filter norm report with one
SVD for every graph instead of only for those that can raise its largest
rank and with its degree extrema from the dataset's stats, a filter matrix
from the adjacency as float64 instead of bool, and a dataset record's edges
read and written one edge at a time instead of in bulk, and the two bounds
from their closed forms with the nonlinearities' constants tabled here
instead of read from the library. The risks and
gradients of a list of samples, the node relabelling of a sample and the
whole sweep from its config are built here from the library's parts.
"""

from __future__ import annotations

import dataclasses
import math
from functools import reduce
from typing import Sequence

import numpy as np

from gnnbound.data import (
    DatasetFormatError,
    GraphDataset,
    GraphSample,
    ValidationError,
    dataset_stats,
)
from gnnbound.filters import (
    FilterKind,
    FilterNormReport,
    apply_filter,
    fro_norm,
    inf_norm,
    numerical_rank,
    theoretical_fro_bound,
    theoretical_inf_bound,
)
from gnnbound.models import (
    ModelConfig,
    Nonlinearity,
    ParamArrays,
    Params,
    Stacked,
    Workspace,
    check_shapes,
    forward,
    prepare_sample,
    readout_scale,
)
from gnnbound.sweep import SweepConfig, SweepRow, run_sweep_on, setup
from gnnbound.training import (
    TrainConfig,
    _prepared,
    _risk_and_loss_grads,
    empirical_risk,
    logistic_loss,
    logistic_loss_grad,
)

SPECTRAL_TOL = 1e-12
SPECTRAL_MAX_ITER = 10_000


def gcn_unit_output(
    w1_row: np.ndarray,
    w2_scalar: float,
    filtered_row: np.ndarray,
    outer: Nonlinearity = Nonlinearity.TANH,
) -> float:
    """w2 * outer(filtered_row . w1) for one unit at one node."""
    return float(w2_scalar * outer.apply(float(np.dot(filtered_row, w1_row))))


def mpgnn_unit_output(
    w1_row: np.ndarray,
    w2_scalar: float,
    w3_row: np.ndarray,
    feature_row: np.ndarray,
    aggregated_row: np.ndarray,
    rho: Nonlinearity = Nonlinearity.TANH,
    outer: Nonlinearity = Nonlinearity.TANH,
) -> float:
    """w2 * outer(feature_row . w3 + rho(aggregated_row) . w1) for one unit.

    aggregated_row is the precomputed G(A)[j,:] zeta(F) vector; rho is applied
    entrywise here.
    """
    inner = float(np.dot(feature_row, w3_row)) + float(np.dot(rho.apply(aggregated_row), w1_row))
    return float(w2_scalar * outer.apply(inner))


def spectral_norm(
    matrix: np.ndarray,
    tol: float = SPECTRAL_TOL,
    max_iter: int = SPECTRAL_MAX_ITER,
) -> float:
    """Largest singular value via power iteration on M^T M.

    Iterates on the Gram matrix of the smaller side until the Rayleigh
    quotient changes by at most tol (relative), capped at max_iter sweeps.
    The deterministic pseudo-random start vector avoids starting orthogonal
    to the dominant eigenspace for structured matrices.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0 or not matrix.any():
        return 0.0
    if matrix.shape[0] < matrix.shape[1]:
        matrix = matrix.T
    gram = matrix.T @ matrix
    vec = np.random.default_rng(0x5EED).standard_normal(gram.shape[0])
    vec /= np.linalg.norm(vec)
    eigenvalue = 0.0
    for _ in range(max_iter):
        image = gram @ vec
        norm = np.linalg.norm(image)
        if norm == 0.0:
            return 0.0
        new_eigenvalue = float(vec @ image)
        vec = image / norm
        if abs(new_eigenvalue - eigenvalue) <= tol * max(1.0, abs(new_eigenvalue)):
            eigenvalue = new_eigenvalue
            break
        eigenvalue = new_eigenvalue
    # One Rayleigh-quotient refinement on the final iterate.
    eigenvalue = float(vec @ (gram @ vec))
    return float(np.sqrt(max(eigenvalue, 0.0)))


def draw_adjacency(prob: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One adjacency from an n x n edge-probability matrix: one uniform draw
    per i<j pair, in np.triu_indices order, is an edge below its probability."""
    upper = np.triu_indices(len(prob), k=1)
    adjacency = np.zeros_like(prob)
    adjacency[upper] = rng.random(upper[0].size) < prob[upper]
    return adjacency + adjacency.T


def filter_of_float_adjacency(kind: FilterKind, adjacency: np.ndarray) -> np.ndarray:
    """The filter matrix of a float64 0/1 adjacency, by the expressions
    apply_filter used when samples kept their adjacency as float64."""
    adj = np.asarray(adjacency, dtype=np.float64)
    n = adj.shape[0]
    if kind is FilterKind.SUM_AGG:
        return adj + np.eye(n)
    if kind is FilterKind.SYM_NORM:
        tilde = adj + np.eye(n)
        inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=1))
        return tilde * inv_sqrt[:, None] * inv_sqrt[None, :]
    if kind is FilterKind.MEAN_AGG:
        tilde = adj + np.eye(n)
        return tilde / tilde.sum(axis=1)[:, None]
    deg = adj.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return adj * inv[:, None] + np.eye(n)


def adjacency_edge_by_edge(edges, n: int, context: str) -> np.ndarray:
    """The float64 adjacency of a dataset record's edge list, checked one
    edge at a time; the first bad edge raises DatasetFormatError naming it."""
    def is_int(value) -> bool:  # Python counts a JSON boolean as an int
        return isinstance(value, int) and not isinstance(value, bool)

    adjacency = np.zeros((n, n), dtype=np.float64)
    seen = set()
    for pair in edges:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DatasetFormatError(f"{context}: edge entries must be [i, j] pairs")
        i, j = pair
        if not (is_int(i) and is_int(j) and 0 <= i < j < n):
            raise DatasetFormatError(f"{context}: edge [{i}, {j}] must satisfy 0 <= i < j < n={n}")
        if (i, j) in seen:
            raise DatasetFormatError(f"{context}: duplicate edge [{i}, {j}]")
        seen.add((i, j))
        adjacency[i, j] = 1.0
        adjacency[j, i] = 1.0
    return adjacency


def sample_to_record_edge_by_edge(sample: GraphSample) -> dict:
    """A sample's dataset record, its edge list built one edge at a time."""
    rows, cols = np.nonzero(np.triu(sample.adjacency, k=1))
    return {
        "n": sample.node_count,
        "edges": [[int(i), int(j)] for i, j in zip(rows, cols)],
        "features": sample.features.tolist(),
        "label": sample.label,
    }


def filter_norm_report_per_graph(dataset: GraphDataset, kind: FilterKind) -> FilterNormReport:
    """The dataset's filter norm report from one filter matrix at a time."""
    inf_max = 0.0
    fro_max = 0.0
    rank_max = 0
    for sample in dataset:
        filtered = apply_filter(kind, sample)
        inf_max = max(inf_max, inf_norm(filtered))
        fro_max = max(fro_max, fro_norm(filtered))
        rank_max = max(rank_max, numerical_rank(filtered))
    stats = dataset_stats(dataset)
    return FilterNormReport(
        kind=kind,
        inf_norm_max=inf_max,
        fro_norm_max=fro_max,
        g_max=min(inf_max, fro_max),
        rank_max=rank_max,
        inf_bound=theoretical_inf_bound(kind, stats.d_max, stats.d_min),
        fro_bound=theoretical_fro_bound(kind, rank_max),
    )


def apply_out_of_place(nl: Nonlinearity, x: np.ndarray) -> np.ndarray:
    if nl is Nonlinearity.TANH:
        return np.tanh(x)
    if nl is Nonlinearity.SIGMOID_CENTERED:
        return 0.5 * np.tanh(0.5 * x)
    return np.asarray(x, dtype=np.float64)


def derivative_out_of_place(nl: Nonlinearity, f: np.ndarray) -> np.ndarray:
    """f'(x) from the output f = apply(x), as a new array."""
    if nl is Nonlinearity.TANH:
        return 1.0 - f * f
    if nl is Nonlinearity.SIGMOID_CENTERED:
        return 0.25 - f * f
    return np.ones_like(f)


def forward_out_of_place(
    params: Params, stacked: Stacked, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """models.forward over the whole batch, with every temporary a new array."""
    z = reduce(np.add, (rows @ getattr(params, name).T for name, rows in stacked.rows.items()))
    f = apply_out_of_place(config.outer, z)
    node_values = f @ params.w2 / params.width
    sums = np.add.reduceat(node_values, stacked.starts)
    return sums * readout_scale(stacked, config.readout), f


def risk_and_loss_grads_out_of_place(
    params: Params, stacked: Stacked, config: ModelConfig
) -> tuple[float, Params]:
    """training._risk_and_loss_grads over the whole batch, with every temporary a new array."""
    yhat, f = forward_out_of_place(params, stacked, config)
    h = params.width
    risk = float(logistic_loss(yhat, stacked.labels).mean())

    scale = readout_scale(stacked, config.readout)
    per_graph = logistic_loss_grad(yhat, stacked.labels) * scale / len(stacked.labels)
    per_node = np.repeat(per_graph, stacked.node_counts)
    back = derivative_out_of_place(config.outer, f) * (per_node[:, None] * params.w2[None, :])
    grads = {name: back.T @ rows / h for name, rows in stacked.rows.items()}
    return risk, dataclasses.replace(params, w2=f.T @ per_node / h, **grads)


def empirical_risk_one_call(params: Params, samples, config: ModelConfig) -> float:
    """training.empirical_risk as one gather, one out-of-place forward over
    the whole set and one mean."""
    prepared = _prepared(params, samples, config)
    stacked = prepared.stack.gather(prepared.graphs)
    yhat, _ = forward_out_of_place(params, stacked, config)
    return float(logistic_loss(yhat, stacked.labels).mean())


def map_fields(fn, params: Params, *others: Params) -> Params:
    """fn applied field by field to params and others of its kind, as a new
    container of that kind."""
    return dataclasses.replace(params, **{
        f.name: fn(getattr(params, f.name), *(getattr(o, f.name) for o in others))
        for f in dataclasses.fields(params)
    })


def zeros_like_params(params: Params) -> Params:
    return map_fields(np.zeros_like, params)


def penalty_grads(params: Params, alpha: float) -> Params:
    """The gradient of the 1/(h alpha) L2 penalty: params / (h alpha)."""
    divisor = params.width * alpha
    return map_fields(lambda w: w / divisor, params)


def sgd_step(
    params: Params, grads: Params, velocity: Params, config: TrainConfig
) -> tuple[Params, Params]:
    """training.sgd_step as new containers; returns the new (params, velocity)."""
    new_velocity = map_fields(lambda v, g: config.momentum * v + g, velocity, grads)
    new_params = map_fields(lambda p, v: p - config.learning_rate * v, params, new_velocity)
    return new_params, new_velocity


def stack(rows: Sequence[dict[str, np.ndarray]], labels: Sequence[int]) -> Stacked:
    """The stack of graphs with these prepared rows, concatenated graph by graph."""
    return Stacked(
        rows={name: np.concatenate([r[name] for r in rows]) for name in rows[0]},
        labels=np.array(labels, dtype=np.float64),
        node_counts=np.array([len(r["w1"]) for r in rows]),
    )


def stack_samples(params: Params, samples: Sequence[GraphSample], config: ModelConfig) -> Stacked:
    """The samples prepared one at a time and stacked, once params fit them."""
    check_shapes(params, samples[0].feature_dim, config)
    return stack([prepare_sample(s, config) for s in samples], [s.label for s in samples])


def forward_graph(params: Params, sample: GraphSample, config: ModelConfig) -> float:
    """Model output yhat for one sample."""
    stacked = stack_samples(params, [sample], config)
    return float(forward(params, stacked, config, Workspace(0, params.width))[0])


def penalty(params: Params, alpha: float) -> float:
    """(1/(h alpha)) * sum over unit rows of half the squared row norm."""
    total = sum(float((getattr(params, f.name) ** 2).sum()) for f in dataclasses.fields(params))
    return total / (2.0 * params.width * alpha)


def regularized_risk(params: Params, samples, config: ModelConfig, alpha: float) -> float:
    """empirical_risk plus the 1/(h alpha) L2 penalty over unit rows."""
    return empirical_risk(params, samples, config) + penalty(params, alpha)


def risk_and_loss_grads(
    params: Params, stacked: Stacked, config: ModelConfig, workspace=None
) -> tuple[float, Params]:
    """training._risk_and_loss_grads with its gradient returned as a new
    container, on a workspace of its own unless one is given."""
    if workspace is None:
        workspace = Workspace(len(stacked.rows["w1"]), params.width)
    grads = ParamArrays.like(params, np.empty_like)
    risk = _risk_and_loss_grads(params, stacked, config, grads, workspace)
    return risk, type(params)(**vars(grads))


def grad_empirical_risk(params: Params, batch, config: ModelConfig) -> Params:
    """Analytic gradient of the batch-average logistic loss."""
    _, grads = risk_and_loss_grads(params, stack_samples(params, batch, config), config)
    return grads


def grad_regularized_risk(params: Params, batch, config: ModelConfig, alpha: float) -> Params:
    """Analytic gradient of the regularized objective on the batch average."""
    loss_grads = grad_empirical_risk(params, batch, config)
    return map_fields(np.add, loss_grads, penalty_grads(params, alpha))


def permute_sample(sample: GraphSample, perm: Sequence[int]) -> GraphSample:
    """Relabel nodes so that old node i becomes new node perm[i].

    Adjacency, features, and (trivially) the label are relabeled consistently:
    the returned sample's node perm[i] carries node i's feature row, and
    (perm[i], perm[j]) is an edge iff (i, j) was.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = sample.node_count
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValidationError("invalid permutation: must be a bijection on node indices")
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    return GraphSample(
        adjacency=sample.adjacency[np.ix_(inverse, inverse)],
        features=sample.features[inverse],
        label=sample.label,
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Build the setup, run every coordinate, return rows in canonical order."""
    dataset, stats, filter_reports = setup(config)
    return run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)


# Lipschitz constant and sup |f| of each nonlinearity, by its config name.
_LIPSCHITZ = {"tanh": 1.0, "sigmoid-centered": 0.25, "identity": 1.0}
_SUP = {"tanh": 1.0, "sigmoid-centered": 0.5, "identity": math.inf}


def closed_form_bounds(config, stats, inputs, bounded: bool) -> dict[str, float]:
    """The model-output cap, the fd bound and the Rademacher terms and bound,
    from bounds.py's module docstring formulas with the nonlinearities'
    constants tabled here; it reads plain fields of its arguments only."""
    if config.model_kind.value == "gcn":
        chain = stats.w1_row_norm_max * inputs.g_max
    else:
        rho, zeta = _LIPSCHITZ[config.rho.value], _LIPSCHITZ[config.zeta.value]
        chain = stats.w3_row_norm_max + inputs.g_max * rho * zeta * stats.w1_row_norm_max
    chain *= _LIPSCHITZ[config.outer.value] * inputs.b_f
    unit = min(chain, _SUP[config.outer.value]) if bounded else chain
    nodes = inputs.n_max if inputs.readout.value == "sum" else 1
    cap = stats.w2_abs_max * unit * nodes
    n = inputs.n_train
    complexity = 4.0 * cap**1.5 * math.sqrt(inputs.alpha / n)
    confidence = 3.0 * float(np.logaddexp(0.0, cap)) * math.sqrt(math.log(2 / inputs.delta) / (2 * n))
    return {
        "model_output_cap": cap,
        "fd_bound": inputs.alpha * cap**2 / n,
        "rademacher_complexity_term": complexity,
        "rademacher_confidence_term": confidence,
        "rademacher_bound": complexity + confidence,
    }
