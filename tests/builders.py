"""Shared builders for the test suite.

Test modules import them from here, not from conftest.py: a pytest run that
also collects perfbench/tests imports that tree's conftest under the same
module name."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from gnnbound.data import GraphDataset, GraphSample
from gnnbound.filters import FilterKind
from gnnbound.models import ModelConfig, ModelKind, Params, Readout, init_params
from gnnbound.sweep import SweepRow
from gnnbound.synth import ErSpec, SbmSpec, _adjacency_draw, generate_features
from oracles import regularized_risk


def generate_adjacency(model: SbmSpec | ErSpec, seed) -> np.ndarray:
    """Bool adjacency matrix of one draw of the model (synth._adjacency_draw);
    seed is an int or a Generator that it draws from."""
    return _adjacency_draw(model)(np.random.default_rng(seed))


def sample_from_edges(n, edges, features=None, label=1) -> GraphSample:
    """Build a sample from an explicit undirected edge list."""
    adjacency = np.zeros((n, n), dtype=np.float64)
    for i, j in edges:
        adjacency[i, j] = 1.0
        adjacency[j, i] = 1.0
    if features is None:
        features = np.ones((n, 1), dtype=np.float64)
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    return GraphSample(adjacency=adjacency, features=feats, label=label)


def random_sample(rng: np.random.Generator, n: int, k: int, edge_prob: float = 0.5) -> GraphSample:
    """Random simple graph with unit-norm feature rows and a random +-1 label."""
    upper = rng.random((n, n)) < edge_prob
    adjacency = np.triu(upper, k=1).astype(np.float64)
    adjacency = adjacency + adjacency.T
    features = generate_features(n, k, rng)
    label = int(rng.integers(0, 2)) * 2 - 1
    return GraphSample(adjacency=adjacency, features=features, label=label)


def random_dataset(
    rng: np.random.Generator, n_graphs: int, k: int, n_lo: int = 2, n_hi: int = 9,
    name: str = "random",
) -> GraphDataset:
    samples = [
        random_sample(rng, int(rng.integers(n_lo, n_hi + 1)), k) for _ in range(n_graphs)
    ]
    return GraphDataset(samples, name=name)


def has_one_verdict(row: SweepRow) -> bool:
    """The row is measured, with finite risks and gap and a bound report, or
    diverged, with NaN in every outcome and no report."""
    risks = (row.train_risk, row.test_risk, row.abs_gen_error)
    if row.bounds is None:
        return all(math.isnan(value) for value in (*risks, row.fd_bound, row.rademacher_bound))
    return all(math.isfinite(value) for value in risks)


def finite_diff_grads(params: Params, batch, model_config: ModelConfig, alpha: float,
                      step: float = 1e-6) -> dict[str, np.ndarray]:
    """Central finite differences of the regularized batch risk, per parameter array."""
    def at(name: str, work: np.ndarray) -> float:
        # Params freeze their arrays on construction, so rebuild per probe.
        return regularized_risk(
            dataclasses.replace(params, **{name: work}), batch, model_config, alpha
        )

    out = {}
    for field in dataclasses.fields(params):
        base = getattr(params, field.name)
        work = base.copy()
        grad = np.zeros_like(work)
        it = np.nditer(work, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = work[idx]
            work[idx] = orig + step
            plus = at(field.name, work)
            work[idx] = orig - step
            minus = at(field.name, work)
            work[idx] = orig
            grad[idx] = (plus - minus) / (2.0 * step)
        out[field.name] = grad
    return out


def max_relative_grad_error(analytic: Params, numeric: dict[str, np.ndarray],
                            abs_floor: float = 1e-8) -> float:
    """Worst per-coordinate relative error, ignoring coordinates below abs_floor."""
    worst = 0.0
    for field in dataclasses.fields(analytic):
        a = getattr(analytic, field.name)
        f = numeric[field.name]
        scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), abs_floor)
        worst = max(worst, float((np.abs(a - f) / scale).max()))
    return worst


def gradcheck_margin(analytic: Params, numeric: dict[str, np.ndarray],
                     rel: float = 1e-5, abs_floor: float = 1e-8) -> float:
    """Worst |analytic-numeric| / max(rel*magnitude, abs_floor); <= 1 passes.

    A coordinate passes when the difference is within `rel` of its magnitude
    or below the absolute floor, whichever allowance is larger.
    """
    worst = 0.0
    for field in dataclasses.fields(analytic):
        a = getattr(analytic, field.name)
        f = numeric[field.name]
        allowance = np.maximum(rel * np.maximum(np.abs(a), np.abs(f)), abs_floor)
        worst = max(worst, float((np.abs(a - f) / allowance).max()))
    return worst


def nonlinearity_fields(model: ModelKind) -> tuple[str, ...]:
    """The ModelConfig nonlinearities a model reads: outer, and for MPGNN also
    zeta and rho."""
    return ("outer",) if model is ModelKind.GCN else ("outer", "zeta", "rho")


def gradcheck_case(rng: np.random.Generator, model: ModelKind, filter_kind: FilterKind,
                   readout: Readout, width: int, feature_dim: int,
                   nonlinearity) -> tuple[Params, list[GraphSample], ModelConfig]:
    """One small randomized configuration for a finite-difference gradient
    check, with every nonlinearity the model reads set to nonlinearity."""
    config = ModelConfig(
        model_kind=model,
        filter_kind=filter_kind,
        width=width,
        readout=readout,
        **dict.fromkeys(nonlinearity_fields(model), nonlinearity),
    )
    batch = [random_sample(rng, int(rng.integers(2, 8)), feature_dim) for _ in range(2)]
    params = init_params(config, feature_dim, seed=int(rng.integers(0, 2**31)))
    return params, batch, config
