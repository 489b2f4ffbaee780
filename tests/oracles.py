"""Reference computations the tests compare the library against.

They evaluate the same quantities as the library by another route: one hidden
unit at one node in scalar arithmetic, the spectral norm by power iteration
instead of an SVD, and the forward and backward passes with a new array for
every temporary instead of overwriting them in place.
"""

from __future__ import annotations

import dataclasses
from functools import reduce

import numpy as np

from gnnbound.models import ModelConfig, Nonlinearity, Params, Stacked, readout_scale
from gnnbound.training import logistic_loss, logistic_loss_grad

SPECTRAL_TOL = 1e-12
SPECTRAL_MAX_ITER = 10_000


def gcn_unit_output(
    w1_row: np.ndarray,
    w2_scalar: float,
    filtered_row: np.ndarray,
    activation: Nonlinearity = Nonlinearity.TANH,
) -> float:
    """w2 * phi(filtered_row . w1) for one unit at one node."""
    return float(w2_scalar * activation.apply(float(np.dot(filtered_row, w1_row))))


def mpgnn_unit_output(
    w1_row: np.ndarray,
    w2_scalar: float,
    w3_row: np.ndarray,
    feature_row: np.ndarray,
    aggregated_row: np.ndarray,
    rho: Nonlinearity = Nonlinearity.TANH,
    kappa: Nonlinearity = Nonlinearity.TANH,
) -> float:
    """w2 * kappa(feature_row . w3 + rho(aggregated_row) . w1) for one unit.

    aggregated_row is the precomputed G(A)[j,:] zeta(F) vector; rho is applied
    entrywise here.
    """
    inner = float(np.dot(feature_row, w3_row)) + float(np.dot(rho.apply(aggregated_row), w1_row))
    return float(w2_scalar * kappa.apply(inner))


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
    """models.forward with every temporary a new array."""
    z = reduce(np.add, (rows @ getattr(params, name).T for name, rows in stacked.rows.items()))
    f = apply_out_of_place(config.outer, z)
    node_values = f @ params.w2 / params.width
    sums = np.add.reduceat(node_values, stacked.starts)
    return sums * readout_scale(stacked, config.readout), f


def risk_and_loss_grads_out_of_place(
    params: Params, stacked: Stacked, config: ModelConfig
) -> tuple[float, Params]:
    """training._risk_and_loss_grads with every temporary a new array."""
    yhat, f = forward_out_of_place(params, stacked, config)
    h = params.width
    risk = float(logistic_loss(yhat, stacked.labels).mean())

    scale = readout_scale(stacked, config.readout)
    per_graph = logistic_loss_grad(yhat, stacked.labels) * scale / len(stacked.labels)
    per_node = np.repeat(per_graph, stacked.node_counts)
    back = derivative_out_of_place(config.outer, f) * (per_node[:, None] * params.w2[None, :])
    grads = {name: back.T @ rows / h for name, rows in stacked.rows.items()}
    return risk, dataclasses.replace(params, w2=f.T @ per_node / h, **grads)
