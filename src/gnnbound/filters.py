"""Graph filters, matrix norms, numerical rank, and dataset-level norm reports.

Four filters of the adjacency matrix A (I the identity, D the degree matrix,
and the tilde variants built from A + I):

    sym-norm     L~ = D~^{-1/2} (A + I) D~^{-1/2}
    random-walk  D^{-1} A + I
    mean-agg     D~^{-1} (A + I)
    sum-agg      A + I

The dataset-level quantity g_max = min(max_inf_norm, max_fro_norm) over all
filtered adjacencies feeds the generalization bounds, together with the
maximum numerical rank r_max and the closed-form norm bounds:

    inf bounds:  sym-norm sqrt((d_max+1)/(d_min+1)); sum-agg d_max+1;
                 random-walk 2; mean-agg 1 (row-stochastic matrix — an
                 artifact-level fact, not a literature bound)
    fro bounds:  ||Y||_F <= sqrt(rank(Y)) * ||Y||_2 with ||L~||_2 = 1 and
                 ||D^{-1}A + I||_2 = 2, giving sqrt(r_max) and 2*sqrt(r_max);
                 none for mean-agg / sum-agg
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blas import single_threaded_blas
from .data import GraphDataset, GraphSample, degrees

RANK_REL_TOL = 1e-8


class FilterKind(enum.Enum):
    SYM_NORM = "sym-norm"
    RANDOM_WALK = "random-walk"
    MEAN_AGG = "mean-agg"
    SUM_AGG = "sum-agg"


@dataclass(frozen=True)
class FilterNormReport:
    """Dataset maxima of filter-matrix norms plus the closed-form bounds."""

    kind: FilterKind
    inf_norm_max: float
    fro_norm_max: float
    g_max: float
    rank_max: int
    inf_bound: float | None
    fro_bound: float | None


def apply_filter(kind: FilterKind, sample: GraphSample) -> np.ndarray:
    """Dense N x N float64 filter matrix for the sample's bool adjacency.

    Zero-degree nodes under random-walk: the D^{-1}A row is all-zero
    (0/0 := 0), so the filter row reduces to the identity row. This keeps the
    matrix finite and preserves the infinity-norm bound of 2.
    """
    adj = sample.adjacency
    n = sample.node_count
    if kind is FilterKind.SUM_AGG:
        return adj + np.eye(n)
    if kind is FilterKind.SYM_NORM:
        tilde = adj + np.eye(n)
        inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=1))
        return tilde * inv_sqrt[:, None] * inv_sqrt[None, :]
    if kind is FilterKind.MEAN_AGG:
        tilde = adj + np.eye(n)
        return tilde / tilde.sum(axis=1)[:, None]
    if kind is FilterKind.RANDOM_WALK:
        # Float degrees: the out= buffer below takes their dtype.
        deg = adj.sum(axis=1, dtype=np.float64)
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        return adj * inv[:, None] + np.eye(n)
    raise ValueError(f"unknown filter kind: {kind!r}")


def inf_norm(matrix: np.ndarray) -> float:
    """Maximum absolute row sum."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return float(np.abs(matrix).sum(axis=1).max())


def fro_norm(matrix: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return float(np.sqrt((matrix * matrix).sum()))


def numerical_rank(matrix: np.ndarray) -> int:
    """Number of singular values exceeding RANK_REL_TOL times the largest one
    (0 for a zero matrix)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int((singular > RANK_REL_TOL * singular[:1]).sum())


def theoretical_inf_bound(kind: FilterKind, d_max: int, d_min: int) -> float | None:
    """Closed-form bound on the maximum absolute row sum of the filter matrix."""
    if not 0 <= d_min <= d_max:
        raise ValueError("need 0 <= d_min <= d_max")
    if kind is FilterKind.SYM_NORM:
        return float(np.sqrt((d_max + 1) / (d_min + 1)))
    if kind is FilterKind.SUM_AGG:
        return float(d_max + 1)
    if kind is FilterKind.RANDOM_WALK:
        return 2.0
    if kind is FilterKind.MEAN_AGG:
        # Row-stochastic matrix: every row sums to exactly 1.
        return 1.0
    raise ValueError(f"unknown filter kind: {kind!r}")


def theoretical_fro_bound(kind: FilterKind, rank_max: int) -> float | None:
    """Closed-form Frobenius bound sqrt(rank) * spectral bound, where known."""
    if rank_max < 1:
        raise ValueError("rank_max must be >= 1")
    if kind is FilterKind.SYM_NORM:
        return float(np.sqrt(rank_max))
    if kind is FilterKind.RANDOM_WALK:
        return float(2.0 * np.sqrt(rank_max))
    if kind in (FilterKind.MEAN_AGG, FilterKind.SUM_AGG):
        return None
    raise ValueError(f"unknown filter kind: {kind!r}")


@single_threaded_blas()
def filter_norm_report(dataset: GraphDataset, kind: FilterKind) -> FilterNormReport:
    """Norm maxima over every sample's filter matrix, with g_max = min of the
    two, and the bounds at the dataset's degree extrema.

    One pass filters each graph in turn. Only the SVDs that can raise
    rank_max are taken: the numerical rank of an n x n matrix is at most n,
    so a graph whose node count is not above the largest rank so far is not
    ranked. On the main thread OpenBLAS is pinned to one thread, whose idle
    siblings would otherwise spin beside the call.
    """
    inf_max = 0.0
    fro_max = 0.0
    rank_max = 0
    for sample in dataset:
        filtered = apply_filter(kind, sample)
        inf_max = max(inf_max, inf_norm(filtered))
        fro_max = max(fro_max, fro_norm(filtered))
        if sample.node_count > rank_max:
            rank_max = max(rank_max, numerical_rank(filtered))
    degs = np.concatenate([degrees(sample) for sample in dataset])
    return FilterNormReport(
        kind=kind,
        inf_norm_max=inf_max,
        fro_norm_max=fro_max,
        g_max=min(inf_max, fro_max),
        rank_max=rank_max,
        inf_bound=theoretical_inf_bound(kind, int(degs.max()), int(degs.min())),
        fro_bound=theoretical_fro_bound(kind, rank_max),
    )
