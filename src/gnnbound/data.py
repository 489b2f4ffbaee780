"""Graph samples and datasets: validation, statistics, splitting, persistence.

A sample is one undirected simple graph (a dense, read-only bool adjacency,
no self-loops) with a real node-feature matrix and a binary label in
{-1, +1}. Node identity is positional: node j is row/column j of the
adjacency and row j of the feature matrix. A dataset is an ordered,
immutable collection of samples sharing one feature dimension.

Datasets persist as a single JSON document:

    {"name": ..., "feature_dim": k,
     "graphs": [{"n": ..., "edges": [[i, j], ...], "features": [[...], ...],
                 "label": -1 or 1}, ...]}

with 0-based edge pairs i < j. Floats are written with shortest round-trip
formatting, so save -> load reproduces feature values bit-identically.

`to_json_value` is the package's one JSON codec for its result dataclasses
(report.json, the bounds and filters command output); `from_plain` is its
inverse, which also reads CSV cells.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import math
import types
import typing
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed."""


class ValidationError(ValueError):
    """Data violates a structural invariant."""


def frozen_array(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GraphSample:
    """One undirected graph: N x N adjacency, N x k features, label in {-1,+1}.

    The adjacency is kept as a read-only bool matrix, one byte per entry; the
    features as a read-only float64 matrix. Construction takes a bool, integer
    or float adjacency, checks every invariant of the module docstring on the
    given values and raises ValidationError listing each one that is violated.
    """

    adjacency: np.ndarray
    features: np.ndarray
    label: int

    def __post_init__(self):
        # Checked before the cast: astype(bool) would turn 0.5, 2 or NaN into True.
        adj = np.asarray(self.adjacency)
        if adj.dtype != bool:
            adj = adj.astype(np.float64, copy=False)
        object.__setattr__(self, "features", frozen_array(self.features))
        object.__setattr__(self, "label", int(self.label))
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValidationError("adjacency must be a square matrix")
        if adj.shape[0] == 0:
            raise ValidationError("a graph must have at least one node")
        if self.features.ndim != 2 or self.features.shape[0] != adj.shape[0]:
            raise ValidationError("features must have one row per node")
        violations = []
        if adj.dtype != bool and not np.all((adj == 0.0) | (adj == 1.0)):
            violations.append("adjacency entries must be 0 or 1")
        if np.any(np.diagonal(adj) != 0.0):
            violations.append("nonzero diagonal (self-loops are not allowed)")
        if not np.array_equal(adj, adj.T):
            violations.append("asymmetric adjacency (graphs are undirected)")
        if not np.all(np.isfinite(self.features)):
            violations.append("non-finite feature values")
        if self.label not in (-1, 1):
            violations.append("label must be -1 or +1")
        if violations:
            raise ValidationError("; ".join(violations))
        adj = adj.astype(bool)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GraphDataset:
    """Nonempty ordered collection of samples with a common feature dimension."""

    samples: tuple[GraphSample, ...]
    feature_dim: int
    name: str

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValidationError("dataset must contain at least one sample")
        for idx, sample in enumerate(self.samples):
            if sample.feature_dim != self.feature_dim:
                raise ValidationError(
                    f"graph {idx}: feature dimension {sample.feature_dim} "
                    f"!= dataset feature_dim {self.feature_dim}"
                )

    @classmethod
    def from_samples(cls, samples: Sequence[GraphSample], name: str) -> "GraphDataset":
        samples = tuple(samples)
        if not samples:
            raise ValidationError("dataset must contain at least one sample")
        return cls(samples=samples, feature_dim=samples[0].feature_dim, name=name)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[GraphSample]:
        return iter(self.samples)

    def __getitem__(self, idx: int) -> GraphSample:
        return self.samples[idx]

    def take(self, indices) -> "GraphDataset":
        """The samples at these indices, in this order, as a dataset like this one."""
        return dataclasses.replace(self, samples=tuple(self.samples[i] for i in indices))


@dataclass(frozen=True)
class DatasetStats:
    """Dataset-level extrema: node count, degrees, feature-row norm."""

    n_graphs: int
    n_max: int
    d_max: int
    d_min: int
    b_f: float
    feature_dim: int


def degrees(sample: GraphSample) -> np.ndarray:
    """Node degrees: entry j is the row sum of adjacency row j."""
    return sample.adjacency.sum(axis=1).astype(np.int64)


def _largest_row_norm(features: np.ndarray) -> float:
    """Largest Euclidean norm of the feature rows. A row whose plain norm
    overflows is taken again with its largest |entry| factored out; a norm
    beyond float64 raises ValidationError."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(features, axis=1)
        overflowed = ~np.isfinite(norms)
        if overflowed.any():
            rows = features[overflowed]
            scale = np.abs(rows).max(axis=1)
            norms[overflowed] = scale * np.linalg.norm(rows / scale[:, None], axis=1)
    largest = float(norms.max())
    if not np.isfinite(largest):
        raise ValidationError("a feature row norm exceeds the float64 range")
    return largest


def dataset_stats(dataset: GraphDataset) -> DatasetStats:
    """Exact maxima/minima over all samples and nodes."""
    n_max = 0
    d_max = 0
    d_min = None
    b_f = 0.0
    for sample in dataset:
        degs = degrees(sample)
        n_max = max(n_max, sample.node_count)
        d_max = max(d_max, int(degs.max()))
        sample_min = int(degs.min())
        d_min = sample_min if d_min is None else min(d_min, sample_min)
        b_f = max(b_f, _largest_row_norm(sample.features))
    return DatasetStats(
        n_graphs=len(dataset),
        n_max=n_max,
        d_max=d_max,
        d_min=d_min,
        b_f=b_f,
        feature_dim=dataset.feature_dim,
    )


def train_size(n: int, beta_sup: float) -> int:
    """Number of training samples, round(beta_sup * n), of a split of n samples.

    Raises ValueError unless the split leaves both sides nonempty.
    """
    if not 0.0 < beta_sup < 1.0:
        raise ValueError(f"beta_sup must lie strictly between 0 and 1, got {beta_sup}")
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    n_train = int(round(beta_sup * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"beta_sup={beta_sup} with {n} samples leaves an empty train or test split"
        )
    return n_train


def split_dataset(
    dataset: GraphDataset, beta_sup: float, seed: int
) -> tuple[GraphDataset, GraphDataset]:
    """Random train/test split: shuffle indices, take the first train_size as train.

    Each side is dataset.take(indices), so a split of a prepared dataset
    (training.PreparedDataset) copies no rows.
    Deterministic given the seed. The split must leave both sides nonempty.
    """
    n = len(dataset)
    n_train = train_size(n, beta_sup)
    order = np.random.default_rng(seed).permutation(n)
    return dataset.take(order[:n_train]), dataset.take(order[n_train:])


def to_json_value(value):
    """value as plain JSON data: dataclasses become objects in field order,
    enums their values, tuples lists, and non-finite floats null."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_json_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: to_json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json_value(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# Resolving a class's string annotations costs far more than converting a row.
_type_hints = functools.cache(typing.get_type_hints)


def from_plain(hint, value):
    """value, as to_json_value writes it or as CSV text, converted to the type
    hint: a dict to the hint's dataclass field by field, X | None as X, an
    enum by its value; None stays None."""
    if value is None:
        return None
    if isinstance(hint, types.UnionType):
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    if isinstance(value, dict):
        hints = _type_hints(hint)
        return hint(**{name: from_plain(hints[name], item) for name, item in value.items()})
    return hint(value)


def _sample_to_record(sample: GraphSample) -> dict:
    return {
        "n": sample.node_count,
        "edges": np.argwhere(np.triu(sample.adjacency, k=1)).tolist(),
        "features": sample.features.tolist(),
        "label": sample.label,
    }


def save_dataset(dataset: GraphDataset, path) -> None:
    """Write the dataset as a single JSON document."""
    document = {
        "name": dataset.name,
        "feature_dim": dataset.feature_dim,
        "graphs": [_sample_to_record(sample) for sample in dataset],
    }
    # One json.dumps and one write: json.dump writes the same text in many
    # small pieces, about three times slower.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document))
        handle.write("\n")


def _is_int(value) -> bool:
    """Whether a JSON value is an integer: Python counts booleans as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _bulk_adjacency(edges: list, n: int) -> np.ndarray | None:
    """The n x n bool adjacency of edges, checked in bulk: a list of [i, j]
    pairs of JSON integers with 0 <= i < j < n, no pair twice. None if any
    pair breaks that (or does not fit in int64)."""
    if edges and (set(map(type, edges)) != {list} or set(map(len, edges)) != {2}):
        return None
    flat = list(itertools.chain.from_iterable(edges))
    # np.array reads a JSON boolean as an integer.
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        rows, cols = np.array(flat, dtype=np.int64).reshape(-1, 2).T
    except OverflowError:
        return None
    if not (np.all(rows >= 0) and np.all(rows < cols) and np.all(cols < n)):
        return None
    upper = np.zeros((n, n), dtype=bool)
    upper[rows, cols] = True
    if np.count_nonzero(upper) != len(edges):  # a pair given twice
        return None
    return upper | upper.T


def _record_to_sample(record, feature_dim: int, context: str) -> GraphSample:
    if not isinstance(record, dict):
        raise DatasetFormatError(f"{context}: must be an object")
    for key in ("n", "edges", "features", "label"):
        if key not in record:
            raise DatasetFormatError(f"{context}: missing field '{key}'")
    n = record["n"]
    if not _is_int(n) or n < 1:
        raise DatasetFormatError(f"{context}: 'n' must be a positive integer")
    bad_features = DatasetFormatError(f"{context}: features must be {n} rows of {feature_dim} reals")
    try:
        features = np.asarray(record["features"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise bad_features from exc
    if features.shape != (n, feature_dim):
        raise bad_features
    # NumPy reads a JSON boolean or numeric text as a number.
    if not set(map(type, itertools.chain.from_iterable(record["features"]))) <= {int, float}:
        raise bad_features
    edges = record["edges"]
    if not isinstance(edges, list):
        raise DatasetFormatError(f"{context}: 'edges' must be a list of [i, j] pairs")
    adjacency = _bulk_adjacency(edges, n)
    if adjacency is None:
        # Edge by edge, so that the error names the first bad edge.
        adjacency = np.zeros((n, n), dtype=bool)
        seen = set()
        for pair in edges:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise DatasetFormatError(f"{context}: edge entries must be [i, j] pairs")
            i, j = pair
            if not (_is_int(i) and _is_int(j) and 0 <= i < j < n):
                raise DatasetFormatError(
                    f"{context}: edge [{i}, {j}] must satisfy 0 <= i < j < n={n}"
                )
            if (i, j) in seen:
                raise DatasetFormatError(f"{context}: duplicate edge [{i}, {j}]")
            seen.add((i, j))
            adjacency[i, j] = adjacency[j, i] = True
    label = record["label"]
    if not _is_int(label):
        raise DatasetFormatError(f"{context}: label must be the integer -1 or +1, got {label!r}")
    try:
        return GraphSample(adjacency=adjacency, features=features, label=label)
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from exc


def read_json(path, error: type[ValueError] = DatasetFormatError):
    """The JSON document in path; text that is not UTF-8 or not JSON raises
    error naming the path (and, for JSON, the line and column where parsing
    failed)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_dataset(path) -> GraphDataset:
    """Read a dataset document, validating structure and sample invariants."""
    document = read_json(path)
    if not isinstance(document, dict):
        raise DatasetFormatError(f"{path}: top level must be an object")
    for key in ("name", "feature_dim", "graphs"):
        if key not in document:
            raise DatasetFormatError(f"{path}: missing top-level field '{key}'")
    # The name also seeds every sweep coordinate (sweep.coordinate_seeds).
    if not isinstance(document["name"], str):
        raise DatasetFormatError(f"{path}: 'name' must be a string")
    feature_dim = document["feature_dim"]
    if not _is_int(feature_dim) or feature_dim < 1:
        raise DatasetFormatError(f"{path}: 'feature_dim' must be a positive integer")
    graphs = document["graphs"]
    if not isinstance(graphs, list) or not graphs:
        raise DatasetFormatError(f"{path}: 'graphs' must be a nonempty list")
    samples = [
        _record_to_sample(record, feature_dim, f"{path}: graph {idx}")
        for idx, record in enumerate(graphs)
    ]
    return GraphDataset(samples=tuple(samples), feature_dim=feature_dim, name=document["name"])
