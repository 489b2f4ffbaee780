"""One-hidden-layer GCN and MPGNN forward evaluation.

Both models keep their h hidden units as rows of parameter matrices — the
model is the empirical average over units, so unit order never matters.

Per node j of a graph with filter matrix G = G(A) and features F:

    GCN unit i:    w2[i] * outer( (G[j,:] F) . w1[i,:] )
    MPGNN unit i:  w2[i] * outer( F[j,:] . w3[i,:] + rho(G[j,:] zeta(F)) . w1[i,:] )

with zeta and rho applied entrywise. outer is the GCN's phi and the MPGNN's
kappa; zeta and rho are read by the MPGNN only. The model output is

    yhat = psi( sum_j (1/h) sum_i unit(i, j) )

where the readout psi is x/N (mean) or x (sum).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import types
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .blas import lane_count, on_lanes
from .data import GraphSample, frozen_array, read_json, write_text
from .filters import FilterKind, apply_filter


class ModelKind(enum.Enum):
    GCN = "gcn"
    MPGNN = "mpgnn"


class Readout(enum.Enum):
    MEAN = "mean"
    SUM = "sum"


class Nonlinearity(enum.Enum):
    """Zero-centered nonlinearities (f(0) = 0, so zero inputs give zero outputs).

    The centered sigmoid is sigma(x) - 1/2; a plain sigmoid is deliberately
    not offered because it is not zero-centered.
    """

    TANH = "tanh"
    SIGMOID_CENTERED = "sigmoid-centered"
    IDENTITY = "identity"

    def apply(self, x) -> np.ndarray:
        return self.apply_in_place(np.array(x, dtype=np.float64))

    def apply_in_place(self, x: np.ndarray) -> np.ndarray:
        """f(x) written over the float64 array x, which is returned."""
        if self is Nonlinearity.TANH:
            np.tanh(x, out=x)
        elif self is Nonlinearity.SIGMOID_CENTERED:
            x *= 0.5
            np.tanh(x, out=x)
            x *= 0.5
        return x

    def derivative_in_place(self, f: np.ndarray) -> np.ndarray:
        """f'(x) written over the output f = apply(x), so x is not needed; f is returned."""
        if self is Nonlinearity.IDENTITY:
            f.fill(1.0)
            return f
        f *= f
        return np.subtract(1.0 if self is Nonlinearity.TANH else 0.25, f, out=f)

    @property
    def lipschitz(self) -> float:
        return 0.25 if self is Nonlinearity.SIGMOID_CENTERED else 1.0

    @property
    def cap(self) -> float | None:
        """Supremum of |f|, or None when unbounded."""
        if self is Nonlinearity.TANH:
            return 1.0
        if self is Nonlinearity.SIGMOID_CENTERED:
            return 0.5
        return None


@dataclass(frozen=True)
class ModelConfig:
    """Model family, graph filter, width, readout, and nonlinearities: outer
    is the one whose output w2 weighs (phi for GCN, kappa for MPGNN), and
    zeta and rho are the MPGNN's. A GCN never reads zeta or rho, so it
    refuses any but their default."""

    model_kind: ModelKind
    filter_kind: FilterKind
    width: int
    readout: Readout = Readout.MEAN
    outer: Nonlinearity = Nonlinearity.TANH
    zeta: Nonlinearity = Nonlinearity.TANH
    rho: Nonlinearity = Nonlinearity.TANH

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.model_kind is ModelKind.GCN:
            for name in ("zeta", "rho"):
                if getattr(self, name) is not Nonlinearity.TANH:
                    raise ValueError(f"{name} must be tanh for a GCN, which does not read it")


@dataclass(frozen=True)
class UnitRows:
    """h unit rows, one per hidden unit: w2 is an h-vector and every other
    field an h x k matrix. A model's container declares its fields, in the
    order init_params draws them, and its kind."""

    kind: ClassVar[ModelKind]

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        names = [f.name for f in dataclasses.fields(self)]
        for name in names:
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        w1 = self.w1
        if w1.ndim != 2 or w1.shape[:1] != self.w2.shape or any(
            getattr(self, name).shape != w1.shape for name in names if name != "w2"
        ):
            raise ValueError("w2 must be an h-vector and every other field an h x k matrix")

    @property
    def width(self) -> int:
        return self.w2.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]


@dataclass(frozen=True)
class GcnParams(UnitRows):
    """GCN unit rows (w1, w2)."""

    kind = ModelKind.GCN


@dataclass(frozen=True)
class MpgnnParams(UnitRows):
    """MPGNN unit rows (w1, w2, w3): w3 weighs a node's own features."""

    kind = ModelKind.MPGNN

    w3: np.ndarray


Params = GcnParams | MpgnnParams
_CONTAINERS: dict[ModelKind, type[Params]] = {cls.kind: cls for cls in (GcnParams, MpgnnParams)}


class ParamArrays(types.SimpleNamespace):
    """A parameter container's fields as writable arrays, by field name, to
    be updated in place: train keeps its weights, velocity and gradients in
    these. forward and the backward read them as they read the container."""

    @classmethod
    def like(cls, params: Params, fill=np.array) -> "ParamArrays":
        """fill(array) for every field of params; the default copies it."""
        return cls(**{f.name: fill(getattr(params, f.name)) for f in dataclasses.fields(params)})

    @property
    def width(self) -> int:
        return self.w2.shape[0]


def init_params(config: ModelConfig, feature_dim: int, seed: int) -> Params:
    """Fan-scaled Gaussian initialization, deterministic given the seed.

    Entries are zero-mean normals with variance 1/k for the input-side rows
    (w1, w3) and 1/h for the output weights (w2), drawn in field order. The
    rows of w1 and w3, and w2, have norms near 1 at every width h, but max
    |w2| falls about as sqrt(2 ln h / h), and the output, which divides its
    sum over units by h, is O(1/h).
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    rng = np.random.default_rng(seed)
    h, k = config.width, feature_dim
    cls = _CONTAINERS[config.model_kind]
    return cls(**{
        f.name: rng.standard_normal(h) / np.sqrt(h)
        if f.name == "w2"
        else rng.standard_normal((h, k)) / np.sqrt(k)
        for f in dataclasses.fields(cls)
    })


def prepare_sample(sample: GraphSample, config: ModelConfig) -> dict[str, np.ndarray]:
    """The sample's N x k node rows, keyed by the input-side parameter field
    that weighs them: for GCN, w1 weighs the filtered features G F; for MPGNN,
    w3 weighs the raw features and w1 rho(G zeta(F)). No row depends on
    trainable parameters, so a sweep computes them once per (sample, config)."""
    filtered = apply_filter(config.filter_kind, sample)
    if config.model_kind is ModelKind.GCN:
        return {"w1": filtered @ sample.features}
    aggregated = config.rho.apply(filtered @ config.zeta.apply(sample.features))
    return {"w3": sample.features, "w1": aggregated}


def prepared_with(config: ModelConfig) -> dict[str, str]:
    """The config fields prepare_sample reads, by name: the model kind and
    filter, and zeta and rho, which a GCN holds at tanh. Rows prepared under
    one config serve every config that agrees with it on these."""
    names = ("model_kind", "filter_kind", "zeta", "rho")
    return {name: getattr(config, name).value for name in names}


@dataclass(frozen=True)
class Stacked:
    """A minibatch's node rows: its graphs' rows concatenated in batch order,
    so graph q's rows are rows[name][starts[q] : starts[q] + node_counts[q]]."""

    rows: dict[str, np.ndarray]
    labels: np.ndarray
    node_counts: np.ndarray

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.node_counts)[:-1]))


def readout_scale(stacked: Stacked, readout: Readout) -> np.ndarray:
    """Per-graph factor d yhat / d (node sum): 1/N for mean readout, 1 for sum."""
    if readout is Readout.MEAN:
        return 1.0 / stacked.node_counts
    return np.ones(len(stacked.node_counts))


# Row blocks of about this many bytes of an N x h float64 array stay in L2
# between the passes of a block's elementwise chain.
_BLOCK_BYTES = 256 * 1024


def _block_rows(width: int) -> int:
    return max(2, _BLOCK_BYTES // (8 * width))


def _blocks(nodes: int, width: int) -> list[slice]:
    """Row blocks of nodes x width float64 rows, about _BLOCK_BYTES each. No
    block has one row unless nodes is 1: NumPy's matmul takes another path on
    a single row, which rounds differently, so a one-row tail joins the block
    before it."""
    starts = list(range(0, nodes, _block_rows(width)))
    if len(starts) > 1 and nodes - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [nodes])]


class Workspace:
    """The buffers a forward and backward write into, and the lanes that run
    their row blocks.

    f holds the outer-nonlinearity outputs of up to `nodes` rows, for a
    backward to read; a workspace for forwards alone has nodes = 0 and no f.
    The workspace has the lanes of blas.lane_count when it is built, each with
    scratch for one block: the product temp and, only when there is no f, an
    out buffer that takes a block's outer outputs. Lane 0 is the calling
    thread; the others run on blas.on_lanes.
    """

    def __init__(self, nodes: int, width: int):
        self.width = width
        self.f = np.empty((nodes, width)) if nodes > 0 else None
        # A block has at most one row more than _block_rows: a merged tail.
        shape = (_block_rows(width) + 1, width)
        self._scratch = [
            (None if self.f is not None else np.empty(shape), np.empty(shape))
            for _ in range(lane_count())
        ]

    def lanes(self, nodes: int) -> int:
        """The lanes a step over nodes rows runs on. Each lane can take at
        least two blocks: with one each, a full block beside a short tail and
        the dispatch cost more than the second lane saves."""
        return max(1, min(len(self._scratch), len(_blocks(nodes, self.width)) // 2))

    def map(self, nodes: int, fn, items: list) -> list:
        """[fn(item) for item in items]. When a step over nodes rows has more
        than one lane, each call runs on its own (blas.on_lanes)."""
        if self.lanes(nodes) == 1:
            return [fn(item) for item in items]
        return on_lanes(fn, items)

    def each_block(self, nodes: int, fn) -> None:
        """fn(block, out, temp) for every row block of a step over nodes
        rows, once each. Every lane claims the next block that no lane has
        taken, so a lane that starts late takes fewer. out is the block's rows
        of f, or of its lane's out scratch when there is no f, and temp its
        lane's temp cut to the block's rows. A block's arithmetic reads only
        its rows, the weights and its lane's scratch, so which lane runs it
        moves no bit."""
        # next() on a list iterator is one step under the GIL: no two lanes
        # claim the same block.
        blocks = iter(_blocks(nodes, self.width))

        def lane(scratch: tuple[np.ndarray | None, np.ndarray]) -> None:
            out, temp = scratch
            for block in blocks:
                rows = block.stop - block.start
                fn(block, self.f[block] if out is None else out[:rows], temp[:rows])

        on_lanes(lane, self._scratch[: self.lanes(nodes)])


def forward(
    params: Params | ParamArrays,
    stacked: Stacked,
    config: ModelConfig,
    workspace: Workspace,
) -> np.ndarray:
    """Outputs yhat, one per stacked graph.

    Each row block runs its pre-activation gemms, the outer nonlinearity and
    its nodes' share of f @ w2 while it is in cache; the sums over nodes run
    once over the batch. The outer outputs f of the N rows are left in
    workspace.f[:N] when the workspace has f, for a backward to overwrite;
    without f, each block's stay in its lane's scratch. The caller checks
    that params match config (check_shapes).
    """
    nodes = len(stacked.rows["w1"])
    (first_rows, first_weights), *rest = [
        (rows, getattr(params, name).T) for name, rows in stacked.rows.items()
    ]
    node_values = np.empty(nodes)

    def block_forward(block: slice, out: np.ndarray, temp: np.ndarray) -> None:
        z = np.matmul(first_rows[block], first_weights, out=out)
        for rows, weights in rest:
            z += np.matmul(rows[block], weights, out=temp)
        np.matmul(config.outer.apply_in_place(z), params.w2, out=node_values[block])

    workspace.each_block(nodes, block_forward)
    node_values /= params.width
    sums = np.add.reduceat(node_values, stacked.starts)
    return sums * readout_scale(stacked, config.readout)


class ShapeError(ValueError):
    """Parameters that do not fit the data or the model config."""


def check_shapes(params: Params, feature_dim: int, config: ModelConfig) -> None:
    if not isinstance(params, _CONTAINERS[config.model_kind]):
        raise ShapeError(
            f"parameter container {type(params).__name__} does not match "
            f"model kind {config.model_kind.value}"
        )
    if params.feature_dim != feature_dim:
        raise ShapeError(
            f"params expect feature_dim {params.feature_dim}, data has {feature_dim}"
        )
    if params.width != config.width:
        raise ShapeError(f"params have width {params.width}, config says {config.width}")


def save_params(params: Params, path) -> None:
    """Write parameters as a JSON document (exact float round-trip)."""
    record = {f.name: getattr(params, f.name).tolist() for f in dataclasses.fields(params)}
    record["model"] = params.kind.value
    write_text(path, json.dumps(record) + "\n")


def load_params(path) -> Params:
    record = read_json(path, ValueError)
    try:
        cls = _CONTAINERS[ModelKind(record["model"])]
        names = [f.name for f in dataclasses.fields(cls)]
        # A field the container lacks would be dropped without a word.
        extra = sorted(record.keys() - {"model", *names})
        if extra:
            raise ValueError(f"{cls.__name__} has no field {extra[0]!r}")
        params = cls(**{name: record[name] for name in names})
        for f in dataclasses.fields(params):
            if not np.isfinite(getattr(params, f.name)).all():
                raise ValueError(f"{f.name} holds a weight that is not finite")
        return params
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: not a valid parameter file: {exc}") from exc
