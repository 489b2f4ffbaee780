"""Closed-form generalization bounds for the one-hidden-layer graph models.

Both bounds come from one evaluator, report_from_stats, which takes the
trained weight norms (ModelStats) and the dataset- and training-level inputs
(BoundInputs) and computes, in this order:

* the per-unit cap c on |f(z)| along the Lipschitz chain through the
  filtered features, where f is the config's outer nonlinearity (phi for
  GCN, kappa for MPGNN): Lip(f) * ||w1|| * g_max * b_F for GCN, and
  Lip(f) * b_F * (||w3|| + g_max * Lip(rho) * Lip(zeta) * ||w1||) for
  MPGNN. When bounded is set and f is bounded (tanh, centered sigmoid), c is
  min(chain, sup|f|); bounded=False keeps the chain.
* the model-output cap B = max|w2| * c * (readout Lipschitz constant * N_max),
  where the last factor is 1 for mean readout and N_max for sum readout;
* t = |loss'| cap * B, with |loss'| <= 1 for the logistic loss;
* the functional-derivative bound alpha * t^2 / n;
* the Rademacher bound 4t*sqrt(t*alpha/n) + 3*M_ell*sqrt(log(2/delta)/(2n)),
  with M_ell = log(1 + exp(B)) the largest loss reachable at |yhat| <= B.

Weight norms enter as the maximum unit-row norm (for w1, w3) and the maximum
absolute entry (for w2). bound_report is the evaluator applied to a
parameter container's norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import to_json_value
from .models import ModelConfig, ModelKind, Params, Readout

DEFAULT_DELTA = 0.05
# The logistic loss has |d loss / d yhat| <= 1 everywhere.
LOGISTIC_GRAD_CAP = 1.0


@dataclass(frozen=True)
class ModelStats:
    """Trained-weight norms the bounds consume."""

    w1_row_norm_max: float
    w2_abs_max: float
    w3_row_norm_max: float | None


@dataclass(frozen=True)
class BoundInputs:
    """Dataset- and training-level quantities shared by every bound."""

    n_train: int
    alpha: float
    n_max: int
    b_f: float
    g_max: float
    readout: Readout
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")
        # Each check is written so that NaN fails it.
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.b_f >= 0:
            raise ValueError("b_f must be >= 0")
        if not self.g_max > 0:
            raise ValueError("g_max must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def readout_node_factor(self) -> float:
        """The product (readout Lipschitz constant) * N_max.

        Mean readout divides the node sum by the graph size, so the product
        is exactly 1 and mean-readout bounds are independent of N_max; sum
        readout leaves the node sum unscaled, so the product is N_max.
        """
        if self.readout is Readout.MEAN:
            return 1.0
        return float(self.n_max)


def extract_model_stats(params: Params) -> ModelStats:
    """The weight norms; a row norm beyond float64 is inf, without a NumPy warning."""
    w3 = getattr(params, "w3", None)
    with np.errstate(over="ignore", invalid="ignore"):
        return ModelStats(
            w1_row_norm_max=float(np.linalg.norm(params.w1, axis=1).max()),
            w2_abs_max=float(np.abs(params.w2).max()),
            w3_row_norm_max=None if w3 is None else float(np.linalg.norm(w3, axis=1).max()),
        )


def max_logistic_loss(output_bound: float) -> float:
    """Largest logistic loss reachable when |yhat| <= output_bound.

    The loss log(1+exp(-y*yhat)) over y in {-1,+1} and |yhat| <= B is
    maximised at yhat = -y*B, giving log(1+exp(B)).
    """
    if output_bound < 0:
        raise ValueError("output_bound must be >= 0")
    # Stable softplus: log(1+exp(B)) = B + log(1+exp(-B)) avoids overflow for
    # large caps (e.g. when reporting bounds for a nearly-diverged model).
    return output_bound + math.log1p(math.exp(-output_bound))


@dataclass(frozen=True)
class BoundReport:
    """Both bounds for one trained model, with the quantities that built them.

    bounded is the evaluator's argument: whether the bounded-nonlinearity cap
    was available. The report recomputes exactly from the echoed stats,
    inputs, model config and bounded flag.
    """

    fd_bound: float
    rademacher_bound: float
    rademacher_complexity_term: float
    rademacher_confidence_term: float
    model_output_cap: float
    bounded: bool
    stats: ModelStats
    inputs: BoundInputs
    config: ModelConfig

    def to_dict(self) -> dict:
        """The report as JSON data, as report.json echoes it."""
        return to_json_value(self)


def report_from_stats(
    config: ModelConfig, stats: ModelStats, inputs: BoundInputs, bounded: bool = True
) -> BoundReport:
    """Both bounds from weight norms and bound inputs, by the module
    docstring's formulas, in its order."""
    outer = config.outer
    if config.model_kind is ModelKind.GCN:
        chain = outer.lipschitz * stats.w1_row_norm_max * inputs.g_max * inputs.b_f
    else:
        if stats.w3_row_norm_max is None:
            raise ValueError("MPGNN bound needs w3 statistics")
        aggregated = inputs.g_max * config.rho.lipschitz * config.zeta.lipschitz * stats.w1_row_norm_max
        chain = outer.lipschitz * inputs.b_f * (stats.w3_row_norm_max + aggregated)
    # chain first, so that a NaN chain stays NaN.
    unit_cap = min(chain, outer.cap) if bounded and outer.cap is not None else chain
    out_cap = stats.w2_abs_max * unit_cap * inputs.readout_node_factor
    t = LOGISTIC_GRAD_CAP * out_cap
    complexity = 4.0 * t * math.sqrt(t * inputs.alpha / inputs.n_train)
    confidence = 3.0 * max_logistic_loss(out_cap) * math.sqrt(
        math.log(2.0 / inputs.delta) / (2.0 * inputs.n_train)
    )
    return BoundReport(
        fd_bound=inputs.alpha * t * t / inputs.n_train,
        rademacher_bound=complexity + confidence,
        rademacher_complexity_term=complexity,
        rademacher_confidence_term=confidence,
        model_output_cap=out_cap,
        bounded=bounded,
        stats=stats,
        inputs=inputs,
        config=config,
    )


def bound_report(
    params: Params, config: ModelConfig, inputs: BoundInputs, bounded: bool = True
) -> BoundReport:
    """report_from_stats on the weight norms of params."""
    return report_from_stats(config, extract_model_stats(params), inputs, bounded)
