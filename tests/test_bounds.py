"""Closed-form generalization bounds: model stats, fd bounds, Rademacher bounds."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from gnnbound.bounds import (
    BoundInputs,
    BoundReport,
    ModelStats,
    bound_report,
    extract_model_stats,
    max_logistic_loss,
    report_from_stats,
)
from gnnbound.data import from_plain, to_json_value
from gnnbound.filters import FilterKind
from gnnbound.models import (
    GcnParams,
    ModelConfig,
    ModelKind,
    MpgnnParams,
    Nonlinearity,
    Readout,
    init_params,
)
from gnnbound.report import recompute_bounds_from_record
from oracles import zeros_like_params

GCN = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=1)
MPGNN = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SYM_NORM, width=1)


# The evaluator's fields, one helper per quantity the tests below check.
def fd_bound(config, stats, inputs, bounded=True):
    return report_from_stats(config, stats, inputs, bounded).fd_bound


def rademacher_terms(config, stats, inputs, bounded=True):
    report = report_from_stats(config, stats, inputs, bounded)
    return report.rademacher_complexity_term, report.rademacher_confidence_term


def model_output_cap(config, stats, inputs, bounded=True):
    return report_from_stats(config, stats, inputs, bounded).model_output_cap


def inputs_for(n_train=140, alpha=100.0, n_max=100, b_f=1.0, g_max=1.0,
               readout=Readout.MEAN, delta=0.05):
    return BoundInputs(n_train=n_train, alpha=alpha, n_max=n_max, b_f=b_f,
                       g_max=g_max, readout=readout, delta=delta)


class TestModelStats:
    def test_gcn_stats(self):
        params = GcnParams(w1=np.array([[3.0, 4.0], [0.0, 1.0]]), w2=np.array([-3.0, 2.0]))
        stats = extract_model_stats(params)
        assert stats.w1_row_norm_max == 5.0
        assert stats.w2_abs_max == 3.0
        assert stats.w3_row_norm_max is None

    def test_mpgnn_stats(self):
        params = MpgnnParams(
            w1=np.array([[0.0, 1.0]]), w2=np.array([0.5]), w3=np.array([[3.0, 4.0]])
        )
        stats = extract_model_stats(params)
        assert stats.w1_row_norm_max == 1.0
        assert stats.w3_row_norm_max == 5.0

    def test_zero_params(self):
        params = GcnParams(w1=np.zeros((2, 3)), w2=np.zeros(2))
        stats = extract_model_stats(params)
        assert (stats.w1_row_norm_max, stats.w2_abs_max) == (0.0, 0.0)


class TestMaxLogisticLoss:
    def test_values(self):
        assert max_logistic_loss(0.0) == pytest.approx(math.log(2), abs=1e-15)
        assert max_logistic_loss(1.0) == pytest.approx(1.3132616875182228, rel=1e-15)

    def test_softplus_asymptote(self):
        assert max_logistic_loss(50.0) - 50.0 == pytest.approx(0.0, abs=1e-15)

    def test_monotone(self):
        values = [max_logistic_loss(b) for b in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            max_logistic_loss(-0.1)


class TestReadoutFactor:
    def test_mean_factor_is_exactly_one(self):
        assert inputs_for(n_max=7).readout_node_factor == 1.0
        assert inputs_for(n_max=5000).readout_node_factor == 1.0

    def test_sum_factor_is_node_count(self):
        assert inputs_for(n_max=7, readout=Readout.SUM).readout_node_factor == 7.0


def stats_with_output_cap(m_phi):
    """GCN stats whose unit chain is 1 under inputs_for()'s g_max = b_f = 1,
    so the per-unit output cap is m_phi."""
    return ModelStats(w1_row_norm_max=1.0, w2_abs_max=m_phi, w3_row_norm_max=None)


class TestGenericFdBound:
    def test_hand_value(self):
        bound = fd_bound(GCN, stats_with_output_cap(1.0), inputs_for(), bounded=False)
        assert bound == pytest.approx(100.0 / 140.0, rel=1e-15)
        assert bound == pytest.approx(0.7142857142857143, rel=1e-15)

    def test_mean_readout_independent_of_n_max(self):
        stats = stats_with_output_cap(0.37)
        assert fd_bound(GCN, stats, inputs_for(n_max=5), bounded=False) == fd_bound(
            GCN, stats, inputs_for(n_max=500), bounded=False
        )

    def test_doubling_n_halves_exactly(self):
        stats = stats_with_output_cap(0.3)
        for n in (7, 50, 140, 999):
            b1 = fd_bound(GCN, stats, inputs_for(n_train=n), bounded=False)
            b2 = fd_bound(GCN, stats, inputs_for(n_train=2 * n), bounded=False)
            assert b2 == b1 / 2


class TestGcnFdBound:
    def test_lipschitz_hand_value(self):
        stats = ModelStats(w1_row_norm_max=0.4, w2_abs_max=0.5, w3_row_norm_max=None)
        bound = fd_bound(GCN, stats, inputs_for(g_max=1.5), bounded=False)
        assert bound == pytest.approx(0.0642857142857143, rel=1e-12)

    def test_bounded_form_equals_lipschitz_when_chain_below_cap(self):
        # Chain 1*0.4*1.5*1 = 0.6 < tanh cap 1, so min() selects the chain.
        stats = ModelStats(w1_row_norm_max=0.4, w2_abs_max=0.5, w3_row_norm_max=None)
        lip = fd_bound(GCN, stats, inputs_for(g_max=1.5), bounded=False)
        capped = fd_bound(GCN, stats, inputs_for(g_max=1.5), bounded=True)
        assert capped == lip

    def test_bounded_form_caps_large_chains(self):
        stats = ModelStats(w1_row_norm_max=40.0, w2_abs_max=0.5, w3_row_norm_max=None)
        lip = fd_bound(GCN, stats, inputs_for(g_max=1.5), bounded=False)
        capped = fd_bound(GCN, stats, inputs_for(g_max=1.5), bounded=True)
        assert capped < lip
        # Cap 1 makes the bound alpha*(w2*1)^2/n.
        assert capped == pytest.approx(100.0 * 0.25 / 140.0, rel=1e-12)

    def test_zero_outer_weights_give_zero(self):
        stats = ModelStats(w1_row_norm_max=9.0, w2_abs_max=0.0, w3_row_norm_max=None)
        assert fd_bound(GCN, stats, inputs_for()) == 0.0

    def test_monotone_in_g_max(self):
        stats = ModelStats(w1_row_norm_max=0.4, w2_abs_max=0.5, w3_row_norm_max=None)
        lipschitz = [
            fd_bound(GCN, stats, inputs_for(g_max=g), bounded=False)
            for g in (0.5, 1.0, 1.5, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(lipschitz, lipschitz[1:]))
        capped = [
            fd_bound(GCN, stats, inputs_for(g_max=g), bounded=True)
            for g in (0.5, 1.0, 1.5, 2.0, 4.0)
        ]
        assert all(a <= b for a, b in zip(capped, capped[1:]))


class TestMpgnnFdBound:
    def test_hand_value(self):
        stats = ModelStats(w1_row_norm_max=0.1, w2_abs_max=0.3, w3_row_norm_max=0.2)
        bound = fd_bound(MPGNN, stats, inputs_for(g_max=2.0), bounded=False)
        assert bound == pytest.approx(0.010285714285714285, rel=1e-12)

    def test_all_zero_stats_give_zero(self):
        stats = ModelStats(w1_row_norm_max=0.0, w2_abs_max=0.0, w3_row_norm_max=0.0)
        assert fd_bound(MPGNN, stats, inputs_for()) == 0.0

    def test_missing_w3_stats_rejected(self):
        stats = ModelStats(w1_row_norm_max=0.1, w2_abs_max=0.3, w3_row_norm_max=None)
        with pytest.raises(ValueError):
            fd_bound(MPGNN, stats, inputs_for())


class TestReadoutScaling:
    @pytest.mark.parametrize("model,config", [(ModelKind.GCN, GCN), (ModelKind.MPGNN, MPGNN)])
    def test_sum_is_n_max_squared_times_mean(self, model, config, rng):
        for _ in range(20):
            stats = ModelStats(
                w1_row_norm_max=float(rng.uniform(0.01, 3)),
                w2_abs_max=float(rng.uniform(0.01, 3)),
                w3_row_norm_max=float(rng.uniform(0.01, 3)),
            )
            n_max = int(rng.integers(1, 50))
            mean_in = inputs_for(n_max=n_max, g_max=1.3)
            sum_in = inputs_for(n_max=n_max, g_max=1.3, readout=Readout.SUM)
            mean_bound = fd_bound(config, stats, mean_in, bounded=False)
            sum_bound = fd_bound(config, stats, sum_in, bounded=False)
            assert sum_bound == pytest.approx(n_max**2 * mean_bound, rel=1e-12)
            assert mean_bound <= sum_bound

    def test_fd_scaling_in_n_all_variants(self, rng):
        for config in (GCN, MPGNN):
            for bounded in (True, False):
                for readout in Readout:
                    stats = ModelStats(0.7, 1.2, 0.4)
                    lo = fd_bound(config, stats, inputs_for(n_train=130, readout=readout),
                                  bounded=bounded)
                    hi = fd_bound(config, stats, inputs_for(n_train=260, readout=readout),
                                  bounded=bounded)
                    assert hi == pytest.approx(lo / 2, rel=1e-12)

    def test_bounded_never_exceeds_lipschitz(self, rng):
        for _ in range(1000):
            stats = ModelStats(
                w1_row_norm_max=float(rng.uniform(0, 5)),
                w2_abs_max=float(rng.uniform(0, 5)),
                w3_row_norm_max=float(rng.uniform(0, 5)),
            )
            ins = inputs_for(
                g_max=float(rng.uniform(0.1, 4)),
                b_f=float(rng.uniform(0.5, 2)),
                readout=Readout.MEAN if rng.random() < 0.5 else Readout.SUM,
            )
            for config in (GCN, MPGNN):
                assert fd_bound(config, stats, ins, bounded=True) <= fd_bound(
                    config, stats, ins, bounded=False
                ) * (1 + 1e-15)


class TestRademacher:
    def test_complexity_term_hand_value(self):
        # Stats chosen so the per-unit cap is exactly 1: chain 1*1*1*1 = cap 1.
        stats = ModelStats(w1_row_norm_max=1.0, w2_abs_max=1.0, w3_row_norm_max=None)
        complexity, _ = rademacher_terms(GCN, stats, inputs_for())
        assert complexity == pytest.approx(4 * math.sqrt(100 / 140), rel=1e-13)
        assert complexity == pytest.approx(3.3806170189140663, rel=1e-13)

    def test_confidence_term_hand_value(self):
        # Zero outer weights give output cap 0, so M_ell = log 2.
        stats = ModelStats(w1_row_norm_max=1.0, w2_abs_max=0.0, w3_row_norm_max=None)
        complexity, confidence = rademacher_terms(GCN, stats, inputs_for())
        assert complexity == 0.0
        expected = 3 * math.log(2) * math.sqrt(math.log(40.0) / 280.0)
        assert confidence == pytest.approx(expected, rel=1e-13)
        assert confidence == pytest.approx(0.23867939693079718, rel=1e-13)

    def test_bound_is_sum_of_terms(self):
        stats = ModelStats(w1_row_norm_max=0.8, w2_abs_max=1.4, w3_row_norm_max=None)
        report = report_from_stats(GCN, stats, inputs_for(g_max=1.2))
        terms = (report.rademacher_complexity_term, report.rademacher_confidence_term)
        assert report.rademacher_bound == sum(terms)

    def test_quadrupling_n_halves_each_term(self):
        stats = ModelStats(w1_row_norm_max=0.8, w2_abs_max=1.4, w3_row_norm_max=0.3)
        for config in (GCN, MPGNN):
            t1 = rademacher_terms(config, stats, inputs_for(n_train=140))
            t4 = rademacher_terms(config, stats, inputs_for(n_train=560))
            assert t4[0] == pytest.approx(t1[0] / 2, rel=1e-12)
            assert t4[1] == pytest.approx(t1[1] / 2, rel=1e-12)

    def test_delta_tightens_confidence_term(self):
        stats = ModelStats(w1_row_norm_max=0.8, w2_abs_max=1.4, w3_row_norm_max=None)
        _, strict = rademacher_terms(GCN, stats, inputs_for(delta=0.01))
        _, loose = rademacher_terms(GCN, stats, inputs_for(delta=0.2))
        assert strict > loose


class TestModelOutputCap:
    def test_identity_activation_uses_chain(self):
        config = ModelConfig(
            model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=1,
            outer=Nonlinearity.IDENTITY,
        )
        stats = ModelStats(w1_row_norm_max=3.0, w2_abs_max=2.0, w3_row_norm_max=None)
        # cap is None for identity, so bounded=True still uses the Lipschitz chain.
        assert model_output_cap(config, stats, inputs_for(g_max=2.0), bounded=True) == (
            model_output_cap(config, stats, inputs_for(g_max=2.0), bounded=False)
        )

    def test_sum_readout_scales_cap_by_n_max(self):
        stats = ModelStats(w1_row_norm_max=0.5, w2_abs_max=1.0, w3_row_norm_max=None)
        mean_cap = model_output_cap(GCN, stats, inputs_for(n_max=6), bounded=True)
        sum_cap = model_output_cap(
            GCN, stats, inputs_for(n_max=6, readout=Readout.SUM), bounded=True
        )
        assert sum_cap == pytest.approx(6 * mean_cap, rel=1e-15)


class TestBoundReport:
    def test_zero_params_give_zero_fd_bound(self):
        params = zeros_like_params(init_params(GCN, 3, seed=0))
        report = bound_report(params, GCN, inputs_for())
        assert report.fd_bound == 0.0
        assert report.model_output_cap == 0.0
        assert report.rademacher_complexity_term == 0.0
        assert report.rademacher_confidence_term > 0.0

    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("readout", list(Readout))
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_report_round_trips_through_json(self, kind, readout, bounded):
        # b_f = 100 puts the chain past tanh's cap of 1, so the bounded flag
        # moves both bounds and a recomputation that ignored it would differ.
        config = ModelConfig(model_kind=kind, filter_kind=FilterKind.SYM_NORM, width=2,
                             readout=readout)
        params = init_params(config, 3, seed=0)
        report = bound_report(params, config, inputs_for(b_f=100.0, readout=readout), bounded)
        assert report.fd_bound != bound_report(
            params, config, inputs_for(b_f=100.0, readout=readout), not bounded
        ).fd_bound
        plain = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert plain["config"]["model_kind"] == kind.value
        assert plain["inputs"]["readout"] == readout.value
        assert plain["bounded"] is bounded
        assert from_plain(BoundReport, plain) == report
        assert recompute_bounds_from_record({"bounds": plain}) == (
            report.fd_bound, report.rademacher_bound
        )

    def test_json_value_echoes_inputs_and_stats(self):
        params = init_params(GCN, 3, seed=1)
        report = bound_report(params, GCN, inputs_for(g_max=1.5))
        d = to_json_value(report)
        assert d["inputs"]["g_max"] == 1.5
        assert d["inputs"]["n_train"] == 140
        assert d["stats"]["w2_abs_max"] == report.stats.w2_abs_max
        assert d["fd_bound"] == report.fd_bound
        assert report.to_dict() == d


class TestBoundInputsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_train": 0},
        {"alpha": 0.0},
        {"n_max": 0},
        {"b_f": -1.0},
        {"g_max": 0.0},
        {"delta": 0.0},
        {"delta": 1.0},
        {"alpha": math.nan},
        {"b_f": math.nan},
        {"g_max": math.nan},
        {"delta": math.nan},
    ])
    def test_invalid_inputs_rejected(self, kwargs):
        base = dict(n_train=140, alpha=100.0, n_max=100, b_f=1.0, g_max=1.0,
                    readout=Readout.MEAN)
        base.update(kwargs)
        with pytest.raises(ValueError):
            BoundInputs(**base)

    @pytest.mark.parametrize("config", [GCN, MPGNN])
    @pytest.mark.parametrize("bounded", [True, False])
    def test_zero_features_give_zero_cap_and_fd_bound(self, config, bounded):
        stats = ModelStats(w1_row_norm_max=0.8, w2_abs_max=1.4, w3_row_norm_max=0.3)
        report = report_from_stats(config, stats, inputs_for(b_f=0.0), bounded)
        assert (report.model_output_cap, report.fd_bound) == (0.0, 0.0)
        assert report.rademacher_complexity_term == 0.0


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bounded", [True, False])
    def test_params_with_a_nan_weight_give_nan_bounds(self, bounded):
        # A NaN chain is not capped to the nonlinearity's range.
        params = GcnParams(w1=np.array([[math.nan]]), w2=np.array([1.0]))
        report = bound_report(params, GCN, inputs_for(), bounded)
        assert math.isnan(report.model_output_cap)
        assert math.isnan(report.fd_bound) and math.isnan(report.rademacher_bound)
