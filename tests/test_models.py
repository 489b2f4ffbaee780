"""One-hidden-layer graph models: units, forward pass, parameters, persistence."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import nonlinearity_fields, random_sample, sample_from_edges
from gnnbound.data import GraphSample
from gnnbound.filters import FilterKind
from gnnbound.models import (
    GcnParams,
    ModelConfig,
    ModelKind,
    MpgnnParams,
    Nonlinearity,
    Readout,
    check_shapes,
    init_params,
    load_params,
    save_params,
)
from gnnbound.sweep import resolve_dataset
from oracles import (
    forward_graph,
    gcn_unit_output,
    map_fields,
    mpgnn_unit_output,
    permute_sample,
)

GCN_MEAN = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=1)


def _config(model=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=3,
            readout=Readout.MEAN):
    return ModelConfig(model_kind=model, filter_kind=filter_kind, width=width, readout=readout)


class TestNonlinearities:
    def test_values_at_zero(self):
        for nl in Nonlinearity:
            assert nl.apply(np.array([0.0]))[0] == 0.0

    def test_sigmoid_centered_matches_shifted_sigmoid(self, rng):
        x = rng.standard_normal(100) * 3
        expected = 1.0 / (1.0 + np.exp(-x)) - 0.5
        assert np.allclose(Nonlinearity.SIGMOID_CENTERED.apply(x), expected, atol=1e-12)

    def test_lipschitz_and_cap_table(self):
        assert (Nonlinearity.TANH.lipschitz, Nonlinearity.TANH.cap) == (1.0, 1.0)
        assert (Nonlinearity.SIGMOID_CENTERED.lipschitz,
                Nonlinearity.SIGMOID_CENTERED.cap) == (0.25, 0.5)
        assert Nonlinearity.IDENTITY.lipschitz == 1.0
        assert Nonlinearity.IDENTITY.cap is None

    def test_derivatives_match_finite_differences(self, rng):
        x = rng.standard_normal(50)
        h = 1e-6
        for nl in Nonlinearity:
            numeric = (nl.apply(x + h) - nl.apply(x - h)) / (2 * h)
            assert np.allclose(nl.derivative_in_place(nl.apply(x)), numeric, atol=1e-8)

    def test_outputs_respect_cap(self, rng):
        x = rng.standard_normal(1000) * 50
        for nl in (Nonlinearity.TANH, Nonlinearity.SIGMOID_CENTERED):
            assert np.all(np.abs(nl.apply(x)) <= nl.cap)


class TestModelConfig:
    @pytest.mark.parametrize("field", ["zeta", "rho"])
    @pytest.mark.parametrize("value", [Nonlinearity.SIGMOID_CENTERED, Nonlinearity.IDENTITY])
    def test_gcn_refuses_the_nonlinearities_it_does_not_read(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be tanh for a GCN"):
            ModelConfig(ModelKind.GCN, FilterKind.SYM_NORM, 1, **{field: value})

    def test_every_mpgnn_choice_builds(self):
        configs = {
            ModelConfig(ModelKind.MPGNN, FilterKind.SYM_NORM, 1, outer=outer, zeta=zeta, rho=rho)
            for outer, zeta, rho in itertools.product(Nonlinearity, repeat=3)
        }
        assert len(configs) == 27


class TestUnitRows:
    @pytest.mark.parametrize("fields", [
        {"w1": np.ones((2, 3)), "w2": np.ones(3)},
        {"w1": np.ones(2), "w2": np.ones(2)},
        {"w1": np.ones((2, 3)), "w2": np.ones((2, 1))},
        {"w1": np.ones((2, 3)), "w2": np.ones(2), "w3": np.ones((2, 2))},
        {"w1": np.ones((2, 3)), "w2": np.ones(2), "w3": np.ones(2)},
    ])
    def test_bad_shapes_rejected(self, fields):
        cls = MpgnnParams if "w3" in fields else GcnParams
        with pytest.raises(ValueError, match="h-vector"):
            cls(**fields)

    def test_fields_are_frozen_copies(self):
        w1 = np.ones((2, 3))
        params = MpgnnParams(w1=w1, w2=np.ones(2), w3=np.ones((2, 3)))
        w1[0, 0] = 5.0
        assert params.w1[0, 0] == 1.0
        with pytest.raises(ValueError):
            params.w3[0, 0] = 2.0

    def test_map_applies_fn_field_by_field(self):
        a = MpgnnParams(w1=np.ones((2, 3)), w2=np.ones(2), w3=np.ones((2, 3)))
        b = init_params(_config(model=ModelKind.MPGNN, width=2), feature_dim=3, seed=1)
        total = map_fields(lambda x, y, z: x + 2 * y - z, a, b, a)
        assert isinstance(total, MpgnnParams)
        for name in ("w1", "w2", "w3"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.array_equal(getattr(total, name), x + 2 * y - x)
        assert (total.kind, total.width, total.feature_dim) == (ModelKind.MPGNN, 2, 3)


class TestInit:
    def test_gcn_shapes_width_one(self):
        params = init_params(_config(width=1), feature_dim=1, seed=0)
        assert isinstance(params, GcnParams)
        assert params.w1.shape == (1, 1)
        assert params.w2.shape == (1,)
        assert (params.width, params.feature_dim) == (1, 1)

    def test_mpgnn_shapes(self):
        params = init_params(_config(model=ModelKind.MPGNN, width=4), feature_dim=16, seed=0)
        assert isinstance(params, MpgnnParams)
        assert params.w1.shape == (4, 16)
        assert params.w2.shape == (4,)
        assert params.w3.shape == (4, 16)
        total = params.w1.size + params.w2.size + params.w3.size
        assert total == 132

    def test_seed_determinism(self):
        a = init_params(_config(width=5), feature_dim=3, seed=11)
        b = init_params(_config(width=5), feature_dim=3, seed=11)
        c = init_params(_config(width=5), feature_dim=3, seed=12)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert not np.array_equal(a.w1, c.w1)

    def test_fan_scaling(self):
        # w1 rows ~ N(0, 1/k) per entry so row norms concentrate near 1;
        # w2 ~ N(0, 1/h) so its standard deviation is near 1/sqrt(h).
        params = init_params(_config(width=10000), feature_dim=16, seed=0)
        row_norms = np.linalg.norm(params.w1, axis=1)
        assert abs(float(row_norms.mean()) - 1.0) < 0.1
        assert abs(float(params.w2.std()) - 0.01) < 0.002


class TestUnits:
    def test_gcn_unit_example(self):
        out = gcn_unit_output(np.array([1.0]), 2.0, np.array([0.5]))
        assert out == pytest.approx(2 * math.tanh(0.5), rel=1e-15)
        assert out == pytest.approx(0.9242343145200195, rel=1e-15)

    def test_gcn_unit_zero_weight(self):
        assert gcn_unit_output(np.zeros(3), 5.0, np.ones(3)) == 0.0

    def test_gcn_unit_bounded_by_w2(self, rng):
        for _ in range(20):
            w1 = rng.standard_normal(4)
            w2 = float(rng.standard_normal())
            row = rng.standard_normal(4) * 10
            assert abs(gcn_unit_output(w1, w2, row)) <= abs(w2)

    def test_mpgnn_unit_scalar_chain(self):
        out = mpgnn_unit_output(
            w1_row=np.array([1.0]), w2_scalar=1.0, w3_row=np.array([1.0]),
            feature_row=np.array([0.3]), aggregated_row=np.array([0.2]),
        )
        assert out == pytest.approx(math.tanh(0.3 + math.tanh(0.2)), rel=1e-15)
        assert out == pytest.approx(0.460050481856512, rel=1e-15)

    def test_mpgnn_unit_zero_inputs(self):
        out = mpgnn_unit_output(
            w1_row=np.ones(2), w2_scalar=3.0, w3_row=np.ones(2),
            feature_row=np.zeros(2), aggregated_row=np.zeros(2),
        )
        assert out == 0.0


class TestForward:
    def test_hand_computed_two_node_graph(self):
        # Sym-norm filter of a single edge averages the two feature values to
        # 0.7 at both nodes; with w1 = w2 = 1 each node contributes tanh(0.7).
        sample = sample_from_edges(2, [(0, 1)], features=[[0.6], [0.8]])
        params = GcnParams(w1=np.array([[1.0]]), w2=np.array([1.0]))
        out = forward_graph(params, sample, GCN_MEAN)
        assert out == pytest.approx(math.tanh(0.7), abs=1e-12)
        assert out == pytest.approx(0.6043677771171636, abs=1e-12)

    def test_zero_params_give_zero_output(self, rng):
        sample = random_sample(rng, 5, 3)
        for model in ModelKind:
            config = _config(model=model)
            params = init_params(config, 3, seed=0)
            zero = type(params)(**{
                name: np.zeros_like(getattr(params, name))
                for name in ("w1", "w2") + (("w3",) if isinstance(params, MpgnnParams) else ())
            })
            assert forward_graph(zero, sample, config) == 0.0

    def test_sum_readout_is_node_count_times_mean(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, 4))
            sample = random_sample(rng, n, k)
            for model in ModelKind:
                for kind in FilterKind:
                    config_mean = _config(model=model, filter_kind=kind, width=4)
                    config_sum = _config(model=model, filter_kind=kind, width=4,
                                         readout=Readout.SUM)
                    params = init_params(config_mean, k, seed=int(rng.integers(2**31)))
                    mean_out = forward_graph(params, sample, config_mean)
                    sum_out = forward_graph(params, sample, config_sum)
                    assert sum_out == pytest.approx(n * mean_out, rel=1e-12)

    def test_node_permutation_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            sample = random_sample(rng, n, 2)
            permuted = permute_sample(sample, rng.permutation(n))
            for model in ModelKind:
                config = _config(model=model, width=3)
                params = init_params(config, 2, seed=int(rng.integers(2**31)))
                a = forward_graph(params, sample, config)
                b = forward_graph(params, permuted, config)
                assert a == pytest.approx(b, abs=1e-10)

    def test_unit_permutation_invariance(self, rng):
        sample = random_sample(rng, 6, 3)
        for model in ModelKind:
            config = _config(model=model, width=8)
            params = init_params(config, 3, seed=4)
            perm = rng.permutation(8)
            if isinstance(params, MpgnnParams):
                shuffled = MpgnnParams(w1=params.w1[perm], w2=params.w2[perm],
                                       w3=params.w3[perm])
            else:
                shuffled = GcnParams(w1=params.w1[perm], w2=params.w2[perm])
            a = forward_graph(params, sample, config)
            b = forward_graph(shuffled, sample, config)
            assert a == pytest.approx(b, abs=1e-12)

    def test_concatenating_units_averages_outputs(self, rng):
        # Widths act as uniform mixtures over units: stacking the unit arrays
        # of two models of widths h1 and h2 yields the weighted average output.
        sample = random_sample(rng, 5, 2)
        config1 = _config(width=2)
        config2 = _config(width=3)
        p1 = init_params(config1, 2, seed=1)
        p2 = init_params(config2, 2, seed=2)
        combined = GcnParams(w1=np.vstack([p1.w1, p2.w1]),
                             w2=np.concatenate([p1.w2, p2.w2]))
        f1 = forward_graph(p1, sample, config1)
        f2 = forward_graph(p2, sample, config2)
        f12 = forward_graph(combined, sample, _config(width=5))
        assert f12 == pytest.approx((2 * f1 + 3 * f2) / 5, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("filter_kind", list(FilterKind))
    @pytest.mark.parametrize("readout", list(Readout))
    def test_output_is_odd_in_the_features(self, model, filter_kind, readout):
        """yhat(-F) = -yhat(F) exactly, for every choice of the nonlinearities
        the model reads: every nonlinearity is odd, and every filter, weight and
        readout is linear. The presets' feature law (Gaussian rows scaled to
        unit norm) is symmetric under F -> -F, so given the graph the output's
        mean over features is 0, and no label that depends on the topology
        alone can be learned."""
        dataset = resolve_dataset("er5", n_graphs=6, feature_dim=3)
        fields = nonlinearity_fields(model)
        for seed, choice in enumerate(itertools.product(Nonlinearity, repeat=len(fields))):
            config = ModelConfig(model, filter_kind, 4, readout, **dict(zip(fields, choice)))
            params = init_params(config, dataset.feature_dim, seed)
            for sample in dataset:
                flipped = GraphSample(sample.adjacency, -sample.features, sample.label)
                assert forward_graph(params, flipped, config) == -forward_graph(
                    params, sample, config
                )

    def test_output_bounded_by_w2_scale(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            sample = random_sample(rng, n, 2)
            config = _config(width=4)
            params = init_params(config, 2, seed=int(rng.integers(2**31)))
            cap = float(np.abs(params.w2).max())
            assert abs(forward_graph(params, sample, config)) <= cap + 1e-12
            sum_config = _config(width=4, readout=Readout.SUM)
            assert abs(forward_graph(params, sample, sum_config)) <= n * cap + 1e-12


class TestShapeChecks:
    def test_wrong_container_rejected(self):
        gcn = init_params(_config(width=2), 3, seed=0)
        mpgnn_config = _config(model=ModelKind.MPGNN, width=2)
        with pytest.raises(ValueError):
            check_shapes(gcn, 3, mpgnn_config)

    def test_wrong_feature_dim_rejected(self):
        params = init_params(_config(width=2), 3, seed=0)
        with pytest.raises(ValueError):
            check_shapes(params, 4, _config(width=2))

    def test_wrong_width_rejected(self):
        params = init_params(_config(width=2), 3, seed=0)
        with pytest.raises(ValueError):
            check_shapes(params, 3, _config(width=5))

    def test_matching_shapes_pass(self):
        params = init_params(_config(width=2), 3, seed=0)
        check_shapes(params, 3, _config(width=2))


class TestPersistence:
    def test_gcn_round_trip(self, tmp_path):
        params = init_params(_config(width=4), 3, seed=7)
        path = tmp_path / "gcn.json"
        save_params(params, path)
        loaded = load_params(path)
        assert isinstance(loaded, GcnParams)
        assert np.array_equal(loaded.w1, params.w1)
        assert np.array_equal(loaded.w2, params.w2)

    def test_mpgnn_round_trip(self, tmp_path):
        params = init_params(_config(model=ModelKind.MPGNN, width=4), 3, seed=7)
        path = tmp_path / "mpgnn.json"
        save_params(params, path)
        loaded = load_params(path)
        assert isinstance(loaded, MpgnnParams)
        assert np.array_equal(loaded.w3, params.w3)

    def test_load_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_params(path)
        path.write_text('{"model": "unknown"}')
        with pytest.raises(ValueError):
            load_params(path)
