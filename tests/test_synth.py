"""Synthetic data generators: SBM/ER adjacency, unit-norm features, labeled datasets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from builders import generate_adjacency
from gnnbound.data import dataset_stats
from gnnbound.synth import (
    PRESET_NAMES,
    ErSpec,
    SbmSpec,
    SynthConfig,
    generate_features,
    make_dataset,
    preset_config,
)
from oracles import draw_adjacency

SBM1 = SbmSpec(block_sizes=(40, 60), edge_prob=((0.25, 0.13), (0.13, 0.37)))


def _block_pair_counts(sizes):
    """Number of node pairs within each block and across each block pair."""
    n0, n1 = sizes
    return {
        (0, 0): n0 * (n0 - 1) // 2,
        (0, 1): n0 * n1,
        (1, 1): n1 * (n1 - 1) // 2,
    }


class TestAdjacency:
    @pytest.mark.parametrize("model", [SBM1, ErSpec(20, 0.5)], ids=["sbm", "er"])
    def test_draw_is_bool(self, model):
        assert generate_adjacency(model, seed=0).dtype == np.bool_

    def test_er_extreme_probabilities(self):
        empty = generate_adjacency(ErSpec(6, 0.0), seed=0)
        assert np.array_equal(empty, np.zeros((6, 6)))
        full = generate_adjacency(ErSpec(6, 1.0), seed=0)
        assert np.array_equal(full, np.ones((6, 6)) - np.eye(6))

    def test_sbm_extreme_probabilities(self):
        spec = SbmSpec(block_sizes=(2, 3), edge_prob=((1.0, 0.0), (0.0, 1.0)))
        adj = generate_adjacency(spec, seed=0)
        expected = np.zeros((5, 5))
        expected[:2, :2] = 1.0 - np.eye(2)
        expected[2:, 2:] = 1.0 - np.eye(3)
        assert np.array_equal(adj, expected)

    def test_adjacency_is_simple_and_symmetric(self, rng):
        for _ in range(10):
            adj = generate_adjacency(SBM1, rng)
            assert np.array_equal(adj, adj.T)
            assert np.all(np.diagonal(adj) == 0.0)
            assert np.all(np.isin(adj, (0.0, 1.0)))

    def test_determinism_by_seed(self):
        a = generate_adjacency(SBM1, seed=7)
        b = generate_adjacency(SBM1, seed=7)
        c = generate_adjacency(SBM1, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sbm1_expected_edge_count(self):
        # Analytic mean edge count: 780*0.25 + 2400*0.13 + 1770*0.37 = 1161.9,
        # per-graph variance sum p(1-p) over pairs; check the 1000-graph mean
        # within 3 standard errors.
        pairs = _block_pair_counts(SBM1.block_sizes)
        p = {(0, 0): 0.25, (0, 1): 0.13, (1, 1): 0.37}
        mean = sum(pairs[k] * p[k] for k in pairs)
        var = sum(pairs[k] * p[k] * (1 - p[k]) for k in pairs)
        assert mean == pytest.approx(1161.9, abs=1e-9)
        rng = np.random.default_rng(123)
        n_graphs = 1000
        counts = [generate_adjacency(SBM1, rng).sum() / 2 for _ in range(n_graphs)]
        se = math.sqrt(var / n_graphs)
        assert abs(np.mean(counts) - mean) <= 3 * se

    def test_er5_expected_edge_count(self):
        spec = ErSpec(20, 0.5)
        mean = 190 * 0.5
        var = 190 * 0.25
        rng = np.random.default_rng(321)
        n_graphs = 1000
        counts = [generate_adjacency(spec, rng).sum() / 2 for _ in range(n_graphs)]
        se = math.sqrt(var / n_graphs)
        assert abs(np.mean(counts) - mean) <= 3 * se

    def test_sbm1_block_densities(self):
        # Mean empirical density per block pair over 500 graphs, 3-SE band.
        pairs = _block_pair_counts(SBM1.block_sizes)
        rng = np.random.default_rng(99)
        n_graphs = 500
        totals = {k: 0.0 for k in pairs}
        for _ in range(n_graphs):
            adj = generate_adjacency(SBM1, rng)
            totals[(0, 0)] += np.triu(adj[:40, :40], k=1).sum()
            totals[(0, 1)] += adj[:40, 40:].sum()
            totals[(1, 1)] += np.triu(adj[40:, 40:], k=1).sum()
        p = {(0, 0): 0.25, (0, 1): 0.13, (1, 1): 0.37}
        for key, prob in p.items():
            trials = pairs[key] * n_graphs
            density = totals[key] / trials
            se = math.sqrt(prob * (1 - prob) / trials)
            assert abs(density - prob) <= 3 * se, key


class TestFeatures:
    def test_rows_have_unit_norm(self, rng):
        feats = generate_features(50, 16, rng)
        assert feats.shape == (50, 16)
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)

    def test_one_dimensional_features_are_signs(self, rng):
        feats = generate_features(100, 1, rng)
        assert np.all(np.isin(feats, (-1.0, 1.0)))

    def test_seed_determinism(self):
        a = generate_features(10, 4, seed=3)
        b = generate_features(10, 4, seed=3)
        c = generate_features(10, 4, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMakeDataset:
    def test_samples_valid_and_sized(self):
        config = SynthConfig(model=ErSpec(6, 0.5), n_graphs=25, feature_dim=3,
                             seed=1, name="tiny")
        ds = make_dataset(config)
        assert len(ds) == 25
        assert ds.name == "tiny"
        assert ds.feature_dim == 3
        for sample in ds:
            assert sample.node_count == 6
            assert sample.label in (-1, 1)

    def test_label_balance(self):
        config = SynthConfig(model=ErSpec(4, 0.5), n_graphs=2000, feature_dim=1, seed=5)
        ds = make_dataset(config)
        positives = sum(1 for s in ds if s.label == 1)
        se = math.sqrt(2000 * 0.25)
        assert abs(positives - 1000) <= 3 * se

    def test_dataset_determinism(self):
        config = SynthConfig(model=ErSpec(5, 0.4), n_graphs=8, feature_dim=2, seed=9)
        a = make_dataset(config)
        b = make_dataset(config)
        for x, y in zip(a, b):
            assert np.array_equal(x.adjacency, y.adjacency)
            assert np.array_equal(x.features, y.features)
            assert x.label == y.label

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equals_a_per_graph_loop_on_the_same_generator(self, name):
        # make_dataset draws every graph from one pair table; each draw must
        # be the one generate_adjacency makes on its own.
        config = preset_config(name, seed=3, n_graphs=6, feature_dim=4)
        rng = np.random.default_rng(config.seed)
        for sample in make_dataset(config):
            assert np.array_equal(sample.adjacency, generate_adjacency(config.model, rng))
            assert np.array_equal(sample.features, generate_features(sample.node_count, 4, rng))
            assert sample.label == int(rng.integers(0, 2)) * 2 - 1

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_draw_equals_one_from_the_full_probability_matrix(self, name):
        model = preset_config(name).model
        if isinstance(model, SbmSpec):
            block = np.repeat(np.arange(len(model.block_sizes)), model.block_sizes)
            prob = np.asarray(model.edge_prob)[block][:, block]
        else:
            prob = np.full((model.node_count,) * 2, model.edge_prob)
        mine, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            assert np.array_equal(generate_adjacency(model, mine), draw_adjacency(prob, theirs))

    def test_feature_rows_unit_norm_in_dataset(self):
        config = SynthConfig(model=ErSpec(5, 0.4), n_graphs=4, feature_dim=16, seed=2)
        stats = dataset_stats(make_dataset(config))
        assert stats.b_f == pytest.approx(1.0, abs=1e-12)


class TestPresets:
    def test_preset_names(self):
        assert PRESET_NAMES == ("er4", "er5", "sbm1", "sbm2", "sbm3")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("nope")

    def test_preset_node_counts(self):
        expected = {"sbm1": 100, "sbm2": 100, "sbm3": 50, "er4": 100, "er5": 20}
        for name, nodes in expected.items():
            config = preset_config(name, n_graphs=1)
            sample = make_dataset(config)[0]
            assert sample.node_count == nodes, name

    def test_sbm1_dataset_stats_bands(self):
        ds = make_dataset(preset_config("sbm1", seed=0))
        stats = dataset_stats(ds)
        assert stats.n_graphs == 200
        assert stats.n_max == 100
        assert 35 <= stats.d_max <= 55
        assert 1 <= stats.d_min <= 12
        assert stats.feature_dim == 16

    def test_preset_overrides(self):
        config = preset_config("er5", seed=3, n_graphs=7, feature_dim=2)
        ds = make_dataset(config)
        assert len(ds) == 7
        assert ds.feature_dim == 2
        assert ds.name == "er5"


class TestSpecValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            SbmSpec(block_sizes=(2, 2), edge_prob=((0.5, 1.5), (1.5, 0.5)))
        with pytest.raises(ValueError):
            ErSpec(3, -0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SbmSpec(block_sizes=(2,), edge_prob=((0.5, 0.5),))

    def test_asymmetric_probabilities_rejected(self):
        with pytest.raises(ValueError):
            SbmSpec(block_sizes=(2, 2), edge_prob=((0.5, 0.1), (0.2, 0.5)))

    def test_negative_seed_rejected_by_field_name(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            preset_config("er5", seed=-2)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            SynthConfig(model=ErSpec(3, 0.5), seed=-1)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            ErSpec(0, 0.5)
        with pytest.raises(ValueError):
            SbmSpec(block_sizes=(0, 2), edge_prob=((0.5, 0.5), (0.5, 0.5)))
