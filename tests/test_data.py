"""Dataset representation: validation, degrees, permutation, stats, split, persistence."""

from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from builders import random_dataset, sample_from_edges
from gnnbound.data import (
    DatasetFormatError,
    GraphDataset,
    GraphSample,
    ValidationError,
    dataset_stats,
    degrees,
    load_dataset,
    save_dataset,
    split_dataset,
)
from gnnbound.synth import PRESET_NAMES, make_dataset, preset_config
from oracles import permute_sample, sample_to_record_edge_by_edge


def assert_bool_and_read_only(sample: GraphSample) -> None:
    assert sample.adjacency.dtype == np.bool_
    assert not sample.adjacency.flags.writeable


class TestValidation:
    """A GraphSample that breaks an invariant cannot be built: the error
    lists every violation."""

    def test_triangle_is_valid(self, triangle):
        assert triangle.node_count == 3 and triangle.label == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loops"):
            GraphSample(adjacency=np.eye(2), features=np.ones((2, 1)), label=1)

    def test_asymmetric_rejected(self):
        adj = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetric"):
            GraphSample(adjacency=adj, features=np.ones((2, 1)), label=1)

    def test_nonbinary_entries_rejected(self):
        adj = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValidationError, match="0 or 1"):
            GraphSample(adjacency=adj, features=np.ones((2, 1)), label=1)

    @pytest.mark.parametrize("label", [0, 5, -2])
    def test_bad_label_rejected(self, label):
        with pytest.raises(ValidationError, match="label must be -1 or \\+1"):
            sample_from_edges(2, [(0, 1)], label=label)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            sample_from_edges(2, [(0, 1)], features=[[np.nan], [1.0]])

    def test_every_violation_listed(self):
        # Weighted, asymmetric, with a self-loop: the adjacency a weighted
        # digraph would give.
        adj = np.array([[2.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError) as caught:
            GraphSample(adjacency=adj, features=np.ones((2, 1)), label=0)
        assert str(caught.value).split("; ") == [
            "adjacency entries must be 0 or 1",
            "nonzero diagonal (self-loops are not allowed)",
            "asymmetric adjacency (graphs are undirected)",
            "label must be -1 or +1",
        ]

    def test_nonsquare_adjacency_raises_on_construction(self):
        with pytest.raises(ValidationError):
            GraphSample(adjacency=np.zeros((2, 3)), features=np.ones((2, 1)), label=1)

    def test_feature_row_count_mismatch_raises(self):
        with pytest.raises(ValidationError):
            GraphSample(adjacency=np.zeros((3, 3)), features=np.ones((2, 1)), label=1)

    def test_graph_without_nodes_raises_on_construction(self):
        # load_dataset refuses n = 0, and a zero-node graph in a stack would
        # read the next graph's first node as its own.
        with pytest.raises(ValidationError, match="at least one node"):
            GraphSample(adjacency=np.zeros((0, 0)), features=np.ones((0, 2)), label=1)

    def test_samples_are_immutable(self, triangle):
        with pytest.raises(ValueError):
            triangle.adjacency[0, 1] = 0.0


class TestBoolAdjacency:
    """A sample's adjacency reads as a read-only bool matrix, whichever path
    built it, and the sample checks the given values before the cast."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_sample_is_bool(self, name):
        for sample in make_dataset(preset_config(name, n_graphs=3)):
            assert_bool_and_read_only(sample)

    def test_loaded_samples_are_bool(self, rng, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(random_dataset(rng, 5, 2), path)
        for sample in load_dataset(path):
            assert_bool_and_read_only(sample)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    def test_any_numeric_input_is_kept_as_a_bool_copy(self, dtype):
        given = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=dtype)
        sample = GraphSample(adjacency=given, features=np.ones((3, 1)), label=1)
        assert_bool_and_read_only(sample)
        assert np.array_equal(sample.adjacency, given)
        given[1, 2] = given[2, 1] = 1
        assert not sample.adjacency[1, 2]

    @pytest.mark.parametrize("adjacency, message", [
        ([[0.0, 0.5], [0.5, 0.0]], "adjacency entries must be 0 or 1"),
        ([[0.0, 2.0], [2.0, 0.0]], "adjacency entries must be 0 or 1"),
        (np.array([[0, 2], [2, 0]]), "adjacency entries must be 0 or 1"),
        ([[0.0, -1.0], [-1.0, 0.0]], "adjacency entries must be 0 or 1"),
        ([[0.0, np.nan], [np.nan, 0.0]],
         "adjacency entries must be 0 or 1; asymmetric adjacency (graphs are undirected)"),
        ([[1.0, 0.0], [0.0, 0.0]], "nonzero diagonal (self-loops are not allowed)"),
        (np.eye(2, dtype=bool), "nonzero diagonal (self-loops are not allowed)"),
    ], ids=["half", "two", "int-two", "minus-one", "nan", "float-self-loop", "bool-self-loop"])
    def test_values_that_a_cast_would_hide_still_raise(self, adjacency, message):
        # astype(bool) maps 0.5, 2, -1 and NaN to True.
        with pytest.raises(ValidationError) as caught:
            GraphSample(adjacency=adjacency, features=np.ones((2, 1)), label=1)
        assert str(caught.value) == message

    def test_sbm1_adjacency_is_one_byte_per_entry(self):
        dataset = make_dataset(preset_config("sbm1"))
        assert sum(s.adjacency.nbytes for s in dataset) == 200 * 100 * 100

    def test_sbm1_dataset_keeps_under_six_mb_alive(self):
        # Features are 200 x 100 x 16 float64 (2.56 MB) and adjacencies
        # 2 MB as bool; as float64 they were 16 MB, 17.8 MB in all.
        tracemalloc.start()
        try:
            dataset = make_dataset(preset_config("sbm1"))
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset) == 200
        assert live < 6e6


class TestPackedAdjacency:
    """A sample stores its adjacency at one bit per entry and gives back the
    matrix it was built from, whatever the node count's remainder mod 8."""

    @staticmethod
    def _symmetric(n: int, dtype) -> np.ndarray:
        upper = np.triu(np.random.default_rng(n).random((n, n)) < 0.4, k=1)
        return (upper | upper.T).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float64])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 100])
    def test_adjacency_is_the_given_matrix(self, n, dtype):
        given = self._symmetric(n, dtype)
        sample = GraphSample(adjacency=given, features=np.ones((n, 2)), label=1)
        assert_bool_and_read_only(sample)
        assert sample.adjacency.shape == (n, n)
        assert np.array_equal(sample.adjacency, given)
        assert sample.node_count == n
        assert np.array_equal(degrees(sample), given.sum(axis=1))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 100])
    def test_save_load_save_writes_the_same_bytes(self, n, tmp_path):
        sample = GraphSample(adjacency=self._symmetric(n, np.bool_),
                             features=np.arange(2.0 * n).reshape(n, 2) / 3, label=-1)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_dataset(GraphDataset([sample], name="packed"), first)
        save_dataset(load_dataset(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_sbm1_dataset_keeps_under_three_and_a_half_mb_alive(self):
        # Features are 200 x 100 x 16 float64 (2.56 MB) and the packed
        # adjacencies 200 x 100 x 13 bytes (0.26 MB); as bool they were 2 MB.
        # A first, one-graph draw keeps the imports a first call makes (about
        # 0.7 MB of modules) out of the trace.
        make_dataset(preset_config("sbm1", n_graphs=1))
        tracemalloc.start()
        try:
            dataset = make_dataset(preset_config("sbm1"))
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset) == 200
        assert live < 3.5e6


class TestDegrees:
    def test_path_degrees(self, path4):
        assert degrees(path4).tolist() == [1, 2, 2, 1]

    def test_triangle_degrees(self, triangle):
        assert degrees(triangle).tolist() == [2, 2, 2]

    def test_edgeless_degrees(self):
        sample = sample_from_edges(3, [])
        assert degrees(sample).tolist() == [0, 0, 0]


class TestPermutation:
    def test_identity_permutation(self, path4):
        out = permute_sample(path4, [0, 1, 2, 3])
        assert np.array_equal(out.adjacency, path4.adjacency)
        assert np.array_equal(out.features, path4.features)
        assert out.label == path4.label

    def test_swap_first_two_of_path(self):
        # Path 0-1-2 with nodes 0 and 1 swapped becomes a star at node 0:
        # edges (0,1) and (0,2).
        sample = sample_from_edges(3, [(0, 1), (1, 2)], features=[[1.0], [2.0], [3.0]])
        out = permute_sample(sample, [1, 0, 2])
        expected = sample_from_edges(3, [(0, 1), (0, 2)])
        assert np.array_equal(out.adjacency, expected.adjacency)
        # New node perm[i] carries old node i's feature row.
        assert out.features[:, 0].tolist() == [2.0, 1.0, 3.0]

    def test_permutation_is_undone_by_inverse(self, rng):
        sample = sample_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                                   features=rng.standard_normal((5, 2)))
        perm = rng.permutation(5)
        inverse = np.empty(5, dtype=int)
        inverse[perm] = np.arange(5)
        back = permute_sample(permute_sample(sample, perm), inverse)
        assert np.array_equal(back.adjacency, sample.adjacency)
        assert np.array_equal(back.features, sample.features)

    def test_degree_multiset_preserved(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            sample = sample_from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            )
            out = permute_sample(sample, rng.permutation(n))
            assert sorted(degrees(out)) == sorted(degrees(sample))

    def test_invalid_permutation_rejected(self, triangle):
        with pytest.raises(ValidationError):
            permute_sample(triangle, [0, 0, 1])
        with pytest.raises(ValidationError):
            permute_sample(triangle, [0, 1])


class TestStats:
    def test_triangle_and_path_stats(self, triangle, path4):
        ds = GraphDataset([triangle, path4], name="pair")
        stats = dataset_stats(ds)
        assert stats.n_graphs == 2
        assert stats.n_max == 4
        assert stats.d_max == 2
        assert stats.d_min == 1
        assert stats.feature_dim == 1
        assert stats.b_f == 1.0

    def test_b_f_is_max_feature_row_norm(self):
        # The squares of 1e308 overflow, the row's norm sqrt(2) * 1e308 does not.
        for features in ([[3.0, 4.0], [0.0, 1.0]], [[1e308, 1e308], [3.0, 4.0]]):
            sample = sample_from_edges(2, [(0, 1)], features=features)
            stats = dataset_stats(GraphDataset([sample], name="x"))
            assert stats.b_f == math.hypot(*features[0])

    def test_b_f_beyond_float64_is_refused(self):
        sample = sample_from_edges(2, [(0, 1)], features=[[1.5e308, -1.5e308], [3.0, 4.0]])
        with pytest.raises(ValidationError, match="feature row norm"):
            dataset_stats(GraphDataset([sample], name="x"))

    def test_stats_invariant_under_node_permutation(self, rng):
        ds = random_dataset(rng, 10, 2)
        permuted = GraphDataset(
            [permute_sample(s, rng.permutation(s.node_count)) for s in ds], name=ds.name
        )
        assert dataset_stats(permuted) == dataset_stats(ds)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            GraphDataset([], name="empty")

    def test_mixed_feature_dim_rejected(self, triangle):
        other = sample_from_edges(2, [(0, 1)], features=np.ones((2, 3)))
        with pytest.raises(ValidationError):
            GraphDataset([triangle, other], name="mixed")


class TestSplit:
    def _dataset(self, rng, n):
        return random_dataset(rng, n, 1, n_lo=2, n_hi=4, name="splitme")

    def test_split_sizes_200(self, rng):
        ds = self._dataset(rng, 200)
        train, test = split_dataset(ds, 0.7, seed=0)
        assert (len(train), len(test)) == (140, 60)
        train, test = split_dataset(ds, 0.9, seed=0)
        assert (len(train), len(test)) == (180, 20)

    def test_split_partitions_for_all_betas_and_seeds(self, rng):
        ds = self._dataset(rng, 20)
        ids = {id(s) for s in ds}
        for beta in [round(0.1 * i, 1) for i in range(1, 10)]:
            for seed in range(100):
                train, test = split_dataset(ds, beta, seed=seed)
                assert len(train) == int(round(beta * 20))
                assert len(train) + len(test) == 20
                union = {id(s) for s in train} | {id(s) for s in test}
                assert union == ids

    def test_split_deterministic(self, rng):
        ds = self._dataset(rng, 30)
        a = split_dataset(ds, 0.7, seed=5)
        b = split_dataset(ds, 0.7, seed=5)
        assert all(x is y for x, y in zip(a[0], b[0]))
        assert all(x is y for x, y in zip(a[1], b[1]))

    def test_split_preserves_name(self, rng):
        ds = self._dataset(rng, 10)
        train, test = split_dataset(ds, 0.5, seed=1)
        assert train.name == test.name == "splitme"

    def test_degenerate_splits_rejected(self, rng):
        ds = self._dataset(rng, 10)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.01, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.0, seed=0)


class TestPersistence:
    def test_round_trip_is_identity(self, rng, tmp_path):
        ds = random_dataset(rng, 12, 3, name="persisted")
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.name == ds.name
        assert loaded.feature_dim == ds.feature_dim
        assert len(loaded) == len(ds)
        for a, b in zip(loaded, ds):
            assert np.array_equal(a.adjacency, b.adjacency)
            assert np.array_equal(a.features, b.features)  # bit-identical floats
            assert a.label == b.label

    def test_file_is_what_the_edge_by_edge_writer_wrote(self, rng, tmp_path):
        samples = list(random_dataset(rng, 6, 2))
        samples.append(sample_from_edges(4, [(0, 3), (1, 3)], features=np.ones((4, 2))))
        samples.append(sample_from_edges(1, [], features=[[0.5, -0.0]]))
        samples.extend(make_dataset(preset_config("sbm1", n_graphs=2, feature_dim=2)))
        dataset = GraphDataset(samples, name="written")
        path = tmp_path / "ds.json"
        save_dataset(dataset, path)
        document = {
            "name": dataset.name,
            "feature_dim": dataset.feature_dim,
            "graphs": [sample_to_record_edge_by_edge(sample) for sample in dataset],
        }
        expected = tmp_path / "expected.json"
        with open(expected, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        assert path.read_bytes() == expected.read_bytes()

    def test_invalid_json_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "feature_dim": 1, "graphs": [')
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"name": "x", "graphs": []}')
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_duplicate_edge_raises(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"name": "x", "feature_dim": 1, "graphs": [{"n": 2, '
            '"edges": [[0, 1], [0, 1]], "features": [[1.0], [1.0]], "label": 1}]}'
        )
        with pytest.raises(DatasetFormatError, match="duplicate edge"):
            load_dataset(path)

    def test_unordered_edge_raises(self, tmp_path):
        path = tmp_path / "rev.json"
        path.write_text(
            '{"name": "x", "feature_dim": 1, "graphs": [{"n": 2, '
            '"edges": [[1, 0]], "features": [[1.0], [1.0]], "label": 1}]}'
        )
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_bad_label_raises(self, tmp_path):
        path = tmp_path / "label.json"
        path.write_text(
            '{"name": "x", "feature_dim": 1, "graphs": [{"n": 1, '
            '"edges": [], "features": [[1.0]], "label": 0}]}'
        )
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_invalid_sample_named_by_path_and_graph(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"name": "x", "feature_dim": 1, "graphs": [{"n": 1, "edges": [], '
            '"features": [[1.0]], "label": 1}, {"n": 1, "edges": [], '
            '"features": [[NaN]], "label": 1}]}'
        )
        with pytest.raises(ValidationError, match=r"nan\.json: graph 1: non-finite feature values$"):
            load_dataset(path)

    def test_feature_shape_mismatch_raises(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(
            '{"name": "x", "feature_dim": 2, "graphs": [{"n": 1, '
            '"edges": [], "features": [[1.0]], "label": 1}]}'
        )
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("graph, top, where", [
        ({"graph": 5}, {}, "graph 0: "),
        ({"edges": 5}, {}, "graph 0: "),
        ({"edges": [[False, 1]]}, {}, "graph 0: "),
        ({"n": True, "edges": [], "features": [[1.0]]}, {}, "graph 0: "),
        ({"label": True}, {}, "graph 0: "),
        ({"features": [["x"]]}, {}, "graph 0: "),
        ({"features": [[True], [0.5]]}, {}, "graph 0: features "),
        ({"features": [["0.5"], [1.0]]}, {}, "graph 0: features "),
        ({"features": {"a": 1}}, {}, "graph 0: "),
        ({"features": [[1.0], [1.0, 2.0]]}, {}, "graph 0: "),
        ({}, {"feature_dim": True}, ""),
    ], ids=["graph-not-object", "edges-not-list", "edge-bool", "n-bool", "label-bool",
            "feature-text", "feature-bool", "feature-numeric-text", "features-object",
            "features-ragged", "feature-dim-bool"])
    def test_malformed_value_is_a_format_error_naming_path_and_graph(self, tmp_path, graph,
                                                                     top, where):
        # A JSON boolean is not an integer here, though Python counts it as one.
        record = {"n": 2, "edges": [[0, 1]], "features": [[1.0], [1.0]], "label": 1}
        record = graph.get("graph", {**record, **graph})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "feature_dim": 1, "graphs": [record], **top}))
        with pytest.raises(DatasetFormatError, match="^" + re.escape(f"{path}: {where}")):
            load_dataset(path)
