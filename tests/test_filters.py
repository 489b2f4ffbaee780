"""Graph filters: construction, matrix norms, rank, and theoretical bounds."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gnnbound.blas as blas_module
import gnnbound.filters as filters_module
from builders import random_sample, sample_from_edges
from gnnbound.data import GraphDataset, GraphSample, dataset_stats, degrees, to_json_value
from gnnbound.filters import (
    FilterKind,
    apply_filter,
    filter_norm_report,
    fro_norm,
    inf_norm,
    numerical_rank,
    theoretical_fro_bound,
    theoretical_inf_bound,
)
from gnnbound.synth import make_dataset, preset_config
from oracles import (
    filter_norm_report_per_graph,
    filter_of_float_adjacency,
    permute_sample,
    spectral_norm,
)

ALL_KINDS = list(FilterKind)
SRC = Path(__file__).resolve().parent.parent / "src"


class TestApplyFilter:
    def test_sym_norm_single_edge(self):
        sample = sample_from_edges(2, [(0, 1)])
        out = apply_filter(FilterKind.SYM_NORM, sample)
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_sym_norm_edgeless_is_identity(self):
        sample = sample_from_edges(2, [])
        assert np.array_equal(apply_filter(FilterKind.SYM_NORM, sample), np.eye(2))

    def test_random_walk_edgeless_is_identity(self):
        # Zero-degree rows fall back to the identity row (0/0 := 0 plus self-loop).
        sample = sample_from_edges(3, [])
        assert np.array_equal(apply_filter(FilterKind.RANDOM_WALK, sample), np.eye(3))

    def test_random_walk_single_edge(self):
        sample = sample_from_edges(2, [(0, 1)])
        out = apply_filter(FilterKind.RANDOM_WALK, sample)
        assert np.array_equal(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_random_walk_mixed_isolated_node(self):
        # Node 2 is isolated: its row must be the identity row.
        sample = sample_from_edges(3, [(0, 1)])
        out = apply_filter(FilterKind.RANDOM_WALK, sample)
        assert np.array_equal(out[2], [0.0, 0.0, 1.0])
        assert np.array_equal(out[0], [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_bool_adjacency_gives_the_float_filter_bits(self, rng, kind):
        # Node 3 is isolated: random-walk's 0/0 row.
        samples = [sample_from_edges(5, [(0, 1), (1, 2), (2, 4)]), sample_from_edges(1, [])]
        samples += [random_sample(rng, n, 2, edge_prob=p) for n, p in [(9, 0.3), (30, 0.6)]]
        samples += list(make_dataset(preset_config("sbm1", n_graphs=2)))
        for sample in samples:
            out = apply_filter(kind, sample)
            assert out.dtype == np.float64
            expected = filter_of_float_adjacency(kind, sample.adjacency.astype(np.float64))
            assert np.array_equal(out, expected)
            assert out.tobytes() == expected.tobytes()

    def test_mean_agg_rows_sum_to_one(self, rng):
        for _ in range(10):
            sample = random_sample(rng, int(rng.integers(2, 10)), 1)
            out = apply_filter(FilterKind.MEAN_AGG, sample)
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_sum_agg_adds_self_loops(self, triangle):
        out = apply_filter(FilterKind.SUM_AGG, triangle)
        assert np.array_equal(out, np.ones((3, 3)))

    def test_filters_commute_with_node_permutation(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            sample = random_sample(rng, n, 1, edge_prob=0.4)
            perm = rng.permutation(n)
            permuted = permute_sample(sample, perm)
            for kind in ALL_KINDS:
                direct = apply_filter(kind, permuted)
                relabeled = apply_filter(kind, sample)[np.ix_(
                    np.argsort(perm), np.argsort(perm))]
                # G(P A P^T) = P G(A) P^T
                inverse = np.empty(n, dtype=int)
                inverse[perm] = np.arange(n)
                expected = apply_filter(kind, sample)[np.ix_(inverse, inverse)]
                assert np.allclose(direct, expected, atol=1e-12)
                assert np.allclose(relabeled, expected, atol=0)


class TestNorms:
    def test_identity_norms(self):
        eye = np.eye(3)
        assert inf_norm(eye) == 1.0
        assert fro_norm(eye) == math.sqrt(3)
        assert spectral_norm(eye) == pytest.approx(1.0, abs=1e-9)
        assert numerical_rank(eye) == 3

    def test_averaging_matrix_norms(self):
        half = np.full((2, 2), 0.5)
        assert inf_norm(half) == 1.0
        assert fro_norm(half) == pytest.approx(1.0, abs=1e-15)
        assert spectral_norm(half) == pytest.approx(1.0, abs=1e-9)
        assert numerical_rank(half) == 1

    def test_zero_matrix(self):
        zero = np.zeros((4, 4))
        assert inf_norm(zero) == 0.0
        assert fro_norm(zero) == 0.0
        assert spectral_norm(zero) == 0.0
        assert numerical_rank(zero) == 0

    def test_inf_norm_uses_absolute_values(self):
        m = np.array([[1.0, -2.0], [0.0, 1.0]])
        assert inf_norm(m) == 3.0

    def test_spectral_matches_svd(self, rng):
        for _ in range(20):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            m = rng.standard_normal((rows, cols))
            expected = float(np.linalg.svd(m, compute_uv=False)[0])
            assert spectral_norm(m) == pytest.approx(expected, rel=1e-9)

    def test_rank_relative_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-20])) == 1
        assert numerical_rank(np.diag([1.0, 1e-3])) == 2
        assert numerical_rank(np.diag([1e6, 1e-3])) == 1

    def test_fro_rank_spectral_inequality(self, rng):
        for _ in range(50):
            m = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            bound = math.sqrt(numerical_rank(m)) * spectral_norm(m)
            assert fro_norm(m) <= bound + 1e-8


class TestFilterLemmas:
    def test_sym_norm_spectral_is_one(self, rng):
        for _ in range(15):
            sample = random_sample(rng, int(rng.integers(2, 12)), 1, edge_prob=0.4)
            out = apply_filter(FilterKind.SYM_NORM, sample)
            assert spectral_norm(out) == pytest.approx(1.0, abs=1e-6)

    def test_sum_agg_inf_is_dmax_plus_one(self, rng):
        for _ in range(15):
            sample = random_sample(rng, int(rng.integers(2, 12)), 1, edge_prob=0.4)
            out = apply_filter(FilterKind.SUM_AGG, sample)
            assert inf_norm(out) == float(degrees(sample).max() + 1)

    def test_random_walk_inf_is_two_when_no_isolated_nodes(self, rng):
        checked = 0
        for _ in range(40):
            sample = random_sample(rng, int(rng.integers(2, 12)), 1, edge_prob=0.7)
            if degrees(sample).min() < 1:
                continue
            checked += 1
            out = apply_filter(FilterKind.RANDOM_WALK, sample)
            assert inf_norm(out) == pytest.approx(2.0, abs=1e-9)
        assert checked >= 10

    def test_random_walk_spectral_radius_at_most_two(self, rng):
        # D^{-1}A + I is similar to I + D^{-1/2}AD^{-1/2}, so its eigenvalues lie
        # in [0, 2]. The max singular value is NOT bounded by 2 for irregular
        # graphs (the matrix is non-symmetric), so the radius is the right check.
        for _ in range(15):
            sample = random_sample(rng, int(rng.integers(2, 12)), 1, edge_prob=0.5)
            out = apply_filter(FilterKind.RANDOM_WALK, sample)
            radius = float(np.abs(np.linalg.eigvals(out)).max())
            assert radius <= 2.0 + 1e-9

    def test_random_walk_spectral_norm_is_two_for_regular_graphs(self):
        # On a d-regular graph D^{-1}A is symmetric, so the 2-norm equals the
        # spectral radius: exactly 2 (eigenvector of all ones).
        cycle6 = sample_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        k5 = sample_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        for sample in (cycle6, k5):
            out = apply_filter(FilterKind.RANDOM_WALK, sample)
            assert spectral_norm(out) == pytest.approx(2.0, abs=1e-9)

    def test_sym_norm_inf_within_theoretical_bound(self, rng):
        for _ in range(30):
            sample = random_sample(rng, int(rng.integers(2, 12)), 1, edge_prob=0.4)
            degs = degrees(sample)
            bound = math.sqrt((degs.max() + 1) / (degs.min() + 1))
            out = apply_filter(FilterKind.SYM_NORM, sample)
            assert inf_norm(out) <= bound + 1e-9


class TestTheoreticalBounds:
    def test_inf_bounds(self):
        assert theoretical_inf_bound(FilterKind.SYM_NORM, 14, 6) == pytest.approx(
            1.4638501094227998, rel=1e-15
        )
        assert theoretical_inf_bound(FilterKind.SUM_AGG, 3, 1) == 4.0
        assert theoretical_inf_bound(FilterKind.RANDOM_WALK, 25, 0) == 2.0
        assert theoretical_inf_bound(FilterKind.MEAN_AGG, 99, 0) == 1.0

    def test_fro_bounds(self):
        assert theoretical_fro_bound(FilterKind.SYM_NORM, 4) == pytest.approx(2.0, rel=1e-15)
        assert theoretical_fro_bound(FilterKind.RANDOM_WALK, 9) == pytest.approx(6.0, rel=1e-15)
        assert theoretical_fro_bound(FilterKind.SUM_AGG, 7) is None
        assert theoretical_fro_bound(FilterKind.MEAN_AGG, 7) is None


class TestNormReport:
    def test_triangle_sum_agg_report(self, triangle):
        ds = GraphDataset.from_samples([triangle], name="k3")
        report = filter_norm_report(ds, FilterKind.SUM_AGG)
        assert report.inf_norm_max == 3.0
        assert report.fro_norm_max == pytest.approx(3.0, rel=1e-15)
        assert report.g_max == 3.0
        assert report.rank_max == 1
        assert report.inf_bound == 3.0
        assert report.fro_bound is None

    def test_edgeless_sym_norm_report(self):
        ds = GraphDataset.from_samples([sample_from_edges(2, [])], name="empty2")
        report = filter_norm_report(ds, FilterKind.SYM_NORM)
        assert report.inf_norm_max == 1.0
        assert report.fro_norm_max == pytest.approx(math.sqrt(2), rel=1e-12)
        # g_max = min(inf_norm_max, fro_norm_max) = min(1, sqrt(2)) = 1
        assert report.g_max == 1.0
        assert report.rank_max == 2

    def test_g_max_is_min_of_measured_maxima(self, rng):
        ds = GraphDataset.from_samples(
            [random_sample(rng, int(rng.integers(2, 8)), 1) for _ in range(6)], name="r"
        )
        for kind in ALL_KINDS:
            report = filter_norm_report(ds, kind)
            assert report.g_max == min(report.inf_norm_max, report.fro_norm_max)

    def test_json_value_round_trips_values(self, triangle):
        ds = GraphDataset.from_samples([triangle], name="k3")
        report = filter_norm_report(ds, FilterKind.SYM_NORM)
        d = to_json_value(report)
        assert d["kind"] == "sym-norm"
        assert d["g_max"] == report.g_max
        assert set(d) == {
            "kind", "inf_norm_max", "fro_norm_max", "g_max", "rank_max",
            "inf_bound", "fro_bound",
        }


class TestNormReportRuns:
    """filter_norm_report filters the graphs in one pass and ranks only the
    graphs that can raise rank_max; its report must equal the
    one-matrix-at-a-time oracle's (==)."""

    # Three node counts, interleaved, some repeated back to back.
    MIXED_SIZES = [6, 6, 11, 3, 3, 3, 11, 6, 11, 11, 3, 6, 6, 6, 6, 3, 11]

    @classmethod
    def mixed_dataset(cls, rng) -> GraphDataset:
        return GraphDataset.from_samples(
            [random_sample(rng, n, 2, edge_prob=0.4) for n in cls.MIXED_SIZES], name="mixed"
        )

    @staticmethod
    def path_dataset(sizes) -> GraphDataset:
        """Path graphs, whose random-walk filters each have rank n - 1: a path
        is bipartite, so D^{-1}A has the eigenvalue -1."""
        return GraphDataset.from_samples(
            [sample_from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in sizes],
            name="paths",
        )

    @staticmethod
    def isolated_node_in_graph_2(dataset: GraphDataset) -> GraphDataset:
        """dataset with a path through every graph's nodes, so that no node
        is isolated, except the last node of graph 2, which loses its edges."""
        samples = []
        for index, sample in enumerate(dataset):
            adjacency = sample.adjacency.copy()
            path = np.arange(sample.node_count - 1)
            adjacency[path, path + 1] = adjacency[path + 1, path] = 1.0
            if index == 2:
                adjacency[-1, :] = adjacency[:, -1] = 0.0
            samples.append(GraphSample(adjacency=adjacency, features=sample.features,
                                       label=sample.label))
        return GraphDataset.from_samples(samples, name=dataset.name)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_report_equals_the_per_graph_oracle(self, rng, monkeypatch, cpus):
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: cpus)
        mixed = self.mixed_dataset(rng)
        isolated = self.isolated_node_in_graph_2(mixed)
        # The only isolated node is graph 2's last, so d_min = 0 comes from
        # one 11-node graph among 17.
        assert dataset_stats(isolated).d_min == 0
        assert [int(degrees(s).min()) for s in isolated].count(0) == 1
        # A rank-deficient dataset: no graph has rank n, so every graph the
        # rank floor lets through is ranked.
        paths = self.path_dataset(self.MIXED_SIZES)
        assert [numerical_rank(apply_filter(FilterKind.RANDOM_WALK, s)) for s in paths] == [
            n - 1 for n in self.MIXED_SIZES]
        for dataset in (mixed, isolated, paths):
            for kind in ALL_KINDS:
                assert filter_norm_report(dataset, kind) == filter_norm_report_per_graph(
                    dataset, kind
                )

    def test_sbm1_report_equals_the_per_graph_oracle_on_two_lanes(self, monkeypatch):
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        dataset = make_dataset(preset_config("sbm1", n_graphs=60))
        for kind in ALL_KINDS:
            assert filter_norm_report(dataset, kind) == filter_norm_report_per_graph(dataset, kind)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ranks_only_the_graphs_that_can_raise_rank_max(self, monkeypatch, cpus):
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: cpus)
        handed = []
        rank_of = filters_module.numerical_rank

        def counting(matrix):
            handed.append(matrix.shape)
            return rank_of(matrix)

        monkeypatch.setattr(filters_module, "numerical_rank", counting)
        # Full-rank sbm1 graphs: the first graph has rank 100, which no
        # 100-node graph can exceed.
        sbm1 = make_dataset(preset_config("sbm1", n_graphs=60))
        assert filter_norm_report(sbm1, FilterKind.SYM_NORM).rank_max == 100
        assert handed == [(100, 100)]
        # Twelve 10-node paths under random-walk: every graph has rank 9,
        # below its node count, so every graph is ranked.
        handed.clear()
        paths = self.path_dataset([10] * 12)
        assert filter_norm_report(paths, FilterKind.RANDOM_WALK).rank_max == 9
        assert handed == [(10, 10)] * len(paths)

    def test_every_graph_is_filtered_once(self, rng, monkeypatch):
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        calls = []
        filter_one = filters_module.apply_filter

        def counting(kind, sample):
            calls.append(sample)
            return filter_one(kind, sample)

        monkeypatch.setattr(filters_module, "apply_filter", counting)
        dataset = self.mixed_dataset(rng)
        filter_norm_report(dataset, FilterKind.SYM_NORM)
        assert sorted(map(id, calls)) == sorted(map(id, dataset))

    def test_report_off_the_main_thread_equals_the_per_graph_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        dataset = self.mixed_dataset(rng)
        expected = filter_norm_report_per_graph(dataset, FilterKind.SUM_AGG)
        got = []
        caller = threading.Thread(target=lambda: got.append(
            filter_norm_report(dataset, FilterKind.SUM_AGG)))
        caller.start()
        caller.join(timeout=60)
        assert got == [expected]

    def test_starts_no_thread(self):
        code = (
            "import threading\n"
            "import gnnbound.blas as blas\n"
            "from gnnbound.filters import FilterKind, filter_norm_report\n"
            "from gnnbound.synth import make_dataset, preset_config\n"
            "blas._usable_cpus = lambda: 2\n"
            "filter_norm_report(make_dataset(preset_config('sbm1', n_graphs=60)),"
            " FilterKind.SYM_NORM)\n"
            "print(threading.active_count() == 1)\n"
        )
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    def test_holds_one_filtered_matrix_at_a_time(self, monkeypatch):
        # 200 sbm1 graphs are 16 MB of filtered matrices; one 80 KB matrix
        # and its temporaries at a time, with the degrees of every graph,
        # stay below 1 MB.
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        dataset = make_dataset(preset_config("sbm1"))
        tracemalloc.start()
        try:
            filter_norm_report(dataset, FilterKind.SYM_NORM)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
