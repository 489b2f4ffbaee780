"""Training: logistic loss, ridge penalty, analytic gradients, momentum SGD."""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import gnnbound.blas as blas_module
import gnnbound.models as models_module
import gnnbound.training as training_module

from builders import (
    finite_diff_grads,
    gradcheck_case,
    max_relative_grad_error,
    random_dataset,
    random_sample,
    sample_from_edges,
)
from gnnbound.data import split_dataset
from gnnbound.filters import FilterKind
from gnnbound.models import (
    GcnParams,
    ModelConfig,
    ModelKind,
    Nonlinearity,
    ParamArrays,
    Readout,
    Stacked,
    UnitRows,
    Workspace,
    forward,
    init_params,
)
from gnnbound.training import (
    TrainConfig,
    TrainingDivergenceError,
    empirical_risk,
    logistic_loss,
    logistic_loss_grad,
    measure_generalization,
    prepare_dataset,
    sgd_step,
    train,
)
from gnnbound.synth import make_dataset, preset_config
from oracles import (
    empirical_risk_one_call,
    forward_graph,
    forward_out_of_place,
    grad_empirical_risk,
    grad_regularized_risk,
    map_fields,
    penalty,
    penalty_grads,
    regularized_risk,
    risk_and_loss_grads,
    risk_and_loss_grads_out_of_place,
    stack_samples,
    zeros_like_params,
)
from oracles import sgd_step as sgd_step_out_of_place

GCN_SYM = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=1)


class TestLogisticLoss:
    def test_values(self):
        assert logistic_loss(0.0, 1) == pytest.approx(math.log(2), abs=1e-15)
        assert logistic_loss(0.0, -1) == pytest.approx(math.log(2), abs=1e-15)
        assert logistic_loss(1.0, -1) == pytest.approx(1.3132616875182228, rel=1e-15)
        assert logistic_loss(1.0, 1) == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-14)

    def test_extreme_margins_stay_finite(self):
        assert logistic_loss(100.0, 1) == pytest.approx(0.0, abs=1e-40)
        assert logistic_loss(-1000.0, 1) == pytest.approx(1000.0, rel=1e-12)
        assert logistic_loss(1000.0, -1) == pytest.approx(1000.0, rel=1e-12)
        assert np.isfinite(logistic_loss(np.array([-1e300, 0.0, 1e300]), 1)).all()

    def test_gradient_values(self):
        assert logistic_loss_grad(0.0, 1) == -0.5
        assert logistic_loss_grad(0.0, -1) == 0.5
        # d/dz softplus(-z) at z=1 equals -sigma(-1)
        assert logistic_loss_grad(1.0, 1) == pytest.approx(-1 / (1 + math.e), rel=1e-14)

    def test_gradient_matches_finite_difference(self, rng):
        z = rng.standard_normal(200) * 5
        h = 1e-6
        for y in (1, -1):
            numeric = (logistic_loss(z + h, y) - logistic_loss(z - h, y)) / (2 * h)
            assert np.allclose(logistic_loss_grad(z, y), numeric, atol=1e-8)

    def test_gradient_magnitude_at_most_one(self, rng):
        z = rng.standard_normal(100_000) * 100
        for y in (1, -1):
            assert np.all(np.abs(logistic_loss_grad(z, y)) <= 1.0)


class TestPenalty:
    def test_hand_value(self):
        params = GcnParams(w1=np.array([[2.0]]), w2=np.array([0.0]))
        assert penalty(params, alpha=100.0) == pytest.approx(0.02, rel=1e-15)

    def test_duplicating_units_preserves_penalty(self):
        base = GcnParams(w1=np.array([[0.3, -1.2]]), w2=np.array([0.7]))
        wide = GcnParams(w1=np.tile(base.w1, (5, 1)), w2=np.tile(base.w2, 5))
        assert penalty(wide, 100.0) == pytest.approx(penalty(base, 100.0), rel=1e-15)

    def test_gradient_is_params_over_h_alpha_exactly(self):
        params = GcnParams(w1=np.array([[3.0, -1.0], [0.5, 2.0]]), w2=np.array([1.0, -4.0]))
        grads = penalty_grads(params, alpha=100.0)
        assert np.array_equal(grads.w1, params.w1 / 200.0)
        assert np.array_equal(grads.w2, params.w2 / 200.0)

    def test_penalty_gradient_matches_finite_difference(self, rng):
        params = GcnParams(w1=rng.standard_normal((3, 2)), w2=rng.standard_normal(3))
        grads = penalty_grads(params, alpha=7.0)
        h = 1e-7
        for name in ("w1", "w2"):
            arr = getattr(params, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = arr.copy()
                bumped[idx] += h
                import dataclasses
                plus = penalty(dataclasses.replace(params, **{name: bumped}), 7.0)
                bumped[idx] -= 2 * h
                minus = penalty(dataclasses.replace(params, **{name: bumped}), 7.0)
                numeric = (plus - minus) / (2 * h)
                assert getattr(grads, name)[idx] == pytest.approx(numeric, abs=1e-7)


class TestRisk:
    def test_zero_params_risk_is_log_two(self, rng):
        samples = [random_sample(rng, 4, 2) for _ in range(5)]
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=3)
        params = zeros_like_params(init_params(config, 2, seed=0))
        assert empirical_risk(params, samples, config) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_risk_is_mean_of_per_sample_losses(self, rng):
        config = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.MEAN_AGG,
                             width=2)
        params = init_params(config, 2, seed=1)
        samples = [random_sample(rng, 5, 2) for _ in range(3)]
        expected = np.mean(
            [logistic_loss(forward_graph(params, s, config), s.label) for s in samples]
        )
        assert empirical_risk(params, samples, config) == pytest.approx(expected, rel=1e-14)

    def test_regularized_adds_penalty(self, rng):
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SUM_AGG,
                             width=2)
        params = init_params(config, 2, seed=1)
        samples = [random_sample(rng, 4, 2) for _ in range(2)]
        assert regularized_risk(params, samples, config, 50.0) == pytest.approx(
            empirical_risk(params, samples, config) + penalty(params, 50.0), rel=1e-14
        )


class TestGradients:
    def test_gradcheck_small_gcn(self, rng):
        params, batch, config = gradcheck_case(
            rng, ModelKind.GCN, FilterKind.SYM_NORM, Readout.MEAN, width=2,
            feature_dim=2, nonlinearity=Nonlinearity.TANH,
        )
        analytic = grad_regularized_risk(params, batch, config, 100.0)
        numeric = finite_diff_grads(params, batch, config, 100.0)
        assert max_relative_grad_error(analytic, numeric) < 1e-5

    def test_gradcheck_mpgnn_sum_readout(self, rng):
        params, batch, config = gradcheck_case(
            rng, ModelKind.MPGNN, FilterKind.SUM_AGG, Readout.SUM, width=3,
            feature_dim=2, nonlinearity=Nonlinearity.SIGMOID_CENTERED,
        )
        analytic = grad_regularized_risk(params, batch, config, 100.0)
        numeric = finite_diff_grads(params, batch, config, 100.0)
        assert max_relative_grad_error(analytic, numeric) < 1e-5

    def test_zero_features_make_loss_gradient_vanish(self):
        sample = sample_from_edges(3, [(0, 1), (1, 2)], features=np.zeros((3, 2)))
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=2)
        params = init_params(config, 2, seed=0)
        loss_grads = grad_empirical_risk(params, [sample], config)
        assert np.array_equal(loss_grads.w1, np.zeros_like(params.w1))
        decay = penalty_grads(params, 100.0)
        combined = grad_regularized_risk(params, [sample], config, 100.0)
        assert np.array_equal(combined.w1, decay.w1)

    def test_gradient_of_mean_is_mean_of_gradients(self, rng):
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.RANDOM_WALK,
                             width=2)
        params = init_params(config, 2, seed=3)
        batch = [random_sample(rng, 4, 2) for _ in range(4)]
        whole = grad_empirical_risk(params, batch, config)
        parts_w1 = np.mean(
            [grad_empirical_risk(params, [s], config).w1 for s in batch], axis=0
        )
        assert np.allclose(whole.w1, parts_w1, atol=1e-15)


def block_rows(monkeypatch, rows: int, width: int) -> None:
    """Make the kernel cut its N x width arrays into blocks of this many rows."""
    monkeypatch.setattr(models_module, "_BLOCK_BYTES", rows * 8 * width)


def assert_kernel_matches_out_of_place(monkeypatch, params, stacked, config, lanes):
    """The kernel on workspaces built with this many usable CPUs, so with as
    many lanes, against the out-of-place oracle."""
    monkeypatch.setattr(blas_module, "_usable_cpus", lambda: lanes)
    rows_before = {name: rows.copy() for name, rows in stacked.rows.items()}
    nodes = len(stacked.rows["w1"])
    want_yhat, want_f = forward_out_of_place(params, stacked, config)
    workspace = Workspace(0, params.width)
    assert workspace.f is None
    assert np.array_equal(forward(params, stacked, config, workspace), want_yhat)
    workspace = Workspace(nodes, params.width)
    assert np.array_equal(forward(params, stacked, config, workspace), want_yhat)
    assert np.array_equal(workspace.f[:nodes], want_f)

    risk, grads = risk_and_loss_grads(params, stacked, config, workspace)
    want_risk, want_grads = risk_and_loss_grads_out_of_place(params, stacked, config)
    assert risk == want_risk
    for field in dataclasses.fields(grads):
        assert np.array_equal(getattr(grads, field.name), getattr(want_grads, field.name))
    for name, rows in stacked.rows.items():
        assert np.array_equal(rows, rows_before[name])


class TestInPlaceKernel:
    """forward and the backward run in row blocks on lanes and overwrite their
    temporaries; the numbers must equal those of the out-of-place expressions
    over the whole batch bit for bit."""

    # The stack below has 19 rows: blocks of 2 rows leave a 1-row tail, as do
    # blocks of 3; 5 does not divide 19, and 64 is one block.
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", [2, 3, 5, 64])
    @pytest.mark.parametrize("readout", list(Readout))
    @pytest.mark.parametrize("outer", list(Nonlinearity))
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_matches_out_of_place_kernel_exactly(
        self, rng, monkeypatch, model, outer, readout, rows, lanes
    ):
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=7,
                             readout=readout, outer=outer)
        # Weights scaled up so the outer nonlinearity leaves its linear range.
        params = map_fields(lambda w: 3.0 * w, init_params(config, 3, seed=11))
        stacked = stack_samples(params, [random_sample(rng, n, 3) for n in (3, 6, 10)], config)
        block_rows(monkeypatch, rows, config.width)
        assert_kernel_matches_out_of_place(monkeypatch, params, stacked, config, lanes)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_sbm1_minibatch_at_width_256_matches_exactly(self, monkeypatch, model, lanes):
        # 128 graphs of 100 nodes, cut into blocks of the kernel's own size.
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=256)
        prepared = prepare_dataset(make_dataset(preset_config("sbm1", seed=0)), config)
        stacked = prepared.stack.gather(prepared.graphs[:128])
        params = init_params(config, prepared.feature_dim, seed=3)
        assert_kernel_matches_out_of_place(monkeypatch, params, stacked, config, lanes)

    def test_more_lanes_than_cores_switching_often_match_exactly(self, rng, monkeypatch):
        # Lanes write disjoint row blocks of one f; a write into another
        # lane's rows would show as a changed bit.
        config = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SYM_NORM, width=5)
        params = map_fields(lambda w: 3.0 * w, init_params(config, 3, seed=2))
        stacked = stack_samples(params, [random_sample(rng, n, 3) for n in (7, 9, 11, 13)], config)
        block_rows(monkeypatch, 2, config.width)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                assert_kernel_matches_out_of_place(
                    monkeypatch, params, stacked, config, 2 * os.cpu_count() + 1
                )
        finally:
            sys.setswitchinterval(switch)

    def test_a_workspace_allocates_f_or_an_out_buffer_and_one_temp_per_lane(self, monkeypatch):
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        block_rows(monkeypatch, 2, 3)
        # A lane's scratch has room for a block of 2 rows and a merged tail.
        scratch = [(3, 3)] * 2
        assert sorted(a.shape for a in owned_arrays(Workspace(40, 3))) == scratch + [(40, 3)]
        assert sorted(a.shape for a in owned_arrays(Workspace(0, 3))) == scratch * 2


def owned_arrays(workspace: Workspace) -> list[np.ndarray]:
    """The arrays a workspace allocated: each array it holds, directly or in
    its lists and tuples, taken as the array that owns its memory."""
    found = {}

    def walk(value) -> None:
        if isinstance(value, np.ndarray):
            owner = value if value.base is None else value.base
            found[id(owner)] = owner
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(list(vars(workspace).values()))
    return list(found.values())


def writable(params) -> ParamArrays:
    """A copy of a container's fields (or of ParamArrays) as writable arrays."""
    if isinstance(params, ParamArrays):
        return ParamArrays(**{name: w.copy() for name, w in vars(params).items()})
    return ParamArrays.like(params)


def step_in_place(params, grads, velocity, config):
    """training.sgd_step on writable copies of its inputs; returns the
    updated (params, velocity) arrays."""
    params, velocity = writable(params), writable(velocity)
    sgd_step(params, writable(grads), velocity, config)
    return params, velocity


class TestSgdStep:
    """training.sgd_step updates arrays in place; the oracle's sgd_step
    builds new containers from momentum * v + g and p - lr * v. Each test
    checks both."""

    def _config(self, **kwargs):
        return TrainConfig(**{"learning_rate": 1.0, "momentum": 0.0, **kwargs})

    @pytest.mark.parametrize("step", [sgd_step_out_of_place, step_in_place])
    def test_plain_step_subtracts_gradient(self, step):
        params = GcnParams(w1=np.array([[1.0, 2.0]]), w2=np.array([3.0]))
        grads = GcnParams(w1=params.w1.copy(), w2=params.w2.copy())
        velocity = zeros_like_params(params)
        new_params, new_velocity = step(params, grads, velocity, self._config())
        assert np.array_equal(new_params.w1, np.zeros((1, 2)))
        assert np.array_equal(new_params.w2, np.zeros(1))
        assert np.array_equal(new_velocity.w1, grads.w1)

    @pytest.mark.parametrize("step", [sgd_step_out_of_place, step_in_place])
    def test_two_momentum_steps(self, step):
        params = GcnParams(w1=np.array([[4.0]]), w2=np.array([-2.0]))
        g = GcnParams(w1=np.array([[0.5]]), w2=np.array([0.25]))
        config = TrainConfig(learning_rate=0.1, momentum=0.9)
        velocity = zeros_like_params(params)
        p1, v1 = step(params, g, velocity, config)
        p2, v2 = step(p1, g, v1, config)
        assert np.array_equal(v1.w1, g.w1)
        assert np.array_equal(v2.w1, 0.9 * g.w1 + g.w1)
        assert np.array_equal(p2.w1, (params.w1 - 0.1 * v1.w1) - 0.1 * v2.w1)

    @pytest.mark.parametrize("step", [sgd_step_out_of_place, step_in_place])
    def test_zero_gradient_leaves_params_unchanged(self, step):
        params = GcnParams(w1=np.array([[1.5]]), w2=np.array([2.5]))
        zero = zeros_like_params(params)
        new_params, new_velocity = step(params, zero, zero, self._config(momentum=0.9))
        assert np.array_equal(new_params.w1, params.w1)
        assert np.array_equal(new_velocity.w1, zero.w1)

    def test_inputs_not_mutated(self):
        params = GcnParams(w1=np.array([[1.0]]), w2=np.array([1.0]))
        grads = GcnParams(w1=np.array([[0.5]]), w2=np.array([0.5]))
        velocity = zeros_like_params(params)
        sgd_step_out_of_place(params, grads, velocity, self._config())
        assert params.w1[0, 0] == 1.0 and velocity.w1[0, 0] == 0.0

    def test_in_place_step_writes_params_and_velocity_only(self):
        params = ParamArrays(w1=np.array([[1.0]]), w2=np.array([1.0]))
        grads = ParamArrays(w1=np.array([[0.5]]), w2=np.array([0.5]))
        velocity = ParamArrays(w1=np.zeros((1, 1)), w2=np.zeros(1))
        arrays = {name: (getattr(params, name), getattr(velocity, name)) for name in ("w1", "w2")}
        assert sgd_step(params, grads, velocity, self._config()) is None
        assert params.w1[0, 0] == 0.5 and velocity.w1[0, 0] == 0.5
        assert grads.w1[0, 0] == 0.5 and grads.w2[0] == 0.5
        for name, (p, v) in arrays.items():
            assert getattr(params, name) is p and getattr(velocity, name) is v

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_in_place_steps_equal_the_out_of_place_expressions(self, rng, model):
        # Four steps with fresh gradients; after each, every field must hold
        # momentum * v + g and p - lr * v bit for bit.
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=5)
        cfg = TrainConfig(learning_rate=0.037, momentum=0.9)
        params = init_params(config, 3, seed=7)
        velocity = zeros_like_params(params)
        arrays, arrays_velocity = ParamArrays.like(params), ParamArrays.like(velocity)
        for _ in range(4):
            grads = map_fields(lambda w: rng.standard_normal(w.shape), params)
            want_velocity = map_fields(lambda v, g: cfg.momentum * v + g, velocity, grads)
            want_params = map_fields(lambda p, v: p - cfg.learning_rate * v, params, want_velocity)
            params, velocity = sgd_step_out_of_place(params, grads, velocity, cfg)
            sgd_step(arrays, ParamArrays.like(grads), arrays_velocity, cfg)
            for field in dataclasses.fields(params):
                name = field.name
                assert np.array_equal(getattr(arrays_velocity, name), getattr(want_velocity, name))
                assert np.array_equal(getattr(arrays, name), getattr(want_params, name))
                assert np.array_equal(getattr(params, name), getattr(want_params, name))


class TestTrain:
    def _setup(self, rng, n_samples=6, width=3):
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=width)
        samples = [random_sample(rng, 5, 2) for _ in range(n_samples)]
        params = init_params(config, 2, seed=int(rng.integers(2**31)))
        return params, samples, config

    def test_zero_epochs_returns_params_unchanged(self, rng):
        params, samples, config = self._setup(rng)
        trained, history = train(params, samples, TrainConfig(epochs=0), config)
        assert history == []
        assert np.array_equal(trained.w1, params.w1)
        assert np.array_equal(trained.w2, params.w2)

    def test_single_full_batch_step_matches_manual_update(self, rng):
        params, samples, config = self._setup(rng, n_samples=4)
        cfg = TrainConfig(epochs=1, batch_size=10, seed=21)
        trained, history = train(params, samples, cfg, config)

        order = np.random.default_rng(21).permutation(len(samples))
        batch = [samples[i] for i in order]
        grads = grad_regularized_risk(params, batch, config, cfg.alpha)
        manual, _ = sgd_step_out_of_place(params, grads, zeros_like_params(params), cfg)
        assert np.array_equal(trained.w1, manual.w1)
        assert np.array_equal(trained.w2, manual.w2)
        assert history == [empirical_risk(params, batch, config)]

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_steps_equal_the_out_of_place_updates(self, rng, model):
        # Two epochs of three minibatches: every step's state, updated in
        # place, must equal the oracle's new containers bit for bit.
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=4)
        samples = [random_sample(rng, int(n), 2) for n in rng.integers(2, 9, size=6)]
        params = init_params(config, 2, seed=9)
        cfg = TrainConfig(learning_rate=0.3, epochs=2, batch_size=2, seed=17)
        trained, history = train(params, samples, cfg, config)

        order = np.random.default_rng(cfg.seed)
        want, velocity, want_history = params, zeros_like_params(params), []
        for _ in range(cfg.epochs):
            shuffled = [samples[i] for i in order.permutation(len(samples))]
            loss = 0.0
            for lo in range(0, len(samples), cfg.batch_size):
                batch = shuffled[lo : lo + cfg.batch_size]
                loss += empirical_risk_one_call(want, batch, config) * len(batch)
                grads = grad_regularized_risk(want, batch, config, cfg.alpha)
                want, velocity = sgd_step_out_of_place(want, grads, velocity, cfg)
            want_history.append(loss / len(samples))
        assert history == want_history
        for field in dataclasses.fields(trained):
            assert np.array_equal(getattr(trained, field.name), getattr(want, field.name))

    def test_no_step_builds_a_container(self, rng, monkeypatch):
        params, samples, config = self._setup(rng)
        built = []
        post_init = UnitRows.__post_init__

        def counting(self):
            built.append(type(self))
            post_init(self)

        monkeypatch.setattr(UnitRows, "__post_init__", counting)
        counts = []
        for epochs in (1, 5):
            built.clear()
            train(params, samples, TrainConfig(epochs=epochs, batch_size=2), config)
            counts.append(len(built))
        assert counts[0] == counts[1] == 1

    def test_history_has_one_entry_per_epoch(self, rng):
        params, samples, config = self._setup(rng)
        _, history = train(params, samples, TrainConfig(epochs=7, batch_size=2), config)
        assert len(history) == 7
        assert all(np.isfinite(history))

    def test_training_reduces_risk(self, rng):
        params, samples, config = self._setup(rng, n_samples=20, width=16)
        before = empirical_risk(params, samples, config)
        trained, _ = train(
            params, samples,
            TrainConfig(learning_rate=0.05, epochs=60, batch_size=8, seed=1), config,
        )
        after = empirical_risk(trained, samples, config)
        assert after < before

    def test_determinism(self, rng):
        params, samples, config = self._setup(rng)
        cfg = TrainConfig(epochs=5, batch_size=2, seed=13)
        a, hist_a = train(params, samples, cfg, config)
        b, hist_b = train(params, samples, cfg, config)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert hist_a == hist_b

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_prepared_graphs_train_as_their_samples(self, rng, model):
        # A split of the prepared stack against the same split of the samples.
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=3)
        dataset = random_dataset(rng, 10, 2)
        prepared = prepare_dataset(dataset, dataclasses.replace(config, width=1))
        (train_raw, test_raw), (train_prep, test_prep) = (
            split_dataset(d, 0.7, seed=3) for d in (dataset, prepared)
        )
        assert list(train_prep) == list(train_raw) and list(test_prep) == list(test_raw)
        params = init_params(config, 2, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=3, seed=5)
        (a, hist_a), (b, hist_b) = (train(params, s, cfg, config) for s in (train_raw, train_prep))
        assert hist_a == hist_b
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
        assert measure_generalization(a, train_raw, test_raw, config) == measure_generalization(
            a, train_prep, test_prep, config
        )

    @pytest.mark.parametrize("prepared_for", [
        {"model_kind": ModelKind.GCN},
        {"filter_kind": FilterKind.RANDOM_WALK},
        {"zeta": Nonlinearity.IDENTITY},
        {"rho": Nonlinearity.SIGMOID_CENTERED},
    ])
    def test_dataset_prepared_for_another_model_is_rejected(self, rng, prepared_for):
        config = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SYM_NORM, width=3)
        prepared = prepare_dataset(random_dataset(rng, 6, 2), dataclasses.replace(config, **prepared_for))
        params = init_params(config, 2, seed=4)
        with pytest.raises(ValueError, match="prepared for"):
            empirical_risk(params, prepared, config)
        with pytest.raises(ValueError, match="prepared for"):
            train(params, prepared, TrainConfig(epochs=1), config)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_preparation_ignores_the_fields_it_does_not_read(self, rng, model):
        # Width, readout and the outer nonlinearity (a GCN holds zeta and rho at tanh).
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=3)
        dataset = random_dataset(rng, 6, 2)
        unread = {"width": 1, "readout": Readout.SUM, "outer": Nonlinearity.IDENTITY}
        prepared = prepare_dataset(dataset, dataclasses.replace(config, **unread))
        params = init_params(config, 2, seed=4)
        assert empirical_risk(params, prepared, config) == empirical_risk(params, dataset, config)

    def test_rows_are_gathered_once_per_epoch(self, rng, monkeypatch):
        params, samples, config = self._setup(rng)
        calls = []
        gather = Stacked.gather

        def counting(self, graphs, *args, **kwargs):
            calls.append(len(graphs))
            return gather(self, graphs, *args, **kwargs)

        monkeypatch.setattr(Stacked, "gather", counting)
        train(params, samples, TrainConfig(epochs=4, batch_size=2), config)
        assert calls == [len(samples)] * 4

    def test_divergence_raises(self, rng):
        config = ModelConfig(
            model_kind=ModelKind.GCN, filter_kind=FilterKind.SUM_AGG, width=2,
            readout=Readout.SUM, outer=Nonlinearity.IDENTITY,
        )
        samples = [random_sample(rng, 8, 2) for _ in range(6)]
        params = init_params(config, 2, seed=1)
        cfg = TrainConfig(learning_rate=1e8, epochs=50, batch_size=6, seed=0)
        with pytest.raises(TrainingDivergenceError):
            train(params, samples, cfg, config)

    def test_divergence_on_lanes_raises_without_warnings(self, rng, monkeypatch):
        # Blocks of 2 rows on two lanes: every step dispatches to a pool thread.
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        block_rows(monkeypatch, 2, 4)
        config = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SUM_AGG,
                             width=4, readout=Readout.SUM, outer=Nonlinearity.IDENTITY)
        samples = [random_sample(rng, 8, 2) for _ in range(6)]
        params = init_params(config, 2, seed=1)
        cfg = TrainConfig(learning_rate=1e200, epochs=50, batch_size=3, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDivergenceError, match=r"at epoch \d+, batch \d+"):
                train(params, samples, cfg, config)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_a_nan_weight_after_the_last_step_is_divergence(self, rng, monkeypatch):
        params, samples, config = self._setup(rng)
        step = training_module.sgd_step

        def poisoning(params, grads, velocity, config):
            step(params, grads, velocity, config)
            params.w2[0] = np.nan

        monkeypatch.setattr(training_module, "sgd_step", poisoning)
        with pytest.raises(TrainingDivergenceError, match="NaN after the last step"):
            train(params, samples, TrainConfig(epochs=1, batch_size=len(samples)), config)

    def test_empty_training_set_rejected(self, rng):
        params, _, config = self._setup(rng)
        with pytest.raises(ValueError):
            train(params, [], TrainConfig(), config)

    def test_full_minibatches_take_the_deal_built_with_the_workspace(self, rng, monkeypatch):
        # 7 graphs of 5 nodes in batches of 3: full minibatches of 15 nodes
        # and a tail of 5. Blocks of 2 rows on two lanes, so a deal has runs.
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        block_rows(monkeypatch, 2, 4)
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=4)
        samples = [random_sample(rng, 5, 2) for _ in range(7)]
        params = init_params(config, 2, seed=3)
        dealt = []
        runs = Workspace.runs

        def recording(workspace, nodes):
            result = runs(workspace, nodes)
            dealt.append((nodes, len(workspace.f), result))
            return result

        monkeypatch.setattr(Workspace, "runs", recording)
        train(params, samples, TrainConfig(epochs=4, batch_size=3, seed=4), config)
        full = [result for nodes, own, result in dealt if nodes == own]
        tail = [result for nodes, own, result in dealt if nodes != own]
        # The deal made when the workspace is built, then three dispatches
        # (forward, backward, input-side sums) per step: each of 4 epochs has
        # 2 full steps and a tail step.
        assert {nodes for nodes, _, _ in dealt} == {15, 5} and len(full[0]) == 2
        assert len(full) == 1 + 4 * 2 * 3 and all(result is full[0] for result in full)
        assert len(tail) == 4 * 3 and len({id(result) for result in tail + full[:1]}) == 13

    def test_graphs_of_many_sizes_train_alike_on_two_lanes_and_one(self, rng, monkeypatch):
        # Blocks of 2 rows, so every minibatch is dealt to both lanes.
        block_rows(monkeypatch, 2, 4)
        config = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SYM_NORM,
                             width=4)
        samples = [random_sample(rng, int(n), 2) for n in rng.integers(2, 30, size=12)]
        params = init_params(config, 2, seed=3)
        cfg = TrainConfig(learning_rate=0.1, epochs=6, batch_size=5, seed=4)
        lanes_used = []
        runs = Workspace.runs

        def recording(workspace, nodes):
            result = runs(workspace, nodes)
            lanes_used.append(len(result))
            return result

        monkeypatch.setattr(Workspace, "runs", recording)
        trained = {}
        for lanes in (1, 2):
            monkeypatch.setattr(blas_module, "_usable_cpus", lambda lanes=lanes: lanes)
            lanes_used.clear()
            trained[lanes] = train(params, samples, cfg, config)
            assert set(lanes_used) == {lanes}
        (one, one_history), (two, two_history) = trained[1], trained[2]
        assert one_history == two_history
        for field in dataclasses.fields(one):
            assert np.array_equal(getattr(one, field.name), getattr(two, field.name))


class TestChunkedRisk:
    """empirical_risk runs one forward over the whole set in row blocks, whose
    outer outputs stay in scratch; its risk must equal that of one
    out-of-place forward over the whole set (==)."""

    @staticmethod
    def _check(params, samples, config):
        nodes = sum(sample.node_count for sample in samples)
        blocks = models_module._blocks(nodes, config.width)
        assert nodes == 1 or all(block.stop - block.start > 1 for block in blocks)
        assert empirical_risk(params, samples, config) == empirical_risk_one_call(
            params, samples, config
        )
        return [block.stop - block.start for block in blocks]

    @pytest.mark.parametrize("readout", list(Readout))
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_blocks_across_graphs_equal_one_forward(self, rng, monkeypatch, model, readout):
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=3,
                             readout=readout)
        params = map_fields(lambda w: 3.0 * w, init_params(config, 2, seed=5))
        # Blocks of 4 rows, so most blocks end inside a graph.
        block_rows(monkeypatch, 4, config.width)
        # Eleven graphs of 2 to 9 nodes.
        mixed = [random_sample(rng, int(n), 2) for n in rng.integers(2, 10, size=11)]
        assert len(self._check(params, mixed, config)) > 2
        # One graph of many blocks with a one-row tail, and one graph inside a block.
        assert self._check(params, [random_sample(rng, 29, 2)], config) == [4] * 6 + [5]
        assert self._check(params, [random_sample(rng, 3, 2)], config) == [3]
        # One-node graphs first and last: the last one is a one-row tail,
        # which joins the block before it.
        sizes = (1, 6, 4, 1)
        assert self._check(params, [random_sample(rng, n, 2) for n in sizes], config) == [4, 4, 4]
        # One-node graphs alone: one, two, and five, whose one-row tail joins.
        for count, blocks in ((1, [1]), (2, [2]), (5, [5])):
            ones = [random_sample(rng, 1, 2) for _ in range(count)]
            assert self._check(params, ones, config) == blocks

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_two_lanes_equal_one_lane(self, rng, monkeypatch, model):
        # Blocks of 2 rows, so a risk on the main thread spreads them over
        # both lanes of two usable CPUs.
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=3)
        params = map_fields(lambda w: 3.0 * w, init_params(config, 2, seed=4))
        samples = [random_sample(rng, int(n), 2) for n in rng.integers(2, 10, size=9)]
        block_rows(monkeypatch, 2, config.width)
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 1)
        one_lane = empirical_risk(params, samples, config)
        spread = []
        on_lanes = models_module.on_lanes

        def recording(fn, items):
            spread.append(len(items))
            return on_lanes(fn, items)

        monkeypatch.setattr(models_module, "on_lanes", recording)
        monkeypatch.setattr(blas_module, "_usable_cpus", lambda: 2)
        assert empirical_risk(params, samples, config) == one_lane
        assert spread == [2]

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_no_split_sized_array_at_width_256(self, model):
        # 140 sbm1 graphs of 100 nodes: one 14,000 x 256 float64 array is 28.7 MB.
        config = ModelConfig(model_kind=model, filter_kind=FilterKind.SYM_NORM, width=256)
        prepared = prepare_dataset(make_dataset(preset_config("sbm1", seed=0)), config)
        split = prepared.take(np.arange(140))
        params = init_params(config, prepared.feature_dim, seed=1)
        tracemalloc.start()
        try:
            risk = empirical_risk(params, split, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14_000 * 256 * 8
        assert risk == empirical_risk_one_call(params, split, config)


class TestMeasureGeneralization:
    def test_identical_splits_have_zero_gap(self, rng):
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=2)
        params = init_params(config, 2, seed=0)
        samples = [random_sample(rng, 4, 2) for _ in range(3)]
        result = measure_generalization(params, samples, samples, config)
        assert result.abs_gen_error == 0.0
        assert result.train_risk == result.test_risk

    def test_gap_is_abs_risk_difference(self, rng):
        config = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM,
                             width=4)
        params = init_params(config, 2, seed=0)
        train_set = [random_sample(rng, 4, 2) for _ in range(3)]
        test_set = [random_sample(rng, 4, 2) for _ in range(2)]
        result = measure_generalization(params, train_set, test_set, config)
        assert result.train_risk == empirical_risk(params, train_set, config)
        assert result.test_risk == empirical_risk(params, test_set, config)
        assert result.abs_gen_error == abs(result.test_risk - result.train_risk)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"alpha": 0.0},
        {"batch_size": 0},
        {"epochs": -1},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"alpha": math.nan},
        {"alpha": math.inf},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_negative_seed_rejected_by_field_name(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            TrainConfig(seed=-1)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.momentum, cfg.alpha) == (0.005, 0.9, 100.0)
        assert (cfg.batch_size, cfg.epochs, cfg.seed) == (128, 200, 0)
