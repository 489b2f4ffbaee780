"""End-to-end acceptance gate.

Nine numbered criteria cover gradient correctness, the matrix-norm lemmas,
readout/permutation identities, bound scaling laws, the width-vs-error trend
with bound dominance and magnitude bands, MPGNN parity, and determinism of
the reporting pipeline. Each test prints one `[criterion N] PASS/FAIL` line
(shown in the -rA summary) and fails the suite on FAIL.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from builders import (
    finite_diff_grads,
    gradcheck_case,
    gradcheck_margin,
    random_dataset,
    random_sample,
)
from gnnbound.data import (
    GraphSample,
    degrees,
    load_dataset,
    save_dataset,
)
from gnnbound.filters import (
    FilterKind,
    apply_filter,
    fro_norm,
    inf_norm,
    numerical_rank,
)
from gnnbound.models import (
    GcnParams,
    ModelConfig,
    ModelKind,
    MpgnnParams,
    Nonlinearity,
    Readout,
    init_params,
)
from gnnbound.bounds import BoundInputs, ModelStats, report_from_stats
from gnnbound.report import emit_reports, recompute_bounds_from_record
from gnnbound.sweep import SweepConfig, run_sweep_on, setup
from gnnbound.synth import SbmSpec, generate_er, generate_sbm, preset_config
from gnnbound.blas import single_threaded_blas
from gnnbound.training import TrainConfig
from oracles import forward_graph, grad_regularized_risk, permute_sample, spectral_norm

ALPHA = 100.0


def check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_gradchecks(cases) -> float:
    worst = 0.0
    for params, batch, config in cases:
        analytic = grad_regularized_risk(params, batch, config, ALPHA)
        numeric = finite_diff_grads(params, batch, config, ALPHA)
        worst = max(worst, gradcheck_margin(analytic, numeric))
    return worst


def make_gradcheck_cases(rng, models):
    """Configurations cycling through every filter/readout with h in {1,2,5}, k in {1,3}."""
    cases = []
    widths = itertools.cycle((1, 2, 5))
    dims = itertools.cycle((1, 3))
    activations = itertools.cycle(
        (Nonlinearity.TANH, Nonlinearity.TANH, Nonlinearity.SIGMOID_CENTERED,
         Nonlinearity.IDENTITY)
    )
    for model in models:
        for filter_kind in FilterKind:
            for readout in Readout:
                cases.append(gradcheck_case(
                    rng, model, filter_kind, readout, next(widths), next(dims),
                    next(activations),
                ))
    return cases


def invariance_failures(rng, n_cases, models) -> dict[str, float]:
    """Worst deviations for the three forward-pass identities over random cases."""
    worst = {"sum_vs_mean": 0.0, "node_perm": 0.0, "unit_perm": 0.0}
    for _ in range(n_cases):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 5))
        width = int(rng.integers(1, 9))
        model = models[int(rng.integers(len(models)))]
        filter_kind = list(FilterKind)[int(rng.integers(4))]
        sample = random_sample(rng, n, k)
        mean_config = ModelConfig(model_kind=model, filter_kind=filter_kind,
                                  width=width, readout=Readout.MEAN)
        sum_config = ModelConfig(model_kind=model, filter_kind=filter_kind,
                                 width=width, readout=Readout.SUM)
        params = init_params(mean_config, k, seed=int(rng.integers(2**31)))

        mean_out = forward_graph(params, sample, mean_config)
        sum_out = forward_graph(params, sample, sum_config)
        rel = abs(sum_out - n * mean_out) / max(abs(sum_out), abs(n * mean_out), 1e-30)
        worst["sum_vs_mean"] = max(worst["sum_vs_mean"], rel)

        permuted = permute_sample(sample, rng.permutation(n))
        worst["node_perm"] = max(
            worst["node_perm"],
            abs(forward_graph(params, permuted, mean_config) - mean_out),
        )

        perm = rng.permutation(width)
        if isinstance(params, MpgnnParams):
            shuffled = MpgnnParams(w1=params.w1[perm], w2=params.w2[perm],
                                   w3=params.w3[perm])
        else:
            shuffled = GcnParams(w1=params.w1[perm], w2=params.w2[perm])
        worst["unit_perm"] = max(
            worst["unit_perm"],
            abs(forward_graph(shuffled, sample, mean_config) - mean_out),
        )
    return worst


def width_means(rows, field):
    return {
        width: float(np.mean([getattr(r, field) for r in rows if r.width == width]))
        for width in sorted({r.width for r in rows})
    }


@pytest.fixture(scope="session")
def sbm1_context():
    # The sym-norm filter of the trend grids (SweepConfig's default).
    return setup(SweepConfig(dataset="sbm1"))


def trend_sweep_config(model: ModelKind) -> SweepConfig:
    # Rows do not depend on the worker count (criterion 9 and
    # test_worker_pool_matches_sequential), so the grid runs on two.
    return SweepConfig(
        dataset="sbm1",
        betas=(0.7,),
        widths=(4, 16, 64, 256),
        seeds=tuple(range(10)),
        models=(model,),
        workers=2,
    )


@pytest.fixture(scope="session")
def gcn_trend_rows(sbm1_context):
    dataset, stats, reports = sbm1_context
    return run_sweep_on(dataset, trend_sweep_config(ModelKind.GCN),
                        stats=stats, filter_reports=reports)


@pytest.fixture(scope="session")
def mpgnn_trend_rows(sbm1_context):
    dataset, stats, reports = sbm1_context
    return run_sweep_on(dataset, trend_sweep_config(ModelKind.MPGNN),
                        stats=stats, filter_reports=reports)


@pytest.fixture
def one_blas_thread():
    """Run the test on one BLAS thread: the clocked criteria then do not wait
    on BLAS threads that another process on the cores has descheduled."""
    with single_threaded_blas():
        yield


def test_criterion_1_gradient_oracle(one_blas_thread):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    cases = make_gradcheck_cases(rng, (ModelKind.GCN, ModelKind.MPGNN))
    extra = [
        gradcheck_case(rng, model, filter_kind, Readout.MEAN, width, 3,
                       Nonlinearity.TANH)
        for model, filter_kind, width in (
            (ModelKind.GCN, FilterKind.SYM_NORM, 1),
            (ModelKind.GCN, FilterKind.RANDOM_WALK, 2),
            (ModelKind.GCN, FilterKind.MEAN_AGG, 5),
            (ModelKind.GCN, FilterKind.SUM_AGG, 1),
            (ModelKind.MPGNN, FilterKind.SYM_NORM, 2),
            (ModelKind.MPGNN, FilterKind.RANDOM_WALK, 5),
            (ModelKind.MPGNN, FilterKind.MEAN_AGG, 1),
            (ModelKind.MPGNN, FilterKind.SUM_AGG, 2),
        )
    ]
    cases.extend(extra)
    assert len(cases) == 24
    worst = run_gradchecks(cases)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 10.0
    check(1, ok, f"24 configs, worst margin {worst:.3e} (<=1), {elapsed:.1f}s (<10s)")


def test_criterion_2_norm_lemmas(one_blas_thread):
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_inf_excess = -math.inf
    worst_spec_dev = 0.0
    worst_fro_excess = -math.inf
    exact_sum_inf = True
    worst_rw_dev = 0.0
    rw_checked = 0
    for name in ("sbm1", "sbm2", "sbm3", "er4", "er5"):
        model = preset_config(name).model
        for _ in range(40):
            if isinstance(model, SbmSpec):
                adjacency = generate_sbm(model, rng)
            else:
                adjacency = generate_er(model, rng)
            n = adjacency.shape[0]
            sample = GraphSample(adjacency=adjacency, features=np.ones((n, 1)), label=1)
            degs = degrees(sample)
            d_max, d_min = int(degs.max()), int(degs.min())

            sym = apply_filter(FilterKind.SYM_NORM, sample)
            bound = math.sqrt((d_max + 1) / (d_min + 1))
            worst_inf_excess = max(worst_inf_excess, inf_norm(sym) - bound)
            worst_spec_dev = max(worst_spec_dev, abs(spectral_norm(sym) - 1.0))

            sum_agg = apply_filter(FilterKind.SUM_AGG, sample)
            exact_sum_inf = exact_sum_inf and inf_norm(sum_agg) == float(d_max + 1)

            if d_min >= 1:
                rw = apply_filter(FilterKind.RANDOM_WALK, sample)
                worst_rw_dev = max(worst_rw_dev, abs(inf_norm(rw) - 2.0))
                rw_checked += 1

            for kind in FilterKind:
                m = apply_filter(kind, sample)
                excess = fro_norm(m) - math.sqrt(numerical_rank(m)) * spectral_norm(m)
                worst_fro_excess = max(worst_fro_excess, excess)
    elapsed = time.perf_counter() - start
    ok = (
        worst_inf_excess <= 1e-9
        and exact_sum_inf
        and worst_rw_dev <= 1e-9
        and rw_checked > 0
        and worst_spec_dev <= 1e-6
        and worst_fro_excess <= 1e-8
        and elapsed < 30.0
    )
    check(2, ok, (
        f"200 graphs: sym-inf excess {worst_inf_excess:.2e}, sum-inf exact "
        f"{exact_sum_inf}, rw-inf dev {worst_rw_dev:.2e} on {rw_checked} graphs, "
        f"sym-spectral dev {worst_spec_dev:.2e}, fro-lemma excess "
        f"{worst_fro_excess:.2e}, {elapsed:.1f}s (<30s)"
    ))


def test_criterion_3_readout_and_invariances():
    rng = np.random.default_rng(303)
    worst = invariance_failures(rng, 100, (ModelKind.GCN, ModelKind.MPGNN))
    ok = (
        worst["sum_vs_mean"] <= 1e-12
        and worst["node_perm"] <= 1e-10
        and worst["unit_perm"] <= 1e-10
    )
    check(3, ok, (
        f"100 cases: sum-vs-mean rel {worst['sum_vs_mean']:.2e} (<=1e-12), "
        f"node-perm {worst['node_perm']:.2e} (<=1e-10), "
        f"unit-perm {worst['unit_perm']:.2e} (<=1e-10)"
    ))


def test_criterion_4_bound_scaling_laws():
    rng = np.random.default_rng(404)
    gcn = ModelConfig(model_kind=ModelKind.GCN, filter_kind=FilterKind.SYM_NORM, width=1)
    mpgnn = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SYM_NORM,
                        width=1)
    worst_half = 0.0
    worst_quarter = 0.0
    worst_ratio = 0.0
    for _ in range(50):
        stats = ModelStats(
            w1_row_norm_max=float(rng.uniform(0.01, 4)),
            w2_abs_max=float(rng.uniform(0.01, 4)),
            w3_row_norm_max=float(rng.uniform(0.01, 4)),
        )
        n = int(rng.integers(2, 2000))
        n_max = int(rng.integers(1, 200))
        g_max = float(rng.uniform(0.2, 3))

        def report(config, n_train, readout, bounded):
            inputs = BoundInputs(n_train=n_train, alpha=ALPHA, n_max=n_max, b_f=1.0,
                                 g_max=g_max, readout=readout)
            return report_from_stats(config, stats, inputs, bounded)

        def terms(report):
            return report.rademacher_complexity_term, report.rademacher_confidence_term

        for config in (gcn, mpgnn):
            for bounded in (True, False):
                for readout in Readout:
                    b_n = report(config, n, readout, bounded).fd_bound
                    b_2n = report(config, 2 * n, readout, bounded).fd_bound
                    worst_half = max(worst_half, abs(b_2n - b_n / 2) / b_n)
                t_n = terms(report(config, n, Readout.MEAN, bounded))
                t_4n = terms(report(config, 4 * n, Readout.MEAN, bounded))
                for a, b in zip(t_4n, t_n):
                    if b > 0:
                        worst_quarter = max(worst_quarter, abs(a - b / 2) / b)
            mean_b = report(config, n, Readout.MEAN, False).fd_bound
            sum_b = report(config, n, Readout.SUM, False).fd_bound
            worst_ratio = max(worst_ratio, abs(sum_b - n_max**2 * mean_b) / sum_b)
    ok = worst_half <= 1e-12 and worst_quarter <= 1e-12 and worst_ratio <= 1e-12
    check(4, ok, (
        f"fd halving rel {worst_half:.2e}, rademacher term halving rel "
        f"{worst_quarter:.2e}, sum/mean ratio rel {worst_ratio:.2e} (all <=1e-12)"
    ))


def test_criterion_5_gcn_trend(gcn_trend_rows):
    means = width_means(gcn_trend_rows, "abs_gen_error")
    ratio = means[4] / means[256]
    ok = all(math.isfinite(v) for v in means.values()) and ratio >= 10.0
    check(5, ok, (
        f"mean |test-train| risk by width "
        + ", ".join(f"h={w}: {v:.3e}" for w, v in means.items())
        + f"; drop h=4 -> h=256 is {ratio:.1f}x (>=10x)"
    ))


def test_criterion_6_bound_dominance(gcn_trend_rows):
    violations = [
        r for r in gcn_trend_rows
        if not (math.isfinite(r.fd_bound) and r.fd_bound >= r.abs_gen_error)
    ]
    headroom = min(
        r.fd_bound / r.abs_gen_error for r in gcn_trend_rows if r.abs_gen_error > 0
    )
    ok = not violations
    check(6, ok, (
        f"fd_bound >= |test-train| risk on {len(gcn_trend_rows) - len(violations)}"
        f"/{len(gcn_trend_rows)} rows; min headroom {headroom:.1f}x"
    ))


def test_criterion_7_bound_magnitudes(gcn_trend_rows):
    fd_mean = width_means(gcn_trend_rows, "fd_bound")[256]
    rad_mean = width_means(gcn_trend_rows, "rademacher_bound")[256]
    ok = 0.0014 <= fd_mean <= 0.14 and 0.046 <= rad_mean <= 4.65
    check(7, ok, (
        f"h=256 mean fd_bound {fd_mean:.4f} in [0.0014, 0.14]; "
        f"mean rademacher {rad_mean:.4f} in [0.046, 4.65]"
    ))


def test_criterion_8_mpgnn_parity(mpgnn_trend_rows):
    rng = np.random.default_rng(808)
    grad_worst = run_gradchecks(make_gradcheck_cases(rng, (ModelKind.MPGNN,)))
    inv_worst = invariance_failures(rng, 30, (ModelKind.MPGNN,))
    means = width_means(mpgnn_trend_rows, "abs_gen_error")
    ratio = means[4] / means[256]
    dominated = all(
        math.isfinite(r.fd_bound) and r.fd_bound >= r.abs_gen_error
        for r in mpgnn_trend_rows
    )
    ok = (
        grad_worst <= 1.0
        and inv_worst["sum_vs_mean"] <= 1e-12
        and inv_worst["node_perm"] <= 1e-10
        and inv_worst["unit_perm"] <= 1e-10
        and ratio >= 10.0
        and dominated
    )
    check(8, ok, (
        f"gradcheck margin {grad_worst:.2e} (<=1), invariances "
        f"{max(inv_worst.values()):.2e}, trend drop {ratio:.1f}x (>=10x), "
        f"bound dominance {dominated}"
    ))


def _masked_rows_csv(path) -> list[str]:
    """rows.csv lines with the wall_time_s column (timing noise) blanked."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index("wall_time_s")
    masked = []
    for line in lines:
        cells = line.split(",")
        cells[idx] = "-"
        masked.append(",".join(cells))
    return masked


def test_criterion_9_determinism_and_round_trips(tmp_path, rng):
    config = SweepConfig(
        dataset="er5", betas=(0.7,), widths=(4, 8), seeds=(0, 1),
        n_graphs=16, feature_dim=3, train=TrainConfig(epochs=20, batch_size=8),
    )
    first_dir, second_dir = tmp_path / "first", tmp_path / "second"
    dataset, stats, reports = setup(config)
    for out_dir in (first_dir, second_dir):
        rows = run_sweep_on(dataset, config, stats=stats, filter_reports=reports)
        emit_reports(rows, out_dir, config=config, stats=stats, filter_reports=reports)
    rows_identical = _masked_rows_csv(first_dir / "rows.csv") == _masked_rows_csv(
        second_dir / "rows.csv"
    )
    summary_identical = (first_dir / "summary.csv").read_bytes() == (
        second_dir / "summary.csv"
    ).read_bytes()

    ds = random_dataset(rng, 10, 3, name="round-trip")
    ds_path = tmp_path / "ds.json"
    save_dataset(ds, ds_path)
    loaded = load_dataset(ds_path)
    dataset_identity = all(
        np.array_equal(a.adjacency, b.adjacency)
        and np.array_equal(a.features, b.features)
        and a.label == b.label
        for a, b in zip(loaded, ds)
    )

    document = json.loads((first_dir / "report.json").read_text())
    worst_recompute = 0.0
    for record in document["rows"]:
        fd, rad = recompute_bounds_from_record(record)
        worst_recompute = max(
            worst_recompute,
            abs(fd - record["fd_bound"]) / max(record["fd_bound"], 1e-300),
            abs(rad - record["rademacher_bound"]) / max(record["rademacher_bound"], 1e-300),
        )

    ok = (rows_identical and summary_identical and dataset_identity
          and worst_recompute <= 1e-12)
    check(9, ok, (
        f"rows.csv identical modulo wall_time_s: {rows_identical}; summary.csv "
        f"byte-identical: {summary_identical}; dataset save/load identity: "
        f"{dataset_identity}; bound recompute rel err {worst_recompute:.2e} (<=1e-12)"
    ))
