"""One repetition of a workload, in a fresh interpreter.

Runs the calls ``gnnbound sweep`` makes (dataset resolve or load,
dataset_stats, filter_norm_report per filter, run_sweep_on, emit_reports),
times them, checks the outputs and prints one JSON line. With ``--trace 1``
it also wraps the program's public entry points and reports per-layer
numbers; end-to-end numbers come from untraced repetitions only.

    python3 perfbench/rep.py --workload sbm1-grid --seed 0 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gnnbound.data as gdata  # noqa: E402
import gnnbound.filters as gfilters  # noqa: E402
import gnnbound.models as gmodels  # noqa: E402
import gnnbound.report as greport  # noqa: E402
import gnnbound.sweep as gsweep  # noqa: E402
import gnnbound.synth as gsynth  # noqa: E402
import gnnbound.training as gtraining  # noqa: E402
from checks import check_rows  # noqa: E402
from tracing import Tracer, totals_by_name  # noqa: E402
from workloads import DEFAULT_SEED, prepare  # noqa: E402

# Setups per untraced repetition; setup_s is the median over all of them.
SETUP_REPEATS = 3
REFERENCE = HERE / "reference.json"


def _train_attrs(params, train_set, config, model_config) -> dict:
    nodes = sum(sample.node_count for sample in train_set)
    return {
        "model": model_config.model_kind.value,
        "width": model_config.width,
        "node_units": config.epochs * nodes * model_config.width,
    }


# (module, attribute, layer name[, span attributes]): each entry point is
# wrapped where its caller looks it up.
WRAPS = (
    (gsynth, "make_dataset", "synth.make_dataset"),
    (gsweep, "make_dataset", "synth.make_dataset"),
    (gsweep, "load_dataset", "data.load_dataset"),
    (gdata, "load_dataset", "data.load_dataset"),
    (gdata, "dataset_stats", "data.dataset_stats"),
    (gfilters, "filter_norm_report", "filters.norm_report"),
    (gfilters, "apply_filter", "filters.apply_filter"),
    (gmodels, "apply_filter", "filters.apply_filter"),
    (gtraining, "prepare_sample", "models.prepare_sample"),
    (gsweep, "split_dataset", "data.split"),
    (gsweep, "train", "training.train", _train_attrs),
    (gtraining, "sgd_step", "training.sgd_step"),
    (gsweep, "measure_generalization", "training.measure"),
    (gsweep, "bound_report", "bounds.report"),
    (gsweep, "run_sweep_on", "sweep.run_sweep_on"),
    (greport, "emit_reports", "report.emit"),
)


def _setup(config):
    """Everything before the first coordinate trains, as cmd_sweep does it."""
    dataset = gsweep.resolve_dataset(
        config.dataset, config.data_seed, config.n_graphs, config.feature_dim
    )
    stats = gdata.dataset_stats(dataset)
    filter_reports = {
        kind: gfilters.filter_norm_report(dataset, kind) for kind in dict.fromkeys(config.filters)
    }
    return dataset, stats, filter_reports


def _same_dataset(a, b) -> bool:
    return (
        a.name == b.name
        and a.feature_dim == b.feature_dim
        and len(a) == len(b)
        and all(
            x.label == y.label
            and np.array_equal(x.adjacency, y.adjacency)
            and np.array_equal(x.features, y.features)
            for x, y in zip(a, b)
        )
    )


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced repetition, from its spans."""
    table = totals_by_name(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return int(table.get(name, {}).get("calls", 0))

    train_ns: dict[tuple[str, int], list[int]] = {}
    for span in spans:
        if span.name == "training.train":
            key = (span.attrs["model"], span.attrs["width"])
            acc = train_ns.setdefault(key, [0, 0])
            acc[0] += span.duration_ns
            acc[1] += span.attrs["node_units"]
    per_width = {f"{m}.h{w}": ns / units for (m, w), (ns, units) in sorted(train_ns.items())}
    metrics = {
        "synth.make_dataset_s": total("synth.make_dataset"),
        "data.load_dataset_s": total("data.load_dataset"),
        "data.dataset_stats_s": total("data.dataset_stats"),
        "filters.norm_report_s": total("filters.norm_report"),
        "filters.apply_filter_calls": calls("filters.apply_filter"),
        "models.prepare_sample_calls": calls("models.prepare_sample"),
        "models.prepare_sample_s": total("models.prepare_sample"),
        "data.split_s": total("data.split"),
        "training.train_s": total("training.train"),
        "training.sgd_steps": calls("training.sgd_step"),
        "training.node_unit_steps": sum(units for _, units in train_ns.values()),
        "training.measure_s": total("training.measure"),
        "bounds.report_s": total("bounds.report"),
        "report.emit_s": total("report.emit"),
    }
    for model in ("gcn", "mpgnn"):
        widths = sorted(w for m, w in train_ns if m == model)
        metrics[f"training.ns_per_node_unit.{model}.h4"] = per_width.get(f"{model}.h4", 0.0)
        metrics[f"training.ns_per_node_unit.{model}.widest"] = (
            per_width[f"{model}.h{widths[-1]}"] if widths else 0.0
        )
    return {"metrics": metrics, "ns_per_node_unit": per_width, "spans": table}


def run(workload: str, seed: int, traced: bool, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id=f"{workload}/seed{seed}/{out_dir.name}") if traced else None
    if tracer is not None:
        for module, attr, name, *attrs in WRAPS:
            tracer.wrap(module, attr, name, *attrs)
    try:
        config, generated = prepare(workload, seed, out_dir)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        dataset, stats, filter_reports = _setup(config)
        t1 = time.perf_counter()
        rows = gsweep.run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
        t2 = time.perf_counter()
        written = greport.emit_reports(
            rows, out_dir / "report", config=config, stats=stats, filter_reports=filter_reports
        )
        t3 = time.perf_counter()
        cpu_s = _cpu_s() - cpu0
        peak_rss_mb = _peak_rss_mb()

        problems = []
        if generated is None and traced:
            roundtrip = out_dir / "dataset-roundtrip.json"
            gdata.save_dataset(dataset, roundtrip)
            generated = gdata.load_dataset(roundtrip)
        if generated is not None and not _same_dataset(generated, dataset):
            problems.append("dataset differs after its JSON save/load round trip")
    finally:
        if tracer is not None:
            tracer.restore()

    setup_samples = [t1 - t0]
    if not traced:
        for _ in range(SETUP_REPEATS - 1):
            start = time.perf_counter()
            _setup(config)
            setup_samples.append(time.perf_counter() - start)

    reference = None
    if seed == DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())["workloads"].get(workload)
    document = json.loads(written["report"].read_text())
    check = check_rows(
        document["rows"],
        written["rows"].read_text(),
        expected=len(gsweep.sweep_coordinates(config)),
        reference=reference["rows"] if reference else None,
    )
    # The dataset files at the top of out_dir are inputs, not results;
    # removing them keeps the output of many runs small.
    for path in out_dir.glob("*.json"):
        path.unlink()
    result = {
        "total_s": t3 - t0,
        "setup_s": setup_samples[0],
        "setup_samples": setup_samples,
        "sweep_s": t2 - t1,
        "emit_s": t3 - t2,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "workers": config.workers,
        "wall_times": [row.wall_time_s for row in rows],
        "report_bytes": sum(path.stat().st_size for path in written.values()),
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": list(check.failures) + problems,
        "digest": check.digest,
        "reference_digest": reference["digest"] if reference else None,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if tracer is not None:
        tracer.write_spans(out_dir / "spans.csv")
        result["trace"] = layer_metrics(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
