"""Benchmark of ``gnnbound sweep``: repeat one workload for a fixed time.

    python3 perfbench/run.py --workload sbm1-grid --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Every repetition runs in a fresh interpreter (rep.py), so each one pays for
what a user's ``gnnbound sweep`` pays for and its memory peak is its own.
Another repetition starts only while it is expected to end within 10 % past
--seconds; at least two always run. With --trace 1
untraced and traced repetitions alternate: the traced ones give the
per-layer numbers, the untraced ones the output-derived sweep numbers and
the baseline for the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all the last line maps each
workload to such an object instead. The full result, with the machine block,
every repetition and the masked rows digest, is written to
.perfbench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SECONDS = 50
# A run must end within 180 s; a repetition is killed when it would not.
RUN_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "synth.make_dataset_s": "s",
    "data.load_dataset_s": "s",
    "data.dataset_stats_s": "s",
    "filters.norm_report_s": "s",
    "filters.apply_filter_calls": "count",
    "models.prepare_sample_calls": "count",
    "models.prepare_sample_s": "s",
    "data.split_s": "s",
    "training.train_s": "s",
    "training.sgd_steps": "count",
    "training.node_unit_steps": "count",
    "training.ns_per_node_unit.gcn.h4": "ns",
    "training.ns_per_node_unit.gcn.widest": "ns",
    "training.ns_per_node_unit.mpgnn.h4": "ns",
    "training.ns_per_node_unit.mpgnn.widest": "ns",
    "training.measure_s": "s",
    "bounds.report_s": "s",
    "report.emit_s": "s",
    "report.bytes": "bytes",
    "sweep.coord_s_p50": "s",
    "sweep.coord_s_max": "s",
    "sweep.coord_s_sum": "s",
    "sweep.idle_share": "ratio",
    "trace.overhead_s": "s",
}


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten of n samples above it.

    None below 20 samples, where only the median qualifies.
    """
    if n < 20:
        return None
    return 100 - math.ceil(1000 / n)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_block(rep: dict, loadavg: tuple[float, ...]) -> dict:
    blas = rep["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": rep["numpy"],
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_sha": git_sha(),
        "loadavg_start": list(loadavg),
    }


def run_rep(workload: str, seed: int, traced: bool, out_dir: Path, timeout: float) -> dict:
    """One repetition in a fresh interpreter; a crash or timeout becomes a problem entry."""
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--out", str(out_dir),
    ]
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "rep_s": time.perf_counter() - started,
                "problems": [f"repetition killed after {timeout:.0f} s"]}
    rep_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "rep_s": rep_s,
                "problems": [f"repetition exited {done.returncode}: " + " | ".join(tail)]}
    result = json.loads(lines[-1])
    result.update(traced=traced, rep_s=rep_s)
    return result


def repeat(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> list[dict]:
    group = (False, True) if traced else (False,)
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        group_start = time.perf_counter()
        for kind in group:
            remaining = max(RUN_LIMIT_S - (time.perf_counter() - start), 1.0)
            reps.append(run_rep(workload, seed, kind, run_dir / f"rep{len(reps)}", remaining))
        elapsed = time.perf_counter() - start
        group_s = time.perf_counter() - group_start
        ok = all("total_s" in r for r in reps)
        if not ok or (len(reps) >= 2 and elapsed + group_s > 1.1 * seconds):
            return reps


def end_to_end_metrics(reps: list[dict]) -> dict[str, float]:
    setups = [s for r in reps for s in r["setup_samples"]]
    metrics = {name: median([r[name] for r in reps]) for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = median(setups)
    return metrics


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {
        name: median([r["trace"]["metrics"][name] for r in traced])
        for name in PER_LAYER
        if name in traced[0]["trace"]["metrics"]
    }
    metrics["report.bytes"] = median([r["report_bytes"] for r in untraced])
    metrics["sweep.coord_s_p50"] = median([median(r["wall_times"]) for r in untraced])
    metrics["sweep.coord_s_max"] = median([max(r["wall_times"]) for r in untraced])
    metrics["sweep.coord_s_sum"] = median([sum(r["wall_times"]) for r in untraced])
    metrics["sweep.idle_share"] = median(
        [1 - sum(r["wall_times"]) / (r["workers"] * r["sweep_s"]) for r in untraced]
    )
    metrics["trace.overhead_s"] = median([r["total_s"] for r in traced]) - median(
        [r["total_s"] for r in untraced]
    )
    return metrics


def evaluate(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; return (the object of the result line, the full result)."""
    loadavg = os.getloadavg()
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps = repeat(workload, seed, seconds, traced, run_dir)
    good = [r for r in reps if "total_s" in r]
    if not good:
        raise RuntimeError(f"{workload}: no repetition finished: {reps[0]['problems']}")
    problems = [p for r in reps for p in r["problems"]]
    digests = sorted({r["digest"] for r in good})
    if len(digests) > 1:
        problems.append(f"repetitions wrote different rows: {digests}")
    reference = good[0]["reference_digest"]
    if reference is not None and digests != [reference]:
        problems.append(f"masked rows digest {digests} differs from the reference {reference}")
    per_rep = good[0]["attempted"]
    attempted = per_rep * len(reps)
    failed = sum(r["failed"] for r in good) + per_rep * (len(reps) - len(good))

    untraced = [r for r in good if not r["traced"]]
    if traced:
        traced_reps = [r for r in good if r["traced"]]
        if not untraced or not traced_reps:
            raise RuntimeError(f"{workload}: the traced run needs an untraced and a traced repetition")
        values, units = per_layer_metrics(untraced, traced_reps), PER_LAYER
    else:
        values, units = end_to_end_metrics(untraced), END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    full = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "machine": machine_block(good[0], loadavg),
        "masked_rows_sha256": digests[0] if len(digests) == 1 else digests,
        "reference_sha256": reference,
        "failed_share": failed / attempted,
        "problems": problems,
        "result": result,
        "repetitions": [{k: v for k, v in r.items() if k not in ("blas", "numpy")} for r in reps],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(full, indent=1) + "\n"
    )
    return result, full


def describe(full: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    result = full["result"]
    reps = [r for r in full["repetitions"] if "total_s" in r]
    reference = full["reference_sha256"]
    match = "no reference for this seed" if reference is None else (
        "matches the reference" if full["masked_rows_sha256"] == reference else "DIFFERS from the reference"
    )
    lines = [
        f"== {full['workload']} seed {full['seed']} trace {full['trace']}: "
        f"{len(full['repetitions'])} repetitions, correct={result['correct']}",
        f"machine: {json.dumps(full['machine'])}",
        f"masked rows sha256: {full['masked_rows_sha256']} ({match})",
        f"failed_share: {full['failed_share']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} coordinates failed)",
    ]
    lines += [f"problem: {p}" for p in full["problems"]]
    for name, metric in result["metrics"].items():
        lines.append(f"{name}: {metric['value']:.6g} {metric['unit']}")
    walls = [w for r in reps if not r["traced"] for w in r["wall_times"]]
    p = tail_percentile(len(walls))
    tail = f", p{p} {percentile(walls, p):.4g} s" if p else ""
    lines.append(f"coordinate wall time: median {median(walls):.4g} s{tail} over {len(walls)} coordinates")
    return lines


def main(argv=None) -> int:
    if not (ROOT / "src" / "gnnbound" / "__init__.py").is_file():
        print(f"error: no gnnbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, full = evaluate(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(full)), flush=True)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
