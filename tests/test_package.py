"""The top-level namespace: what `from gnnbound import ...` offers."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import gnnbound
from builders import random_dataset
from gnnbound.data import split_dataset
from gnnbound.filters import FilterKind
from gnnbound.models import ModelConfig, ModelKind, init_params
from gnnbound.training import TrainConfig, prepare_dataset

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "gnnbound"


def test_readme_imports_are_exported_and_exports_resolve():
    block = re.search(r"from gnnbound import \(([^)]*)\)", README.read_text()).group(1)
    documented = {name.strip() for name in block.split(",") if name.strip()}
    assert documented == set(gnnbound.__all__)
    for name in gnnbound.__all__:
        assert getattr(gnnbound, name) is not None, name


def test_benchmark_entry_points_resolve(monkeypatch, rng):
    # perfbench/rep.py wraps these names where their callers look them up,
    # and its traced runs fail on one that is gone or renamed.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_rep", ROOT / "perfbench" / "rep.py")
    rep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rep)
    for module, attr, *_ in rep.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    config = ModelConfig(model_kind=ModelKind.MPGNN, filter_kind=FilterKind.SYM_NORM, width=4)
    prepared = prepare_dataset(random_dataset(rng, 6, 2), config)
    train_set, _ = split_dataset(prepared, 0.5, seed=0)
    params = init_params(config, 2, seed=0)
    attrs = rep._train_attrs(params, train_set, TrainConfig(epochs=3), config)
    nodes = sum(sample.node_count for sample in train_set)
    assert attrs == {"model": "mpgnn", "width": 4, "node_units": 3 * nodes * 4}


def test_only_the_lane_threads_and_the_sweep_pool_start_threads():
    # Every multi-lane call goes through blas.on_lanes, whose executor is the
    # process's lane threads; the sweep's pool is its `workers` option. A
    # third thread pool, or a bare Thread, shows here.
    constructed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("ThreadPoolExecutor", "Thread"):
                constructed.append((path.name, name))
    assert constructed == [("blas.py", "ThreadPoolExecutor"), ("sweep.py", "ThreadPoolExecutor")]


def test_only_data_opens_a_file():
    # data.read_text and data.write_text decide every file's encoding and
    # line ends; a second opener would decide them again.
    opened = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                opened.append((path.name, "open"))
            elif isinstance(func, ast.Attribute) and func.attr in (
                "open", "read_text", "write_text", "read_bytes", "write_bytes"
            ):
                opened.append((path.name, func.attr))
    assert {name for name, _ in opened} == {"data.py"}


def _names(tree: ast.AST) -> set[str]:
    """Every name tree reads, imports or calls, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_setup_and_bounds_each_have_one_home():
    # sweep.setup builds a sweep's stats and filter reports, and
    # sweep.bounds_for builds every BoundInputs the commands report from.
    # bounds.report_from_stats is the one bound formula: bound_report and
    # report.json's recomputation both go through it.
    sweep = ast.parse((PACKAGE / "sweep.py").read_text())
    [run_sweep_on] = [
        node for node in sweep.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_sweep_on"
    ]
    assert not _names(run_sweep_on) & {"dataset_stats", "filter_norm_report"}
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    assert not _names(cli) & {"BoundInputs", "bound_report"}
    bounds = ast.parse((PACKAGE / "bounds.py").read_text())
    public = {
        node.name for node in bounds.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == {"extract_model_stats", "max_logistic_loss", "report_from_stats", "bound_report"}
    report = ast.parse((PACKAGE / "report.py").read_text())
    imported = {
        alias.name for node in report.body
        if isinstance(node, ast.ImportFrom) and node.module == "bounds" and node.level == 1
        for alias in node.names
    }
    assert imported == {"BoundReport", "report_from_stats"}
