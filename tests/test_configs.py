"""The config files and command lines the repository ships: README's ```ini
blocks and experiments/*.cfg build as their commands build them, and README's
`gnnbound ...` lines parse, so a renamed key, flag or option fails here rather
than in a reader's copy."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from gnnbound import cli
from gnnbound.models import ModelKind
from gnnbound.report import ROW_COLUMNS
from gnnbound.sweep import COORDINATE_COLUMNS, run_sweep_on, setup
from test_acceptance import trend_sweep_config

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = sorted((ROOT / "experiments").glob("*.cfg"))

# Each README command section's config, built as that command builds it.
BUILDERS = {
    "gen-data": cli._synth_config_from_file,
    "train": lambda path: cli._sweep_config(path, cli.TRAIN_TABLE, **cli._TRAIN_DEFAULTS),
    "sweep": lambda path: cli._sweep_config(path, cli.SWEEP_TABLE),
}


def readme_ini_blocks() -> list[tuple[str, str]]:
    """(command, text) of every ```ini block of README.md, where command
    names the `### <command> — ...` section the block is in."""
    blocks, command, block = [], None, None
    for line in (ROOT / "README.md").read_text().splitlines(keepends=True):
        if block is not None:
            if line.startswith("```"):
                blocks.append((command, "".join(block)))
                block = None
            else:
                block.append(line)
        elif line.startswith("### "):
            command = line.split()[1]
        elif line.startswith("```ini"):
            block = []
    return blocks


def readme_command_lines() -> list[str]:
    """Every `gnnbound ...` line of README.md's ```bash blocks, once with and
    once without each `[...]` part."""
    lines, in_bash = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash and line.startswith("gnnbound "):
            parts = re.split(r"\[([^\]]*)\]", line)
            for chosen in itertools.product(*[("", part) for part in parts[1::2]]):
                words = itertools.chain.from_iterable(zip(parts[::2], (*chosen, "")))
                lines.append("".join(words))
    return lines


def test_readme_command_lines_parse(capsys):
    lines = readme_command_lines()
    assert len(lines) >= 6
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README.md: {line!r} does not parse")
        # argparse takes a prefix of a flag for the flag, so each must be named in full.
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([argv[0], "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert {word for word in argv if word.startswith("--")} <= flags, line


def test_readme_ini_blocks_are_valid_config_files(tmp_path):
    blocks = readme_ini_blocks()
    assert sorted(command for command, _ in blocks) == sorted(BUILDERS)
    for command, text in blocks:
        path = tmp_path / f"{command}.cfg"
        path.write_text(text)
        BUILDERS[command](path)


def test_experiments_are_sweep_configs():
    assert EXPERIMENTS, "experiments/ holds no config"
    for path in EXPERIMENTS:
        cli._sweep_config(path, cli.SWEEP_TABLE)


@pytest.mark.parametrize("model", list(ModelKind))
def test_width_grid_is_the_acceptance_grid(model):
    config = cli._sweep_config(ROOT / "experiments" / "width-grid.cfg", cli.SWEEP_TABLE)
    assert config.models == tuple(ModelKind)
    assert dataclasses.replace(config, models=(model,)) == trend_sweep_config(model)


def test_experiments_run_cut_short():
    start = time.perf_counter()
    for path in EXPERIMENTS:
        config = cli._sweep_config(path, cli.SWEEP_TABLE)
        config = dataclasses.replace(
            config, widths=config.widths[:2], seeds=config.seeds[:1],
            train=dataclasses.replace(config.train, epochs=2),
        )
        dataset, stats, filter_reports = setup(config)
        rows = run_sweep_on(dataset, config, stats=stats, filter_reports=filter_reports)
        assert rows
        for row in rows:
            outcomes = [getattr(row, column) for column in ROW_COLUMNS
                        if column not in COORDINATE_COLUMNS]
            assert all(math.isfinite(value) for value in outcomes), row
    assert time.perf_counter() - start <= 10.0
