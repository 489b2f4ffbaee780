"""The command line reads and writes UTF-8 whatever the locale: under an
ASCII locale it writes the same files as under UTF-8, and opens a non-ASCII
path that a UTF-8 config names."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gnnbound.data import GraphDataset, save_dataset
from gnnbound.synth import make_dataset, preset_config

SRC = Path(__file__).resolve().parent.parent / "src"
NAME = "größe"
SWEEP = "# Breite über alle Größen\nbetas = 0.5\nwidths = 2, 4\nseeds = 0\nepochs = 2\n"


def gnnbound(*argv, utf8: bool) -> subprocess.CompletedProcess:
    """Run the command line under the C locale, with Python's UTF-8 mode on or
    off: off, the locale's encoding is ASCII."""
    path = os.environ.get("PYTHONPATH")
    env = {
        **{key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"},
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
        "PYTHONUTF8": str(int(utf8)),
        "LC_ALL": "C",
    }
    done = subprocess.run([sys.executable, "-m", "gnnbound.cli", *map(str, argv)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("ascii", "backslashreplace")
    return done


@pytest.fixture
def dataset_file(tmp_path) -> Path:
    """A tiny dataset named größe, in a file whose path the ASCII locale can open."""
    path = tmp_path / "data.json"
    preset = make_dataset(preset_config("er5", n_graphs=8, feature_dim=2))
    save_dataset(GraphDataset(preset.samples, NAME), path)
    return path


def _without_wall_times(directory: Path) -> dict[str, object]:
    """Every artifact of a report directory, wall_time_s taken out of the rows."""
    rows = (directory / "rows.csv").read_text(encoding="utf-8").splitlines()
    document = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    for row in document["rows"]:
        del row["wall_time_s"]
    files = {path.name: path.read_bytes() for path in directory.glob("*.svg")}
    return {
        "rows": [line.rsplit(",", 1)[0] for line in rows],
        "summary.csv": (directory / "summary.csv").read_bytes(),
        "report.json": document,
        **files,
    }


def test_an_ascii_locale_writes_what_utf8_writes(tmp_path, dataset_file):
    config = tmp_path / "run.cfg"
    config.write_text(f"dataset = {dataset_file}\n" + SWEEP, encoding="utf-8")
    outputs = {}
    for utf8 in (True, False):
        out = tmp_path / f"utf8-{int(utf8)}"
        gnnbound("sweep", "--config", config, "--out", out / "sweep", utf8=utf8)
        gnnbound("report", "--rows", out / "sweep" / "rows.csv", "--out", out / "report", utf8=utf8)
        outputs[utf8] = _without_wall_times(out / "sweep")
        assert any(name.endswith(".svg") for name in outputs[utf8])
        assert NAME in (out / "sweep" / "summary.csv").read_text(encoding="utf-8")
        for name in ("rows.csv", "summary.csv"):
            assert (out / "report" / name).read_bytes() == (out / "sweep" / name).read_bytes()
        for svg in (out / "sweep").glob("*.svg"):
            assert (out / "report" / svg.name).read_bytes() == svg.read_bytes()
    assert outputs[False] == outputs[True]


@pytest.mark.parametrize("utf8, shown", [(True, NAME), (False, r"gr\xf6\xdfe")])
def test_train_prints_a_name_its_stdout_cannot_encode_in_escapes(
    tmp_path, dataset_file, utf8, shown
):
    config = tmp_path / "train.cfg"
    config.write_text(f"dataset = {dataset_file}\nwidth = 2\nepochs = 1\n", encoding="utf-8")
    stdout = gnnbound("train", "--config", config, utf8=utf8).stdout
    assert f"dataset = {shown}\n" in stdout.decode("utf-8")


def test_a_config_names_a_dataset_path_the_locale_cannot_encode(tmp_path):
    # Under the ASCII locale the file system encoding cannot encode größe, so
    # the path is opened by its UTF-8 bytes, the ones this process wrote.
    dataset = tmp_path / f"{NAME}.json"
    save_dataset(make_dataset(preset_config("er5", n_graphs=8, feature_dim=2)), dataset)
    config = tmp_path / "train.cfg"
    config.write_text(f"dataset = {dataset}\nwidth = 2\nepochs = 1\n", encoding="utf-8")
    printed = {}
    for utf8 in (True, False):
        lines = gnnbound("train", "--config", config, utf8=utf8).stdout.splitlines()
        printed[utf8] = [line for line in lines if not line.startswith(b"wall_time_s = ")]
    assert b"train_risk = " in b"\n".join(printed[False])
    assert printed[False] == printed[True]
