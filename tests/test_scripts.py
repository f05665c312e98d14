"""Smoke runs of the experiment sweeps in ``scripts/`` at small sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, rows",
    [
        # one table row per overlap size 0, 1, 2
        ("factor2_sweep", ["--trials", "2", "--max-shared", "2", "--private", "2"], 3),
        # one table row per radius 2^-2, 2^-3
        ("necessity_sweep", ["--scales", "2:3", "--n", "30"], 2),
    ],
)
def test_sweep_prints_its_table(name, argv, rows, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + rows
    assert "False" not in "".join(lines[1:])  # every necessity check held
