"""Smoke runs of the experiment sweeps in ``scripts/`` at small sizes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from siolab.measure import shared_point_indices

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


def test_factor2_sweep_zeroes_the_coincident_entries(monkeypatch, capsys):
    # the class the "bounded by 2" claim covers: free coincident entries
    # enter the operator norm but never the restricted one
    script = load_script("factor2_sweep")
    solved = []
    operator_norm_p2 = script.forms.operator_norm_p2

    def spy(km):
        solved.append(km)
        return operator_norm_p2(km)

    monkeypatch.setattr(script.forms, "operator_norm_p2", spy)
    assert script.main(["--trials", "3", "--max-shared", "3", "--private", "2"]) == 0
    assert max(len(shared_point_indices(km.mu.points, km.nu.points)[0]) for km in solved) == 3
    for km in solved:
        idx_mu, idx_nu = shared_point_indices(km.mu.points, km.nu.points)
        assert np.all(km.entries[idx_nu, idx_mu] == 0)
        assert np.count_nonzero(km.entries) == km.entries.size - len(idx_mu)
