"""Golden-figure regression: every experiment reproduces its frozen fixture.

The fig2-fig5 fixtures under ``tests/golden/`` were generated from the
seed implementation *before* the concurrent PCP service layer landed;
the other tables and figures were frozen before the memory controller
switched to closed-form channel accounting. They must keep passing
bit-exactly: the measurement path may gain batching, caching, fault
tolerance and faster bookkeeping, but it must not perturb the traffic
the paper's figures report.
"""

import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.experiments import all_experiments, golden_mismatch

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EXPERIMENTS = tuple(e.experiment_id for e in all_experiments())


@pytest.mark.parametrize("figure_id", EXPERIMENTS)
def test_figure_matches_golden(figure_id):
    mismatch = golden_mismatch(GOLDEN_DIR, figure_id)
    assert mismatch is None, mismatch


def test_fixtures_cover_all_figures():
    present = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert present == set(EXPERIMENTS)


def test_check_golden_cli_exit_codes(tmp_path, capsys):
    assert main(["--check-golden", str(GOLDEN_DIR)]) == 0
    assert f"{len(EXPERIMENTS)} of {len(EXPERIMENTS)}" in \
        capsys.readouterr().out
    shutil.copy(GOLDEN_DIR / "table1.json", tmp_path)
    assert main(["--check-golden", str(tmp_path), "table1"]) == 0
    fixture = json.loads((tmp_path / "table1.json").read_text())
    fixture["rows"][1][2] = "changed"
    (tmp_path / "table1.json").write_text(json.dumps(fixture))
    capsys.readouterr()
    assert main(["--check-golden", str(tmp_path), "table1"]) == 1
    out = capsys.readouterr().out
    assert "table1 row 1 diverged" in out and "'changed'" in out
    assert main(["--check-golden", str(tmp_path), "table2"]) == 1
    assert "no fixture" in capsys.readouterr().out
