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

import pytest

from repro.experiments import all_experiments, run_experiment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EXPERIMENTS = tuple(e.experiment_id for e in all_experiments())


def _plain(cell):
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


@pytest.mark.parametrize("figure_id", EXPERIMENTS)
def test_figure_matches_golden(figure_id):
    with open(GOLDEN_DIR / f"{figure_id}.json") as fh:
        golden = json.load(fh)
    result = run_experiment(figure_id)
    assert result.experiment_id == golden["experiment_id"]
    assert result.title == golden["title"]
    assert list(result.headers) == golden["headers"]
    rows = [[_plain(c) for c in row] for row in result.rows]
    assert len(rows) == len(golden["rows"])
    for i, (got, want) in enumerate(zip(rows, golden["rows"])):
        assert got == want, (
            f"{figure_id} row {i} diverged from the frozen "
            f"measurement:\n got: {got}\nwant: {want}")


def test_fixtures_cover_all_figures():
    present = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert present == set(EXPERIMENTS)
