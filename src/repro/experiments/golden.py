"""Golden fixtures: compare experiments with their frozen JSON tables.

A fixture ``<dir>/<id>.json`` holds the experiment id, title, headers
and rows of one :class:`~repro.experiments.registry.ExperimentResult`
at the default seed, every cell in its :func:`plain_cell` form (the
``--json`` rendering of ``repro-experiments``). The golden tests and
``repro-experiments --check-golden DIR [ID ...]`` share
:func:`golden_mismatch`, so CI and the test suite apply one check.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

from .registry import ExperimentResult, run_experiment


def plain_cell(cell):
    """A table cell as JSON stores it: scalars as they are, anything
    else as its ``str``."""
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


def _first_difference(result: ExperimentResult,
                      golden: dict) -> Optional[str]:
    """The first difference between ``result`` and a loaded fixture,
    or None when id, title, headers and every row match."""
    name = golden["experiment_id"]
    for field, got in (("experiment_id", result.experiment_id),
                       ("title", result.title),
                       ("headers", list(result.headers))):
        if got != golden[field]:
            return (f"{name}: {field} differs\n got: {got!r}\n"
                    f"want: {golden[field]!r}")
    rows = [[plain_cell(c) for c in row] for row in result.rows]
    if len(rows) != len(golden["rows"]):
        return (f"{name}: {len(rows)} rows, the fixture has "
                f"{len(golden['rows'])}")
    for i, (got, want) in enumerate(zip(rows, golden["rows"])):
        if got != want:
            return (f"{name} row {i} diverged from the frozen "
                    f"measurement:\n got: {got}\nwant: {want}")
    return None


def golden_mismatch(directory: Union[str, pathlib.Path],
                    experiment_id: str) -> Optional[str]:
    """Run ``experiment_id`` and compare it with ``directory/<id>.json``.

    Returns None when it matches; otherwise the first difference, or a
    note that the fixture is missing.
    """
    path = pathlib.Path(directory) / f"{experiment_id}.json"
    try:
        with open(path) as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        return f"{experiment_id}: no fixture at {path}"
    return _first_difference(run_experiment(experiment_id), golden)
