"""Reproductions of every table and figure in the paper's evaluation.

Use :func:`run_experiment` with an id from :func:`all_experiments`
(``table1``, ``table2``, ``fig2`` ... ``fig12``, the ``ext-*``
extensions and the ``ablation-*`` ablations), or the
``repro-experiments`` command line tool. :func:`golden_mismatch`
compares an experiment with its frozen fixture.
"""

from .golden import golden_mismatch, plain_cell
from .registry import (
    Experiment,
    ExperimentResult,
    all_experiments,
    get_experiment,
    run_experiment,
)
from .registry import _ensure_loaded as _load

_load()

__all__ = [
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "golden_mismatch",
    "plain_cell",
    "run_experiment",
]
