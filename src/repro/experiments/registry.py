"""Experiment registry: table/figure id → reproduction callable.

Every experiment returns an :class:`ExperimentResult` — headers, rows,
and a free-form ``extras`` dict with the quantities the tests assert
on (ratios, crossovers, phase signatures). ``repro-experiments
<id>`` on the command line prints the table.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

from ..errors import ConfigurationError
from ..measure.report import format_table


@dataclasses.dataclass
class ExperimentResult:
    """The regenerated content of one table or figure."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Sequence]
    notes: str = ""
    extras: Dict = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        text = format_table(self.headers, self.rows,
                            title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += f"\n\n{self.notes}"
        return text


@dataclasses.dataclass(frozen=True)
class Experiment:
    """Registry entry."""

    experiment_id: str
    title: str
    func: Callable[..., ExperimentResult]
    paper_ref: str = ""


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment_id: str, title: str, paper_ref: str = ""):
    """Decorator adding an experiment function to the registry."""

    def wrap(func: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ConfigurationError(
                f"experiment {experiment_id!r} registered twice")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id, title=title, func=func,
            paper_ref=paper_ref)
        return func

    return wrap


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(_REGISTRY)}") from None


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    return get_experiment(experiment_id).func(**kwargs)


def all_experiments() -> List[Experiment]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _ensure_loaded() -> None:
    """Import every experiment module so the registry is populated."""
    from . import (  # noqa: F401
        ablations,
        extensions,
        gemm,
        gemv,
        profiles,
        resort,
        scale,
        tables,
    )
