"""Environment-variable knobs for the exact engines.

The streaming engines have two sizing knobs: ``REPRO_SEGMENT_ROWS``,
the rows per trace segment — every kernel's ``segments()`` and the
row slices both exact engines cut from a materialized trace — and
``REPRO_RING_DEPTH``, the slots of the pipelined engine's shared
ring. Both are validated *at parse time* with a
:class:`~repro.errors.SimulationError` naming the offending variable,
so a typo'd override fails the run immediately instead of producing a
confusing downstream numpy error.

Neither knob may change simulation *results*: segment boundaries are
invisible to the cache model (tested). They trade RSS against
per-segment overhead.

The sampling observer (``repro.papi.sampling``) adds three more:
``REPRO_SAMPLE_PERIOD`` (mean accesses per sample),
``REPRO_SAMPLE_SKID`` (fixed record skid in accesses) and
``REPRO_SAMPLE_JITTER`` (random extra skid bound). These *do* change
sampled estimates — that is their point — but never the exact
engines' results.

An explicit constructor or function argument always beats its
environment default; the variable is read only when the argument is
``None``.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import SimulationError

#: Rows per trace segment (``KernelModel.segments()``, the exact
#: engines' row slices).
SEGMENT_ROWS_ENV = "REPRO_SEGMENT_ROWS"
#: Slots in the pipelined engine's shared-memory segment ring.
RING_DEPTH_ENV = "REPRO_RING_DEPTH"
#: Mean sample period (accesses per sample) of the sampling observer.
SAMPLE_PERIOD_ENV = "REPRO_SAMPLE_PERIOD"
#: Fixed skid (in accesses) of the sampling observer's record position.
SAMPLE_SKID_ENV = "REPRO_SAMPLE_SKID"
#: Extra random skid bound (in accesses) on top of the fixed skid.
SAMPLE_JITTER_ENV = "REPRO_SAMPLE_JITTER"

DEFAULT_SEGMENT_ROWS = 1 << 20
DEFAULT_RING_DEPTH = 4
DEFAULT_SAMPLE_PERIOD = 64


def positive_int(value, name: str) -> int:
    """Validate ``value`` as a positive integer; clear error otherwise."""
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        raise SimulationError(
            f"{name} must be a positive integer, got {value!r}"
        ) from None
    if parsed <= 0:
        raise SimulationError(
            f"{name} must be a positive integer, got {value!r}")
    return parsed


def nonnegative_int(value, name: str) -> int:
    """Validate ``value`` as an integer >= 0; clear error otherwise."""
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        raise SimulationError(
            f"{name} must be a non-negative integer, got {value!r}"
        ) from None
    if parsed < 0:
        raise SimulationError(
            f"{name} must be a non-negative integer, got {value!r}")
    return parsed


def _env_positive_int(env: str, default: int) -> int:
    raw = os.environ.get(env)
    if raw is None or raw == "":
        return default
    return positive_int(raw, f"environment variable {env}")


def _env_nonnegative_int(env: str, default: int) -> int:
    raw = os.environ.get(env)
    if raw is None or raw == "":
        return default
    return nonnegative_int(raw, f"environment variable {env}")


def default_segment_rows() -> int:
    """Rows per trace segment (``REPRO_SEGMENT_ROWS`` or built-in)."""
    return _env_positive_int(SEGMENT_ROWS_ENV, DEFAULT_SEGMENT_ROWS)


def resolve_segment_rows(target_rows: Optional[int]) -> int:
    """Explicit segment size, or the env/built-in default when None."""
    if target_rows is None:
        return default_segment_rows()
    return positive_int(target_rows, "target_rows")


def default_ring_depth() -> int:
    """Segment-ring slots (``REPRO_RING_DEPTH`` or built-in)."""
    return _env_positive_int(RING_DEPTH_ENV, DEFAULT_RING_DEPTH)


def default_sample_period() -> int:
    """Mean accesses per sample (``REPRO_SAMPLE_PERIOD`` or built-in)."""
    return _env_positive_int(SAMPLE_PERIOD_ENV, DEFAULT_SAMPLE_PERIOD)


def default_sample_skid() -> int:
    """Fixed record skid in accesses (``REPRO_SAMPLE_SKID`` or 0)."""
    return _env_nonnegative_int(SAMPLE_SKID_ENV, 0)


def default_sample_skid_jitter() -> int:
    """Random extra skid bound (``REPRO_SAMPLE_JITTER`` or 0)."""
    return _env_nonnegative_int(SAMPLE_JITTER_ENV, 0)
