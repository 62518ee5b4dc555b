"""PAPI event sets.

An event set groups native events that are started, read and stopped
together. As in PAPI-C, **an event set is bound to exactly one
component** — correlating sources (nest + NVML + InfiniBand, Figs
11-12) therefore takes one event set per component, all started before
the region of interest. The state machine matches the C library:

``add_event`` (stopped only) → ``start`` → ``read``/``reset`` →
``stop`` → values; ``PAPI_EISRUN``/``PAPI_ENOTRUN`` violations raise
their typed exceptions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..errors import (
    PapiInvalidArgument,
    PapiIsRunning,
    PapiNotRunning,
)
from .component import Component, NativeEventHandle
from .consts import PAPI_RUNNING, PAPI_STOPPED

if TYPE_CHECKING:  # pragma: no cover
    from .papi import Papi


class EventSet:
    """A group of co-scheduled native events from one component."""

    def __init__(self, papi: "Papi"):
        self._papi = papi
        self._handles: List[NativeEventHandle] = []
        self._component: Optional[Component] = None
        self._state = PAPI_STOPPED
        self._start_values: List[int] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> int:
        return self._state

    @property
    def running(self) -> bool:
        return self._state == PAPI_RUNNING

    @property
    def component(self) -> Optional[Component]:
        return self._component

    @property
    def event_names(self) -> List[str]:
        return [h.name for h in self._handles]

    def __len__(self) -> int:
        return len(self._handles)

    # ------------------------------------------------------------------
    def add_event(self, name: str) -> None:
        """Add one native event by fully-qualified name.

        The first event binds the set to its component; mixing
        components in one set raises ``PAPI_EINVAL`` exactly like the C
        library's per-component event sets.
        """
        if self.running:
            raise PapiIsRunning("cannot add events while counting")
        component = self._papi.components.resolve_event(name)
        if self._component is not None and component is not self._component:
            raise PapiInvalidArgument(
                f"event set is bound to component "
                f"{self._component.name!r}; {name!r} belongs to "
                f"{component.name!r} — use one event set per component"
            )
        handle = component.open_event(name)
        self._handles.append(handle)
        self._component = component

    def add_events(self, names: List[str]) -> None:
        for name in names:
            self.add_event(name)

    def charge_reopen(self) -> None:
        """Charge what adding this set's events anew would cost the
        simulated machine, and keep the set as it is: reusing a set
        then leaves the machine as rebuilding it would."""
        if self.running:
            raise PapiIsRunning("cannot re-add events while counting")
        if self._component is not None:
            self._component.charge_reopen(self._handles)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin counting: snapshot current raw values."""
        if self.running:
            raise PapiIsRunning("event set already started")
        if not self._handles:
            raise PapiInvalidArgument("cannot start an empty event set")
        self._start_values = self._read_raw()
        self._state = PAPI_RUNNING

    def read(self) -> List[int]:
        """Counts since start (raw level for instantaneous events)."""
        if not self.running:
            raise PapiNotRunning("event set is not counting")
        return self._relative(self._read_raw())

    def reset(self) -> None:
        """Zero the counts (re-snapshot) without stopping."""
        if not self.running:
            raise PapiNotRunning("event set is not counting")
        self._start_values = self._read_raw()

    def accum(self, values: List[int]) -> List[int]:
        """PAPI_accum: add counts since start into ``values`` and reset.

        Returns the updated list (also mutated in place, matching the
        C API's output-parameter behaviour).
        """
        if not self.running:
            raise PapiNotRunning("event set is not counting")
        if len(values) != len(self._handles):
            raise PapiInvalidArgument(
                f"accum buffer has {len(values)} slots for "
                f"{len(self._handles)} events")
        raw = self._read_raw()
        for i, count in enumerate(self._relative(raw)):
            values[i] += count
        self._start_values = raw
        return values

    def stop(self) -> List[int]:
        """Stop counting and return final counts since start."""
        if not self.running:
            raise PapiNotRunning("event set is not counting")
        values = self._relative(self._read_raw())
        self._state = PAPI_STOPPED
        return values

    def read_dict(self) -> Dict[str, int]:
        """``read`` keyed by event name (convenience)."""
        return dict(zip(self.event_names, self.read()))

    def stop_dict(self) -> Dict[str, int]:
        names = self.event_names
        return dict(zip(names, self.stop()))

    def cleanup(self) -> None:
        """Remove all events (stopped sets only)."""
        if self.running:
            raise PapiIsRunning("stop the event set before cleanup")
        self._handles.clear()
        self._component = None
        self._start_values = []

    # ------------------------------------------------------------------
    def _read_raw(self) -> List[int]:
        assert self._component is not None
        latency = self._component.read_latency_seconds
        if latency > 0.0:
            self._papi.node.advance(latency)
        return self._component.read_events(self._handles)

    def _relative(self, raw: List[int]) -> List[int]:
        out = []
        for handle, value, start in zip(self._handles, raw,
                                        self._start_values):
            out.append(value if handle.instantaneous else value - start)
        return out
