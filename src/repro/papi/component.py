"""PAPI component framework.

PAPI-C's defining feature — the reason the paper can correlate memory
traffic, GPU power and network traffic "via a single API" — is its
component architecture: every hardware data source is a plug-in
exposing native events behind one uniform interface. This module
defines that interface for the simulation:

* :class:`NativeEventHandle` — one opened native event; ``read()``
  returns the raw counter value. ``instantaneous`` marks gauge-style
  events (NVML power) that report levels rather than monotonic counts.
* :class:`Component` — enumerates, parses and opens native events; may
  declare a per-access read latency charged to the node clock, and
  what opening an event costs the simulated machine.
* :class:`ComponentRegistry` — name → component lookup plus resolution
  of fully-qualified event names (``cmp:::event``).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Tuple

from ..errors import PapiNoComponent, PapiNoEvent
from .consts import COMPONENT_DELIMITER


@dataclasses.dataclass
class NativeEventHandle:
    """An opened native event bound to its data source."""

    name: str
    reader: Callable[[], int]
    component: "Component"
    #: Gauge events (e.g. power in mW) report current level, not a
    #: monotonically increasing count; EventSet.read passes the raw
    #: value through instead of computing a start-relative delta.
    instantaneous: bool = False
    #: Measurement units, for documentation/reporting.
    units: str = ""

    def read(self) -> int:
        return int(self.reader())


class Component(abc.ABC):
    """One PAPI component (a hardware data source plug-in)."""

    #: Component name as it appears before ``:::`` in event names.
    name: str = "component"
    #: Human-readable description (papi_component_avail output).
    description: str = ""
    #: Clock cost of one counter access through this component.
    read_latency_seconds: float = 0.0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def list_events(self) -> List[str]:
        """All native event names (fully qualified) this component offers."""

    @abc.abstractmethod
    def open_event(self, name: str) -> NativeEventHandle:
        """Open one event; raises PapiNoEvent / PapiPermissionDenied."""

    # ------------------------------------------------------------------
    def owns_event(self, name: str) -> bool:
        """Default ownership test: the ``cmp:::`` prefix matches."""
        return name.startswith(self.name + COMPONENT_DELIMITER)

    def is_available(self) -> Tuple[bool, str]:
        """(available?, reason-if-not) — papi_component_avail style."""
        return True, ""

    def charge_reopen(self, handles: List[NativeEventHandle]) -> None:
        """Charge the simulated cost of opening ``handles`` again,
        without opening them. Opening costs nothing by default."""

    def read_events(self, handles: List[NativeEventHandle]) -> List[int]:
        """Read several events at once.

        Subclasses with batched transports (the PCP component fetches
        every metric in one daemon round trip) override this; the
        default reads one by one.
        """
        return [h.read() for h in handles]

    def strip_prefix(self, name: str) -> str:
        prefix = self.name + COMPONENT_DELIMITER
        return name[len(prefix):] if name.startswith(prefix) else name


class ComponentRegistry:
    """All components known to one PAPI library instance."""

    def __init__(self) -> None:
        self._components: Dict[str, Component] = {}

    def register(self, component: Component) -> None:
        if component.name in self._components:
            raise PapiNoComponent(
                f"component {component.name!r} registered twice")
        self._components[component.name] = component

    def get(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise PapiNoComponent(
                f"no component named {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._components)

    def __iter__(self):
        return iter(self._components.values())

    def __len__(self) -> int:
        return len(self._components)

    # ------------------------------------------------------------------
    def resolve_event(self, event_name: str) -> Component:
        """Find the component owning a fully-qualified event name."""
        for component in self._components.values():
            if component.owns_event(event_name):
                return component
        raise PapiNoEvent(
            f"no component recognises event {event_name!r} "
            f"(components: {self.names()})"
        )
