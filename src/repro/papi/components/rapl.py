"""RAPL-style CPU package energy component (extension).

PAPI's ``rapl``/``powercap`` components expose package energy counters
on x86; POWER systems offer equivalent OCC sensors. The simulated
socket derives package power from its activity — idle floor plus a
dynamic term per busy core — and integrates it into a monotonically
increasing energy counter in microjoules (RAPL semantics), perfect for
event-set delta measurement.

Event spelling: ``rapl:::PACKAGE_ENERGY:PACKAGE{n}``.
"""

from __future__ import annotations

import re
from typing import List

from ...errors import PapiNoEvent
from ...machine.node import Node
from ..component import Component, NativeEventHandle

_EVENT_RE = re.compile(r"^PACKAGE_ENERGY:PACKAGE(?P<socket>\d+)$")

#: Idle package power (W) and dynamic power per busy core (W).
IDLE_PACKAGE_W = 60.0
PER_CORE_W = 8.0


class PackageEnergyModel:
    """Integrates socket power over simulated time.

    Registers a clock listener on the node: every clock step adds
    ``power · dt`` with the power level the socket had *during* the
    interval (kernel executors keep cores marked busy while they
    advance the clock), so measurement windows bracketing a kernel see
    both the idle floor and the dynamic per-core energy. An advance of
    ``steps`` equal steps adds its ``steps`` equal increments one by
    one, as ``steps`` single advances would.
    """

    def __init__(self, node: Node, socket_id: int):
        self.node = node
        self.socket_id = socket_id
        self._energy_uj = 0.0
        node.on_advance(self._integrate)

    def current_power_w(self) -> float:
        busy = self.node.socket(self.socket_id).active_core_count
        return IDLE_PACKAGE_W + PER_CORE_W * busy

    def _integrate(self, dt: float, steps: int) -> None:
        increment = self.current_power_w() * dt * 1e6
        energy = self._energy_uj
        for _ in range(steps):
            energy += increment
        self._energy_uj = energy

    def read_uj(self) -> int:
        return int(self._energy_uj)


class RaplComponent(Component):
    """Package-energy counters per socket."""

    name = "rapl"
    description = "Package energy (microjoules, monotonic; extension)"
    read_latency_seconds = 1.0e-5

    def __init__(self, node: Node):
        self.node = node
        self._models = [PackageEnergyModel(node, s)
                        for s in range(node.config.n_sockets)]

    # ------------------------------------------------------------------
    def list_events(self) -> List[str]:
        return [f"{self.name}:::PACKAGE_ENERGY:PACKAGE{s}"
                for s in range(self.node.config.n_sockets)]

    def open_event(self, name: str) -> NativeEventHandle:
        body = self.strip_prefix(name)
        m = _EVENT_RE.match(body)
        if not m:
            raise PapiNoEvent(
                f"bad rapl event {name!r}; expected "
                "rapl:::PACKAGE_ENERGY:PACKAGE<n>")
        socket_id = int(m.group("socket"))
        if not 0 <= socket_id < len(self._models):
            raise PapiNoEvent(f"no package {socket_id} on this node")
        model = self._models[socket_id]
        return NativeEventHandle(
            name=name, reader=model.read_uj, component=self, units="uJ")
