"""perf_event-style direct access to the nest counters.

This is the *privileged* measurement path used on Tellico, where "we do
have elevated privileges, so we measure nest events without the use of
PCP. We define the perf_uncore events using the Nest IMC Memory
Offsets". Opening an uncore event checks the caller's privilege the
same way the kernel's ``perf_event_paranoid`` setting would: ordinary
users on Summit get :class:`~repro.errors.PrivilegeError`, which is
precisely why the PCP component exists.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional

from ..errors import PrivilegeError, SimulationError
from ..machine.node import Node
from .events import socket_of_cpu

# Channel and cpu numbers are canonical ASCII decimals: ``\d`` would
# also take other scripts' digits, and leading zeros would alias.
_NUMBER = r"(?:0|[1-9][0-9]*)"
_UNCORE_RE = re.compile(
    rf"^power9_nest_mba(?P<pmu_ch>{_NUMBER})::"
    rf"(?P<event>PM_MBA(?P<ev_ch>{_NUMBER})_(?P<dir>READ|WRITE)_BYTES)"
    rf"(?::cpu=(?P<cpu>{_NUMBER}))?$"
)


@dataclasses.dataclass(frozen=True)
class UncoreEventSpec:
    """Parsed ``power9_nest_mbaX::PM_MBAX_*_BYTES:cpu=N`` event."""

    channel: int
    write: bool
    cpu: int
    raw: str

    @property
    def counter_name(self) -> str:
        direction = "WRITE" if self.write else "READ"
        return f"PM_MBA{self.channel}_{direction}_BYTES"


def parse_uncore_event(name: str) -> UncoreEventSpec:
    """Parse and validate a perf_uncore nest event name."""
    m = _UNCORE_RE.match(name.strip())
    if not m:
        raise SimulationError(f"unrecognised uncore event name: {name!r}")
    pmu_ch = int(m.group("pmu_ch"))
    ev_ch = int(m.group("ev_ch"))
    if pmu_ch != ev_ch:
        raise SimulationError(
            f"event channel {ev_ch} does not match PMU channel {pmu_ch} "
            f"in {name!r}"
        )
    return UncoreEventSpec(
        channel=pmu_ch,
        write=m.group("dir") == "WRITE",
        cpu=int(m.group("cpu") or 0),
        raw=name,
    )


class PerfUncoreHandle:
    """An opened uncore counter (like a perf_event file descriptor)."""

    def __init__(self, node: Node, spec: UncoreEventSpec):
        self.node = node
        self.spec = spec
        self.socket_id = socket_of_cpu(node.config, spec.cpu)

    def read(self) -> int:
        """Raw (monotonic) counter value; requires privilege per read."""
        nest = self.node.socket(self.socket_id).nest
        return nest.read_event(self.spec.counter_name,
                               privileged=self.node.user_privileged)


def open_uncore_event(node: Node, name: str) -> PerfUncoreHandle:
    """Open a nest uncore event for direct reading.

    Raises :class:`PrivilegeError` when the simulated user lacks the
    elevated privileges required for socket-wide counters (Summit).
    """
    spec = parse_uncore_event(name)
    if not node.user_privileged:
        raise PrivilegeError(
            f"perf_event_open({name!r}) denied: uncore PMUs require "
            "elevated privileges on this system"
        )
    if spec.channel >= node.config.socket.n_memory_channels:
        raise SimulationError(
            f"channel {spec.channel} beyond this socket's "
            f"{node.config.socket.n_memory_channels} memory channels"
        )
    return PerfUncoreHandle(node, spec)


def read_socket_traffic(node: Node, socket_id: int,
                        privileged: Optional[bool] = None) -> dict:
    """Convenience: sum all channels of one socket (read, write) bytes.

    Used by tests and by the PMDA; honours the privilege gate unless a
    ``privileged`` override is supplied (the PMDA holds a privileged
    handle by construction).
    """
    priv = node.user_privileged if privileged is None else privileged
    nest = node.socket(socket_id).nest
    totals = {"read_bytes": 0, "write_bytes": 0}
    for name in nest.event_names:
        value = nest.read_event(name, privileged=priv)
        if "WRITE" in name:
            totals["write_bytes"] += value
        else:
            totals["read_bytes"] += value
    return totals
