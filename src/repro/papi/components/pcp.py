"""The PAPI PCP component — the paper's protagonist.

"The PCP component of PAPI operates by communicating with the
Performance Metrics Collector Daemon (PMCD) running on a given system.
... PAPI then queries the PMCD via the PCP component without the user
requiring any special permissions."

Event names follow Table I:
``pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87``
— a PCP metric name plus an instance qualifier selecting the socket.

The component batches: one event-set read issues a single pmFetch for
all its metrics (one daemon round trip), exactly like the real
component. The round-trip latency is charged to the node clock by the
client context, making the PCP measurement window slightly longer than
a direct perf_uncore read — the only systematic difference between the
two paths.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ...errors import PapiNoEvent, PCPError
from ...machine.node import Node
from ...pcp.session import PcpSession
from ..component import Component, NativeEventHandle
from ..consts import COMPONENT_DELIMITER
from ...pmu.events import socket_instance_cpu


@dataclasses.dataclass
class PCPEventHandle(NativeEventHandle):
    """An opened PCP event, with its name resolved once at open."""

    metric: str = ""
    instance: str = ""
    pmid: int = -1


class PCPComponent(Component):
    """PAPI component backed by a :class:`PcpSession`."""

    name = "pcp"
    description = ("Performance Co-Pilot metrics exported by PMCD "
                   "(unprivileged access to nest counters)")
    # Latency is paid inside the pmapi context (per round trip), not per
    # event — leave the generic per-read hook at zero.
    read_latency_seconds = 0.0

    def __init__(self, context: PcpSession, node: Node):
        self.context = context
        self.node = node

    # ------------------------------------------------------------------
    def list_events(self) -> List[str]:
        """Enumerate every (metric, instance) pair as a PAPI event."""
        events = []
        for metric in self.context.traverse("perfevent"):
            for socket in self.node.sockets:
                cpu = socket_instance_cpu(self.node.config, socket.socket_id)
                events.append(
                    f"{self.name}{COMPONENT_DELIMITER}{metric}:cpu{cpu}")
        return events

    def daemon_events(self) -> List[str]:
        """The daemon's pmcd.* self-metrics as addressable PAPI events.

        Kept out of :meth:`list_events` (which enumerates the paper's
        hardware counters) but fully openable: reading them measures
        the measurement infrastructure itself.
        """
        try:
            metrics = self.context.traverse("pmcd")
        except PCPError:
            return []  # daemon without self-instrumentation
        return [f"{self.name}{COMPONENT_DELIMITER}{metric}:pmcd"
                for metric in metrics]

    def daemon_overhead(self) -> Dict[str, float]:
        """Service-layer overhead counters for this component's path."""
        return self.context.daemon_overhead()

    # ------------------------------------------------------------------
    def parse_event(self, name: str) -> Tuple[str, str]:
        """Split ``pcp:::metric.path:instance`` → (metric, instance)."""
        body = self.strip_prefix(name)
        metric, sep, instance = body.rpartition(":")
        if not sep or not metric or not instance:
            raise PapiNoEvent(
                f"PCP event {name!r} must be of the form "
                f"pcp:::<metric>:<instance>"
            )
        return metric, instance

    def open_event(self, name: str) -> PCPEventHandle:
        """Resolve the metric (one lookup round trip) and check that the
        instance exists (one fetch round trip), so add_event fails fast."""
        metric, instance = self.parse_event(name)
        try:
            pmid = self.context.lookup_names([metric])[0]
        except PCPError as exc:
            raise PapiNoEvent(str(exc)) from exc
        values = self.context.fetch([pmid])[pmid]
        if instance not in values:
            raise PapiNoEvent(
                f"metric {metric!r} has no instance {instance!r}; "
                f"available: {sorted(values)}"
            )

        def reader() -> int:
            return self.context.fetch_one(metric, instance)

        return PCPEventHandle(
            name=name, reader=reader, component=self, units="bytes",
            metric=metric, instance=instance, pmid=pmid)

    def charge_reopen(self, handles: List[PCPEventHandle]) -> None:
        """Charge the round trips :meth:`open_event` makes for each
        handle, a name lookup and an instance-validation fetch, without
        making them (see :meth:`PcpSession.charge`)."""
        self.context.charge([(h.metric, h.pmid) for h in handles],
                            fetches=len(handles))

    # ------------------------------------------------------------------
    def read_events(self, handles: List[PCPEventHandle]) -> List[int]:
        """Batched read: ONE pmFetch (one round trip) for all events."""
        fetched = self.context.fetch([h.pmid for h in handles])
        out = []
        for h in handles:
            values = fetched[h.pmid]
            if h.instance not in values:
                raise PapiNoEvent(
                    f"metric {h.metric!r} lost instance {h.instance!r}")
            out.append(values[h.instance])
        return out
