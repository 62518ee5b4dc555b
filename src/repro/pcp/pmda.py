"""Performance Metrics Domain Agents (PMDAs).

A PMDA owns a *domain* of metrics and answers fetches for them. The
agent that matters here is the **perfevent PMDA**: it is the piece IBM
deploys on Summit that opens the nest perf events *with elevated
privileges* and re-exports them as PCP metrics, so ordinary users can
read socket-wide memory-traffic counters through the daemon.

PMIDs follow PCP's encoding: ``domain << 22 | item`` (cluster folded
into the item space for simplicity).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple

from ..errors import PCPError
from ..machine.nest import NestCounterBlock
from ..machine.node import Node
from ..pmu.events import pcp_metric_name, socket_instance_cpu

PMID_DOMAIN_SHIFT = 22


def make_pmid(domain: int, item: int) -> int:
    if not 0 <= domain < 512:
        raise PCPError(f"domain {domain} out of range")
    if not 0 <= item < (1 << PMID_DOMAIN_SHIFT):
        raise PCPError(f"item {item} out of range")
    return (domain << PMID_DOMAIN_SHIFT) | item


def pmid_domain(pmid: int) -> int:
    return pmid >> PMID_DOMAIN_SHIFT


class PMDA(abc.ABC):
    """Base agent: a metric table plus a fetch callback."""

    def __init__(self, name: str, domain: int):
        self.name = name
        self.domain = domain

    @abc.abstractmethod
    def metric_table(self) -> List[Tuple[str, int]]:
        """All (metric name, pmid) pairs this agent serves."""

    @abc.abstractmethod
    def fetch(self, pmid: int) -> Dict[str, int]:
        """Current values of ``pmid``, keyed by instance name."""


class PmcdPMDA(PMDA):
    """The daemon's self-instrumentation agent.

    Real pmcd serves its own ``pmcd.*`` metrics through the same fetch
    path as every other agent; this mirrors that. Request counts,
    lookup-cache behaviour, fetch coalescing and service latency become
    ordinary PCP metrics with the single instance ``"pmcd"``, so the
    daemon overhead the paper's Table 2 quantifies is measurable
    through the very path that incurs it.
    """

    DEFAULT_DOMAIN = 2  # the real pmcd's PCP domain number

    #: metric suffix -> reader(pmcd) returning an int.
    _READERS = (
        ("pmcd.requests.total", lambda d: d.stats.requests),
        ("pmcd.lookup.total", lambda d: d.stats.lookups),
        ("pmcd.lookup.cache_hits", lambda d: d.stats.lookup_cache_hits),
        ("pmcd.lookup.cache_misses", lambda d: d.stats.lookup_cache_misses),
        ("pmcd.fetch.total", lambda d: d.stats.fetches),
        ("pmcd.fetch.pmda_calls", lambda d: d.stats.pmda_fetch_calls),
        ("pmcd.errors.total", lambda d: d.stats.errors),
        ("pmcd.restarts.total", lambda d: d.stats.restarts),
        ("pmcd.state.generation", lambda d: d.generation),
        ("pmcd.state.boot", lambda d: d.boot_id),
        ("pmcd.service.coalesced",
         lambda d: _service_stat(d, "coalesced")),
        ("pmcd.service.max_queue_depth",
         lambda d: _service_stat(d, "max_queue_depth")),
        ("pmcd.service.latency_max_usec",
         lambda d: _service_stat(d, "latency_max_usec")),
    )

    def __init__(self, pmcd, domain: int = DEFAULT_DOMAIN):
        super().__init__("pmcd", domain)
        self._pmcd = pmcd
        self._by_pmid = {}
        self._names: List[Tuple[str, int]] = []
        for item, (metric, reader) in enumerate(self._READERS):
            pmid = make_pmid(domain, item)
            self._by_pmid[pmid] = reader
            self._names.append((metric, pmid))

    def metric_table(self) -> List[Tuple[str, int]]:
        return list(self._names)

    def fetch(self, pmid: int) -> Dict[str, int]:
        try:
            reader = self._by_pmid[pmid]
        except KeyError:
            raise PCPError(f"pmcd PMDA does not serve pmid {pmid}") from None
        return {"pmcd": int(reader(self._pmcd))}


def _service_stat(pmcd, key: str) -> int:
    """Read one TCP service-layer counter (0 for in-process daemons)."""
    stats = getattr(pmcd, "service_stats", None)
    return 0 if stats is None else int(getattr(stats, key))


class PerfeventPMDA(PMDA):
    """Exports one node's nest counters as PCP metrics.

    The agent is constructed with privileged access to the node's nest
    blocks — this mirrors PMCD running as root on Summit. Each metric
    has one instance per socket, named after the socket's last hardware
    thread (``cpu87``/``cpu175``), matching the instance qualifiers in
    the paper's Table I.
    """

    DEFAULT_DOMAIN = 127  # the real perfevent PMDA's PCP domain number

    def __init__(self, node: Node, domain: int = DEFAULT_DOMAIN):
        super().__init__("perfevent", domain)
        self.node = node
        # Per PMID, resolved once: the event name and every socket's
        # (instance name, nest block), so a fetch formats no strings.
        self._metrics: Dict[
            int, Tuple[str, List[Tuple[str, NestCounterBlock]]]] = {}
        self._names: List[Tuple[str, int]] = []
        instances = [
            (f"cpu{socket_instance_cpu(node.config, socket.socket_id)}",
             socket.nest)
            for socket in node.sockets]
        item = 0
        for channel in range(node.config.socket.n_memory_channels):
            for write in (False, True):
                pmid = make_pmid(domain, item)
                direction = "WRITE" if write else "READ"
                self._metrics[pmid] = (
                    f"PM_MBA{channel}_{direction}_BYTES", instances)
                self._names.append((pcp_metric_name(channel, write), pmid))
                item += 1

    # ------------------------------------------------------------------
    def metric_table(self) -> List[Tuple[str, int]]:
        return list(self._names)

    def fetch(self, pmid: int) -> Dict[str, int]:
        try:
            event, instances = self._metrics[pmid]
        except KeyError:
            raise PCPError(f"perfevent PMDA does not serve pmid {pmid}") from None
        # The PMDA holds the privileged handle — this read succeeds
        # even though the *user* on Summit is unprivileged.
        return {instance: nest.read_event(event, privileged=True)
                for instance, nest in instances}
