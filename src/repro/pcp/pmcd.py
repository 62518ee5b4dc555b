"""The Performance Metrics Collector Daemon (PMCD).

"The PMCD runs with the special privileges needed to query the nest
hardware counters. PAPI then queries the PMCD via the PCP component
without the user requiring any special permissions."

:class:`PMCD` registers PMDAs, builds the PMNS from their metric
tables, and serves protocol requests. Every request costs a simulated
round-trip latency, charged to the *client's* node clock by the client
context — this is the indirection overhead whose effect on measurement
accuracy the paper quantifies (and finds negligible for large
problems).

Service-layer state beyond the seed daemon:

* a monotonically increasing ``generation`` (bumped whenever the
  metric namespace changes) that clients use to invalidate cached
  lookups,
* a ``boot_id`` (bumped by :meth:`PMCD.restart`) that lets clients
  detect a daemon crash as a measurement *gap* instead of silently
  mixing counter epochs,
* a daemon-side lookup cache keyed on the request's name tuple, and
* :class:`PMCDStats` counters that the ``pmcd.*`` self-metrics PMDA
  re-exports, so daemon overhead is itself measurable through PAPI —
  the paper's Table 2 overhead analysis as a live metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import PCPError
from ..machine.node import Node
from .pmda import PMDA, PerfeventPMDA, PmcdPMDA, pmid_domain
from .pmns import PMNS
from .protocol import (
    ArchiveFetchRequest,
    ArchiveFetchResponse,
    ArchiveSample,
    ChildrenRequest,
    ChildrenResponse,
    ErrorResponse,
    FetchRequest,
    FetchResponse,
    LookupRequest,
    LookupResponse,
    MetricValues,
    OpenRequest,
    OpenResponse,
    PCPStatus,
    negotiate_version,
)


class PMCDStats:
    """Daemon-side request counters (exported via the pmcd.* PMDA)."""

    __slots__ = ("requests", "lookups", "fetches", "children", "errors",
                 "lookup_cache_hits", "lookup_cache_misses",
                 "pmda_fetch_calls", "restarts", "opens", "archive_fetches")

    def __init__(self) -> None:
        self.requests = 0
        self.lookups = 0
        self.fetches = 0
        self.children = 0
        self.errors = 0
        self.lookup_cache_hits = 0
        self.lookup_cache_misses = 0
        #: Individual PMDA ``fetch`` invocations — strictly less than
        #: the naive per-request count once the TCP service layer
        #: coalesces concurrent fetches.
        self.pmda_fetch_calls = 0
        self.restarts = 0
        #: v2 protocol handshakes served.
        self.opens = 0
        #: Archive replay requests served.
        self.archive_fetches = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PMCD:
    """The collector daemon for one host."""

    #: One daemon round trip as seen by a local client (seconds). This
    #: is the dominant fixed cost of the PCP measurement path.
    DEFAULT_ROUND_TRIP = 2.5e-3

    def __init__(self, hostname: str = "localhost",
                 round_trip_seconds: float = DEFAULT_ROUND_TRIP):
        self.hostname = hostname
        self.round_trip_seconds = round_trip_seconds
        self.pmns = PMNS()
        self._agents: Dict[int, PMDA] = {}
        self._fetch_count = 0
        self.running = True
        self.generation = 0
        self.boot_id = 0
        self.stats = PMCDStats()
        #: Optional :class:`~repro.pcp.aserver.FabricStats` attached by
        #: the TCP service layer (exported via pmcd.service.* metrics).
        self.service_stats = None
        #: Optional :class:`~repro.pcp.archive.MetricArchive` serving
        #: ArchiveFetchRequest replay (attach via :meth:`attach_archive`).
        self.archive = None
        self._lookup_cache: Dict[Tuple[str, ...], LookupResponse] = {}

    # ------------------------------------------------------------------
    def register_agent(self, agent: PMDA) -> None:
        """Install a PMDA and splice its metrics into the PMNS."""
        if agent.domain in self._agents:
            raise PCPError(
                f"domain {agent.domain} already owned by "
                f"{self._agents[agent.domain].name}"
            )
        self._agents[agent.domain] = agent
        for name, pmid in agent.metric_table():
            self.pmns.register(name, pmid)
        self._bump_generation()

    def attach_archive(self, archive) -> None:
        """Attach a :class:`~repro.pcp.archive.MetricArchive` so this
        daemon answers archive-replay requests (v2 protocol)."""
        self.archive = archive

    @property
    def agents(self) -> List[PMDA]:
        return list(self._agents.values())

    @property
    def fetch_count(self) -> int:
        """Number of fetch PDUs served (diagnostics/tests)."""
        return self._fetch_count

    def _bump_generation(self) -> None:
        self.generation += 1
        self._lookup_cache.clear()

    def restart(self) -> None:
        """Simulate a daemon crash + restart.

        In-memory caches are lost and the boot id changes, so clients
        observe a measurement *gap* (via the ``boot_id`` on fetch
        responses) rather than silently continuing. The PMNS survives
        because agents re-register deterministically on boot.
        """
        self.stats.restarts += 1
        self.boot_id += 1
        self.running = True
        self._bump_generation()

    # ------------------------------------------------------------------
    def handle(self, request):
        """Dispatch one protocol request; never raises to the client."""
        self.stats.requests += 1
        if not self.running:
            self.stats.errors += 1
            return ErrorResponse(PCPStatus.PM_ERR_PERMISSION, "pmcd not running")
        if isinstance(request, LookupRequest):
            return self._handle_lookup(request)
        if isinstance(request, FetchRequest):
            return self._handle_fetch(request)
        if isinstance(request, ChildrenRequest):
            return self._handle_children(request)
        if isinstance(request, OpenRequest):
            return self._handle_open(request)
        if isinstance(request, ArchiveFetchRequest):
            return self._handle_archive_fetch(request)
        self.stats.errors += 1
        return ErrorResponse(PCPStatus.PM_ERR_PMID,
                             f"unknown request type {type(request).__name__}")

    # ------------------------------------------------------------------
    def _handle_lookup(self, request: LookupRequest) -> LookupResponse:
        self.stats.lookups += 1
        cached = self._lookup_cache.get(request.names)
        if cached is not None:
            self.stats.lookup_cache_hits += 1
            return cached
        self.stats.lookup_cache_misses += 1
        pmids = []
        statuses = []
        for name in request.names:
            try:
                pmids.append(self.pmns.lookup(name))
                statuses.append(PCPStatus.OK)
            except Exception:
                pmids.append(-1)
                statuses.append(PCPStatus.PM_ERR_NAME)
        overall = (PCPStatus.OK if all(s == PCPStatus.OK for s in statuses)
                   else PCPStatus.PM_ERR_NAME)
        response = LookupResponse(status=overall, pmids=tuple(pmids),
                                  name_status=tuple(statuses),
                                  generation=self.generation)
        self._lookup_cache[request.names] = response
        return response

    def _handle_fetch(self, request: FetchRequest) -> FetchResponse:
        self._fetch_count += 1
        self.stats.fetches += 1
        metrics = []
        for pmid in request.pmids:
            agent = self._agents.get(pmid_domain(pmid))
            if agent is None:
                return FetchResponse(status=PCPStatus.PM_ERR_PMID,
                                     generation=self.generation,
                                     boot_id=self.boot_id)
            try:
                self.stats.pmda_fetch_calls += 1
                values = agent.fetch(pmid)
            except PCPError:
                return FetchResponse(status=PCPStatus.PM_ERR_PMID,
                                     generation=self.generation,
                                     boot_id=self.boot_id)
            metrics.append(MetricValues(pmid=pmid, values=values))
        return FetchResponse(status=PCPStatus.OK,
                             timestamp=self._timestamp(),
                             metrics=tuple(metrics),
                             generation=self.generation,
                             boot_id=self.boot_id)

    def _handle_open(self, request: OpenRequest) -> OpenResponse:
        """v2 handshake: answer with the negotiated protocol version."""
        self.stats.opens += 1
        version = negotiate_version(request.version)
        return OpenResponse(status=PCPStatus.OK, version=version,
                            hostname=self.hostname,
                            generation=self.generation,
                            boot_id=self.boot_id)

    def _handle_archive_fetch(self, request: ArchiveFetchRequest):
        """v2 archive replay: serve records from the attached archive."""
        self.stats.archive_fetches += 1
        if self.archive is None:
            return ArchiveFetchResponse(status=PCPStatus.PM_ERR_NODATA,
                                        generation=self.generation)
        try:
            records = self.archive.records(
                t0=request.t0, t1=request.t1,
                metrics=list(request.metrics) or None)
        except PCPError as exc:  # corruption: fail the request, not us
            self.stats.errors += 1
            return ErrorResponse(PCPStatus.PM_ERR_NODATA, str(exc))
        samples = tuple(
            ArchiveSample(
                timestamp=record.timestamp,
                values={f"{metric}|{instance}": value
                        for (metric, instance), value
                        in sorted(record.values.items())},
                gap=record.gap,
            )
            for record in records
        )
        return ArchiveFetchResponse(status=PCPStatus.OK, samples=samples,
                                    generation=self.generation)

    def _handle_children(self, request: ChildrenRequest) -> ChildrenResponse:
        self.stats.children += 1
        try:
            pairs = self.pmns.children(request.prefix)
        except Exception:
            return ChildrenResponse(status=PCPStatus.PM_ERR_NAME,
                                    generation=self.generation)
        return ChildrenResponse(
            status=PCPStatus.OK,
            children=tuple(name for name, _ in pairs),
            leaf_flags=tuple(leaf for _, leaf in pairs),
            generation=self.generation,
        )

    def _timestamp(self) -> float:
        # Use the first agent's node clock when available (perfevent
        # PMDA); a standalone daemon reports 0.
        for agent in self._agents.values():
            node = getattr(agent, "node", None)
            if node is not None:
                return node.clock
        return 0.0


def start_pmcd_for_node(node: Node,
                        round_trip_seconds: Optional[float] = None,
                        self_metrics: bool = True) -> PMCD:
    """Boot a PMCD serving ``node``'s nest counters via perfevent.

    This is what IBM's deployment on Summit amounts to: a privileged
    daemon exporting the otherwise-restricted nest events to user space.
    ``self_metrics`` additionally registers the daemon's own ``pmcd.*``
    agent (as real pmcd does), making service overhead measurable
    through the same path.
    """
    pmcd = PMCD(
        hostname=node.config.name,
        round_trip_seconds=(PMCD.DEFAULT_ROUND_TRIP
                            if round_trip_seconds is None
                            else round_trip_seconds),
    )
    pmcd.register_agent(PerfeventPMDA(node))
    if self_metrics:
        pmcd.register_agent(PmcdPMDA(pmcd))
    return pmcd
