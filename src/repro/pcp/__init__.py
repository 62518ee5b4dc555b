"""Simulated Performance Co-Pilot stack: PMNS, PMDAs, the PMCD daemon
and the client session surface (:func:`connect` / :class:`PcpSession`,
over TCP through :class:`RemoteTransport`), plus the asyncio TCP
service fabric (:mod:`~repro.pcp.aserver`), on-disk metric archives
(:mod:`~repro.pcp.archive`) and fault injection
(:mod:`~repro.pcp.faults`). The privileged perfevent PMDA is what lets
unprivileged users read nest counters — the mechanism the paper
validates."""

from .archive import ArchiveRecord, MetricArchive, rates_from_records
from .aserver import AsyncPMCDServer, FabricStats
from .faults import FaultAction, FaultInjector, FaultKind
from .pmcd import PMCD, PMCDStats, start_pmcd_for_node
from .pmda import PMDA, PerfeventPMDA, PmcdPMDA, make_pmid, pmid_domain
from .pmns import PMNS
from .protocol import (
    PROTOCOL_VERSION,
    ArchiveFetchRequest,
    ArchiveFetchResponse,
    ArchiveSample,
    ChildrenRequest,
    ChildrenResponse,
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
from .session import (
    AsyncPcpSession,
    PcpSession,
    RemoteTransport,
    SessionLogger,
    connect,
)

__all__ = [
    "ArchiveFetchRequest",
    "ArchiveFetchResponse",
    "ArchiveRecord",
    "ArchiveSample",
    "AsyncPMCDServer",
    "AsyncPcpSession",
    "ChildrenRequest",
    "ChildrenResponse",
    "FabricStats",
    "FaultAction",
    "FaultInjector",
    "FaultKind",
    "FetchRequest",
    "FetchResponse",
    "LookupRequest",
    "LookupResponse",
    "MetricArchive",
    "MetricValues",
    "OpenRequest",
    "OpenResponse",
    "PCPStatus",
    "PMCD",
    "PMCDStats",
    "PMDA",
    "PMNS",
    "PROTOCOL_VERSION",
    "PcpSession",
    "PerfeventPMDA",
    "PmcdPMDA",
    "RemoteTransport",
    "SessionLogger",
    "connect",
    "make_pmid",
    "negotiate_version",
    "pmid_domain",
    "rates_from_records",
    "start_pmcd_for_node",
]
