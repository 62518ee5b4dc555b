"""Simulated POWER9-class hardware substrate.

Public surface: machine configurations (:data:`SUMMIT`, :data:`TELLICO`,
:data:`SKYLAKE`), the exact cache simulator, the stride detector and
store-bypass policy, memory controllers with nest counters, and the
assembled :class:`~repro.machine.node.Node`.
"""

from .cache import CacheSim, TrafficCounters
from .config import (
    POWER10,
    SKYLAKE,
    SUMMIT,
    TELLICO,
    CacheConfig,
    GPUConfig,
    MachineConfig,
    NICConfig,
    PrefetchConfig,
    SocketConfig,
    get_machine,
)
from .core import Core
from .hierarchy import CacheShare, L3Topology
from .memory import ChannelCounters, MemoryController
from .nest import NestCounterBlock, nest_event_names
from .node import Node, Socket
from .prefetch import SoftwarePrefetch, StreamDetector
from .store import StoreContext, StorePolicy, resolve_store_policy, store_policy_for

__all__ = [
    "CacheConfig",
    "CacheShare",
    "CacheSim",
    "ChannelCounters",
    "Core",
    "GPUConfig",
    "L3Topology",
    "MachineConfig",
    "MemoryController",
    "NICConfig",
    "NestCounterBlock",
    "Node",
    "POWER10",
    "PrefetchConfig",
    "SKYLAKE",
    "SUMMIT",
    "Socket",
    "SocketConfig",
    "SoftwarePrefetch",
    "StoreContext",
    "StorePolicy",
    "StreamDetector",
    "TELLICO",
    "TrafficCounters",
    "get_machine",
    "nest_event_names",
    "resolve_store_policy",
    "store_policy_for",
]
