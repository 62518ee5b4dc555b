"""Kernel execution engines: analytic traffic laws, exact cache-level
simulation, and the node executor. See DESIGN.md §3."""

from .analytic import (
    CacheContext,
    cache_fit_fraction,
    combine,
    reused_read,
    sequential_read,
    sequential_write,
    strided_access,
)
from .envconfig import default_segment_rows
from .exact import ExactEngine
from .executor import ExecutionRecord, Executor
from .loopnest import AffineAccess, LoopNest
from .pipeline import PipelinedExactEngine
from .stream import Access, StreamDecl, interleave, resolve_policies
from .trace import KernelModel, kernel_fingerprint
from .tracecache import TraceCache, cached_exact_trace

__all__ = [
    "Access",
    "AffineAccess",
    "CacheContext",
    "LoopNest",
    "ExactEngine",
    "ExecutionRecord",
    "Executor",
    "KernelModel",
    "PipelinedExactEngine",
    "StreamDecl",
    "TraceCache",
    "cached_exact_trace",
    "default_segment_rows",
    "kernel_fingerprint",
    "cache_fit_fraction",
    "combine",
    "interleave",
    "resolve_policies",
    "reused_read",
    "sequential_read",
    "sequential_write",
    "strided_access",
]
