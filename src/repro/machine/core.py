"""CPU core model: identity, pinning, and a simple timing model.

The experiments pin one software thread per physical core ("we pin only
one thread to each physical core"). A :class:`Core` tracks whether it is
busy (which feeds the L3 re-appropriation logic) and provides the
roofline-style timing estimate used to convert kernel work into
simulated wall-clock time — needed because the noise models are
time-proportional and the timeline profiler (Figs 11-12) is
time-resolved.
"""

from __future__ import annotations

import dataclasses

from ..errors import SimulationError
from .config import SocketConfig
from .prefetch import StreamDetector


class BusyTally:
    """Number of busy cores, shared by the cores of one socket so that
    reading it costs O(1) (:meth:`Core.mark_busy` keeps it)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@dataclasses.dataclass
class Core:
    """One physical core."""

    core_id: int        # global id on the node
    socket_id: int
    local_id: int       # index within the socket
    config: SocketConfig
    busy: bool = False  # change through mark_busy, which keeps the tally
    reserved: bool = False  # set aside for system service tasks
    tally: BusyTally = dataclasses.field(
        default_factory=BusyTally, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tally.count += self.busy
        self.detector = StreamDetector(self.config.prefetch)
        # Core-private PMU counters (unprivileged — unlike the nest).
        self.counter_cycles = 0
        self.counter_flops = 0
        self.counter_instructions = 0

    def retire_work(self, flops: float, seconds: float) -> None:
        """Account executed work into the core-private counters.

        The instruction estimate is deliberately simple (two retired
        instructions per FLOP for the scalar reference kernels: the
        arithmetic op plus its load/address update); what matters for
        the measurement layer is that the counters are core-private,
        monotonic, and readable without privilege.
        """
        if flops < 0 or seconds < 0:
            raise SimulationError("work amounts cannot be negative")
        self.counter_flops += int(flops)
        self.counter_cycles += int(seconds * self.config.core_frequency_hz)
        self.counter_instructions += int(2 * flops)

    @property
    def pair_id(self) -> int:
        """Index of the core pair (L3 slice) this core belongs to."""
        return self.local_id // self.config.cores_per_pair

    # ------------------------------------------------------------------
    def estimate_runtime(self, flops: float, mem_bytes: float,
                         active_cores_on_socket: int = 1) -> float:
        """Roofline runtime estimate for work executed on this core.

        The kernel is bound by either the core's arithmetic rate or its
        share of the socket memory bandwidth (bandwidth divides among
        active cores). Reference (unoptimised) kernels in the paper are
        far from peak; ``core_flops`` already reflects a sustained
        scalar rate.
        """
        if flops < 0 or mem_bytes < 0:
            raise SimulationError("work amounts cannot be negative")
        compute_time = flops / self.config.core_flops
        share = self.config.memory_bandwidth / max(1, active_cores_on_socket)
        memory_time = mem_bytes / share if share > 0 else 0.0
        return max(compute_time, memory_time)

    def mark_busy(self, busy: bool = True) -> None:
        if self.reserved and busy:
            raise SimulationError(
                f"core {self.core_id} is reserved for system service tasks"
            )
        self.tally.count += busy - self.busy
        self.busy = busy
